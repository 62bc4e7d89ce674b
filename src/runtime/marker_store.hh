/**
 * @file
 * Functional marker state over a whole network.
 *
 * Used by the golden-model reference interpreter and the baseline
 * simulators.  The SNAP machine model keeps its own per-cluster
 * bit-packed tables (arch/kb_image); this class is the flat,
 * machine-independent equivalent: 64 complex markers (float value +
 * origin binding) and 64 binary markers per node (paper Fig. 4).
 *
 * A query uses a handful of the 128 planes, so the store keeps a
 * touched-plane mask: every mutator marks the plane it writes, and
 * reset() clears only the marked planes.  An unmarked plane is always
 * in its freshly constructed state (no bit set, no value plane), so a
 * reset costs what was written since the last one, and every plane
 * reads after it exactly as in a new store.
 */

#ifndef SNAP_RUNTIME_MARKER_STORE_HH
#define SNAP_RUNTIME_MARKER_STORE_HH

#include <cstdint>
#include <vector>

#include "common/bitvector.hh"
#include "common/types.hh"
#include "isa/function.hh"

namespace snap
{

/** Flat marker state: 128 marker planes over N nodes. */
class MarkerStore
{
  public:
    explicit MarkerStore(std::uint32_t num_nodes)
        : numNodes_(num_nodes),
          bits_(capacity::numMarkers, BitVector(num_nodes)),
          values_(capacity::numComplexMarkers)
    {}

    std::uint32_t numNodes() const { return numNodes_; }

    bool
    test(MarkerId m, NodeId n) const
    {
        return bits_[m].test(n);
    }

    /** Set the marker bit only (value untouched). */
    void
    setBit(MarkerId m, NodeId n)
    {
        touch(m);
        bits_[m].set(n);
    }

    /** Set bit and, for complex markers, the value register. */
    void
    set(MarkerId m, NodeId n, float value, NodeId origin)
    {
        touch(m);
        bits_[m].set(n);
        if (isComplexMarker(m)) {
            auto &vals = plane(m);
            vals[n].value = value;
            vals[n].origin = origin;
        }
    }

    void
    clear(MarkerId m, NodeId n)
    {
        touch(m);
        bits_[m].clear(n);
    }

    /** Value register (0 for binary markers). */
    float
    value(MarkerId m, NodeId n) const
    {
        if (!isComplexMarker(m) || values_[m].empty())
            return 0.0f;
        return values_[m][n].value;
    }

    NodeId
    origin(MarkerId m, NodeId n) const
    {
        if (!isComplexMarker(m) || values_[m].empty())
            return invalidNode;
        return values_[m][n].origin;
    }

    void
    setValue(MarkerId m, NodeId n, float value, NodeId origin)
    {
        touch(m);
        if (isComplexMarker(m)) {
            auto &vals = plane(m);
            vals[n].value = value;
            vals[n].origin = origin;
        }
    }

    /** Direct row access for word-parallel boolean ops.  The mutable
     *  overload marks the plane touched: read through a const store
     *  to leave the mask alone. */
    BitVector &
    bits(MarkerId m)
    {
        touch(m);
        return bits_[m];
    }
    const BitVector &bits(MarkerId m) const { return bits_[m]; }

    std::uint32_t count(MarkerId m) const { return bits_[m].count(); }

    void
    clearAll(MarkerId m)
    {
        touch(m);
        bits_[m].clearAll();
    }

    /** True if plane @p m was written since the last reset(). */
    bool
    touched(MarkerId m) const
    {
        return (touched_[m / 64] >> (m % 64)) & 1u;
    }

    /** Clear every touched plane (bit row and value plane) and empty
     *  the mask. */
    void
    reset()
    {
        for (std::uint32_t w = 0; w < 2; ++w) {
            for (std::uint64_t t = touched_[w]; t; t &= t - 1) {
                const auto m = static_cast<MarkerId>(
                    w * 64 + static_cast<std::uint32_t>(
                                 __builtin_ctzll(t)));
                bits_[m].clearAll();
                if (isComplexMarker(m))
                    values_[m].clear();
            }
            touched_[w] = 0;
        }
    }

  private:
    void
    touch(MarkerId m)
    {
        touched_[m / 64] |= std::uint64_t{1} << (m % 64);
    }

    /** Lazily allocated value plane for complex marker @p m. */
    std::vector<MarkerValue> &
    plane(MarkerId m)
    {
        auto &vals = values_[m];
        if (vals.empty())
            vals.resize(numNodes_);
        return vals;
    }

    std::uint32_t numNodes_;
    std::vector<BitVector> bits_;
    std::vector<std::vector<MarkerValue>> values_;
    static_assert(capacity::numMarkers == 2 * 64);
    /** Planes written since the last reset(): bit m % 64 of word
     *  m / 64 (complex planes in word 0, binary in word 1). */
    std::uint64_t touched_[2] = {0, 0};
};

} // namespace snap

#endif // SNAP_RUNTIME_MARKER_STORE_HH
