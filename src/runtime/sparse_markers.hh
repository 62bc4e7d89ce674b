/**
 * @file
 * Sparse marker state: only the set entries, over global node ids.
 *
 * A session's marker state between turns is a few hundred set
 * entries on a handful of planes, while a dense MarkerStore over the
 * whole network is 128 bit planes plus 64 value planes (~768 KB at
 * 16K nodes).  This type holds what is set and nothing else: per
 * non-empty plane, ascending global node ids, and for complex planes
 * the value register and origin of each entry — 4 B per binary entry
 * and 12 B per complex entry.  It is the shape the session wire codec
 * writes (shard/protocol encodeMarkers), the form the serve engine's
 * SessionStore keeps, and what KbImage captures from and installs
 * into the per-cluster tables directly.
 */

#ifndef SNAP_RUNTIME_SPARSE_MARKERS_HH
#define SNAP_RUNTIME_SPARSE_MARKERS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/function.hh"
#include "runtime/marker_store.hh"

namespace snap
{

class SparseMarkers
{
  public:
    /** One non-empty marker plane. */
    struct Plane
    {
        MarkerId marker = 0;
        /** Global node ids holding the marker, strictly ascending. */
        std::vector<NodeId> nodes;
        /** Complex planes: value + origin of each entry, parallel to
         *  nodes.  Empty for binary planes. */
        std::vector<MarkerValue> values;
    };

    SparseMarkers() = default;
    explicit SparseMarkers(std::uint32_t num_nodes)
        : numNodes_(num_nodes)
    {}

    /** Sparse copy of dense state (checkpoints, tests and other
     *  callers holding a MarkerStore).  Deliberately implicit: it is
     *  the one conversion from the dense form. */
    SparseMarkers(const MarkerStore &dense);

    /** Dense copy over all numNodes() nodes. */
    MarkerStore toDense() const;

    std::uint32_t numNodes() const { return numNodes_; }

    /** Non-empty planes in ascending marker order. */
    const std::vector<Plane> &planes() const { return planes_; }

    /**
     * Append plane @p m for the caller to fill.  Marker ids must
     * ascend across calls; the caller keeps the plane invariants
     * (non-empty, ascending nodes < numNodes(), values parallel to
     * nodes exactly when @p m is complex).
     */
    Plane &addPlane(MarkerId m);

    /** Set entries over all planes. */
    std::size_t numEntries() const;

    // --- point queries (tests and checkpoint tools) --------------------

    bool test(MarkerId m, NodeId n) const;
    /** Value register (0 when unset or binary). */
    float value(MarkerId m, NodeId n) const;
    /** Origin (invalidNode when unset or binary). */
    NodeId origin(MarkerId m, NodeId n) const;

  private:
    /** Entry of (m, n): plane and index, or nullptr when unset. */
    const Plane *find(MarkerId m, NodeId n, std::size_t &idx) const;

    std::uint32_t numNodes_ = 0;
    std::vector<Plane> planes_;
};

} // namespace snap

#endif // SNAP_RUNTIME_SPARSE_MARKERS_HH
