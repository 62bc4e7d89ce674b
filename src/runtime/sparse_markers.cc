#include "runtime/sparse_markers.hh"

#include <algorithm>

#include "common/logging.hh"

namespace snap
{

SparseMarkers::SparseMarkers(const MarkerStore &dense)
    : numNodes_(dense.numNodes())
{
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        const auto mid = static_cast<MarkerId>(m);
        const BitVector &bits = dense.bits(mid);
        if (bits.none())
            continue;
        Plane &plane = addPlane(mid);
        const bool complex = isComplexMarker(mid);
        bits.forEachSet([&](std::uint32_t n) {
            plane.nodes.push_back(n);
            if (complex) {
                plane.values.push_back(
                    {dense.value(mid, n), dense.origin(mid, n)});
            }
        });
    }
}

MarkerStore
SparseMarkers::toDense() const
{
    MarkerStore dense(numNodes_);
    for (const Plane &plane : planes_) {
        for (std::size_t k = 0; k < plane.nodes.size(); ++k) {
            if (plane.values.empty()) {
                dense.setBit(plane.marker, plane.nodes[k]);
            } else {
                dense.set(plane.marker, plane.nodes[k],
                          plane.values[k].value,
                          plane.values[k].origin);
            }
        }
    }
    return dense;
}

SparseMarkers::Plane &
SparseMarkers::addPlane(MarkerId m)
{
    snap_assert(m < capacity::numMarkers, "marker %u out of range",
                static_cast<unsigned>(m));
    snap_assert(planes_.empty() || planes_.back().marker < m,
                "sparse planes must ascend (plane %u after %u)",
                static_cast<unsigned>(m),
                static_cast<unsigned>(planes_.back().marker));
    planes_.emplace_back();
    planes_.back().marker = m;
    return planes_.back();
}

std::size_t
SparseMarkers::numEntries() const
{
    std::size_t n = 0;
    for (const Plane &plane : planes_)
        n += plane.nodes.size();
    return n;
}

const SparseMarkers::Plane *
SparseMarkers::find(MarkerId m, NodeId n, std::size_t &idx) const
{
    auto pit = std::lower_bound(
        planes_.begin(), planes_.end(), m,
        [](const Plane &p, MarkerId key) { return p.marker < key; });
    if (pit == planes_.end() || pit->marker != m)
        return nullptr;
    auto nit = std::lower_bound(pit->nodes.begin(), pit->nodes.end(), n);
    if (nit == pit->nodes.end() || *nit != n)
        return nullptr;
    idx = static_cast<std::size_t>(nit - pit->nodes.begin());
    return &*pit;
}

bool
SparseMarkers::test(MarkerId m, NodeId n) const
{
    std::size_t idx = 0;
    return find(m, n, idx) != nullptr;
}

float
SparseMarkers::value(MarkerId m, NodeId n) const
{
    std::size_t idx = 0;
    const Plane *p = find(m, n, idx);
    return p && !p->values.empty() ? p->values[idx].value : 0.0f;
}

NodeId
SparseMarkers::origin(MarkerId m, NodeId n) const
{
    std::size_t idx = 0;
    const Plane *p = find(m, n, idx);
    return p && !p->values.empty() ? p->values[idx].origin
                                   : invalidNode;
}

} // namespace snap
