/**
 * @file
 * Sparse session state (runtime/sparse_markers) and its capture from
 * and install into the per-cluster marker tables (arch/kb_image).
 *
 * The oracles are the dense paths: KbImage::flatten() and
 * restoreMarkers(), and the per-node point accessors markerSet /
 * markerValue / markerOrigin, which read the cluster tables one node
 * at a time.  Random states are seeded and cover the plane edges
 * (0, 63 — the last complex plane — 64 and 127), the node edges (0
 * and N-1), and complex planes whose value registers still hold
 * stale values on cleared bits.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "arch/kb_image.hh"
#include "common/rng.hh"
#include "fault/fault_plan.hh"
#include "runtime/sparse_markers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

constexpr std::uint32_t kNodes = 2000;

MachineConfig
imageConfig(std::uint32_t clusters, PartitionStrategy strategy)
{
    MachineConfig cfg;
    cfg.numClusters = clusters;
    cfg.partition = strategy;
    return cfg;
}

std::uint32_t
floatBits(float v)
{
    std::uint32_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/**
 * Scatter a seeded random marker state over @p image's cluster
 * tables, then clear a share of the complex entries again so their
 * value registers hold stale values on cleared bits.
 */
void
scatterState(KbImage &image, std::uint64_t seed)
{
    Rng rng(seed);
    const std::uint32_t n = image.numNodes();
    auto put = [&](MarkerId m, NodeId node) {
        Placement p = image.place(node);
        image.cluster(p.cluster)
            .markers()
            .set(m, p.local,
                 static_cast<float>(rng.below(4001)) / 16.0f - 125.0f,
                 static_cast<NodeId>(rng.below(n)));
    };
    for (MarkerId m : {MarkerId{0}, MarkerId{63}, MarkerId{64},
                       MarkerId{127}}) {
        put(m, 0);
        put(m, n - 1);
    }
    for (int i = 0; i < 1500; ++i) {
        put(static_cast<MarkerId>(rng.below(capacity::numMarkers)),
            static_cast<NodeId>(rng.below(n)));
    }
    // A plane filled solid, and a plane set and then wiped.
    for (NodeId node = 0; node < n; ++node)
        put(17, node);
    put(40, 5);
    for (int i = 0; i < 300; ++i) {
        auto m = static_cast<MarkerId>(
            rng.below(capacity::numComplexMarkers));
        auto node = static_cast<NodeId>(rng.below(n));
        Placement p = image.place(node);
        image.cluster(p.cluster).markers().clear(m, p.local);
    }
    Placement p5 = image.place(5);
    image.cluster(p5.cluster).markers().clear(40, p5.local);
}

/** Every node of every plane, read through the point accessors. */
void
expectMatchesImage(const SparseMarkers &s, const KbImage &image)
{
    ASSERT_EQ(s.numNodes(), image.numNodes());
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        for (NodeId n = 0; n < image.numNodes(); ++n) {
            ASSERT_EQ(s.test(mid, n), image.markerSet(mid, n))
                << "m" << m << " node " << n;
            if (!image.markerSet(mid, n) || !isComplexMarker(mid))
                continue;
            EXPECT_EQ(floatBits(s.value(mid, n)),
                      floatBits(image.markerValue(mid, n)))
                << "m" << m << " node " << n;
            EXPECT_EQ(s.origin(mid, n), image.markerOrigin(mid, n))
                << "m" << m << " node " << n;
        }
    }
}

/** The structural invariants the wire codec relies on. */
void
expectWellFormed(const SparseMarkers &s)
{
    int prev = -1;
    for (const SparseMarkers::Plane &plane : s.planes()) {
        EXPECT_GT(static_cast<int>(plane.marker), prev);
        prev = plane.marker;
        ASSERT_FALSE(plane.nodes.empty()) << "m" << prev;
        for (std::size_t k = 1; k < plane.nodes.size(); ++k)
            ASSERT_LT(plane.nodes[k - 1], plane.nodes[k]);
        EXPECT_LT(plane.nodes.back(), s.numNodes());
        EXPECT_EQ(plane.values.size(), isComplexMarker(plane.marker)
                                           ? plane.nodes.size()
                                           : 0u);
    }
}

/** Bit-for-bit equality of two images' cluster tables, value
 *  registers on cleared bits included. */
void
expectSameTables(const KbImage &a, const KbImage &b)
{
    ASSERT_EQ(a.numClusters(), b.numClusters());
    for (ClusterId c = 0; c < a.numClusters(); ++c) {
        const MarkerStore &ma = a.cluster(c).markers();
        const MarkerStore &mb = b.cluster(c).markers();
        for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
            auto mid = static_cast<MarkerId>(m);
            ASSERT_TRUE(ma.bits(mid) == mb.bits(mid))
                << "cluster " << c << " m" << m;
            for (LocalNodeId l = 0; l < ma.numNodes(); ++l) {
                ASSERT_EQ(floatBits(ma.value(mid, l)),
                          floatBits(mb.value(mid, l)))
                    << "cluster " << c << " m" << m << " local " << l;
                ASSERT_EQ(ma.origin(mid, l), mb.origin(mid, l))
                    << "cluster " << c << " m" << m << " local " << l;
            }
        }
    }
}

struct Layout
{
    std::uint32_t clusters;
    PartitionStrategy strategy;
    const char *name;
};

class SparseCaptureTest : public ::testing::TestWithParam<Layout>
{
  protected:
    SemanticNetwork net_ = makeTreeKb(kNodes, 4);
    MachineConfig cfg_ =
        imageConfig(GetParam().clusters, GetParam().strategy);
};

TEST_P(SparseCaptureTest, CaptureMatchesFlattenAndThePointAccessors)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        KbImage image(net_, cfg_);
        scatterState(image, seed);
        SparseMarkers s = image.captureMarkers();
        expectWellFormed(s);
        expectMatchesImage(s, image);
        MarkerStore flat = image.flatten();
        EXPECT_TRUE(markersEquivalent(s.toDense(), flat));
        // The dense-to-sparse conversion agrees with the capture.
        SparseMarkers from_dense(flat);
        EXPECT_TRUE(markersEquivalent(from_dense.toDense(), flat));
        EXPECT_EQ(from_dense.numEntries(), s.numEntries());
        // Stale registers on cleared bits are not captured.
        EXPECT_FALSE(s.test(40, 5));
    }
}

TEST_P(SparseCaptureTest, InstallMatchesRestoreMarkers)
{
    for (std::uint64_t seed : {4u, 5u}) {
        KbImage src(net_, cfg_);
        scatterState(src, seed);
        const SparseMarkers s = src.captureMarkers();

        // Both targets start dirty: install must replace, not merge.
        KbImage via_install(net_, cfg_);
        KbImage via_restore(net_, cfg_);
        scatterState(via_install, seed + 100);
        scatterState(via_restore, seed + 200);
        via_install.installMarkers(s);
        via_restore.restoreMarkers(src.flatten());
        expectSameTables(via_install, via_restore);
        expectMatchesImage(s, via_install);

        // Capture after install is a fixed point.
        SparseMarkers again = via_install.captureMarkers();
        EXPECT_TRUE(markersEquivalent(again.toDense(), s.toDense()));
        EXPECT_EQ(again.numEntries(), s.numEntries());
    }
}

TEST_P(SparseCaptureTest, EmptyStateInstallsAsAReset)
{
    KbImage image(net_, cfg_);
    scatterState(image, 9);
    image.installMarkers(SparseMarkers(image.numNodes()));
    KbImage fresh(net_, cfg_);
    expectSameTables(image, fresh);
    EXPECT_TRUE(image.captureMarkers().planes().empty());
}

INSTANTIATE_TEST_SUITE_P(
    Partitions, SparseCaptureTest,
    ::testing::Values(
        Layout{16, PartitionStrategy::Semantic, "Semantic16"},
        Layout{8, PartitionStrategy::RoundRobin, "RoundRobin8"}),
    [](const ::testing::TestParamInfo<Layout> &info) {
        return std::string(info.param.name);
    });

TEST(SparseMarkers, PointQueriesAndDenseRoundTrip)
{
    MarkerStore dense(130);
    dense.set(0, 0, 1.5f, 7);
    dense.set(0, 129, -2.25f, invalidNode);
    dense.setBit(64, 63);
    dense.setBit(127, 129);
    // A binary entry on a complex plane (no value register written).
    dense.setBit(63, 64);

    SparseMarkers s(dense);
    ASSERT_EQ(s.planes().size(), 4u);
    EXPECT_EQ(s.numEntries(), 5u);
    EXPECT_TRUE(s.test(0, 129));
    EXPECT_FALSE(s.test(0, 1));
    EXPECT_FALSE(s.test(1, 0));
    EXPECT_FLOAT_EQ(s.value(0, 129), -2.25f);
    EXPECT_EQ(s.origin(0, 0), 7u);
    EXPECT_EQ(s.value(63, 64), 0.0f);
    EXPECT_EQ(s.origin(63, 64), invalidNode);
    EXPECT_EQ(s.value(64, 63), 0.0f);
    EXPECT_EQ(s.origin(64, 63), invalidNode);
    EXPECT_TRUE(markersEquivalent(s.toDense(), dense));
}

} // namespace
} // namespace snap
