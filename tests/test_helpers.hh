/**
 * @file
 * Shared helpers for the test suite.
 */

#ifndef SNAP_TESTS_TEST_HELPERS_HH
#define SNAP_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "arch/machine.hh"
#include "runtime/marker_store.hh"
#include "runtime/reference.hh"
#include "runtime/results.hh"

namespace snap
{
namespace test
{

/** Compare two result sets after sorting node/link order. */
inline void
expectSameResults(ResultSet a, ResultSet b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i].sortNodes();
        b[i].sortNodes();
        EXPECT_EQ(a[i].op, b[i].op) << "result " << i;
        ASSERT_EQ(a[i].nodes.size(), b[i].nodes.size())
            << "result " << i;
        for (std::size_t k = 0; k < a[i].nodes.size(); ++k) {
            EXPECT_EQ(a[i].nodes[k].node, b[i].nodes[k].node)
                << "result " << i << " item " << k;
            EXPECT_FLOAT_EQ(a[i].nodes[k].value, b[i].nodes[k].value)
                << "result " << i << " item " << k << " node "
                << a[i].nodes[k].node;
            EXPECT_EQ(a[i].nodes[k].origin, b[i].nodes[k].origin)
                << "result " << i << " item " << k << " node "
                << a[i].nodes[k].node;
        }
        ASSERT_EQ(a[i].links.size(), b[i].links.size())
            << "result " << i;
        for (std::size_t k = 0; k < a[i].links.size(); ++k) {
            EXPECT_EQ(a[i].links[k], b[i].links[k])
                << "result " << i << " link " << k;
        }
    }
}

/** Compare full marker state: machine image vs golden store. */
inline void
expectSameMarkers(const KbImage &image, const MarkerStore &golden,
                  std::uint32_t num_nodes)
{
    MarkerStore flat = image.flatten();
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        for (NodeId n = 0; n < num_nodes; ++n) {
            ASSERT_EQ(flat.test(mid, n), golden.test(mid, n))
                << "marker m" << m << " at node " << n;
            if (flat.test(mid, n) && isComplexMarker(mid)) {
                EXPECT_FLOAT_EQ(flat.value(mid, n),
                                golden.value(mid, n))
                    << "marker m" << m << " value at node " << n;
                EXPECT_EQ(flat.origin(mid, n), golden.origin(mid, n))
                    << "marker m" << m << " origin at node " << n;
            }
        }
    }
}

// --- digests for recorded goldens --------------------------------------
//
// FNV-1a over every observable field, in a fixed order, with floats
// and doubles hashed by bit pattern: a golden pinned as a digest
// fails on any change in any field, including FP accumulation order.

inline std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    return h * 0x100000001b3ull;
}

inline std::uint64_t
floatBits(float f)
{
    std::uint32_t u;
    std::memcpy(&u, &f, sizeof(u));
    return u;
}

inline std::uint64_t
doubleBits(double d)
{
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ull;

/** Retrieval results, in the order the machine returned them. */
inline std::uint64_t
digestResults(const ResultSet &rs)
{
    std::uint64_t h = fnvBasis;
    for (const CollectResult &r : rs) {
        h = fnv(h, static_cast<std::uint64_t>(r.op));
        h = fnv(h, r.marker);
        h = fnv(h, r.color);
        h = fnv(h, r.rel);
        for (const CollectedNode &n : r.nodes) {
            h = fnv(h, n.node);
            h = fnv(h, floatBits(n.value));
            h = fnv(h, n.origin);
        }
        for (const CollectedLink &l : r.links) {
            h = fnv(h, l.src);
            h = fnv(h, l.rel);
            h = fnv(h, l.dst);
            h = fnv(h, floatBits(l.weight));
        }
    }
    return h;
}

inline std::uint64_t
digestDistribution(std::uint64_t h, const stats::Distribution &d)
{
    h = fnv(h, d.count());
    h = fnv(h, doubleBits(d.sum()));
    h = fnv(h, doubleBits(d.variance()));
    h = fnv(h, doubleBits(d.min()));
    return fnv(h, doubleBits(d.max()));
}

/** Every field of a run's statistics breakdown. */
inline std::uint64_t
digestBreakdown(const ExecBreakdown &b)
{
    std::uint64_t h = fnv(fnvBasis, b.wallTicks);
    for (std::size_t c = 0; c < ExecBreakdown::numCats; ++c) {
        h = fnv(h, b.categoryTicks(static_cast<InstrCategory>(c)));
        h = fnv(h, b.categoryBusy[c]);
        h = fnv(h, b.categoryCounts[c]);
    }
    for (std::uint64_t n : b.opcodeCounts)
        h = fnv(h, n);
    for (std::uint64_t v :
         {b.broadcastTicks, b.commTicks, b.syncTicks, b.collectTicks,
          b.messagesSent, b.messageHops, b.arrivalsProcessed,
          b.localDeliveries, b.expansions, b.linkTraversals,
          b.barriers, b.collects, b.collectedItems, b.puBusyTicks,
          b.muBusyTicks, std::uint64_t{b.maxDepth}})
        h = fnv(h, v);
    h = fnv(h, b.msgsPerEpoch.size());
    for (std::uint32_t m : b.msgsPerEpoch)
        h = fnv(h, m);
    h = digestDistribution(h, b.alphaDist);
    return digestDistribution(h, b.msgLatency);
}

/** Final marker planes over global nodes [0, num_nodes), including
 *  value registers and origins on complex planes. */
inline std::uint64_t
digestMarkers(const MarkerStore &ms, std::uint32_t num_nodes)
{
    std::uint64_t h = fnvBasis;
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        auto mid = static_cast<MarkerId>(m);
        for (NodeId n = 0; n < num_nodes; ++n) {
            if (!ms.test(mid, n))
                continue;
            h = fnv(h, (std::uint64_t{m} << 32) | n);
            if (isComplexMarker(mid)) {
                h = fnv(h, floatBits(ms.value(mid, n)));
                h = fnv(h, ms.origin(mid, n));
            }
        }
    }
    return h;
}

/** Text digest (component-statistics rendering). */
inline std::uint64_t
digestText(const std::string &s)
{
    std::uint64_t h = fnvBasis;
    for (unsigned char c : s)
        h = fnv(h, c);
    return h;
}

} // namespace test
} // namespace snap

#endif // SNAP_TESTS_TEST_HELPERS_HH
