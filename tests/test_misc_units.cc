/**
 * @file
 * Unit tests for the remaining small components: MarkerStore,
 * statistics merging, the ActiveTimer, and the SNAP-system glue not
 * covered elsewhere.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "arch/exec_stats.hh"
#include "arch/machine.hh"
#include "runtime/marker_store.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

// --- marker store -----------------------------------------------------------

TEST(MarkerStoreTest, ComplexAndBinaryPlanes)
{
    MarkerStore ms(100);
    EXPECT_FALSE(ms.test(0, 5));
    ms.set(0, 5, 2.5f, 7);  // complex
    EXPECT_TRUE(ms.test(0, 5));
    EXPECT_FLOAT_EQ(ms.value(0, 5), 2.5f);
    EXPECT_EQ(ms.origin(0, 5), 7u);

    ms.set(64, 5, 9.0f, 8);  // binary: value/origin not stored
    EXPECT_TRUE(ms.test(64, 5));
    EXPECT_FLOAT_EQ(ms.value(64, 5), 0.0f);
    EXPECT_EQ(ms.origin(64, 5), invalidNode);
}

TEST(MarkerStoreTest, SetBitLeavesValueAlone)
{
    MarkerStore ms(10);
    ms.set(3, 2, 4.0f, 1);
    ms.setBit(3, 2);
    EXPECT_FLOAT_EQ(ms.value(3, 2), 4.0f);
}

TEST(MarkerStoreTest, UnallocatedPlaneReadsZero)
{
    MarkerStore ms(10);
    EXPECT_FLOAT_EQ(ms.value(5, 3), 0.0f);
    EXPECT_EQ(ms.origin(5, 3), invalidNode);
}

TEST(MarkerStoreTest, ClearAndCount)
{
    MarkerStore ms(40);
    for (NodeId n = 0; n < 40; n += 3)
        ms.set(2, n, 1.0f, n);
    EXPECT_EQ(ms.count(2), 14u);
    ms.clear(2, 0);
    EXPECT_EQ(ms.count(2), 13u);
    ms.clearAll(2);
    EXPECT_EQ(ms.count(2), 0u);
    // Values survive a bit clear; re-setting the bit sees them
    // only through set()'s overwrite.
    ms.set(2, 6, 7.0f, 6);
    EXPECT_FLOAT_EQ(ms.value(2, 6), 7.0f);
}

TEST(MarkerStoreTest, ResetDropsEverything)
{
    MarkerStore ms(20);
    ms.set(1, 1, 1.0f, 1);
    ms.set(65, 2, 0.0f, 2);
    ms.reset();
    EXPECT_EQ(ms.count(1), 0u);
    EXPECT_EQ(ms.count(65), 0u);
    EXPECT_FLOAT_EQ(ms.value(1, 1), 0.0f);
}

TEST(MarkerStoreTest, MaskNamesWrittenPlanesAndReadsLeaveItAlone)
{
    MarkerStore ms(70);
    const MarkerStore &ro = ms;
    ms.set(3, 4, 1.5f, 9);
    ms.setBit(70, 69);
    EXPECT_EQ(ro.bits(5).count(), 0u);
    EXPECT_EQ(ro.count(6), 0u);
    EXPECT_FLOAT_EQ(ro.value(7, 1), 0.0f);
    EXPECT_FALSE(ro.test(8, 2));
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        EXPECT_EQ(ms.touched(static_cast<MarkerId>(m)),
                  m == 3 || m == 70) << "m" << m;
    }

    ms.reset();
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m)
        EXPECT_FALSE(ms.touched(static_cast<MarkerId>(m))) << "m" << m;
    EXPECT_FALSE(ms.test(3, 4));
    EXPECT_FALSE(ms.test(70, 69));
    EXPECT_EQ(ms.origin(3, 4), invalidNode);

    // The mutable row accessor marks its plane even before a write.
    ms.bits(127);
    ms.clearAll(64);
    ms.clear(0, 1);
    ms.setValue(63, 2, 4.0f, 2);
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
        EXPECT_EQ(ms.touched(static_cast<MarkerId>(m)),
                  m == 127 || m == 64 || m == 0 || m == 63)
            << "m" << m;
    }
}

/** Random writes through every mutator, then reset(): each plane must
 *  equal a freshly built store's (bits, value, origin), and before the
 *  reset the mask names exactly the planes written. */
TEST(MarkerStoreTest, ResetRestoresEveryPlaneAfterRandomWrites)
{
    constexpr std::uint32_t kNodes = 131;  // a partial tail word
    const MarkerStore fresh(kNodes);
    MarkerStore ms(kNodes);
    std::mt19937_64 rng(0x5eed);
    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        bool written[capacity::numMarkers] = {};
        const int writes = static_cast<int>(rng() % 24);
        for (int k = 0; k < writes; ++k) {
            auto m =
                static_cast<MarkerId>(rng() % capacity::numMarkers);
            auto n = static_cast<NodeId>(rng() % kNodes);
            const float v = static_cast<float>(rng() % 100) / 4.0f;
            written[m] = true;
            switch (rng() % 7) {
              case 0: ms.set(m, n, v, n); break;
              case 1: ms.setBit(m, n); break;
              case 2: ms.clear(m, n); break;
              case 3: ms.setValue(m, n, v, n); break;
              case 4: ms.clearAll(m); break;
              case 5: ms.bits(m).setAll(); break;
              default: ms.bits(m).setWord(n / 64, rng()); break;
            }
        }
        for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
            EXPECT_EQ(ms.touched(static_cast<MarkerId>(m)), written[m])
                << "m" << m;
        }

        ms.reset();
        for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
            auto mid = static_cast<MarkerId>(m);
            EXPECT_FALSE(ms.touched(mid)) << "m" << m;
            EXPECT_EQ(ms.count(mid), 0u) << "m" << m;
            for (NodeId n = 0; n < kNodes; ++n) {
                ASSERT_EQ(ms.test(mid, n), fresh.test(mid, n))
                    << "m" << m << " n" << n;
                ASSERT_EQ(ms.value(mid, n), fresh.value(mid, n))
                    << "m" << m << " n" << n;
                ASSERT_EQ(ms.origin(mid, n), fresh.origin(mid, n))
                    << "m" << m << " n" << n;
            }
        }
    }
}

// --- ActiveTimer -----------------------------------------------------------

TEST(ActiveTimerTest, NonOverlappingIntervalsSum)
{
    ActiveTimer t;
    t.start(InstrCategory::Propagation, 100);
    t.stop(InstrCategory::Propagation, 150);
    t.start(InstrCategory::Propagation, 200);
    t.stop(InstrCategory::Propagation, 230);
    EXPECT_EQ(t.activeTicks(InstrCategory::Propagation), 80u);
    EXPECT_TRUE(t.allClosed());
}

TEST(ActiveTimerTest, OverlapCountsOnce)
{
    ActiveTimer t;
    t.start(InstrCategory::Propagation, 100);
    t.start(InstrCategory::Propagation, 120);  // nested
    t.stop(InstrCategory::Propagation, 180);
    t.stop(InstrCategory::Propagation, 200);
    EXPECT_EQ(t.activeTicks(InstrCategory::Propagation), 100u);
}

TEST(ActiveTimerTest, CategoriesIndependent)
{
    ActiveTimer t;
    t.start(InstrCategory::Boolean, 0);
    t.start(InstrCategory::SetClear, 10);
    t.stop(InstrCategory::Boolean, 20);
    t.stop(InstrCategory::SetClear, 40);
    EXPECT_EQ(t.activeTicks(InstrCategory::Boolean), 20u);
    EXPECT_EQ(t.activeTicks(InstrCategory::SetClear), 30u);
}

TEST(ActiveTimerTest, MergeClosedAdds)
{
    ActiveTimer a, b;
    a.start(InstrCategory::Search, 0);
    a.stop(InstrCategory::Search, 5);
    b.start(InstrCategory::Search, 0);
    b.stop(InstrCategory::Search, 7);
    a.mergeClosed(b);
    EXPECT_EQ(a.activeTicks(InstrCategory::Search), 12u);
}

TEST(ActiveTimerDeath, StopWithoutStartPanics)
{
    ActiveTimer t;
    EXPECT_DEATH(t.stop(InstrCategory::Search, 5), "underflow");
}

// --- ExecBreakdown merge -----------------------------------------------------

TEST(ExecBreakdownTest, MergeAccumulates)
{
    ExecBreakdown a, b;
    a.messagesSent = 3;
    a.barriers = 1;
    a.broadcastTicks = 100;
    a.msgsPerEpoch = {3};
    a.alphaDist.sample(10);
    a.maxDepth = 4;
    b.messagesSent = 5;
    b.barriers = 2;
    b.broadcastTicks = 50;
    b.msgsPerEpoch = {2, 3};
    b.alphaDist.sample(30);
    b.maxDepth = 9;

    a.merge(b);
    EXPECT_EQ(a.messagesSent, 8u);
    EXPECT_EQ(a.barriers, 3u);
    EXPECT_EQ(a.broadcastTicks, 150u);
    EXPECT_EQ(a.msgsPerEpoch,
              (std::vector<std::uint32_t>{3, 2, 3}));
    EXPECT_EQ(a.alphaDist.count(), 2u);
    EXPECT_DOUBLE_EQ(a.alphaDist.mean(), 20.0);
    EXPECT_EQ(a.maxDepth, 9u);
    EXPECT_NEAR(a.meanMsgsPerEpoch(), 8.0 / 3.0, 1e-9);
}

TEST(ExecBreakdownTest, SummaryMentionsCategories)
{
    ExecBreakdown s;
    s.wallTicks = 5 * ticksPerMs;
    std::string out = s.summary();
    EXPECT_NE(out.find("wall time"), std::string::npos);
    EXPECT_NE(out.find("propagate"), std::string::npos);
    EXPECT_NE(out.find("overheads"), std::string::npos);
}

// --- machine odds and ends ----------------------------------------------------

TEST(MachineMisc, LoadKbReplacesPrevious)
{
    SnapMachine machine(MachineConfig::singleCluster(2));
    SemanticNetwork a = makeChainKb(10);
    machine.loadKb(a);
    Program p1;
    p1.append(Instruction::setMarker(0, 1.0f));
    machine.run(p1);
    EXPECT_TRUE(machine.markerSet(0, 9));

    SemanticNetwork b = makeChainKb(6);
    machine.loadKb(b);
    EXPECT_EQ(machine.image().numNodes(), 6u);
    EXPECT_FALSE(machine.markerSet(0, 3));  // fresh tables
}

TEST(MachineMisc, EmptyProgramCompletesInstantly)
{
    SnapMachine machine(MachineConfig::singleCluster(1));
    SemanticNetwork net = makeChainKb(4);
    machine.loadKb(net);
    Program empty;
    RunResult run = machine.run(empty);
    EXPECT_TRUE(run.results.empty());
    EXPECT_EQ(run.stats.barriers, 0u);
}

TEST(MachineMisc, ConsecutiveBarriersAreCheap)
{
    SnapMachine machine(MachineConfig::paperSetup());
    SemanticNetwork net = makeChainKb(64);
    machine.loadKb(net);
    Program prog;
    for (int i = 0; i < 5; ++i)
        prog.append(Instruction::barrier());
    RunResult run = machine.run(prog);
    EXPECT_EQ(run.stats.barriers, 5u);
    EXPECT_EQ(run.stats.messagesSent, 0u);
    for (auto v : run.stats.msgsPerEpoch)
        EXPECT_EQ(v, 0u);
}

TEST(MachineMiscDeath, RunWithoutKbIsPanic)
{
    SnapMachine machine(MachineConfig::singleCluster(1));
    Program p;
    EXPECT_DEATH(machine.run(p), "no knowledge base");
}

TEST(MachineMiscDeath, BadConfigIsFatal)
{
    MachineConfig cfg;
    cfg.numClusters = 40;
    EXPECT_EXIT(SnapMachine m(cfg), ::testing::ExitedWithCode(1),
                "out of");
}

TEST(MachineMisc, PerfNetCanBeDisabled)
{
    MachineConfig cfg = MachineConfig::singleCluster(1);
    cfg.perfNetEnabled = false;
    SnapMachine machine(cfg);
    SemanticNetwork net = makeChainKb(8);
    machine.loadKb(net);
    Program p;
    p.append(Instruction::setMarker(0, 1.0f));
    machine.run(p);
    EXPECT_TRUE(machine.perfNet().records().empty());
}

} // namespace
} // namespace snap
