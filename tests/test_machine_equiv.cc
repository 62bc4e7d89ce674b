/**
 * @file
 * Randomized equivalence: for race-free programs, the SNAP machine
 * model and the sequential golden-model interpreter must produce
 * bit-identical marker state and collection results, for every
 * cluster count and partitioning strategy.
 *
 * This is the central correctness property of the reproduction: the
 * distributed, message-passing, multi-MU execution (with bursts,
 * blocking queues, and arbitrary event interleavings) converges to
 * the same unique fixpoint as sequential execution, because marker
 * merging is a monotone relaxation under a deterministic total order
 * (DESIGN.md §5.2).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "arch/machine.hh"
#include "common/rng.hh"
#include "runtime/validate.hh"
#include "tests/test_helpers.hh"
#include "workload/alpha_beta.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

/** Random race-free program over a random knowledge base. */
Program
makeRandomProgram(SemanticNetwork &net, std::uint64_t seed,
                  std::uint32_t length)
{
    Rng rng(seed);
    Program prog;

    // A pool of rules over the network's relation types.
    std::vector<RelationType> rels;
    for (RelationType r = 0; r < net.relations().size(); ++r)
        rels.push_back(r);
    snap_assert(rels.size() >= 2, "need >= 2 relation types");

    std::vector<RuleId> rules;
    for (int i = 0; i < 8; ++i) {
        RelationType r1 = rels[rng.below(rels.size())];
        RelationType r2 = rels[rng.below(rels.size())];
        PropRule rule;
        switch (rng.below(4)) {
          case 0: rule = PropRule::chain(r1); break;
          case 1: rule = PropRule::spread(r1, r2); break;
          case 2: rule = PropRule::seq(r1, r2); break;
          default: rule = PropRule::comb(r1, r2); break;
        }
        // Mix ample and *binding* step limits: the Pareto frontier
        // must keep the fixpoint order-independent even when the
        // bound cuts paths mid-cycle.
        rule.maxSteps = (i % 2 == 0) ? 40 : 2 + i / 2;
        rules.push_back(prog.addRule(std::move(rule)));
    }

    const MarkerFunc funcs[] = {MarkerFunc::AddWeight,
                                MarkerFunc::None, MarkerFunc::Count,
                                MarkerFunc::MaxWeight,
                                MarkerFunc::MinWeight};
    const CombineOp combs[] = {CombineOp::Sum, CombineOp::Min,
                               CombineOp::Max, CombineOp::First};

    auto rand_marker = [&] {
        // Mix complex (0..9) and binary (64..69) markers.
        return static_cast<MarkerId>(
            rng.chance(0.7) ? rng.below(10) : 64 + rng.below(6));
    };
    auto rand_node = [&] {
        return static_cast<NodeId>(rng.below(net.numNodes()));
    };

    std::uint32_t emitted = 0;
    while (emitted < length) {
        switch (rng.below(14)) {
          case 0:
          case 1: {  // barrier + propagate batch + barrier
            // The leading barrier closes the epoch so earlier
            // instructions touching the batch's m2 markers cannot
            // race with remote deliveries (backward hazard).
            prog.append(Instruction::barrier());
            ++emitted;
            std::uint32_t batch = 1 + rng.below(3);
            std::vector<MarkerId> used;
            bool any = false;
            for (std::uint32_t b = 0; b < batch; ++b) {
                MarkerId m1 = rand_marker();
                MarkerId m2 = rand_marker();
                bool clash = m1 == m2;
                // Overlapped propagates must be fully independent:
                // neither marker may appear in any earlier propagate
                // of the batch (Fig. 7 discipline).
                for (MarkerId u : used)
                    if (u == m1 || u == m2)
                        clash = true;
                if (clash)
                    continue;
                used.push_back(m1);
                used.push_back(m2);
                any = true;
                prog.append(Instruction::propagate(
                    m1, m2, rules[rng.below(rules.size())],
                    funcs[rng.below(5)]));
                ++emitted;
            }
            if (any) {
                prog.append(Instruction::barrier());
                ++emitted;
            }
            break;
          }
          case 2:
            prog.append(Instruction::searchNode(
                rand_node(), rand_marker(),
                static_cast<float>(rng.uniform(0, 4))));
            ++emitted;
            break;
          case 3:
            prog.append(Instruction::searchColor(
                0, rand_marker(),
                static_cast<float>(rng.uniform(0, 2))));
            ++emitted;
            break;
          case 4:
            prog.append(Instruction::searchRelation(
                rels[rng.below(rels.size())], rand_marker(), 1.0f));
            ++emitted;
            break;
          case 5: {
            MarkerId m1 = rand_marker();
            MarkerId m2 = rand_marker();
            MarkerId m3 = rand_marker();
            if (rng.chance(0.5)) {
                prog.append(Instruction::andMarker(
                    m1, m2, m3, combs[rng.below(4)]));
            } else {
                prog.append(Instruction::orMarker(
                    m1, m2, m3, combs[rng.below(4)]));
            }
            ++emitted;
            break;
          }
          case 6:
            prog.append(Instruction::notMarker(rand_marker(),
                                               rand_marker()));
            ++emitted;
            break;
          case 7:
            if (rng.chance(0.5)) {
                prog.append(Instruction::setMarker(
                    rand_marker(),
                    static_cast<float>(rng.uniform(0, 3))));
            } else {
                prog.append(
                    Instruction::clearMarker(rand_marker()));
            }
            ++emitted;
            break;
          case 8: {
            ScalarFunc f;
            f.op = rng.chance(0.5) ? ScalarFunc::Op::Add
                                   : ScalarFunc::Op::ThresholdGe;
            f.imm = static_cast<float>(rng.uniform(0, 2));
            prog.append(
                Instruction::funcMarker(rand_marker(), f));
            ++emitted;
            break;
          }
          case 10: {
            // Node maintenance: create / delete / re-weight a link,
            // or recolor a node.  A barrier first keeps the edit out
            // of any in-flight propagation epoch.
            prog.append(Instruction::barrier());
            NodeId src = rand_node();
            NodeId dst = rand_node();
            RelationType rel = rels[rng.below(rels.size())];
            switch (rng.below(4)) {
              case 0:
                prog.append(Instruction::create(
                    src, rel, static_cast<float>(rng.uniform(0.1, 2)),
                    dst));
                break;
              case 1:
                prog.append(Instruction::del(src, rel, dst));
                break;
              case 2:
                prog.append(Instruction::setWeight(
                    src, rel, dst,
                    static_cast<float>(rng.uniform(0.1, 2))));
                break;
              default:
                prog.append(Instruction::setColor(
                    src, static_cast<Color>(rng.below(3))));
                break;
            }
            emitted += 2;
            break;
          }
          case 11: {
            // Marker maintenance: bind marked nodes to an end node
            // (spawns LinkCreate/LinkDelete messages), bracketed by
            // barriers so the link edits are race free.
            prog.append(Instruction::barrier());
            MarkerId m = rand_marker();
            RelationType fwd = rels[0];
            RelationType rev = rels[1];
            NodeId end = rand_node();
            if (rng.chance(0.6)) {
                prog.append(
                    Instruction::markerCreate(m, fwd, end, rev));
            } else {
                prog.append(
                    Instruction::markerDelete(m, fwd, end, rev));
            }
            prog.append(Instruction::barrier());
            emitted += 3;
            break;
          }
          case 12:
            prog.append(Instruction::markerSetColor(
                rand_marker(), static_cast<Color>(rng.below(3))));
            ++emitted;
            break;
          case 13:
            prog.append(Instruction::collectColor(
                static_cast<Color>(rng.below(3))));
            ++emitted;
            break;
          default:
            if (rng.chance(0.6)) {
                prog.append(
                    Instruction::collectMarker(rand_marker()));
            } else {
                prog.append(Instruction::collectRelation(
                    rand_marker(), rels[rng.below(rels.size())]));
            }
            ++emitted;
            break;
        }
    }
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(0));
    prog.append(Instruction::collectMarker(64));
    return prog;
}

struct EquivCase
{
    std::uint32_t clusters;
    PartitionStrategy strategy;
    std::uint64_t seed;
};

class MachineEquiv : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(MachineEquiv, MatchesGolden)
{
    const EquivCase &c = GetParam();

    SemanticNetwork net_machine =
        makeRandomKb(120, 3.0, 4, c.seed);
    SemanticNetwork net_golden = makeRandomKb(120, 3.0, 4, c.seed);

    Program prog = makeRandomProgram(net_machine, c.seed * 17 + 3,
                                     60);
    ASSERT_TRUE(validateProgram(prog).empty());

    MachineConfig cfg;
    cfg.numClusters = c.clusters;
    cfg.partition = c.strategy;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(net_machine);
    RunResult run = machine.run(prog);

    ReferenceInterpreter golden(net_golden);
    ResultSet gres = golden.run(prog);

    test::expectSameResults(run.results, gres);
    test::expectSameMarkers(machine.image(), golden.store(),
                            net_golden.numNodes());
}

std::vector<EquivCase>
makeCases()
{
    std::vector<EquivCase> cases;
    for (std::uint32_t clusters : {1u, 2u, 3u, 4u, 8u, 16u, 32u}) {
        for (PartitionStrategy s : {PartitionStrategy::Sequential,
                                    PartitionStrategy::RoundRobin,
                                    PartitionStrategy::Semantic}) {
            cases.push_back(EquivCase{clusters, s,
                                      1000 + clusters * 7 +
                                          static_cast<std::uint64_t>(
                                              s)});
        }
    }
    // Extra seeds on the paper configuration.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        cases.push_back(
            EquivCase{16, PartitionStrategy::Semantic, seed});
    }
    // And on the full prototype.
    for (std::uint64_t seed = 20; seed <= 23; ++seed) {
        cases.push_back(
            EquivCase{32, PartitionStrategy::RoundRobin, seed});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachineEquiv, ::testing::ValuesIn(makeCases()),
    [](const ::testing::TestParamInfo<EquivCase> &info) {
        return "c" + std::to_string(info.param.clusters) + "_p" +
               std::to_string(
                   static_cast<int>(info.param.strategy)) +
               "_s" + std::to_string(info.param.seed);
    });

// --- seeded golden regression ------------------------------------------
//
// Exact values (wallTicks, ExecBreakdown totals, and an FNV-1a digest
// of the retrieval results) captured from the seed revision on fixed
// workloads.  Any change to the simulated-time semantics of the host
// hot path — event ordering, marker kernels, frontier bookkeeping —
// shows up here as a hard failure, not just a statistical drift.

using test::digestResults;

/** Fig. 17-style workload: β=8 overlapped PROPAGATEs + retrieval. */
Workload
makeFig17Golden()
{
    Workload w = makeBetaWorkload(8, 8, 8, 2, true, 11);
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::searchRelation(
            w.net.relation("hop" + std::to_string(j)),
            static_cast<MarkerId>(2 * j), 1.0f));
    }
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::propagate(
            static_cast<MarkerId>(2 * j),
            static_cast<MarkerId>(2 * j + 1),
            static_cast<RuleId>(j), MarkerFunc::AddWeight));
    }
    w.prog.append(Instruction::barrier());
    for (std::uint32_t j = 0; j < 8; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }
    return w;
}

TEST(MachineGolden, Fig17SeededRegression)
{
    Workload w = makeFig17Golden();
    MachineConfig cfg = MachineConfig::paperSetup();
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    RunResult r = machine.run(w.prog);

    EXPECT_EQ(r.wallTicks, 8050947500ull);
    EXPECT_EQ(r.stats.messagesSent, 2688ull);
    EXPECT_EQ(r.stats.expansions, 3072ull);
    EXPECT_EQ(r.stats.arrivalsProcessed, 2688ull);
    EXPECT_EQ(r.stats.localDeliveries, 0ull);
    EXPECT_EQ(r.stats.linkTraversals, 2688ull);
    EXPECT_EQ(r.stats.muBusyTicks, 129277680000ull);
    EXPECT_EQ(r.stats.puBusyTicks, 17132800000ull);
    EXPECT_EQ(r.stats.commTicks, 4270080000ull);
    EXPECT_EQ(digestResults(r.results), 0xa7addb5c77c8e3d5ull);
}

TEST(MachineGolden, Fig16SeededRegression)
{
    Workload w = makeAlphaWorkload(448, 64, 6, 2, 71);
    w.prog.append(Instruction::searchRelation(
        w.net.relation("hop"), 0, 1.0f));
    w.prog.append(
        Instruction::propagate(0, 1, 0, MarkerFunc::AddWeight));
    w.prog.append(Instruction::barrier());
    w.prog.append(Instruction::collectMarker(0));
    w.prog.append(Instruction::collectMarker(1));

    MachineConfig cfg;
    cfg.numClusters = 16;
    cfg.partition = PartitionStrategy::Semantic;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(w.net);
    RunResult r = machine.run(w.prog);

    EXPECT_EQ(r.wallTicks, 2601067500ull);
    EXPECT_EQ(r.stats.messagesSent, 0ull);
    EXPECT_EQ(r.stats.expansions, 2432ull);
    EXPECT_EQ(r.stats.localDeliveries, 2112ull);
    EXPECT_EQ(r.stats.linkTraversals, 2112ull);
    EXPECT_EQ(r.stats.muBusyTicks, 56218880000ull);
    EXPECT_EQ(r.stats.puBusyTicks, 3027200000ull);
    EXPECT_EQ(r.stats.commTicks, 0ull);
    EXPECT_EQ(digestResults(r.results), 0x6f0edaeb4ac41b8aull);
}

TEST(MachineGolden, TunedAndSeedHotPathsAgree)
{
    // The tuned host structures (indexed event queue, pooled events,
    // flat frontier map) and the seed ones must be observationally
    // identical: same simulated time, same event count, same results.
    auto runWith = [](bool seed_hot_path) {
        Workload w = makeFig17Golden();
        MachineConfig cfg = MachineConfig::paperSetup();
        cfg.partition = PartitionStrategy::RoundRobin;
        cfg.maxNodesPerCluster = capacity::maxNodes;
        cfg.seedHotPath = seed_hot_path;
        SnapMachine machine(cfg);
        machine.loadKb(w.net);
        RunResult r = machine.run(w.prog);
        return std::tuple<Tick, std::uint64_t, std::uint64_t>(
            r.wallTicks, machine.eventsProcessed(),
            digestResults(r.results));
    };
    EXPECT_EQ(runWith(false), runWith(true));
}

// --- recorded whole-run goldens -----------------------------------------
//
// Exact recorded values pinning every observable of a run: results,
// the full breakdown, final marker planes, and the component
// statistics text.

/** A propagation-heavy program exercising every cross-cluster path:
 *  searches, overlapped propagates, a barrier, and collects. */
Workload
makeExerciser(std::uint32_t beta)
{
    Workload w = makeBetaWorkload(6, beta, 6, 1, true, 0);
    for (std::uint32_t j = 0; j < beta; ++j) {
        w.prog.append(Instruction::collectMarker(
            static_cast<MarkerId>(2 * j + 1)));
    }
    return w;
}

MachineConfig
roundRobinConfig(std::uint32_t clusters)
{
    MachineConfig cfg;
    cfg.numClusters = clusters;
    cfg.partition = PartitionStrategy::RoundRobin;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    return cfg;
}

/** Cluster counts that do and do not divide the node count evenly. */
TEST(MachineGolden, ExerciserAcrossClusterCounts)
{
    struct Golden
    {
        std::uint32_t clusters;
        Tick wallTicks;
        std::uint64_t results, breakdown, markers, components;
    };
    const Golden goldens[] = {
        {5, 894177500ull, 0x80bd1a6917c482abull, 0xf255d2b63ec500dfull,
         0xcbf29ce484222325ull, 0x072e51e57fd29e8eull},
        {16, 718027500ull, 0x80bd1a6917c482abull, 0x62f2e3cdebfbf5a0ull,
         0xcbf29ce484222325ull, 0x3886267b7aea60c9ull},
        {32, 864587500ull, 0x80bd1a6917c482abull, 0xd74dfe4216a895c8ull,
         0xcbf29ce484222325ull, 0xe32b0728ad77639dull},
    };
    Workload w = makeExerciser(6);
    for (const Golden &g : goldens) {
        SCOPED_TRACE("clusters " + std::to_string(g.clusters));
        SnapMachine machine(roundRobinConfig(g.clusters));
        machine.loadKb(w.net);
        RunResult r = machine.run(w.prog);
        EXPECT_EQ(r.wallTicks, g.wallTicks);
        EXPECT_EQ(digestResults(r.results), g.results);
        EXPECT_EQ(test::digestBreakdown(r.stats), g.breakdown);
        EXPECT_EQ(test::digestMarkers(machine.image().flatten(),
                                      w.net.numNodes()),
                  g.markers);
        EXPECT_EQ(test::digestText(machine.formatComponentStats()),
                  g.components);
    }
}

/** Two programs in sequence on one machine: the clock continues from
 *  the first run's end, and the second fig17 run starts from the
 *  marker state the first one left (hence its longer wall time). */
TEST(MachineGolden, BackToBackRunsStayExact)
{
    struct Golden
    {
        Tick wallTicks, now;
        std::uint64_t results, breakdown, markers;
    };
    auto runTwice = [](const Workload &w, const MachineConfig &cfg,
                       const Golden (&g)[2]) {
        SnapMachine machine(cfg);
        machine.loadKb(w.net);
        for (int i = 0; i < 2; ++i) {
            SCOPED_TRACE("run " + std::to_string(i + 1));
            RunResult r = machine.run(w.prog);
            EXPECT_EQ(r.wallTicks, g[i].wallTicks);
            EXPECT_EQ(machine.now(), g[i].now);
            EXPECT_EQ(digestResults(r.results), g[i].results);
            EXPECT_EQ(test::digestBreakdown(r.stats), g[i].breakdown);
            EXPECT_EQ(test::digestMarkers(machine.image().flatten(),
                                          w.net.numNodes()),
                      g[i].markers);
        }
    };
    {
        SCOPED_TRACE("exerciser");
        const Golden g[2] = {
            {494667500ull, 494667500ull, 0xee6aa85c9d66970dull,
             0xd6bd981c4cb28ab7ull, 0xcbf29ce484222325ull},
            {494667500ull, 989335000ull, 0xee6aa85c9d66970dull,
             0xd6bd981c4cb28ab7ull, 0xcbf29ce484222325ull},
        };
        runTwice(makeExerciser(4), roundRobinConfig(16), g);
    }
    {
        SCOPED_TRACE("fig17");
        const Golden g[2] = {
            {8050947500ull, 8050947500ull, 0xa7addb5c77c8e3d5ull,
             0xc3881f4d57f03ae7ull, 0x52fedf53b31d4765ull},
            {9880987500ull, 17931935000ull, 0xa7addb5c77c8e3d5ull,
             0x730430b736421b84ull, 0x52fedf53b31d4765ull},
        };
        MachineConfig cfg = MachineConfig::paperSetup();
        cfg.partition = PartitionStrategy::RoundRobin;
        cfg.maxNodesPerCluster = capacity::maxNodes;
        runTwice(makeFig17Golden(), cfg, g);
    }
}

/**
 * The fleet benchmark's machine on its 16K-node tree: 256 stateless
 * queries shaped like fleet-zipf's (SEARCH-NODE, chain PROPAGATE of
 * at most 3 steps, BARRIER, COLLECT) and 4 session chains of 16 turns
 * shaped like fleet-sessions'.  The digest pins every answer and
 * wall time; the event total is a deterministic host-cost count.
 */
TEST(MachineGolden, FleetTreeEventCounts)
{
    constexpr std::uint32_t kNodes = 16384;
    const SemanticNetwork net = makeTreeKb(kNodes, 4);
    const RelationType down = net.relationId("includes");
    const RelationType up = net.relationId("is-a");
    MachineConfig cfg = MachineConfig::paperSetup();
    cfg.perfNetEnabled = false;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    SnapMachine machine(cfg);
    machine.loadKb(net);

    std::uint64_t digest = test::fnvBasis;
    auto run = [&](const Program &prog) {
        RunResult r = machine.run(prog);
        digest = test::fnv(digest, digestResults(r.results));
        digest = test::fnv(digest, r.wallTicks);
    };
    Rng rng(17);
    auto startNode = [&] {
        return static_cast<NodeId>(rng.below(kNodes));
    };

    for (int q = 0; q < 256; ++q) {
        Program prog;
        PropRule rule = PropRule::chain(rng.chance(0.5) ? down : up);
        rule.maxSteps = 3;
        const RuleId rid = prog.addRule(std::move(rule));
        prog.append(Instruction::searchNode(startNode(), 0, 0.0f));
        prog.append(
            Instruction::propagate(0, 1, rid, MarkerFunc::Count));
        prog.append(Instruction::barrier());
        prog.append(Instruction::collectMarker(1));
        machine.image().resetMarkers();
        run(prog);
    }

    constexpr MarkerId mStart = 2, mAnc = 3, mCtx = 4, mShared = 5;
    for (int s = 0; s < 4; ++s) {
        machine.image().resetMarkers();
        for (int t = 0; t < 16; ++t) {
            Program prog;
            const RuleId rid = prog.addRule(PropRule::chain(up));
            prog.append(Instruction::clearMarker(mStart));
            prog.append(Instruction::clearMarker(mAnc));
            prog.append(Instruction::clearMarker(mShared));
            prog.append(Instruction::searchNode(startNode(), mStart,
                                                0.0f));
            prog.append(Instruction::propagate(mStart, mAnc, rid,
                                               MarkerFunc::Count));
            prog.append(Instruction::barrier());
            prog.append(Instruction::andMarker(mAnc, mCtx, mShared,
                                               CombineOp::Sum));
            prog.append(Instruction::orMarker(mAnc, mCtx, mCtx,
                                              CombineOp::Min));
            prog.append(Instruction::collectMarker(mShared));
            run(prog);
        }
    }

    EXPECT_EQ(digest, 0xc416d81a677f619cull);
    // One wire event per SCP broadcast; with one per cluster
    // receiver this read 104297.
    EXPECT_EQ(machine.eventsProcessed(), 75497ull);
}

} // namespace
} // namespace snap
