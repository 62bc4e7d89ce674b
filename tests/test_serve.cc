/**
 * @file
 * Tests for the concurrent query-serving subsystem: the bounded MPMC
 * queue, the latency histogram, thread-safe logging, shared-image
 * replication, and the engine's determinism / session / admission
 * semantics.  The concurrency tests double as the TSan CI workload.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"
#include "serve/engine.hh"
#include "serve/request_queue.hh"
#include "tests/test_helpers.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace
{

using serve::BoundedQueue;
using serve::Request;
using serve::RequestStatus;
using serve::Response;
using serve::ServeConfig;
using serve::ServeEngine;

// --- bounded queue ------------------------------------------------------

TEST(BoundedQueue, FifoAndBackpressure)
{
    BoundedQueue<int> q(3);
    EXPECT_EQ(q.capacity(), 3u);
    EXPECT_TRUE(q.tryPush(1));
    EXPECT_TRUE(q.tryPush(2));
    EXPECT_TRUE(q.tryPush(3));
    EXPECT_FALSE(q.tryPush(4)) << "full queue must reject";
    EXPECT_EQ(q.depth(), 3u);
    EXPECT_EQ(q.highWater(), 3u);

    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_TRUE(q.tryPush(5));
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_EQ(q.pop().value(), 5);

    q.close();
    EXPECT_FALSE(q.tryPush(6)) << "closed queue must reject";
    EXPECT_FALSE(q.pop().has_value())
        << "pop on a closed empty queue signals consumer exit";
}

TEST(BoundedQueue, DrainsAfterClose)
{
    BoundedQueue<int> q(4);
    ASSERT_TRUE(q.tryPush(7));
    ASSERT_TRUE(q.tryPush(8));
    q.close();
    EXPECT_EQ(q.pop().value(), 7);
    EXPECT_EQ(q.pop().value(), 8);
    EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ConcurrentProducersConsumers)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 500;
    BoundedQueue<int> q(64);

    std::mutex mu;
    std::set<int> received;
    std::vector<std::thread> consumers;
    for (int c = 0; c < 3; ++c) {
        consumers.emplace_back([&] {
            while (auto v = q.pop()) {
                std::lock_guard<std::mutex> lock(mu);
                received.insert(*v);
            }
        });
    }

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * kPerProducer + i;
                // Spin through transient fullness: the queue is
                // intentionally smaller than the item count.
                while (!q.tryPush(v))
                    std::this_thread::yield();
            }
        });
    }
    for (auto &t : producers)
        t.join();
    // Wait for the consumers to drain the queue, then release them.
    while (q.depth() > 0)
        std::this_thread::yield();
    q.close();
    for (auto &t : consumers)
        t.join();

    EXPECT_EQ(received.size(),
              static_cast<std::size_t>(kProducers * kPerProducer))
        << "every item delivered exactly once";
}

// --- histogram ----------------------------------------------------------

TEST(Histogram, ExactStatsAndQuantileBounds)
{
    Histogram h;
    for (int i = 1; i <= 1000; ++i)
        h.record(static_cast<double>(i));
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);

    // Log-linear buckets bound the relative error at ~1/8.
    EXPECT_NEAR(h.quantile(0.50), 500.0, 500.0 / 8.0);
    EXPECT_NEAR(h.quantile(0.95), 950.0, 950.0 / 8.0);
    EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 / 8.0);
    EXPECT_LE(h.quantile(1.0), 1000.0);
}

TEST(Histogram, MergeAndEdges)
{
    Histogram a, b;
    a.record(0.0);      // clamps into the bottom bucket
    a.record(1e-9);
    b.record(1e12);     // clamps into the top bucket
    b.record(4.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 1e12);

    Histogram empty;
    EXPECT_EQ(empty.quantile(0.5), 0.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

// --- thread-safe logging ------------------------------------------------

std::mutex g_cap_mu;
std::vector<std::string> g_captured;

void
captureHook(LogLevel, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(g_cap_mu);
    g_captured.push_back(msg);
}

TEST(Logging, ConcurrentEmitAndHookSwap)
{
    {
        std::lock_guard<std::mutex> lock(g_cap_mu);
        g_captured.clear();
    }
    Logger::Hook old = Logger::setHook(&captureHook);

    constexpr int kThreads = 4;
    constexpr int kEach = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t] {
            for (int i = 0; i < kEach; ++i)
                snap_warn("serve-log-test t%d i%d", t, i);
        });
    }
    // Swap the sink while writers are live: setHook must serialize
    // against in-flight emits (no torn reads of the hook pointer).
    for (int s = 0; s < 20; ++s) {
        Logger::Hook h = Logger::setHook(&captureHook);
        EXPECT_EQ(h, &captureHook);
        std::this_thread::yield();
    }
    for (auto &t : threads)
        t.join();
    Logger::setHook(old);

    std::lock_guard<std::mutex> lock(g_cap_mu);
    EXPECT_EQ(g_captured.size(),
              static_cast<std::size_t>(kThreads * kEach));
    for (const std::string &msg : g_captured) {
        EXPECT_EQ(msg.rfind("serve-log-test t", 0), 0u)
            << "interleaved/torn message: " << msg;
    }
}

// --- shared image replication -------------------------------------------

Program
countQuery(NodeId start, RelationType rel, float threshold)
{
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(rel));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    if (threshold > 0) {
        prog.append(Instruction::funcMarker(
            1, ScalarFunc{ScalarFunc::Op::ThresholdGe, threshold}));
    }
    prog.append(Instruction::collectMarker(1));
    return prog;
}

TEST(SharedImage, ReplicaMatchesDirectLoad)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    MachineConfig cfg;
    cfg.numClusters = 8;
    cfg.perfNetEnabled = false;

    KbImage master(net, cfg);

    SnapMachine direct(cfg);
    direct.loadKb(net);
    SnapMachine replica(cfg);
    replica.loadKb(master);

    Program q = countQuery(0, inc, 0.0f);
    RunResult a = direct.run(q);
    RunResult b = replica.run(q);
    test::expectSameResults(a.results, b.results);
    EXPECT_EQ(a.wallTicks, b.wallTicks);

    // The replica's marker state is private: running on it must not
    // leak into the master image.
    EXPECT_GT(replica.image().flatten().count(1), 0u);
    EXPECT_EQ(master.flatten().count(1), 0u);
}

TEST(SharedImage, ResetMarkersClearsEverything)
{
    SemanticNetwork net = makeTreeKb(120, 3);
    RelationType inc = net.relationId("includes");
    MachineConfig cfg = MachineConfig::singleCluster(2);
    SnapMachine machine(cfg);
    machine.loadKb(net);
    machine.run(countQuery(0, inc, 0.0f));
    ASSERT_GT(machine.image().flatten().count(1), 0u);

    machine.image().resetMarkers();
    MarkerStore flat = machine.image().flatten();
    for (std::uint32_t m = 0; m < capacity::numMarkers; ++m)
        EXPECT_EQ(flat.count(static_cast<MarkerId>(m)), 0u);
}

TEST(SharedImage, SessionCaptureMarksNoPlane)
{
    // A session turn as the engine runs it: install the held state,
    // run, capture.  The capture only reads, so afterwards the mask
    // names exactly the planes the turn wrote (m0 and m1), and the
    // next turn's install resets nothing else.
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    MachineConfig cfg;
    cfg.numClusters = 8;
    SnapMachine machine(cfg);
    machine.loadKb(net);
    KbImage &image = machine.image();
    image.installMarkers(SparseMarkers(image.numNodes()));
    machine.run(countQuery(0, inc, 0.0f));
    SparseMarkers state = image.captureMarkers();
    ASSERT_EQ(state.planes().size(), 2u);

    bool wrote[2] = {false, false};
    for (ClusterId c = 0; c < image.numClusters(); ++c) {
        const MarkerStore &ms = image.cluster(c).markers();
        for (std::uint32_t m = 0; m < capacity::numMarkers; ++m) {
            auto mid = static_cast<MarkerId>(m);
            if (m < 2)
                wrote[m] = wrote[m] || ms.touched(mid);
            else
                EXPECT_FALSE(ms.touched(mid))
                    << "cluster " << c << " plane " << m;
        }
    }
    EXPECT_TRUE(wrote[0]);
    EXPECT_TRUE(wrote[1]);
}

// --- the engine ---------------------------------------------------------

ServeConfig
smallEngineConfig(std::uint32_t workers)
{
    ServeConfig cfg;
    cfg.numWorkers = workers;
    cfg.machine.numClusters = 8;
    return cfg;
}

/** Writes complex planes 0-5 (bits and values) and binary plane 70. */
Program
planeWriter(RelationType inc, RelationType isa)
{
    Program prog;
    RuleId down = prog.addRule(PropRule::chain(inc));
    RuleId up = prog.addRule(PropRule::chain(isa));
    prog.append(Instruction::searchNode(0, 0, 1.0f));
    prog.append(Instruction::searchNode(250, 2, 3.0f));
    prog.append(Instruction::propagate(0, 1, down, MarkerFunc::Count));
    prog.append(
        Instruction::propagate(2, 3, up, MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::setMarker(4, 2.5f));
    prog.append(Instruction::orMarker(1, 3, 5, CombineOp::Max));
    prog.append(Instruction::notMarker(1, 70));
    prog.append(Instruction::collectMarker(5));
    return prog;
}

/** Reads the planes planeWriter wrote without setting them first,
 *  then answers a query of its own. */
Program
planeReader(RelationType inc)
{
    Program prog;
    RuleId down = prog.addRule(PropRule::chain(inc));
    for (MarkerId m = 0; m < 6; ++m)
        prog.append(Instruction::collectMarker(m));
    prog.append(Instruction::collectMarker(70));
    prog.append(Instruction::propagate(4, 6, down, MarkerFunc::Count));
    prog.append(Instruction::searchNode(3, 8, 0.5f));
    prog.append(
        Instruction::propagate(8, 9, down, MarkerFunc::AddWeight));
    prog.append(Instruction::barrier());
    prog.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::Add, 1.0f}));
    prog.append(Instruction::andMarker(1, 3, 7, CombineOp::Sum));
    prog.append(Instruction::orMarker(9, 5, 10, CombineOp::Max));
    prog.append(Instruction::collectMarker(6));
    prog.append(Instruction::collectMarker(7));
    prog.append(Instruction::collectMarker(9));
    prog.append(Instruction::collectMarker(10));
    return prog;
}

/** A stateless query after another on the same replica answers as on
 *  a fresh replica, whatever planes the first one wrote.  Digests
 *  recorded before the fresh-query reset cleared only touched
 *  planes. */
TEST(ServeEngine, FreshQueryIgnoresPlanesThePreviousQueryWrote)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    RelationType isa = net.relationId("is-a");
    const Program writer = planeWriter(inc, isa);
    const Program reader = planeReader(inc);

    auto serve = [](ServeEngine &engine, const Program &prog) {
        Request req;
        req.prog = prog;
        Response resp = engine.submit(std::move(req)).get();
        EXPECT_EQ(resp.status, RequestStatus::Ok);
        return resp;
    };

    ServeEngine fresh(net, smallEngineConfig(1));
    const Response alone = serve(fresh, reader);

    ServeEngine reused(net, smallEngineConfig(1));
    const Response first = serve(reused, writer);
    ASSERT_EQ(first.results.size(), 1u);
    EXPECT_FALSE(first.results[0].nodes.empty());
    const Response after = serve(reused, reader);

    EXPECT_EQ(after.wallTicks, alone.wallTicks);
    EXPECT_EQ(test::digestResults(after.results),
              test::digestResults(alone.results));
    ASSERT_EQ(after.results.size(), 11u);
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_TRUE(after.results[i].nodes.empty()) << "collect " << i;

    EXPECT_EQ(first.wallTicks, 1437227500ull);
    EXPECT_EQ(test::digestResults(first.results),
              0x2a0963cf0ac0da4dull);
    EXPECT_EQ(after.wallTicks, 979587500ull);
    EXPECT_EQ(test::digestResults(after.results),
              0x420ee9b3a395703full);
}

TEST(ServeEngine, MatchesDirectExecutionAndIsDeterministic)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    RelationType isa = net.relationId("is-a");

    std::vector<Program> mix;
    for (NodeId n = 0; n < 8; ++n)
        mix.push_back(countQuery(n * 37 % 300,
                                 n % 2 ? inc : isa, 0.0f));

    // Direct reference: one machine, markers cleared per query.
    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    std::vector<RunResult> expect;
    for (const Program &p : mix) {
        direct.image().resetMarkers();
        expect.push_back(direct.run(p));
    }

    for (std::uint32_t workers : {1u, 2u, 3u}) {
        ServeEngine engine(net, smallEngineConfig(workers));
        std::vector<std::future<Response>> futures;
        for (const Program &p : mix) {
            Request req;
            req.prog = p;
            futures.push_back(engine.submit(std::move(req)));
        }
        for (std::size_t i = 0; i < futures.size(); ++i) {
            Response resp = futures[i].get();
            ASSERT_EQ(resp.status, RequestStatus::Ok);
            EXPECT_EQ(resp.id, i);
            EXPECT_NE(resp.rngSeed, 0u);
            test::expectSameResults(resp.results,
                                    expect[i].results);
            EXPECT_EQ(resp.wallTicks, expect[i].wallTicks)
                << "simulated time must not depend on worker "
                   "count (query " << i << ", workers "
                << workers << ")";
        }
        serve::MetricsSnapshot m = engine.metricsSnapshot();
        EXPECT_EQ(m.completed, mix.size());
        EXPECT_EQ(m.rejected, 0u);
        EXPECT_EQ(m.totalMs.count(), mix.size());
    }
}

/** The query of death: a node id far past the image used to abort
 *  the process on the partition lookup.  Every out-of-range operand
 *  is now a typed Invalid at admission, and the engine keeps
 *  serving. */
TEST(ServeEngine, OutOfRangeOperandsAreInvalidAndServingContinues)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    ServeEngine engine(net, smallEngineConfig(2));

    auto withRule = [inc](const Instruction &i) {
        Program p;
        p.addRule(PropRule::chain(inc));
        p.append(i);
        p.append(Instruction::collectMarker(0));
        return p;
    };
    const std::vector<Program> bad = {
        withRule(Instruction::searchNode(123456789, 0, 1.0f)),
        withRule(Instruction::searchNode(300, 0, 1.0f)),
        withRule(Instruction::collectMarker(128)),
        withRule(Instruction::propagate(0, 1, 7, MarkerFunc::None)),
        withRule(Instruction::markerCreate(0, inc, 400, inc)),
        // Self-propagation: m1 == m2 races with its own deliveries.
        withRule(Instruction::propagate(0, 0, 0, MarkerFunc::None)),
    };
    const Program good = countQuery(0, inc, 0.0f);
    SnapMachine direct(smallEngineConfig(1).machine);
    direct.loadKb(net);
    const RunResult ref = direct.run(good);

    for (std::size_t k = 0; k < bad.size(); ++k) {
        Request req;
        req.prog = bad[k];
        Response resp = engine.submit(std::move(req)).get();
        EXPECT_EQ(resp.status, RequestStatus::Invalid) << "case " << k;
        EXPECT_TRUE(resp.results.empty()) << "case " << k;

        Request ok_req;
        ok_req.prog = good;
        Response ok = engine.submit(std::move(ok_req)).get();
        ASSERT_EQ(ok.status, RequestStatus::Ok) << "after case " << k;
        EXPECT_EQ(ok.wallTicks, ref.wallTicks);
        test::expectSameResults(ok.results, ref.results);
    }

    // Relation and colour ids the network lacks are values that match
    // nothing, not indexes: such programs run as on a machine.
    Program unknown_rule;
    RuleId chain = unknown_rule.addRule(PropRule::chain(60000));
    unknown_rule.append(Instruction::searchNode(0, 0, 1.0f));
    unknown_rule.append(Instruction::propagate(0, 1, chain,
                                               MarkerFunc::None));
    unknown_rule.append(Instruction::barrier());
    unknown_rule.append(Instruction::collectMarker(1));
    const std::vector<Program> by_value = {
        withRule(Instruction::searchRelation(60000, 0, 1.0f)),
        withRule(Instruction::searchColor(250, 0, 1.0f)),
        unknown_rule,
    };
    for (std::size_t k = 0; k < by_value.size(); ++k) {
        direct.image().resetMarkers();
        const RunResult want = direct.run(by_value[k]);
        Request req;
        req.prog = by_value[k];
        Response resp = engine.submit(std::move(req)).get();
        ASSERT_EQ(resp.status, RequestStatus::Ok) << "case " << k;
        EXPECT_EQ(resp.wallTicks, want.wallTicks) << "case " << k;
        test::expectSameResults(resp.results, want.results);
    }

    // An invalid session turn takes no turn: its successor runs.
    Request bad_turn;
    bad_turn.sessionId = "s";
    bad_turn.prog = bad[0];
    Request next_turn;
    next_turn.sessionId = "s";
    next_turn.prog = good;
    auto f_bad = engine.submit(std::move(bad_turn));
    auto f_next = engine.submit(std::move(next_turn));
    EXPECT_EQ(f_bad.get().status, RequestStatus::Invalid);
    EXPECT_EQ(f_next.get().status, RequestStatus::Ok);

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.invalid, bad.size() + 1);
    EXPECT_EQ(m.completed, bad.size() + by_value.size() + 1);
    EXPECT_EQ(std::string(serve::requestStatusName(
                  RequestStatus::Invalid)),
              "invalid");
}

TEST(ServeEngine, SessionCarriesMarkerState)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");

    Program first = countQuery(0, inc, 0.0f);
    Program second;
    second.append(Instruction::funcMarker(
        1, ScalarFunc{ScalarFunc::Op::ThresholdGe, 3.0f}));
    second.append(Instruction::collectMarker(1));

    // Reference: uninterrupted run on one machine.
    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine straight(mcfg);
    straight.loadKb(net);
    straight.run(first);
    RunResult expect = straight.run(second);

    ServeEngine engine(net, smallEngineConfig(2));
    Request r1;
    r1.sessionId = "parse-1";
    r1.prog = first;
    Request r2;
    r2.sessionId = "parse-1";
    r2.prog = second;
    auto f1 = engine.submit(std::move(r1));
    auto f2 = engine.submit(std::move(r2));

    ASSERT_EQ(f1.get().status, RequestStatus::Ok);
    Response resp = f2.get();
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    test::expectSameResults(resp.results, expect.results);

    // The session's checkpointable state survives the requests.
    EXPECT_EQ(engine.sessionIds(),
              std::vector<std::string>{"parse-1"});
    EXPECT_GT(engine.sessionMarkers("parse-1").count(1), 0u);
}

TEST(ServeEngine, SessionRequestsExecuteInSubmissionOrder)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    constexpr int kRounds = 12;

    // Request j: collect m0 (observing round j-1's value), then
    // overwrite m0 at node 0 with value j.  Any reordering or lost
    // update shows up as a wrong observed value.
    std::vector<Program> progs;
    for (int j = 0; j < kRounds; ++j) {
        Program p;
        p.append(Instruction::collectMarker(0));
        p.append(Instruction::searchNode(
            0, 0, static_cast<float>(j + 1)));
        progs.push_back(std::move(p));
    }

    ServeEngine engine(net, smallEngineConfig(3));
    std::vector<std::future<Response>> futures;
    for (int j = 0; j < kRounds; ++j) {
        Request req;
        req.sessionId = "ordered";
        req.prog = progs[j];
        futures.push_back(engine.submit(std::move(req)));
    }
    for (int j = 0; j < kRounds; ++j) {
        Response resp = futures[j].get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        ASSERT_EQ(resp.results.size(), 1u);
        const CollectResult &c = resp.results[0];
        if (j == 0) {
            EXPECT_TRUE(c.nodes.empty())
                << "round 0 must observe pristine state";
        } else {
            ASSERT_EQ(c.nodes.size(), 1u);
            EXPECT_EQ(c.nodes[0].node, 0u);
            EXPECT_FLOAT_EQ(c.nodes[0].value,
                            static_cast<float>(j));
        }
    }
    EXPECT_FLOAT_EQ(engine.sessionMarkers("ordered").value(0, 0),
                    static_cast<float>(kRounds));
}

TEST(ServeEngine, RejectsWhenQueueFull)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.queueCapacity = 2;
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.prog = countQuery(0, inc, 0.0f);
        futures.push_back(engine.submit(std::move(req)));
    }
    // Paused engine: exactly queueCapacity admissions succeed.
    EXPECT_EQ(futures[2].get().status, RequestStatus::Rejected);
    EXPECT_EQ(futures[3].get().status, RequestStatus::Rejected);

    engine.start();
    engine.drain();
    EXPECT_EQ(futures[0].get().status, RequestStatus::Ok);
    EXPECT_EQ(futures[1].get().status, RequestStatus::Ok);

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.submitted, 4u);
    EXPECT_EQ(m.completed, 2u);
    EXPECT_EQ(m.rejected, 2u);
    EXPECT_EQ(m.queueHighWater, 2u);
}

TEST(ServeEngine, RejectedSessionTurnDoesNotBlockSuccessors)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.queueCapacity = 1;
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    Request a;
    a.sessionId = "s";
    a.prog = countQuery(0, inc, 0.0f);
    Request b;
    b.sessionId = "s";
    b.prog = countQuery(0, inc, 0.0f);
    auto fa = engine.submit(std::move(a));
    auto fb = engine.submit(std::move(b));  // rejected: queue full
    EXPECT_EQ(fb.get().status, RequestStatus::Rejected);

    // A third request in the same session must still run even
    // though its predecessor's turn was cancelled.
    Request c;
    c.sessionId = "s";
    c.prog = countQuery(0, inc, 0.0f);
    engine.start();
    ASSERT_EQ(fa.get().status, RequestStatus::Ok);
    auto fc = engine.submit(std::move(c));
    EXPECT_EQ(fc.get().status, RequestStatus::Ok);
}

TEST(ServeEngine, QueueDeadlineTimesOut)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    ServeEngine engine(net, cfg);

    Request doomed;
    doomed.prog = countQuery(0, inc, 0.0f);
    doomed.timeoutMs = 1.0;
    Request fine;
    fine.prog = countQuery(0, inc, 0.0f);
    auto f1 = engine.submit(std::move(doomed));
    auto f2 = engine.submit(std::move(fine));

    // Let the deadline lapse while the engine is still paused, so
    // the outcome does not depend on scheduling.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    engine.start();

    Response r1 = f1.get();
    EXPECT_EQ(r1.status, RequestStatus::TimedOut);
    EXPECT_TRUE(r1.results.empty());
    EXPECT_EQ(f2.get().status, RequestStatus::Ok)
        << "deadline-free request is unaffected";

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.timedOut, 1u);
    EXPECT_EQ(m.completed, 1u);
}

TEST(ServeEngine, MetricsJsonIsWellFormed)
{
    SemanticNetwork net = makeTreeKb(64, 4);
    RelationType inc = net.relationId("includes");

    ServeEngine engine(net, smallEngineConfig(2));
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 6; ++i) {
        Request req;
        req.prog = countQuery(0, inc, 0.0f);
        futures.push_back(engine.submit(std::move(req)));
    }
    for (auto &f : futures)
        ASSERT_EQ(f.get().status, RequestStatus::Ok);

    std::string json =
        serve::metricsJson(engine.metricsSnapshot());
    for (const char *key :
         {"\"submitted\": 6", "\"completed\": 6", "\"rejected\": 0",
          "\"queue_wait_ms\"", "\"service_ms\"", "\"total_ms\"",
          "\"sim_us\"", "\"p95\"", "\"workers\"",
          "\"sim_makespan_us\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing " << key << " in:\n" << json;
    }
    // Balanced braces/brackets as a cheap well-formedness probe.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
}

// --- queue extraction (the batch former's gulp primitive) ---------------

TEST(BoundedQueue, ExtractMatchingPreservesBothFifoOrders)
{
    BoundedQueue<int> q(8);
    for (int v : {1, 10, 2, 20, 3, 30})
        ASSERT_TRUE(q.tryPush(v));

    std::vector<int> out;
    std::size_t n = q.extractMatching(
        [](const int &v) { return v >= 10; }, 2, out,
        std::chrono::steady_clock::now());  // past deadline: no wait
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(out, (std::vector<int>{10, 20}));

    // Survivors keep FIFO order, including the unmatched 30 (the
    // limit was hit first).
    EXPECT_EQ(q.pop().value(), 1);
    EXPECT_EQ(q.pop().value(), 2);
    EXPECT_EQ(q.pop().value(), 3);
    EXPECT_EQ(q.pop().value(), 30);
    EXPECT_EQ(q.depth(), 0u);

    // The freed slots are reusable (ring compaction intact).
    for (int v = 100; v < 108; ++v)
        EXPECT_TRUE(q.tryPush(v));
    EXPECT_FALSE(q.tryPush(200));
    for (int v = 100; v < 108; ++v)
        EXPECT_EQ(q.pop().value(), v);
}

TEST(BoundedQueue, ExtractMatchingWaitsForLatePartners)
{
    BoundedQueue<int> q(8);
    ASSERT_TRUE(q.tryPush(5));
    std::thread producer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        q.tryPush(6);
        q.tryPush(7);
    });
    std::vector<int> out;
    std::size_t n = q.extractMatching(
        [](const int &v) { return v >= 6; }, 2, out,
        std::chrono::steady_clock::now() +
            std::chrono::seconds(10));
    producer.join();
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(out, (std::vector<int>{6, 7}));
    EXPECT_EQ(q.pop().value(), 5);
}

TEST(BoundedQueue, ExtractMatchingUnblocksOnClose)
{
    BoundedQueue<int> q(4);
    std::thread closer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        q.close();
    });
    std::vector<int> out;
    std::size_t n = q.extractMatching(
        [](const int &) { return true; }, 4, out,
        std::chrono::steady_clock::now() +
            std::chrono::seconds(60));
    closer.join();
    EXPECT_EQ(n, 0u);
}

// The gulp primitive racing producers, a plain-pop consumer, and a
// mid-stream close: every accepted item must come out exactly once,
// through exactly one of the two consumption paths, and every
// extracted item must satisfy the predicate.  (TSan workload.)
TEST(BoundedQueue, ConcurrentExtractPushCloseAccountsForEveryItem)
{
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 400;
    BoundedQueue<int> q(32);

    std::vector<std::thread> producers;
    std::vector<std::vector<int>> accepted(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                int v = p * 10'000 + i;
                // Retry on backpressure: the queue only closes after
                // the producers join, so every item lands eventually.
                while (!q.tryPush(v))
                    std::this_thread::yield();
                accepted[p].push_back(v);
            }
        });
    }

    std::vector<int> extracted;
    std::thread extractor([&] {
        auto even = [](const int &v) { return v % 2 == 0; };
        for (;;) {
            std::size_t n = q.extractMatching(
                even, 8, extracted,
                std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(1));
            if (n == 0 && q.closed())
                break;
        }
    });

    std::vector<int> popped;
    std::thread popper([&] {
        while (auto v = q.pop())
            popped.push_back(*v);
    });

    for (auto &t : producers)
        t.join();
    q.close();
    extractor.join();
    popper.join();

    for (int v : extracted)
        EXPECT_EQ(v % 2, 0) << "extractMatching broke its predicate";

    std::multiset<int> got(extracted.begin(), extracted.end());
    got.insert(popped.begin(), popped.end());
    std::multiset<int> want;
    for (const auto &vec : accepted)
        want.insert(vec.begin(), vec.end());
    EXPECT_EQ(got.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    EXPECT_EQ(got, want)
        << "an accepted item was lost or duplicated across the "
           "extract/pop race";
}

// --- coalescing ---------------------------------------------------------

TEST(ServeEngine, BatchedAnswersMatchSoloBitForBit)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program prog = countQuery(0, inc, 0.0f);

    // Solo reference.
    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    RunResult ref = direct.run(prog);

    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;  // everything queues, then one gulp
    cfg.maxBatchLanes = 8;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.prog = prog;
        futures.push_back(engine.submit(std::move(req)));
    }
    engine.start();
    for (auto &f : futures) {
        Response resp = f.get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.batchLanes, 8u);
        EXPECT_EQ(resp.wallTicks, ref.wallTicks)
            << "batching must not change simulated time";
        test::expectSameResults(resp.results, ref.results);
    }

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.completed, 8u);
    EXPECT_EQ(m.batches, 1u);
    EXPECT_EQ(m.batchedRequests, 8u);
    EXPECT_DOUBLE_EQ(m.batchLanes.mean(), 8.0);
}

TEST(ServeEngine, WideBatchCrossesLaneWordSeam)
{
    // A 96-member group, past the 64 where the log-linear
    // histogram's buckets widen.  Pins the exact batch_lanes
    // histogram: the log-linear one had 8-wide buckets at 96 and
    // would misreport the quantiles.
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program prog = countQuery(0, inc, 0.0f);

    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    RunResult ref = direct.run(prog);

    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    cfg.maxBatchLanes = 96;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 96; ++i) {
        Request req;
        req.prog = prog;
        futures.push_back(engine.submit(std::move(req)));
    }
    engine.start();
    for (auto &f : futures) {
        Response resp = f.get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.batchLanes, 96u);
        EXPECT_EQ(resp.wallTicks, ref.wallTicks)
            << "wide batching must not change simulated time";
        test::expectSameResults(resp.results, ref.results);
    }

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.completed, 96u);
    EXPECT_EQ(m.batches, 1u);
    EXPECT_EQ(m.batchedRequests, 96u);
    EXPECT_DOUBLE_EQ(m.batchLanes.mean(), 96.0);
    EXPECT_DOUBLE_EQ(m.batchLanes.quantile(0.5), 96.0);
    EXPECT_DOUBLE_EQ(m.batchLanes.quantile(0.99), 96.0)
        << "batch_lanes must bucket exactly above 64 lanes";
    EXPECT_DOUBLE_EQ(m.batchLanes.max(), 96.0);
}

TEST(ServeEngine, BatchFormerGroupsByProgramHash)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    RelationType isa = net.relationId("is-a");
    Program down = countQuery(0, inc, 0.0f);
    Program up = countQuery(77, isa, 0.0f);

    EXPECT_EQ(down.contentHash(), countQuery(0, inc, 0.0f)
                                      .contentHash());
    EXPECT_NE(down.contentHash(), up.contentHash());

    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    RunResult ref_down = direct.run(down);
    direct.image().resetMarkers();
    RunResult ref_up = direct.run(up);

    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    cfg.maxBatchLanes = 64;
    ServeEngine engine(net, cfg);

    // Interleave the two programs: the former must split them into
    // two same-hash batches, never mix lanes across programs.
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 10; ++i) {
        Request req;
        req.prog = (i % 2 == 0) ? down : up;
        futures.push_back(engine.submit(std::move(req)));
    }
    engine.start();
    for (std::size_t i = 0; i < futures.size(); ++i) {
        Response resp = futures[i].get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.batchLanes, 5u);
        const RunResult &ref = (i % 2 == 0) ? ref_down : ref_up;
        EXPECT_EQ(resp.wallTicks, ref.wallTicks) << "query " << i;
        test::expectSameResults(resp.results, ref.results);
    }
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.batches, 2u);
    EXPECT_EQ(m.batchedRequests, 10u);
}

TEST(ServeEngine, PoisonedCoalescedRunNeverDeliversAWrongAnswer)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program prog = countQuery(0, inc, 0.0f);

    // Fault-free solo reference.
    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    RunResult ref = direct.run(prog);

    // One worker and a fixed fault seed make the whole run
    // deterministic: at 1% message faults the group's shared run
    // trips detection, so the group is evicted to solo re-serves.
    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    cfg.maxBatchLanes = 8;
    cfg.maxRetries = 30;
    cfg.faults = FaultSpec::messageFaults(2, 0.01);
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 8; ++i) {
        Request req;
        req.prog = prog;
        futures.push_back(engine.submit(std::move(req)));
    }
    engine.start();
    std::uint64_t ok = 0;
    for (std::size_t i = 0; i < futures.size(); ++i) {
        Response resp = futures[i].get();
        ASSERT_TRUE(resp.status == RequestStatus::Ok ||
                    resp.status == RequestStatus::Failed)
            << "member " << i << ": "
            << serve::requestStatusName(resp.status);
        if (resp.status == RequestStatus::Ok) {
            ++ok;
            EXPECT_EQ(resp.wallTicks, ref.wallTicks) << "member " << i;
            test::expectSameResults(resp.results, ref.results);
        } else {
            EXPECT_TRUE(resp.results.empty())
                << "a Failed member must never carry results";
        }
    }
    EXPECT_GT(ok, 0u) << "per-member retries should recover someone";

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_GE(m.batchFallbacks, 1u);
    EXPECT_EQ(m.completed + m.failed, 8u);
}

TEST(ServeEngine, StragglerFallsBackToSoloPath)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(1);
    cfg.startPaused = true;
    cfg.maxBatchLanes = 8;  // window 0: gulp only what is queued
    ServeEngine engine(net, cfg);

    Request req;
    req.prog = countQuery(0, inc, 0.0f);
    auto fut = engine.submit(std::move(req));
    engine.start();
    Response resp = fut.get();
    ASSERT_EQ(resp.status, RequestStatus::Ok);
    EXPECT_EQ(resp.batchLanes, 1u) << "no partner: solo service";

    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.batches, 0u) << "a solo run is not a batch";
}

TEST(ServeEngine, SessionsNeverBatch)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");

    ServeConfig cfg = smallEngineConfig(2);
    cfg.startPaused = true;
    cfg.maxBatchLanes = 8;
    ServeEngine engine(net, cfg);

    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.sessionId = "s1";
        req.prog = countQuery(0, inc, 0.0f);
        futures.push_back(engine.submit(std::move(req)));
    }
    engine.start();
    for (auto &f : futures) {
        Response resp = f.get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.batchLanes, 1u)
            << "session requests carry state and must run solo";
    }
    serve::MetricsSnapshot m = engine.metricsSnapshot();
    EXPECT_EQ(m.batches, 0u);
}

TEST(ServeEngine, BatchWindowCollectsLateArrivals)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program prog = countQuery(0, inc, 0.0f);

    ServeConfig cfg = smallEngineConfig(1);
    cfg.maxBatchLanes = 4;
    cfg.batchWindowMs = 2000.0;  // worker waits for partners
    ServeEngine engine(net, cfg);

    // Engine running: the worker pops the first request, then parks
    // in the window until the remaining lanes (or the cap) arrive.
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 4; ++i) {
        Request req;
        req.prog = prog;
        futures.push_back(engine.submit(std::move(req)));
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::uint64_t total_lanes = 0;
    for (auto &f : futures) {
        Response resp = f.get();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        total_lanes += resp.batchLanes;
    }
    // Timing-dependent split, but the window must have merged at
    // least once (4 solo runs would sum to 4).
    EXPECT_GT(total_lanes, 4u) << "window formed no batch at all";
}

TEST(ServeEngine, ResponseSlotPathMatchesFuturePath)
{
    SemanticNetwork net = makeTreeKb(300, 4);
    RelationType inc = net.relationId("includes");
    Program prog = countQuery(0, inc, 0.0f);

    MachineConfig mcfg = smallEngineConfig(1).machine;
    SnapMachine direct(mcfg);
    direct.loadKb(net);
    RunResult ref = direct.run(prog);

    ServeConfig cfg = smallEngineConfig(2);
    ServeEngine engine(net, cfg);

    serve::ResponseSlot slot;
    for (int round = 0; round < 3; ++round) {  // slot is reusable
        Request req;
        req.prog = prog;
        engine.submit(std::move(req), slot);
        Response resp = slot.wait();
        ASSERT_EQ(resp.status, RequestStatus::Ok);
        EXPECT_EQ(resp.wallTicks, ref.wallTicks);
        test::expectSameResults(resp.results, ref.results);
    }

    // Rejection is delivered through the slot too.
    ServeConfig tiny = smallEngineConfig(1);
    tiny.startPaused = true;
    tiny.queueCapacity = 1;
    ServeEngine full(net, tiny);
    serve::ResponseSlot s1, s2;
    Request r1, r2;
    r1.prog = prog;
    r2.prog = prog;
    full.submit(std::move(r1), s1);
    full.submit(std::move(r2), s2);
    Response rejected = s2.wait();
    EXPECT_EQ(rejected.status, RequestStatus::Rejected);
    full.start();
    EXPECT_EQ(s1.wait().status, RequestStatus::Ok);
}

TEST(RequestSeed, DeterministicAndSpread)
{
    EXPECT_EQ(serve::requestSeed(1, 0), serve::requestSeed(1, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seeds.insert(serve::requestSeed(42, i));
    EXPECT_EQ(seeds.size(), 1000u) << "seed chain must not collide";
    EXPECT_NE(serve::requestSeed(1, 5), serve::requestSeed(2, 5));
}

} // namespace
} // namespace snap
