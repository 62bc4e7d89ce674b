/**
 * @file
 * The two fleet workloads: fleet-zipf (stateless reads with hot keys)
 * and fleet-sessions (stateful turns interleaved with unique reads).
 *
 * Both pack a 16K-node concept tree to a .kbimg and serve it from two
 * in-process ShardServers (one worker each) behind a ShardRouter with
 * replication 2 over unix sockets.  One generator thread drives an
 * open-loop Poisson phase at a fixed rate, then a closed-loop
 * saturation phase with a fixed outstanding window.
 */

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "arch/kb_image_io.hh"
#include "bench.hh"
#include "common/rng.hh"
#include "shard/hash_ring.hh"
#include "shard/protocol.hh"
#include "shard/router.hh"
#include "shard/shard_server.hh"
#include "workload/kb_gen.hh"

namespace snap
{
namespace perfbench
{

namespace
{

constexpr std::uint32_t kTreeNodes = 16384;
constexpr std::uint32_t kShards = 2;
constexpr std::uint32_t kReplication = 2;
/** Distinct programs the fleet-zipf stream draws from. */
constexpr std::uint32_t kPoolSize = 4096;
constexpr double kZipfS = 1.0;
constexpr std::uint32_t kSessions = 64;
/** Warm-up programs (never measured, distinct from measured ones). */
constexpr std::uint32_t kWarmPool = 256;
constexpr double kWarmSeconds = 0.5;
/** One open-loop plus one saturation sub-phase. */
constexpr double kCycleSeconds = 2.0;
/** Offered rate of the open-loop sub-phases: about a quarter of the
 *  saturation throughput measured on a 4-vCPU VM (~15K and ~760
 *  req/s), so queues stay short and latency reflects per-request
 *  cost.  The headroom keeps the rate below capacity even when
 *  hypervisor steal takes half of a 4-vCPU VM, as measured. */
constexpr double kOpenRateZipf = 4000.0;
constexpr double kOpenRateSessions = 200.0;
/** Requests outstanding in the saturation phase. */
constexpr std::uint32_t kWindow = 64;
/** Propagation depth of a query: bounded so no single query (a start
 *  near the root) dominates a run's cost. */
constexpr std::uint32_t kMaxSteps = 3;
constexpr int kSetupReps = 15;
/** Requests of the fleet-sessions stream whose answers define the
 *  exact simulated-time reference set. */
constexpr std::uint32_t kSessionRefRequests = 2048;
/** Samples for the layer probes of the traced run. */
constexpr std::uint32_t kProbeSamples = 2048;

MachineConfig
fleetMachine()
{
    MachineConfig cfg = MachineConfig::paperSetup();
    cfg.perfNetEnabled = false;
    cfg.maxNodesPerCluster = capacity::maxNodes;
    return cfg;
}

serve::ServeConfig
shardServeConfig()
{
    serve::ServeConfig cfg;
    cfg.numWorkers = 1;
    // Coalesce identical stateless programs already queued (no wait).
    cfg.maxBatchLanes = 64;
    cfg.machine = fleetMachine();
    return cfg;
}

/** Inheritance (up is-a) or classification (down includes) query
 *  from @p start.  @p value tags the entry marker, which makes
 *  otherwise-equal queries distinct programs. */
Program
treeQuery(NodeId start, bool downward, float value, RelationType down,
          RelationType up)
{
    Program prog;
    PropRule rule = PropRule::chain(downward ? down : up);
    rule.maxSteps = kMaxSteps;
    RuleId rid = prog.addRule(std::move(rule));
    prog.append(Instruction::searchNode(start, 0, value));
    prog.append(Instruction::propagate(0, 1, rid, MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

/**
 * One stateful session turn: mark the ancestors of a new start node,
 * return those it shares with the session's context (every earlier
 * turn's ancestors), then fold them into the context.  The answer
 * depends on every earlier turn; the cost does not grow with them.
 */
Program
sessionTurn(NodeId start, RelationType up)
{
    constexpr MarkerId mStart = 2, mAnc = 3, mCtx = 4, mShared = 5;
    Program prog;
    RuleId rid = prog.addRule(PropRule::chain(up));
    prog.append(Instruction::clearMarker(mStart));
    prog.append(Instruction::clearMarker(mAnc));
    prog.append(Instruction::clearMarker(mShared));
    prog.append(Instruction::searchNode(start, mStart, 0.0f));
    prog.append(
        Instruction::propagate(mStart, mAnc, rid, MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(
        Instruction::andMarker(mAnc, mCtx, mShared, CombineOp::Sum));
    prog.append(
        Instruction::orMarker(mAnc, mCtx, mCtx, CombineOp::Min));
    prog.append(Instruction::collectMarker(mShared));
    return prog;
}

/** A running in-process shard: server + its accept-loop thread. */
struct FleetShard
{
    std::unique_ptr<shard::ShardServer> server;
    std::thread runner;

    ~FleetShard()
    {
        if (runner.joinable()) {
            server->stop();
            runner.join();
        }
    }
};

struct Fleet
{
    std::vector<std::unique_ptr<FleetShard>> shards;
    std::unique_ptr<shard::ShardRouter> router;

    ~Fleet()
    {
        if (router) {
            router->drain();
            router->shutdownShards();
            router.reset();
        }
        shards.clear();
    }
};

/** Pack, load, stamp and connect one fleet, timing each step. */
std::unique_ptr<Fleet>
buildFleet(const SemanticNetwork &net, const std::string &dir, int rep,
           SetupTimes &t)
{
    const serve::ServeConfig scfg = shardServeConfig();
    const std::string image_path =
        dir + "/r" + std::to_string(rep) + ".kbimg";
    auto fleet = std::make_unique<Fleet>();

    std::uint64_t t0 = nowNs();
    {
        KbImage image(net, scfg.machine);
        saveKbImageFile(net, image, scfg.machine.partition, image_path);
    }
    std::uint64_t t1 = nowNs();
    std::vector<KbImageFile> files(kShards);
    for (KbImageFile &f : files) {
        std::string detail;
        if (loadKbImageFile(image_path, f, detail) != KbImgStatus::Ok) {
            std::fprintf(stderr, "snapbench: cannot load %s: %s\n",
                         image_path.c_str(), detail.c_str());
            return nullptr;
        }
    }
    std::uint64_t t2 = nowNs();
    shard::RouterConfig rcfg;
    rcfg.replication = kReplication;
    for (std::uint32_t s = 0; s < kShards; ++s) {
        shard::ShardServerConfig cfg;
        cfg.listen = "unix:" + dir + "/r" + std::to_string(rep) + "s" +
                     std::to_string(s) + ".sock";
        cfg.serve = scfg;
        auto fs = std::make_unique<FleetShard>();
        fs->server = std::make_unique<shard::ShardServer>(
            std::move(files[s]), cfg);
        std::string detail;
        if (!fs->server->bind(detail)) {
            std::fprintf(stderr, "snapbench: cannot listen on %s: %s\n",
                         cfg.listen.c_str(), detail.c_str());
            return nullptr;
        }
        shard::ShardServer *srv = fs->server.get();
        fs->runner = std::thread([srv] { srv->run(); });
        rcfg.shards.push_back(cfg.listen);
        fleet->shards.push_back(std::move(fs));
    }
    std::uint64_t t3 = nowNs();
    fleet->router = std::make_unique<shard::ShardRouter>(rcfg);
    std::string detail;
    if (!fleet->router->connect(detail)) {
        std::fprintf(stderr, "snapbench: router connect: %s\n",
                     detail.c_str());
        fleet->router.reset();
        return nullptr;
    }
    std::uint64_t t4 = nowNs();
    std::remove(image_path.c_str());
    t.pack = static_cast<double>(t1 - t0) * 1e-9;
    t.load = static_cast<double>(t2 - t1) * 1e-9;
    t.stamp = static_cast<double>(t3 - t2) * 1e-9;
    t.connect = static_cast<double>(t4 - t3) * 1e-9;
    return fleet;
}

/** A request the generator is about to send. */
struct Pick
{
    std::uint32_t prog = 0;
    /** Session slot, or -1 for a stateless request. */
    int session = -1;
};

/** The workload's program table and request stream (generator
 *  thread only while phases run). */
struct Workload
{
    bool sessions = false;
    std::uint64_t seed = 0;
    RelationType down = 0, up = 0;
    std::vector<Program> programs;
    std::vector<std::string> sessionIds;
    /** Program indices of each session's turns, in turn order. */
    std::vector<std::vector<std::uint32_t>> turns;
    std::vector<std::uint32_t> warm;
    /** Programs whose oracle answers define the exact sim metrics. */
    std::vector<std::uint32_t> reference;
    /** Stateless programs of the reference set (engine probe). */
    std::vector<std::uint32_t> stateless;

    // fleet-zipf: the pool's programs by Zipf rank
    std::unique_ptr<ZipfSampler> zipf;
    std::vector<std::uint32_t> ranked;
    // stream state
    Rng rng{0};
    std::uint64_t issued = 0;
    std::uint64_t uniqueQueries = 0;

    std::uint32_t
    addProgram(Program p)
    {
        programs.push_back(std::move(p));
        return static_cast<std::uint32_t>(programs.size() - 1);
    }

    Pick
    next()
    {
        Pick pk;
        if (!sessions) {
            pk.prog = ranked[zipf->sample(rng.uniform())];
        } else if (rng.chance(0.5)) {
            auto s = static_cast<std::uint32_t>(rng.below(kSessions));
            const std::uint64_t t = turns[s].size();
            auto start = static_cast<NodeId>(
                mix64(seed ^ (0x7e55ull << 48) ^ (std::uint64_t{s} << 32) ^
                      t) %
                kTreeNodes);
            pk.prog = addProgram(sessionTurn(start, up));
            turns[s].push_back(pk.prog);
            pk.session = static_cast<int>(s);
        } else {
            auto start = static_cast<NodeId>(rng.below(kTreeNodes));
            bool downward = rng.chance(0.5);
            // A fresh entry value per query: every stateless query of
            // this workload is a distinct program.
            float tag = static_cast<float>(++uniqueQueries);
            pk.prog = addProgram(treeQuery(start, downward, tag, down, up));
            if (issued < kSessionRefRequests)
                stateless.push_back(pk.prog);
        }
        if (sessions && issued < kSessionRefRequests)
            reference.push_back(pk.prog);
        ++issued;
        return pk;
    }
};

void
initWorkload(Workload &w, const SemanticNetwork &net, bool sessions,
             std::uint64_t seed)
{
    w.sessions = sessions;
    w.seed = seed;
    w.down = net.relationId("includes");
    w.up = net.relationId("is-a");
    Rng gen(mix64(seed ^ 0x9001));
    for (std::uint32_t i = 0; i < kWarmPool; ++i) {
        w.warm.push_back(w.addProgram(treeQuery(
            static_cast<NodeId>(gen.below(kTreeNodes)), gen.chance(0.5),
            -1.0f - static_cast<float>(i), w.down, w.up)));
    }
    if (!sessions) {
        // Distinct (start, direction) pairs, in draw order per owner.
        std::unordered_set<std::uint64_t> seen;
        const shard::HashRing ring(kShards);
        std::vector<std::vector<std::uint32_t>> owned(kShards);
        while (w.reference.size() < kPoolSize) {
            auto start = static_cast<NodeId>(gen.below(kTreeNodes));
            bool downward = gen.chance(0.5);
            if (!seen.insert(std::uint64_t{start} * 2 + downward).second)
                continue;
            std::uint32_t p = w.addProgram(
                treeQuery(start, downward, 0.0f, w.down, w.up));
            w.reference.push_back(p);
            owned[ring.owner(w.programs[p].contentHash())].push_back(p);
        }
        // Zipf ranks go to whichever owner carries less Zipf weight so
        // far.  Each hot key still lands on one owner, but the two
        // owners carry equal load for every seed; ranking in plain
        // draw order would leave which shard runs hot (and so the
        // saturation throughput, which swings ~2x) to the seed.
        std::vector<double> weight(kShards, 0.0);
        std::vector<std::size_t> taken(kShards, 0);
        for (std::uint32_t r = 0; r < kPoolSize; ++r) {
            std::uint32_t best = kShards;
            for (std::uint32_t s = 0; s < kShards; ++s)
                if (taken[s] < owned[s].size() &&
                    (best == kShards || weight[s] < weight[best]))
                    best = s;
            w.ranked.push_back(owned[best][taken[best]++]);
            weight[best] += 1.0 / std::pow(r + 1.0, kZipfS);
        }
        w.zipf = std::make_unique<ZipfSampler>(kPoolSize, kZipfS);
        w.stateless = w.reference;
    } else {
        w.turns.resize(kSessions);
        for (std::uint32_t s = 0; s < kSessions; ++s)
            w.sessionIds.push_back("sess-" + std::to_string(s));
    }
    w.rng = Rng(mix64(seed ^ 0x57e4));
}

/** Oracle chains over the programs @p keep selects: each session's
 *  kept turns in turn order, every other kept program alone. */
std::vector<std::vector<std::uint32_t>>
oracleChains(const Workload &w, const std::vector<bool> &keep)
{
    std::vector<std::vector<std::uint32_t>> chains;
    std::vector<bool> in_session(w.programs.size(), false);
    for (const auto &turns : w.turns) {
        std::vector<std::uint32_t> kept;
        for (std::uint32_t p : turns) {
            in_session[p] = true;
            if (keep[p])
                kept.push_back(p);
        }
        if (!kept.empty())
            chains.push_back(std::move(kept));
    }
    for (std::uint32_t p = 0; p < w.programs.size(); ++p)
        if (keep[p] && !in_session[p])
            chains.push_back({p});
    return chains;
}

/** Captured response frames of the traced run (wire probes). */
struct FrameSample
{
    std::mutex mu;
    std::vector<shard::ResponseFrame> frames;
};

void
submitOne(shard::ShardRouter &router, const Workload &w, const Pick &pk,
          Outcome &o, bool traced, std::counting_semaphore<> *slots,
          FrameSample *sample)
{
    shard::RouterRequest req;
    if (pk.session >= 0)
        req.sessionId = w.sessionIds[static_cast<std::size_t>(pk.session)];
    req.prog = w.programs[pk.prog];
    o.prog = pk.prog;
    o.submitBeginNs = nowNs();
    router.submit(std::move(req), [&o, slots, sample](
                                      shard::ResponseFrame &&resp) {
        o.doneNs = nowNs();
        o.status = static_cast<std::uint8_t>(resp.status);
        o.fp = fingerprint(resp.results, resp.wallTicks);
        o.queueMs = resp.queueMs;
        o.serviceMs = resp.serviceMs;
        o.done = true;
        if (sample) {
            std::lock_guard<std::mutex> lock(sample->mu);
            if (sample->frames.size() < kProbeSamples)
                sample->frames.push_back(std::move(resp));
        }
        if (slots)
            slots->release();
    });
    if (traced)
        o.submitEndNs = nowNs();
}

double
engineBusyMs(Fleet &fleet)
{
    double ms = 0.0;
    for (auto &s : fleet.shards)
        ms += busyMs(s->server->engine());
    return ms;
}

/** Open loop: Poisson arrivals at @p rate for @p seconds. */
void
openLoop(Fleet &fleet, Workload &w, double rate, double seconds,
         bool traced, Phase &ph, FrameSample *sample, int cycle)
{
    Rng arrivals(mix64(w.seed ^ 0xa441 ^ (std::uint64_t(cycle) << 20)));
    // Wake the generator within ~1 us of each due time instead of the
    // default 50 us timer slack.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double busy0 = engineBusyMs(fleet);
    ph.startNs = nowNs() + 1'000'000;
    const std::uint64_t stop =
        ph.startNs + static_cast<std::uint64_t>(seconds * 1e9);
    double at = 0.0;
    for (;;) {
        at += -std::log(1.0 - arrivals.uniform()) / rate;
        const std::uint64_t due =
            ph.startNs + static_cast<std::uint64_t>(at * 1e9);
        if (due >= stop)
            break;
        Pick pk = w.next();
        sleepUntilNs(due);
        ph.tick(due);
        Outcome &o = ph.out.emplace_back();
        o.dueNs = due;
        submitOne(*fleet.router, w, pk, o, traced, nullptr, sample);
    }
    sleepUntilNs(stop);
    ph.tick(stop);
    fleet.router->drain();
    ph.seconds = static_cast<double>(nowNs() - ph.startNs) * 1e-9;
    ph.busyMs = engineBusyMs(fleet) - busy0;
}

/** Closed loop: keep @p window requests outstanding for @p seconds;
 *  @p pick chooses each request. */
template <typename PickFn>
void
closedLoop(Fleet &fleet, Workload &w, std::uint32_t window,
           double seconds, bool traced, Phase &ph, PickFn pick,
           FrameSample *sample)
{
    std::counting_semaphore<> slots(window);
    const double busy0 = engineBusyMs(fleet);
    ph.startNs = nowNs();
    const std::uint64_t stop =
        ph.startNs + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::uint64_t now = ph.startNs; now < stop; now = nowNs()) {
        ph.tick(now);
        slots.acquire();
        Pick pk = pick();
        Outcome &o = ph.out.emplace_back();
        o.dueNs = nowNs();
        submitOne(*fleet.router, w, pk, o, traced, &slots, sample);
    }
    ph.tick(stop);
    fleet.router->drain();
    ph.seconds = static_cast<double>(nowNs() - ph.startNs) * 1e-9;
    ph.busyMs = engineBusyMs(fleet) - busy0;
}

struct EngineCounts
{
    std::uint64_t completed = 0, batched = 0, rejected = 0, timedOut = 0,
                  retries = 0;
};

EngineCounts
engineCounts(Fleet &fleet)
{
    EngineCounts c;
    for (auto &s : fleet.shards) {
        serve::MetricsSnapshot m = s->server->engine().metricsSnapshot();
        c.completed += m.completed;
        c.batched += m.batchedRequests;
        c.rejected += m.rejected;
        c.timedOut += m.timedOut;
        c.retries += m.retries;
    }
    return c;
}

std::uint64_t g_sink = 0;

} // namespace

int
runFleet(const Args &args, RunReport &rep)
{
    const bool sessions = args.workload == "fleet-sessions";
    const std::string dir =
        args.outDir + "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    struct DirGuard
    {
        std::string path;
        ~DirGuard() { std::filesystem::remove_all(path); }
    } guard{dir};

    // Inputs (not part of set-up).
    SemanticNetwork net = makeTreeKb(kTreeNodes, 4);
    Workload w;
    initWorkload(w, net, sessions, args.seed);

    // Set-up, several times; the last fleet serves the run.
    std::vector<SetupTimes> setups;
    std::unique_ptr<Fleet> fleet;
    for (int r = 0; r < kSetupReps; ++r) {
        fleet.reset();
        SetupTimes t;
        fleet = buildFleet(net, dir, r, t);
        if (!fleet)
            return 1;
        setups.push_back(t);
    }

    // Warm-up on programs that are never measured.
    Phase warm;
    {
        std::uint32_t k = 0;
        closedLoop(*fleet, w, kWindow, kWarmSeconds, false, warm,
                   [&] { return Pick{w.warm[k++ % kWarmPool], -1}; },
                   nullptr);
    }

    const double open_rate = sessions ? kOpenRateSessions : kOpenRateZipf;
    auto pick = [&] { return w.next(); };
    // Measured cycles, each an open-loop then a saturation sub-phase,
    // so slow changes of the host spread over both.  The traced run
    // traces every open-loop sub-phase and every other saturation
    // one; the untraced ones give trace.overhead_ratio its base.
    struct Cycle
    {
        Phase open, sat;
        bool traced = false;
    };
    FrameSample frames;
    std::deque<Cycle> cycles;
    const double half = kCycleSeconds / 2;
    const EngineCounts ec0 = engineCounts(*fleet);
    // Peak RSS once the wanted cycles ran: cycles added to replace
    // contended ones would otherwise grow it with the outcome records.
    const int wanted = wantedCycles(args.seconds, kCycleSeconds);
    double peak_rss_mb = 0.0;
    const std::vector<bool> keep = runCycles(
        args.seconds, kCycleSeconds,
        [&](int c) {
            Cycle &cy = cycles.emplace_back();
            cy.traced = args.trace && c % 2 == 1;
            openLoop(*fleet, w, open_rate, half, args.trace, cy.open,
                     args.trace ? &frames : nullptr, c);
            closedLoop(*fleet, w, kWindow, half, cy.traced, cy.sat, pick,
                       nullptr);
            if (c + 1 == wanted)
                peak_rss_mb = peakRssMb();
        },
        rep.cycles);
    Phases opens, sats, satsTraced;
    for (std::size_t c = 0; c < cycles.size(); ++c) {
        if (!keep[c])
            continue;
        opens.push_back(&cycles[c].open);
        (cycles[c].traced ? satsTraced : sats).push_back(&cycles[c].sat);
    }
    const EngineCounts ec1 = engineCounts(*fleet);

    // Engine submit probe (traced run): time ServeEngine::submit
    // directly on shard 0 with the workload's stateless programs.
    Phase probe;
    std::vector<double> engine_submit_us;
    if (args.trace && !w.stateless.empty()) {
        serve::ServeEngine &eng = fleet->shards[0]->server->engine();
        std::counting_semaphore<> slots(kWindow);
        for (std::uint32_t i = 0; i < kProbeSamples; ++i) {
            slots.acquire();
            Outcome &o = probe.out.emplace_back();
            o.prog = w.stateless[i % w.stateless.size()];
            serve::Request req;
            req.prog = w.programs[o.prog];
            std::uint64_t t0 = nowNs();
            eng.submit(std::move(req), [&o, &slots](serve::Response &&r) {
                o.status = static_cast<std::uint8_t>(r.status);
                o.fp = fingerprint(r.results, r.wallTicks);
                o.done = true;
                slots.release();
            });
            engine_submit_us.push_back(
                static_cast<double>(nowNs() - t0) * 1e-3);
        }
        eng.drain();
    }

    // Router counters, then tear the fleet down before the oracle.
    shard::ShardRouter &router = *fleet->router;
    const double reroutes = static_cast<double>(router.rerouteCount());
    const double hedges = static_cast<double>(router.hedgeCount());
    const double failovers = static_cast<double>(router.failoverCount());
    const double corrupt =
        static_cast<double>(router.corruptResponseCount());
    const double migrated = static_cast<double>(router.migratedCount());
    const double warmups = static_cast<double>(router.warmupCount());
    fleet.reset();

    // The exact reference set is the stream's first requests, sent or
    // not, so it does not depend on how long the run was.
    while (sessions && w.issued < kSessionRefRequests)
        w.next();

    // --- oracle: every distinct stateless program once, every session
    // replayed in turn order, on solo machines. -----------------------
    const serve::ServeConfig scfg = shardServeConfig();
    KbImage image(net, scfg.machine);
    std::vector<OracleAnswer> truth;
    runOracle(image, scfg.machine, w.programs,
              oracleChains(w, std::vector<bool>(w.programs.size(), true)),
              std::max(1u, std::thread::hardware_concurrency()), truth);

    // --- check every answer ------------------------------------------
    checkPhase(warm, truth, false, rep);
    for (const Cycle &cy : cycles) {
        checkPhase(cy.open, truth, true, rep);
        checkPhase(cy.sat, truth, true, rep);
    }
    checkPhase(probe, truth, true, rep);

    // --- end-to-end: medians over the kept sub-phases' windows --------
    std::vector<double> lag;
    for (const Phase *ph : opens)
        for (const Outcome &o : ph->out)
            lag.push_back(static_cast<double>(o.submitBeginNs - o.dueNs) *
                          1e-6);
    const double sat_qps = medianThroughput(sats, truth);
    const std::vector<Metric> setup = setupMetrics(setups);

    rep.exact = simMetrics(truth, w.reference);
    const double sim_ms = rep.exact.front().value;

    rep.lagP99Ms = quantile(lag, 0.99);
    rep.latencyP50Ms = medianLatencyMs(opens, 0.5);
    rep.ungated = {{"latency_p99_ms", medianLatencyMs(opens, 0.99), "ms"}};
    rep.endToEnd = {
        setup.front(),
        {"throughput_qps", sat_qps, "1/s"},
        {"latency_p50_ms", rep.latencyP50Ms, "ms"},
        {"cpu_ms_per_query", medianCpuMsPerRequest(opens), "ms"},
        {"sim_ms_per_query", sim_ms, "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    if (!args.trace)
        return 0;

    // --- per-layer (traced run) ---------------------------------------
    // Machine: single-threaded replay of the reference set, checked
    // against the oracle for drift.
    std::vector<bool> in_ref(w.programs.size(), false);
    for (std::uint32_t p : w.reference)
        in_ref[p] = true;
    const MachineLayer machine =
        replayMachine(image, scfg.machine, w.programs,
                      oracleChains(w, in_ref), w.reference, truth, rep);

    // Router submit spans and the wire overhead (open loop, traced).
    std::vector<double> submit_us, overhead_ms;
    std::vector<shard::RequestFrame> reqs;
    for (const Phase *ph : opens) {
        for (const Outcome &o : ph->out) {
            if (!o.done)
                continue;
            submit_us.push_back(
                static_cast<double>(o.submitEndNs - o.submitBeginNs) *
                1e-3);
            overhead_ms.push_back(
                static_cast<double>(o.doneNs - o.submitBeginNs) * 1e-6 -
                o.queueMs - o.serviceMs);
            // The request frames the router sent (wire probes).
            if (reqs.size() < kProbeSamples) {
                shard::RequestFrame &f = reqs.emplace_back();
                f.id = reqs.size();
                f.prog = w.programs[o.prog];
            }
        }
    }
    // Engine queue/service under saturation (traced).
    std::vector<double> queue_ms, service_ms;
    double busy_ms = 0.0, busy_s = 0.0;
    for (const Phase *ph : satsTraced) {
        for (const Outcome &o : ph->out) {
            if (!o.done)
                continue;
            queue_ms.push_back(o.queueMs);
            service_ms.push_back(o.serviceMs);
        }
        busy_ms += ph->busyMs;
        busy_s += ph->seconds;
    }

    std::vector<std::vector<std::uint8_t>> req_bytes(reqs.size()),
        resp_bytes(frames.frames.size());
    double req_total = 0, resp_total = 0;
    const double enc_req = nsPerCall(reqs.size(), [&](std::size_t i) {
        shard::WireWriter wr;
        shard::encodeRequest(wr, reqs[i]);
        req_bytes[i] = wr.take();
    });
    for (const auto &b : req_bytes)
        req_total += static_cast<double>(b.size());
    const double dec_req = nsPerCall(reqs.size(), [&](std::size_t i) {
        shard::WireReader rd(req_bytes[i]);
        shard::RequestFrame f;
        if (!shard::decodeRequest(rd, f))
            rep.drift.push_back("captured request frame failed to decode");
        g_sink += f.id;
    });
    const double enc_resp =
        nsPerCall(frames.frames.size(), [&](std::size_t i) {
            shard::WireWriter wr;
            shard::encodeResponse(wr, frames.frames[i]);
            resp_bytes[i] = wr.take();
        });
    for (const auto &b : resp_bytes)
        resp_total += static_cast<double>(b.size());
    const double dec_resp =
        nsPerCall(frames.frames.size(), [&](std::size_t i) {
            shard::WireReader rd(resp_bytes[i]);
            shard::ResponseFrame f;
            if (!shard::decodeResponse(rd, f))
                rep.drift.push_back(
                    "captured response frame failed to decode");
            g_sink += f.id;
        });

    // Ring lookup and content hashing over the reference programs.
    std::vector<std::uint64_t> keys;
    for (std::uint32_t p : w.reference)
        keys.push_back(w.programs[p].contentHash());
    shard::HashRing ring(kShards);
    const double owner_ns = nsPerCall(keys.size(), [&](std::size_t i) {
        g_sink += ring.owner(keys[i]);
    });
    const double hash_ns = nsPerCall(w.reference.size(), [&](std::size_t i) {
        g_sink += w.programs[w.reference[i]].contentHash();
    });

    const double completed =
        static_cast<double>(ec1.completed - ec0.completed);
    const double traced_qps = medianThroughput(satsTraced, truth);
    const double nreq = static_cast<double>(reqs.size());
    const double nresp = static_cast<double>(resp_bytes.size());
    rep.perLayer = {
        {"router.submit_us_p50", quantile(submit_us, 0.5), "us"},
        {"router.submit_us_p99", quantile(submit_us, 0.99), "us"},
        {"router.ring_owner_ns", owner_ns, "ns"},
        {"router.reroutes", reroutes, "count"},
        {"router.hedges", hedges, "count"},
        {"router.failovers", failovers, "count"},
        {"router.corrupt_responses", corrupt, "count"},
        {"router.warmups", warmups, "count"},
        {"router.migrated", migrated, "count"},
        {"wire.request_bytes", nreq > 0 ? req_total / nreq : 0, "B"},
        {"wire.response_bytes", nresp > 0 ? resp_total / nresp : 0, "B"},
        {"wire.encode_request_ns", enc_req, "ns"},
        {"wire.decode_request_ns", dec_req, "ns"},
        {"wire.encode_response_ns", enc_resp, "ns"},
        {"wire.decode_response_ns", dec_resp, "ns"},
        {"wire.overhead_p50_ms", quantile(overhead_ms, 0.5), "ms"},
        {"engine.queue_ms_p50", quantile(queue_ms, 0.5), "ms"},
        {"engine.queue_ms_p99", quantile(queue_ms, 0.99), "ms"},
        {"engine.service_ms_p50", quantile(service_ms, 0.5), "ms"},
        {"engine.service_ms_p99", quantile(service_ms, 0.99), "ms"},
        {"engine.worker_util",
         busy_s > 0 ? busy_ms / (kShards * busy_s * 1e3) : 0.0, "ratio"},
        {"engine.submit_us", quantile(engine_submit_us, 0.5), "us"},
        {"engine.coalesced_ratio",
         completed > 0
             ? static_cast<double>(ec1.batched - ec0.batched) / completed
             : 0.0,
         "ratio"},
        {"engine.completed", completed, "count"},
        {"engine.rejected",
         static_cast<double>(ec1.rejected - ec0.rejected), "count"},
        {"engine.timed_out",
         static_cast<double>(ec1.timedOut - ec0.timedOut), "count"},
        {"engine.retries", static_cast<double>(ec1.retries - ec0.retries),
         "count"},
        {"machine.run_ms_p50", machine.runMsP50, "ms"},
        {"machine.ns_per_event", machine.nsPerEvent, "ns"},
        {"isa.content_hash_ns", hash_ns, "ns"},
        {"nlu.build_program_us", nluBuildProgramUs(args.seed), "us"},
        {"trace.overhead_ratio", sat_qps > 0 ? traced_qps / sat_qps : 0.0,
         "ratio"},
    };
    rep.perLayer.insert(rep.perLayer.end(), setup.begin() + 1, setup.end());

    std::deque<Outcome> spans;
    for (const Phases *phs : {&opens, &satsTraced})
        for (const Phase *ph : *phs)
            spans.insert(spans.end(), ph->out.begin(), ph->out.end());
    writeSpans(args.outDir + "/spans-" + args.workload + ".jsonl",
               args.workload, spans);
    return 0;
}

} // namespace perfbench
} // namespace snap
