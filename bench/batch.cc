/**
 * @file
 * Coalesced serving bench (writes BENCH_batch.json).
 *
 *   batch [num_serve_queries]    (default 64, a multiple of 8)
 *
 * A mix of 8 distinct programs, repeated, drained through a 1-worker
 * ServeEngine twice: unbatched (maxBatchLanes 1) and coalescing
 * (maxBatchLanes 8).  Both engines start paused, so group formation
 * is deterministic.  The coalescing engine runs each program once
 * per group of 8 and hands every member that run's answer.  Gates:
 * every response matches the unbatched engine bit-for-bit, every
 * group fills all 8 slots, and the simulated makespan — the farm's
 * op-count currency — shrinks >= 2x (it shrinks 8x: one simulated
 * run answers eight queries).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <vector>

#include "bench/bench_util.hh"
#include "serve/engine.hh"
#include "workload/kb_gen.hh"

using namespace snap;

namespace
{

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint64_t
fnv(std::uint64_t h, std::uint64_t v)
{
    return (h ^ v) * 1099511628211ull;
}

std::uint64_t
floatBits(float f)
{
    std::uint32_t u;
    static_assert(sizeof u == sizeof f, "float width");
    std::memcpy(&u, &f, sizeof u);
    return u;
}

std::uint64_t
digestResults(const ResultSet &rs)
{
    std::uint64_t h = 1469598103934665603ull;
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

struct ServeRun
{
    std::vector<ResultSet> results;
    std::vector<Tick> wallTicks;
    std::vector<std::uint32_t> lanes;
    serve::MetricsSnapshot metrics;
    double seconds = 0.0;
};

/** Query @p i of the serve mix: 8 distinct programs (8 start
 *  nodes), repeated so maxBatchLanes=8 forms full batches. */
Program
serveQuery(std::uint64_t i, const SemanticNetwork &net,
           RelationType down)
{
    auto start = static_cast<NodeId>(1 + (i % 8) * 97 %
                                     net.numNodes());
    Program prog;
    RuleId rule = prog.addRule(PropRule::chain(down));
    prog.append(Instruction::searchNode(start, 0, 0.0f));
    prog.append(Instruction::propagate(0, 1, rule,
                                       MarkerFunc::Count));
    prog.append(Instruction::barrier());
    prog.append(Instruction::collectMarker(1));
    return prog;
}

ServeRun
runServe(const SemanticNetwork &net,
         const std::vector<Program> &mix, std::uint32_t max_lanes)
{
    serve::ServeConfig cfg;
    cfg.numWorkers = 1;
    cfg.queueCapacity = mix.size();
    cfg.maxBatchLanes = max_lanes;
    cfg.startPaused = true;

    serve::ServeEngine engine(net, cfg);
    std::vector<std::future<serve::Response>> futures;
    futures.reserve(mix.size());
    for (const Program &p : mix) {
        serve::Request req;
        req.prog = p;
        futures.push_back(engine.submit(std::move(req)));
    }

    double t0 = now();
    engine.start();
    engine.drain();
    double t1 = now();

    ServeRun run;
    for (auto &f : futures) {
        serve::Response resp = f.get();
        snap_assert(resp.status == serve::RequestStatus::Ok,
                    "query not served");
        run.results.push_back(std::move(resp.results));
        run.wallTicks.push_back(resp.wallTicks);
        run.lanes.push_back(resp.batchLanes);
    }
    run.metrics = engine.metricsSnapshot();
    run.seconds = t1 - t0;
    return run;
}

void
writeJson(const ServeRun &solo, const ServeRun &batched)
{
    FILE *f = std::fopen("BENCH_batch.json", "w");
    if (!f) {
        std::fprintf(stderr, "cannot write BENCH_batch.json\n");
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"batch\",\n  %s,\n",
                 bench::jsonEnvelope().c_str());
    std::fprintf(
        f,
        "  \"serving\": {\"queries\": %zu, "
        "\"solo_sim_makespan_us\": %.1f, "
        "\"batched_sim_makespan_us\": %.1f, "
        "\"sim_amortization\": %.2f, \"batches\": %llu, "
        "\"mean_lanes\": %.2f, \"solo_host_s\": %.4f, "
        "\"batched_host_s\": %.4f}\n}\n",
        solo.results.size(),
        ticksToUs(solo.metrics.simMakespanTicks()),
        ticksToUs(batched.metrics.simMakespanTicks()),
        static_cast<double>(solo.metrics.simMakespanTicks()) /
            static_cast<double>(batched.metrics.simMakespanTicks()),
        static_cast<unsigned long long>(batched.metrics.batches),
        batched.metrics.batchLanes.mean(), solo.seconds,
        batched.seconds);
    std::fclose(f);
    std::printf("wrote BENCH_batch.json\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t num_queries = 64;
    if (argc > 1) {
        char *end = nullptr;
        unsigned long v = std::strtoul(argv[1], &end, 10);
        if (end == argv[1] || *end != '\0' || v < 8 || v % 8) {
            std::fprintf(
                stderr,
                "usage: batch [num_serve_queries, multiple of 8]\n");
            return 2;
        }
        num_queries = v;
    }

    bench::banner(
        "batch — coalesced serving of identical stateless queries",
        "one simulated run answers up to 8 queued same-program "
        "queries; answers stay bit-identical to solo while the "
        "simulated makespan shrinks with the group size");

    SemanticNetwork net = makeTreeKb(2000, 4);
    RelationType down = net.relationId("includes");
    std::vector<Program> mix;
    mix.reserve(num_queries);
    for (std::uint64_t i = 0; i < num_queries; ++i)
        mix.push_back(serveQuery(i, net, down));

    ServeRun solo = runServe(net, mix, 1);
    ServeRun batched = runServe(net, mix, 8);

    bool serve_identical = true;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        serve_identical &=
            batched.wallTicks[i] == solo.wallTicks[i] &&
            digestResults(batched.results[i]) ==
                digestResults(solo.results[i]);
    }
    bool lanes_full = true;
    for (std::uint32_t l : batched.lanes)
        lanes_full &= l == 8;
    double sim_amortization =
        static_cast<double>(solo.metrics.simMakespanTicks()) /
        static_cast<double>(batched.metrics.simMakespanTicks());
    std::printf("serving %zu queries (8 programs x %zu): solo sim "
                "makespan %.1f us, batched %.1f us (%.1fx); %llu "
                "batches, mean %.2f lanes\n\n",
                mix.size(), mix.size() / 8,
                ticksToUs(solo.metrics.simMakespanTicks()),
                ticksToUs(batched.metrics.simMakespanTicks()),
                sim_amortization,
                static_cast<unsigned long long>(
                    batched.metrics.batches),
                batched.metrics.batchLanes.mean());

    writeJson(solo, batched);

    bench::check("batched serving answers match solo bit-for-bit",
                 serve_identical);
    bench::check("batch former fills all 8 lanes deterministically",
                 lanes_full &&
                     batched.metrics.batchedRequests == num_queries);
    bench::check(
        "batched serving sim throughput >= 2x solo at 8 lanes",
        sim_amortization >= 2.0);
    return bench::finish();
}
