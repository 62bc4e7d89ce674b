/**
 * @file
 * snapbench: the repository benchmark.
 *
 *   snapbench --workload fleet-zipf|fleet-sessions
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--out-dir DIR] [--source-digest HEX]
 *
 * Runs one workload against the public serving APIs, checks every
 * answer against a solo-machine oracle, and prints as its last line
 * one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the run records benchmark-side spans at each layer boundary and
 * reports the per-layer metrics instead.  The line before it carries
 * the run's provenance.  metrics.md describes every metric.
 *
 * Exit status: 0 when every answer matched the oracle and every
 * deterministic value repeated, 1 otherwise, 2 on a usage error.
 */

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hh"
#include "bench/bench_util.hh"

using namespace snap;
using namespace snap::perfbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "snapbench: %s\n"
                 "usage: snapbench --workload fleet-zipf|fleet-sessions "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--out-dir DIR] [--source-digest HEX]\n",
                 why.c_str());
    std::exit(2);
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The members of a JSON object naming each metric's value and unit. */
std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string json;
    for (const Metric &m : ms) {
        json += json.empty() ? "" : ", ";
        json += "\"" + m.name + "\": {\"value\": " + num(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    return json;
}

/**
 * Cross-run exactness: the deterministic values of (workload, seed,
 * source digest) are recorded on the first run and must read the
 * same on every later one.  @return the names that drifted.
 */
std::vector<std::string>
checkExactRecord(const Args &args, const std::string &digest,
                 const std::vector<Metric> &exact)
{
    const std::string path = args.outDir + "/exact-" + args.workload +
                             "-" + std::to_string(args.seed) + "-" +
                             digest + ".txt";
    std::ostringstream now;
    for (const Metric &m : exact)
        now << m.name << " " << num(m.value) << "\n";
    std::vector<std::string> drift;
    std::ifstream in(path);
    if (in) {
        std::stringstream was;
        was << in.rdbuf();
        if (was.str() != now.str()) {
            std::istringstream a(was.str()), b(now.str());
            std::string la, lb;
            while (std::getline(b, lb)) {
                if (!std::getline(a, la) || la != lb)
                    drift.push_back(lb + " (recorded: " + la + ")");
            }
            if (drift.empty())
                drift.push_back("record " + path + " differs");
        }
        return drift;
    }
    const std::string tmp = path + ".tmp" + std::to_string(::getpid());
    std::ofstream(tmp) << now.str();
    std::filesystem::rename(tmp, path);
    return drift;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string digest = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            args.workload = v;
        } else if (a == "--seed") {
            args.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed must be a whole number");
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(args.seconds >= 1.0) ||
                args.seconds > 600.0)
                usage("--seconds must be 1..600");
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            args.trace = v == "1";
        } else if (a == "--out-dir") {
            args.outDir = v;
        } else if (a == "--source-digest") {
            digest = v;
        } else {
            usage("unknown option " + a);
        }
    }

    RunReport rep;
    int rc = 1;
    if (args.workload == "fleet-zipf" || args.workload == "fleet-sessions")
        rc = runFleet(args, rep);
    else
        usage("unknown workload '" + args.workload + "'");
    if (rc != 0)
        return rc;

    for (const std::string &d : checkExactRecord(args, digest, rep.exact))
        rep.drift.push_back("deterministic value drifted: " + d);
    for (const std::string &d : rep.drift)
        std::fprintf(stderr, "snapbench: EXACTNESS: %s\n", d.c_str());
    if (rep.wrong > 0)
        std::fprintf(stderr, "snapbench: %llu answers differ from the "
                             "solo-machine oracle\n",
                     static_cast<unsigned long long>(rep.wrong));
    const bool correct = rep.wrong == 0 && rep.drift.empty();
    const std::uint64_t failed = rep.failed + rep.wrong;

    // Provenance: the bench envelope, the host, and how late the load
    // generator ran.  A run whose generator lag exceeds its own
    // latency p50 measured the generator, not the system: flag it.
    const bool lag_flag = rep.lagP99Ms > rep.latencyP50Ms;
    if (lag_flag)
        std::fprintf(stderr, "snapbench: FLAG: load generator lag p99 "
                             "%.3f ms exceeds latency p50 %.3f ms\n",
                     rep.lagP99Ms, rep.latencyP50Ms);
    // Cycles the hypervisor starved are dropped from the medians; a
    // run where most were starved keeps them all and is flagged.
    const CycleLog &cl = rep.cycles;
    if (cl.contended)
        std::fprintf(stderr, "snapbench: FLAG: host contended: hypervisor "
                             "steal %.1f%% of CPU time\n",
                     cl.stealShare * 100.0);
    std::printf("{\"provenance\": {%s, \"nproc\": %u, "
                "\"source_digest\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
                "\"loadgen.lag_p99_ms\": %s, \"lag_flagged\": %s, "
                "\"cycles\": {\"run\": %d, \"kept\": %d, "
                "\"steal_share\": %s, \"contended\": %s}, "
                "\"ungated\": {%s}}}\n",
                bench::jsonEnvelope().c_str(),
                std::thread::hardware_concurrency(), digest.c_str(),
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                num(args.seconds).c_str(), args.trace ? 1 : 0,
                num(rep.lagP99Ms).c_str(), lag_flag ? "true" : "false",
                cl.run, cl.kept, num(cl.stealShare).c_str(),
                cl.contended ? "true" : "false",
                metricsJson(rep.ungated).c_str());

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = rep.endToEnd;
    } else {
        metrics = rep.perLayer;
        metrics.insert(metrics.end(), rep.ungated.begin(), rep.ungated.end());
        for (const Metric &m : rep.exact)
            if (m.name != "sim_ms_per_query")
                metrics.push_back(m);
        metrics.push_back({"loadgen.lag_p99_ms", rep.lagP99Ms, "ms"});
        metrics.push_back(
            {"error_ratio",
             rep.attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(rep.attempted)
                               : 0.0,
             "ratio"});
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rep.attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    json += metricsJson(metrics) + "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
