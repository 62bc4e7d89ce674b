/**
 * @file
 * Shared pieces of the repository benchmark (snapbench): arguments,
 * clocks, order statistics, the per-request outcome record, answer
 * fingerprints, the solo-machine answer oracle and the metric report.
 *
 * Every timing here is taken from outside the system, around calls
 * into public functions; the system's own tracing stays off.
 */

#ifndef SNAP_PERFBENCH_BENCH_HH
#define SNAP_PERFBENCH_BENCH_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "arch/config.hh"
#include "arch/kb_image.hh"
#include "isa/program.hh"
#include "runtime/results.hh"

namespace snap
{
namespace serve
{
class ServeEngine;
}

namespace perfbench
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    /** Directory for run artifacts (span dumps, exactness records). */
    std::string outDir = ".bench_build";
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** How the measurement cycles of a run went. */
struct CycleLog
{
    int run = 0;
    int kept = 0;
    /** Share of all host CPU time the hypervisor stole during the
     *  cycles (0 where the kernel reports no steal). */
    double stealShare = 0.0;
    /** Fewer than half the wanted cycles ran uncontended, so some
     *  contended ones are reported. */
    bool contended = false;
};

/** Everything one workload run reports back to main(). */
struct RunReport
{
    std::uint64_t attempted = 0;
    /** Requests answered with a non-Ok status (rejected, timed out,
     *  failed) or never answered. */
    std::uint64_t failed = 0;
    /** Ok answers that differ from the solo oracle. */
    std::uint64_t wrong = 0;
    /** Deterministic values that must repeat exactly for the same
     *  code and seed (simulated time, DES event counts). */
    std::vector<Metric> exact;
    /** Run-internal exactness failures (oracle vs replay). */
    std::vector<std::string> drift;
    std::vector<Metric> endToEnd;
    /** End-to-end values too noisy on a shared host to gate on: shown
     *  in the provenance line of an untraced run, and among the
     *  per-layer metrics of a traced one. */
    std::vector<Metric> ungated;
    std::vector<Metric> perLayer;
    double lagP99Ms = 0.0;
    double latencyP50Ms = 0.0;
    CycleLog cycles;
};

/** Host nanoseconds on the steady clock. */
std::uint64_t nowNs();

/** Sleep until steady-clock time @p ns (no-op when already past). */
void sleepUntilNs(std::uint64_t ns);

/** Process user + system CPU seconds so far. */
double cpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMb();

/** Nearest-rank quantile of @p v (0 when empty); @p q in (0, 1]. */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

/** FNV-1a over every collected node and link, in the order the
 *  machine returned them, plus the simulated time of the run: two
 *  answers are equal iff their fingerprints are (up to 2^-64). */
std::uint64_t fingerprint(const ResultSet &results, Tick wall_ticks);

/** splitmix64 finalizer (seed derivation). */
std::uint64_t mix64(std::uint64_t x);

/** Zipf(s) sampler over ranks 0..n-1 (inverse CDF). */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint32_t n, double s);
    /** Rank for a uniform draw @p u in [0, 1). */
    std::uint32_t sample(double u) const;

  private:
    std::vector<double> cdf_;
};

/** Outcome::status of a request not (yet) answered. */
constexpr std::uint8_t kNoAnswer = 0xff;

/**
 * One request of a measured phase.  The generator thread appends
 * records (std::deque keeps earlier records in place) and hands the
 * record's address to the completion callback, which fills the
 * answer side.  Phase ends (drain) order the callback's writes
 * before any read.
 */
struct Outcome
{
    /** Index of the program in the workload's program table. */
    std::uint32_t prog = 0;
    /** serve::RequestStatus of the answer. */
    std::uint8_t status = kNoAnswer;
    bool done = false;
    std::uint64_t fp = 0;
    /** When the request was due (open loop) or issued (closed loop). */
    std::uint64_t dueNs = 0;
    /** Span around the call into the layer's submit function. */
    std::uint64_t submitBeginNs = 0;
    std::uint64_t submitEndNs = 0;
    /** Completion callback entry. */
    std::uint64_t doneNs = 0;
    /** Layer-reported admission-queue and service time (host ms). */
    double queueMs = 0.0;
    double serviceMs = 0.0;
};

/** What one oracle run of one program produced. */
struct OracleAnswer
{
    std::uint64_t fp = 0;
    Tick wallTicks = 0;
    std::uint64_t events = 0;
    double hostNs = 0.0;
    Tick broadcastTicks = 0;
    Tick commTicks = 0;
    Tick syncTicks = 0;
    Tick collectTicks = 0;
    std::uint64_t messages = 0;
    std::uint64_t hops = 0;
    std::uint64_t linkTraversals = 0;
};

/** The request was answered with status Ok. */
bool answeredOk(const Outcome &o);

/**
 * The requests of one load phase and what the phase cost.  The phase
 * is cut into fixed windows; per-window values are summarised by
 * their median, so one host hiccup moves one window, not the result.
 */
struct Phase
{
    std::deque<Outcome> out;
    double seconds = 0.0;
    /** Engine worker busy host ms during the phase (all workers). */
    double busyMs = 0.0;

    std::uint64_t startNs = 0;
    static constexpr std::uint64_t windowNs = 500'000'000;
    /** Process CPU seconds at startNs + k * windowNs. */
    std::vector<double> cpuAt;

    /** Sample process CPU at every window boundary up to @p now
     *  (the generator calls this as it goes). */
    void tick(std::uint64_t now);
    /** Whole windows sampled. */
    std::size_t windows() const
    {
        return cpuAt.empty() ? 0 : cpuAt.size() - 1;
    }
};

/** The phases a metric is taken over (the kept measurement cycles). */
using Phases = std::vector<const Phase *>;

/** Median over every window of @p phases of the requests' latency
 *  quantile @p q (answer minus due time, ms; failed requests count as
 *  infinitely late), windows taken by due time. */
double medianLatencyMs(const Phases &phases, double q);

/** Median over every window of @p phases of the process CPU ms per
 *  request due in it. */
double medianCpuMsPerRequest(const Phases &phases);

/** Median over every window of @p phases of the answers equal to the
 *  oracle's completed per second. */
double medianThroughput(const Phases &phases,
                        const std::vector<OracleAnswer> &truth);

/** Measurement cycles of @p cycle_seconds that make @p seconds. */
int wantedCycles(double seconds, double cycle_seconds);

/**
 * Run measurement cycles of @p cycle_seconds until @p seconds worth
 * of them ran on an uncontended host, or 2.5x @p seconds have
 * passed.  A cycle is contended when the hypervisor stole more than
 * 5% of the host's CPU time during it (the aggregate `steal` of
 * /proc/stat): on a shared VM that halves throughput and multiplies
 * latency tenfold for minutes at a time, whatever the code does.
 * @p run_cycle(c) runs cycle c.  @return per cycle whether to report
 * it: the wanted number of least-stolen cycles.
 */
std::vector<bool> runCycles(double seconds, double cycle_seconds,
                            const std::function<void(int)> &run_cycle,
                            CycleLog &log);

/** Host times of one set-up (pack, load, stamp, connect), seconds. */
struct SetupTimes
{
    double pack = 0, load = 0, stamp = 0, connect = 0;
};

/** setup_s (median total) then the median of each step, setup.*. */
std::vector<Metric> setupMetrics(const std::vector<SetupTimes> &setups);

/** Worker busy host ms of @p eng so far, all workers. */
double busyMs(const serve::ServeEngine &eng);

/** Nanoseconds per call of @p fn over items 0..n-1, repeated until at
 *  least 20 ms have been timed. */
template <typename Fn>
double
nsPerCall(std::size_t n, Fn fn)
{
    if (n == 0)
        return 0.0;
    std::uint64_t calls = 0;
    const std::uint64_t t0 = nowNs();
    std::uint64_t t1 = t0;
    while (t1 - t0 < 20'000'000) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        calls += n;
        t1 = nowNs();
    }
    return static_cast<double>(t1 - t0) / static_cast<double>(calls);
}

/**
 * Solo SnapMachine ground truth.  Each chain is a list of program
 * indices run in order on one machine stamped from @p image, from
 * cleared markers: a one-element chain is a stateless query, a
 * longer one replays a session's turns.  Chains are spread over
 * @p threads machines; the answer of every program lands in
 * out[program index].
 */
void runOracle(const KbImage &image, const MachineConfig &cfg,
               const std::vector<Program> &programs,
               const std::vector<std::vector<std::uint32_t>> &chains,
               unsigned threads, std::vector<OracleAnswer> &out);

/**
 * The deterministic metrics of the oracle answers of @p reference:
 * mean simulated time first (sim_ms_per_query), then the sim.*
 * breakdown and machine.events_per_query.
 */
std::vector<Metric> simMetrics(const std::vector<OracleAnswer> &truth,
                               const std::vector<std::uint32_t> &reference);

/** Host cost of the machine layer on one thread. */
struct MachineLayer
{
    double runMsP50 = 0.0;
    double nsPerEvent = 0.0;
};

/**
 * Replay @p chains (covering @p reference) on one thread, timing
 * SnapMachine::run; any answer or event count that differs from
 * @p truth is reported in rep.drift.
 */
MachineLayer
replayMachine(const KbImage &image, const MachineConfig &cfg,
              const std::vector<Program> &programs,
              const std::vector<std::vector<std::uint32_t>> &chains,
              const std::vector<std::uint32_t> &reference,
              const std::vector<OracleAnswer> &truth, RunReport &rep);

/** Count @p ph's requests into @p rep (attempted only when
 *  @p measured): unanswered or non-Ok ones as failed, Ok answers that
 *  differ from @p truth as wrong. */
void checkPhase(const Phase &ph, const std::vector<OracleAnswer> &truth,
                bool measured, RunReport &rep);

int runFleet(const Args &args, RunReport &rep);

/** Median host us of MemoryBasedParser::buildProgram over seeded
 *  newswire sentences on the paper-scale MUC-4-style KB. */
double nluBuildProgramUs(std::uint64_t seed);

/** Write the traced run's request spans (one JSON object per line,
 *  grouped by request id) to @p path. */
void writeSpans(const std::string &path, const std::string &workload,
                const std::deque<Outcome> &outcomes);

} // namespace perfbench
} // namespace snap

#endif // SNAP_PERFBENCH_BENCH_HH
