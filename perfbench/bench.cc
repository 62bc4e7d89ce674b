/**
 * @file
 * Shared helpers of the repository benchmark (see bench.hh).
 */

#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "arch/machine.hh"
#include "serve/engine.hh"

namespace snap
{
namespace perfbench
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
sleepUntilNs(std::uint64_t ns)
{
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(ns)));
}

double
cpuSeconds()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const struct timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    struct rusage ru;
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += x;
    return s / static_cast<double>(v.size());
}

namespace
{

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

std::uint64_t
floatBits(float f)
{
    std::uint32_t b;
    static_assert(sizeof(b) == sizeof(f));
    __builtin_memcpy(&b, &f, sizeof(b));
    return b;
}

} // namespace

std::uint64_t
fingerprint(const ResultSet &results, Tick wall_ticks)
{
    std::uint64_t h = kFnvBasis;
    fnvMix(h, static_cast<std::uint64_t>(wall_ticks));
    fnvMix(h, results.size());
    for (const CollectResult &r : results) {
        fnvMix(h, static_cast<std::uint64_t>(r.op) |
                      (static_cast<std::uint64_t>(r.marker) << 8));
        fnvMix(h, r.nodes.size());
        for (const CollectedNode &n : r.nodes) {
            fnvMix(h, n.node);
            fnvMix(h, floatBits(n.value) |
                          (static_cast<std::uint64_t>(n.origin) << 32));
        }
        fnvMix(h, r.links.size());
        for (const CollectedLink &l : r.links) {
            fnvMix(h, l.src | (static_cast<std::uint64_t>(l.dst) << 32));
            fnvMix(h, l.rel | (floatBits(l.weight) << 32));
        }
    }
    return h;
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

ZipfSampler::ZipfSampler(std::uint32_t n, double s) : cdf_(n)
{
    double total = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf_[i] = total;
    }
    for (double &c : cdf_)
        c /= total;
}

std::uint32_t
ZipfSampler::sample(double u) const
{
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end())
        return static_cast<std::uint32_t>(cdf_.size() - 1);
    return static_cast<std::uint32_t>(it - cdf_.begin());
}

void
runOracle(const KbImage &image, const MachineConfig &cfg,
          const std::vector<Program> &programs,
          const std::vector<std::vector<std::uint32_t>> &chains,
          unsigned threads, std::vector<OracleAnswer> &out)
{
    out.resize(programs.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        MachineConfig mcfg = cfg;
        mcfg.numClusters = image.numClusters();
        SnapMachine m(mcfg);
        m.loadKb(image);
        for (;;) {
            std::size_t c = next.fetch_add(1);
            if (c >= chains.size())
                return;
            m.image().resetMarkers();
            for (std::uint32_t p : chains[c]) {
                std::uint64_t ev0 = m.eventsProcessed();
                std::uint64_t t0 = nowNs();
                RunResult run = m.run(programs[p]);
                std::uint64_t t1 = nowNs();
                OracleAnswer &a = out[p];
                a.fp = fingerprint(run.results, run.wallTicks);
                a.wallTicks = run.wallTicks;
                a.events = m.eventsProcessed() - ev0;
                a.hostNs = static_cast<double>(t1 - t0);
                a.broadcastTicks = run.stats.broadcastTicks;
                a.commTicks = run.stats.commTicks;
                a.syncTicks = run.stats.syncTicks;
                a.collectTicks = run.stats.collectTicks;
                a.messages = run.stats.messagesSent;
                a.hops = run.stats.messageHops;
                a.linkTraversals = run.stats.linkTraversals;
            }
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, threads); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &t : pool)
        t.join();
}

bool
answeredOk(const Outcome &o)
{
    return o.done &&
           o.status == static_cast<std::uint8_t>(serve::RequestStatus::Ok);
}

void
checkPhase(const Phase &ph, const std::vector<OracleAnswer> &truth,
           bool measured, RunReport &rep)
{
    for (const Outcome &o : ph.out) {
        if (measured)
            ++rep.attempted;
        if (!answeredOk(o))
            ++rep.failed;
        else if (o.fp != truth[o.prog].fp)
            ++rep.wrong;
    }
}

std::vector<Metric>
simMetrics(const std::vector<OracleAnswer> &truth,
           const std::vector<std::uint32_t> &reference)
{
    std::vector<double> wall_us;
    double events = 0, bcast = 0, comm = 0, sync = 0, coll = 0, msgs = 0,
           hops = 0, links = 0;
    for (std::uint32_t p : reference) {
        const OracleAnswer &a = truth[p];
        wall_us.push_back(ticksToUs(a.wallTicks));
        events += static_cast<double>(a.events);
        bcast += ticksToUs(a.broadcastTicks);
        comm += ticksToUs(a.commTicks);
        sync += ticksToUs(a.syncTicks);
        coll += ticksToUs(a.collectTicks);
        msgs += static_cast<double>(a.messages);
        hops += static_cast<double>(a.hops);
        links += static_cast<double>(a.linkTraversals);
    }
    const double n =
        std::max(1.0, static_cast<double>(reference.size()));
    return {
        {"sim_ms_per_query", mean(wall_us) * 1e-3, "ms"},
        {"sim.wall_us_p50", quantile(wall_us, 0.5), "us"},
        {"sim.broadcast_us", bcast / n, "us"},
        {"sim.comm_us", comm / n, "us"},
        {"sim.sync_us", sync / n, "us"},
        {"sim.collect_us", coll / n, "us"},
        {"sim.messages", msgs / n, "count"},
        {"sim.hops", hops / n, "count"},
        {"sim.link_traversals", links / n, "count"},
        {"machine.events_per_query", events / n, "count"},
    };
}

MachineLayer
replayMachine(const KbImage &image, const MachineConfig &cfg,
              const std::vector<Program> &programs,
              const std::vector<std::vector<std::uint32_t>> &chains,
              const std::vector<std::uint32_t> &reference,
              const std::vector<OracleAnswer> &truth, RunReport &rep)
{
    std::vector<OracleAnswer> replay;
    runOracle(image, cfg, programs, chains, 1, replay);
    std::vector<double> run_ms;
    double host_ns = 0, events = 0;
    for (std::uint32_t p : reference) {
        if (replay[p].fp != truth[p].fp ||
            replay[p].events != truth[p].events)
            rep.drift.push_back("machine replay of program " +
                                std::to_string(p) +
                                " differs from the oracle run");
        run_ms.push_back(replay[p].hostNs * 1e-6);
        host_ns += replay[p].hostNs;
        events += static_cast<double>(replay[p].events);
    }
    MachineLayer m;
    m.runMsP50 = quantile(run_ms, 0.5);
    m.nsPerEvent = events > 0 ? host_ns / events : 0.0;
    return m;
}

void
Phase::tick(std::uint64_t now)
{
    while (now >= startNs + cpuAt.size() * windowNs)
        cpuAt.push_back(cpuSeconds());
}

namespace
{

/** Outcomes of @p ph grouped by the whole window @p key falls in. */
template <typename Key>
std::vector<std::vector<const Outcome *>>
byWindow(const Phase &ph, Key key)
{
    std::vector<std::vector<const Outcome *>> w(ph.windows());
    for (const Outcome &o : ph.out) {
        const std::uint64_t t = key(o);
        if (t < ph.startNs)
            continue;
        const std::uint64_t k = (t - ph.startNs) / ph.windowNs;
        if (k < w.size())
            w[k].push_back(&o);
    }
    return w;
}

/** Quantile @p q of latency per window of due times. */
std::vector<double>
windowLatency(const Phase &ph, double q)
{
    std::vector<double> out;
    for (const auto &win :
         byWindow(ph, [](const Outcome &o) { return o.dueNs; })) {
        std::vector<double> lat;
        for (const Outcome *o : win)
            lat.push_back(answeredOk(*o) ? static_cast<double>(
                                               o->doneNs - o->dueNs) *
                                               1e-6
                                         : INFINITY);
        if (!lat.empty())
            out.push_back(quantile(lat, q));
    }
    return out;
}

std::vector<double>
windowCpuMsPerRequest(const Phase &ph)
{
    std::vector<double> out;
    const auto wins =
        byWindow(ph, [](const Outcome &o) { return o.dueNs; });
    for (std::size_t k = 0; k < wins.size(); ++k)
        if (!wins[k].empty())
            out.push_back((ph.cpuAt[k + 1] - ph.cpuAt[k]) * 1e3 /
                          static_cast<double>(wins[k].size()));
    return out;
}

std::vector<double>
windowThroughput(const Phase &ph, const std::vector<OracleAnswer> &truth)
{
    std::vector<double> out;
    for (const auto &win :
         byWindow(ph, [](const Outcome &o) { return o.doneNs; })) {
        double ok = 0;
        for (const Outcome *o : win)
            if (answeredOk(*o) && o->fp == truth[o->prog].fp)
                ++ok;
        out.push_back(ok / (static_cast<double>(ph.windowNs) * 1e-9));
    }
    return out;
}

/** Median of the per-window values @p fn gives for all @p phases. */
template <typename Fn>
double
medianOverWindows(const Phases &phases, Fn fn)
{
    std::vector<double> all;
    for (const Phase *ph : phases) {
        const std::vector<double> v = fn(*ph);
        all.insert(all.end(), v.begin(), v.end());
    }
    return quantile(all, 0.5);
}

/** Aggregate CPU ticks of the host: stolen and total. */
struct HostTicks
{
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

HostTicks
hostTicks()
{
    HostTicks t;
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    if (cpu != "cpu")
        return t;
    // user nice system idle iowait irq softirq steal ...
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        if (!(in >> v))
            return HostTicks{};
        t.total += v;
        if (field == 7)
            t.steal = v;
    }
    return t;
}

double
stealShare(const HostTicks &from, const HostTicks &to)
{
    return to.total > from.total
               ? static_cast<double>(to.steal - from.steal) /
                     static_cast<double>(to.total - from.total)
               : 0.0;
}

} // namespace

double
medianLatencyMs(const Phases &phases, double q)
{
    return medianOverWindows(
        phases, [q](const Phase &ph) { return windowLatency(ph, q); });
}

double
medianCpuMsPerRequest(const Phases &phases)
{
    return medianOverWindows(phases, windowCpuMsPerRequest);
}

double
medianThroughput(const Phases &phases,
                 const std::vector<OracleAnswer> &truth)
{
    return medianOverWindows(phases, [&](const Phase &ph) {
        return windowThroughput(ph, truth);
    });
}

int
wantedCycles(double seconds, double cycle_seconds)
{
    return std::max(1,
                    static_cast<int>(std::lround(seconds / cycle_seconds)));
}

std::vector<bool>
runCycles(double seconds, double cycle_seconds,
          const std::function<void(int)> &run_cycle, CycleLog &log)
{
    constexpr double kMaxSteal = 0.05;
    constexpr double kStretch = 2.5;
    const int want = wantedCycles(seconds, cycle_seconds);
    const std::uint64_t cap =
        nowNs() + static_cast<std::uint64_t>(seconds * kStretch * 1e9);
    std::vector<double> steal;
    int calm = 0;
    const HostTicks first = hostTicks();
    HostTicks before = first;
    for (int c = 0; calm < want && (c < want || nowNs() < cap); ++c) {
        run_cycle(c);
        const HostTicks after = hostTicks();
        steal.push_back(stealShare(before, after));
        calm += steal.back() <= kMaxSteal;
        before = after;
    }
    // Report the `want` least-stolen cycles: every calm one, topped up
    // with the least contended when too few were calm.
    std::vector<std::size_t> order(steal.size());
    for (std::size_t c = 0; c < order.size(); ++c)
        order[c] = c;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return steal[a] < steal[b];
                     });
    std::vector<bool> keep(steal.size(), false);
    for (int i = 0; i < want; ++i)
        keep[order[static_cast<std::size_t>(i)]] = true;
    log.run = static_cast<int>(steal.size());
    log.kept = want;
    log.stealShare = stealShare(first, before);
    log.contended = calm * 2 < want;
    return keep;
}

std::vector<Metric>
setupMetrics(const std::vector<SetupTimes> &setups)
{
    std::vector<double> total, pack, load, stamp, connect;
    for (const SetupTimes &t : setups) {
        total.push_back(t.pack + t.load + t.stamp + t.connect);
        pack.push_back(t.pack);
        load.push_back(t.load);
        stamp.push_back(t.stamp);
        connect.push_back(t.connect);
    }
    return {
        {"setup_s", quantile(total, 0.5), "s"},
        {"setup.pack_s", quantile(pack, 0.5), "s"},
        {"setup.load_s", quantile(load, 0.5), "s"},
        {"setup.stamp_s", quantile(stamp, 0.5), "s"},
        {"setup.connect_s", quantile(connect, 0.5), "s"},
    };
}

double
busyMs(const serve::ServeEngine &eng)
{
    double ms = 0.0;
    for (const serve::WorkerStats &w : eng.metricsSnapshot().workers)
        ms += w.busyMs;
    return ms;
}

void
writeSpans(const std::string &path, const std::string &workload,
           const std::deque<Outcome> &outcomes)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "snapbench: cannot write %s\n",
                     path.c_str());
        return;
    }
    // One line per request; times are host ns relative to the first
    // request's due time.  Spans: request (due -> answer), the
    // generator's lateness, the submit call, and the layer-reported
    // queue/service intervals laid back-to-back before the answer.
    const std::uint64_t base =
        outcomes.empty() ? 0 : outcomes.front().dueNs;
    std::uint64_t id = 0;
    char buf[512];
    for (const Outcome &o : outcomes) {
        if (o.submitBeginNs == 0 || !o.done) {
            ++id;
            continue;
        }
        auto rel = [&](std::uint64_t t) {
            return static_cast<long long>(t - base);
        };
        const auto svc_ns = static_cast<long long>(o.serviceMs * 1e6);
        const auto q_ns = static_cast<long long>(o.queueMs * 1e6);
        const long long end = rel(o.doneNs);
        std::snprintf(
            buf, sizeof(buf),
            "{\"workload\":\"%s\",\"id\":%llu,\"prog\":%u,"
            "\"spans\":[[\"request\",%lld,%lld],"
            "[\"loadgen.lag\",%lld,%lld],[\"router.submit\",%lld,%lld],"
            "[\"engine.queue\",%lld,%lld],"
            "[\"engine.service\",%lld,%lld]]}\n",
            workload.c_str(), static_cast<unsigned long long>(id),
            o.prog, rel(o.dueNs), end, rel(o.dueNs),
            rel(o.submitBeginNs), rel(o.submitBeginNs),
            rel(o.submitEndNs), end - svc_ns - q_ns, end - svc_ns,
            end - svc_ns, end);
        os << buf;
        ++id;
    }
}

} // namespace perfbench
} // namespace snap
