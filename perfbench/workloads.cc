/**
 * @file
 * Workload definitions and the small helpers every runner shares.
 *
 * Why each workload exists (the layer it loads, and what it bypasses):
 *
 *  - churn: the scale recipe at P = 2000 on the flat driver (SMR,
 *    uncapped admission, open-ended so no draining tail). Departures every epoch shift slots, so the
 *    believed table and the blocking bounds are rebuilt most epochs:
 *    matching does most of the work. Never touches shard, coalition
 *    or net.
 *  - fleet: ShardedDriver, K = 4, rebalance budget 4, P = 4000, with a
 *    checkpoint every 10 epochs through the benchmark's own sink.
 *    Matching per shard is small and takes its incremental path; the
 *    shard lockstep, rebalancer, CF prediction on sparse per-shard
 *    ratings and checkpoint I/O take a larger share.
 *  - coalition: the flat driver under policy coalition, G = 3, with
 *    ~30 live jobs. The only workload that runs src/coalition; nearly
 *    all of its epoch is the blocking-coalition scan.
 *  - served: bench_serve's decode-heavy shape (tiny driver steps,
 *    many events per epoch) served over loopback TCP to two runs on
 *    one EpollServer. Framing, reorder, flow control and writev do
 *    the work; the only workload that touches src/net.
 */

#include "perfbench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/rng.hh"

namespace perfbench {

using namespace cooper;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
millis(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

void
Tally::check(bool ok, const std::string &why)
{
    count(1, ok ? 0 : 1, why);
}

void
Tally::count(std::uint64_t n, std::uint64_t bad, const std::string &why)
{
    attempted += n;
    failed += bad;
    if (bad > 0 && errors.size() < 8)
        errors.push_back(why);
}

namespace {

/**
 * The scale recipe's service knobs: SMR at the CLI's alpha, with
 * admission uncapped so the live population follows the trace. One
 * thread: on a shared 4-core machine the parallel replays' wall time
 * varied +-10-50% from run to run, the serial ones +-5%.
 */
FrameworkConfig
uncappedConfig()
{
    FrameworkConfig config;
    config.policy = "SMR";
    config.alpha = 0.02;
    config.execution.threads = 1;
    config.execution.online.admitPerEpoch = 1000000;
    config.execution.online.maxQueueDepth = 0;
    return config;
}

ChurnConfig
shape(std::size_t initial, std::size_t arrivals, double gap, double life,
      bool openEnded)
{
    ChurnConfig churn;
    churn.openEnded = openEnded;
    churn.initialJobs = initial;
    churn.arrivals = arrivals;
    churn.meanInterarrivalTicks = gap;
    churn.meanLifetimeTicks = life;
    return churn;
}

} // namespace

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "churn") {
        w.churn = shape(2000, 16000, 1.0, 2000.0, true);
        w.config = uncappedConfig();
    } else if (name == "fleet") {
        // One thread per core: stepping shards in parallel, and the
        // slowest shard holding the rest, is what this workload loads.
        w.churn = shape(4000, 48000, 0.5, 2000.0, true);
        w.config = uncappedConfig();
        w.config.execution.threads =
            std::max(1u, std::thread::hardware_concurrency());
        w.config.execution.online.shards = 4;
        w.config.execution.online.rebalanceBudgetPerEpoch = 4;
        w.config.execution.online.checkpointEveryEpochs = 10;
        w.sharded = true;
    } else if (name == "coalition") {
        // 800-tick epochs, one mean job life: the epoch cost grows with
        // the cube of the live population (Poisson, mean ~32), so a run
        // must average over many lifetimes to be steady from seed to
        // seed; with one life per epoch it gets 8x as many lifetimes
        // per (costly) formation as with 100-tick epochs.
        w.churn = shape(32, 9600, 25.0, 800.0, true);
        w.config = uncappedConfig();
        w.config.policy = "coalition";
        w.config.execution.online.groupSize = 3;
        w.config.execution.online.epochTicks = 800;
    } else if (name == "served") {
        // bench_serve's service config (framework defaults, one
        // thread, 400-tick epochs) and shape, but a job life of 1200
        // ticks: at bench_serve's 40 no job outlives an epoch, so no
        // pairing is ever carried over.
        w.served = true;
        w.churn = shape(8, 24000, 2.0, 1200.0, false);
        w.config.execution.threads = 1;
        w.config.execution.online.epochTicks = 400;
        w.ladder = {80000.0, 160000.0, 320000.0, 1280000.0};
        w.referenceIndex = 1;
        w.ackLimitMs = 20.0;
        w.traces = 4;
        w.runs = 2;
        w.connectionsPerRun = 2;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<ChurnTrace>
makeTraces(const Catalog &catalog, const Workload &workload,
           std::uint64_t seed)
{
    std::vector<ChurnTrace> out;
    for (std::size_t k = 0; k < workload.traces; ++k) {
        Rng rng = k == 0 ? Rng(seed) : Rng(seed).substream(k);
        out.push_back(generateChurnTrace(catalog, workload.churn, rng));
    }
    return out;
}

std::string
traceBytes(const ChurnTrace &trace)
{
    std::ostringstream out;
    writeTrace(out, trace);
    return out.str();
}

Env::Env() : catalog(Catalog::paperTableI()), model(catalog) {}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double rank = p / 100.0 * static_cast<double>(samples.size());
    std::size_t index = static_cast<std::size_t>(std::ceil(rank));
    if (index > 0)
        --index;
    return samples[std::min(index, samples.size() - 1)];
}

double
weightedPercentile(std::vector<std::pair<double, double>> samples,
                   double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double total = 0.0;
    for (const auto &[value, weight] : samples)
        total += weight;
    const double target = p / 100.0 * total;
    double seen = 0.0;
    for (const auto &[value, weight] : samples) {
        seen += weight;
        if (seen >= target && weight > 0.0)
            return value;
    }
    return samples.back().first;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
peakRssMb()
{
    rusage usage{};
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace perfbench
