/**
 * @file
 * Shared declarations of the end-to-end benchmark.
 *
 * The benchmark drives Cooper from outside, through the public entry
 * points of src/online, src/shard, src/coalition and src/net. It
 * generates every input itself from a seed (generateChurnTrace), times
 * its own calls into OnlineDriver/ShardedDriver::stepEpoch, the
 * EpollServer and the checkpoint writers, and gates every run on the
 * determinism contract: each timed summary must equal the bytes of an
 * untimed reference replay.
 *
 * Four workloads (see workloads.cc for why each exists):
 *   churn      flat driver, P = 2000, departures every epoch
 *   fleet      ShardedDriver K = 4, P = 4000, periodic checkpoints
 *   coalition  flat driver, policy coalition, G = 3
 *   served     two runs on one in-process EpollServer over loopback
 */

#ifndef COOPER_PERFBENCH_PERFBENCH_HH
#define COOPER_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "online/churn.hh"
#include "online/events.hh"
#include "sim/interference.hh"
#include "workload/catalog.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two instants. */
double seconds(Clock::time_point from, Clock::time_point to);

/** Milliseconds between two instants. */
double millis(Clock::time_point from, Clock::time_point to);

/** One reported metric: name, value as measured, unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/**
 * Operations attempted and failed in one benchmark run. A failed
 * operation is a summary that differs from its reference, a run the
 * server aborted, or a served event that was never acknowledged.
 */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors; //!< first few failure reasons

    /** Count one operation; a false `ok` fails it with `why`. */
    void check(bool ok, const std::string &why);

    /** Count `n` operations of which `bad` failed. */
    void count(std::uint64_t n, std::uint64_t bad,
               const std::string &why);
};

/** A named workload: trace shape, driver config, served ladder. */
struct Workload
{
    std::string name;

    /** Served over TCP (runServed) instead of replayed in process. */
    bool served = false;

    /** Population shape handed to generateChurnTrace. */
    cooper::ChurnConfig churn;

    /** The timed configuration (threads, policy, admission, ...). */
    cooper::FrameworkConfig config;

    /** Sharded fleet driver instead of the flat one. */
    bool sharded = false;

    /**
     * Root seed of the in-process driver (probe noise, tie-breaks, the
     * shard router's k-means). Fixed, so the workload seed varies the
     * trace only: a run measures one service configuration on fresh
     * inputs. The served runs are seeded seed and seed+1 instead.
     */
    std::uint64_t driverSeed = 1;

    // -- served only.

    /** Aggregate event rates (events/s over both runs), ascending. */
    std::vector<double> ladder;

    /** ladder[referenceIndex] is the rate at which ack and epoch
     *  latency are reported. */
    std::size_t referenceIndex = 0;

    /** Limit on a ladder rate's ack p99 for it to count as sustained. */
    double ackLimitMs = 0.0;

    /** Traces a run serves, pass p serving trace p mod traces. */
    std::size_t traces = 1;

    /** Runs hosted by one server, and connections per run. */
    std::size_t runs = 0;
    std::size_t connectionsPerRun = 0;
};

/** The named workload; throws std::invalid_argument when unknown. */
Workload makeWorkload(const std::string &name);

/**
 * The workload's traces for `seed` (same seed, same events): trace 0
 * is generated from `seed` itself, trace k > 0 from the generator's
 * substream k.
 */
std::vector<cooper::ChurnTrace> makeTraces(const cooper::Catalog &catalog,
                                           const Workload &workload,
                                           std::uint64_t seed);

/** The trace in its canonical text form (cooper-trace 1). */
std::string traceBytes(const cooper::ChurnTrace &trace);

/**
 * Catalog and ground-truth model. Building one is part of set-up;
 * the model keeps a pointer to the catalog, so the pair never moves.
 */
struct Env
{
    cooper::Catalog catalog;
    cooper::InterferenceModel model;

    Env();
    Env(const Env &) = delete;
    Env &operator=(const Env &) = delete;
};

/** Nearest-rank percentile (p in [0, 100]); 0 when empty. */
double percentile(std::vector<double> samples, double p);

/** Nearest-rank percentile of (value, weight) samples. */
double weightedPercentile(std::vector<std::pair<double, double>> samples,
                          double p);

/** Median of `samples`; 0 when empty. */
double median(std::vector<double> samples);

/** Peak resident set of this process, in MiB. */
double peakRssMb();

/** Per-layer numbers reduced from one traced run. */
struct LayerStats
{
    /** Span totals by name: outermost-instance time and self time
     *  (duration minus the direct children on the same thread). */
    struct Span
    {
        double inclusiveS = 0.0;
        double selfS = 0.0;
    };
    std::vector<std::pair<std::string, Span>> spans;

    /** Direct-child time under online.epoch, by child name. */
    std::vector<std::pair<std::string, double>> epochChildren;

    /** Median over fleet epochs of slowest / mean shard epoch. */
    double shardSkew = 0.0;

    const Span &span(const std::string &name) const;
    double epochChild(const std::string &name) const;
    double epochChildTotal() const;
};

/** Reduce the spans of one traced run (see reducer.cc). */
LayerStats reduceSpans(const std::vector<cooper::TraceEvent> &events);

/** Deterministic decision-quality numbers of one replay. */
struct Quality
{
    double meanPenalty = 0.0;        //!< epoch mean of true penalty
    double blockingAfter = 0.0;      //!< blocking pairs left per epoch
    double migrationsPerEpoch = 0.0; //!< co-runner changes per epoch
    double tableBytes = 0.0;         //!< peak believed table, 8 n^2
};

/** What the per-layer metrics are computed from. */
struct LayerInputs
{
    LayerStats layers;
    cooper::MetricsSnapshot snapshot;
    Quality quality;

    double checkpointS = 0.0;     //!< benchmark sink write time
    double checkpointBytes = 0.0; //!< bytes per checkpoint written
    double lagP99Ms = 0.0;        //!< open-loop sender lateness
    double backlogMax = 0.0;      //!< events sent but not yet Acked
    double obsOverhead = 0.0;     //!< traced wall / untraced wall
};

/** Every per-layer metric, in BENCHMARK.json order. */
Metrics layerMetrics(const LayerInputs &in);

/** Element-wise median of runs that report the same metrics. */
Metrics medianMetrics(const std::vector<Metrics> &runs);

/** Options every workload runner shares. */
struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Directory for checkpoint files (inside the checkout). */
    std::string scratch;
};

/** Run churn, fleet or coalition; appends metrics, counts ops. */
Metrics runInProcess(const Workload &workload, const RunOptions &options,
                     Tally &tally);

/** Run the served workload; appends metrics, counts ops. */
Metrics runServed(const Workload &workload, const RunOptions &options,
                  Tally &tally);

/** The untimed reference replay's summary bytes and quality. */
struct Reference
{
    std::string summary;
    Quality quality;
};

/**
 * The untimed reference: `trace` replayed in process by the flat or
 * sharded driver at threads 1 with observability off.
 */
Reference referenceReplay(const Env &env, const Workload &workload,
                          std::uint64_t seed,
                          const cooper::ChurnTrace &trace);

} // namespace perfbench

#endif // COOPER_PERFBENCH_PERFBENCH_HH
