/**
 * @file
 * In-process workloads (churn, fleet, coalition): set up, replay the
 * seeded trace through the stepwise driver interface, and time every
 * stepEpoch call.
 *
 * Untraced (--trace 0), the runner replays the trace as many times as
 * fit in the measuring window, each time from a fresh set-up, and
 * checks every summary against the untimed reference replay. Traced
 * (--trace 1), it alternates untraced and traced replays and reduces
 * the traced run's spans and counters to per-layer numbers.
 */

#include "perfbench.hh"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "io/serialize.hh"
#include "obs/obs.hh"
#include "online/driver.hh"
#include "shard/sharded_driver.hh"

namespace perfbench {

using namespace cooper;

namespace {

/** Set-up samples taken per run at least, for a steady median. */
constexpr std::size_t kMinSetups = 101;

/**
 * The benchmark's checkpoint sink: each fleet checkpoint goes to one
 * file under the scratch directory, timed on the benchmark's clock.
 */
class Checkpointer
{
  public:
    explicit Checkpointer(std::string path) : path_(std::move(path)) {}

    bool
    write(const ShardedState &state)
    {
        const TraceSpan span("bench.checkpoint", "bench");
        const auto begin = Clock::now();
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        writeShardedState(out, state);
        out.flush();
        const bool ok = out.good();
        const auto bytes = ok ? static_cast<double>(out.tellp()) : 0.0;
        out.close();
        seconds_ += perfbench::seconds(begin, Clock::now());
        bytes_ += bytes;
        ++writes_;
        if (!ok)
            ++failures_;
        return ok;
    }

    double writeSeconds() const { return seconds_; }
    double bytesPerWrite() const
    {
        return writes_ == 0 ? 0.0 : bytes_ / static_cast<double>(writes_);
    }
    std::size_t writes() const { return writes_; }
    std::size_t failures() const { return failures_; }

  private:
    std::string path_;
    double seconds_ = 0.0;
    double bytes_ = 0.0;
    std::size_t writes_ = 0;
    std::size_t failures_ = 0;
};

/** One set-up service: catalog, model, driver. */
struct Service
{
    std::unique_ptr<Env> env;
    std::unique_ptr<OnlineDriver> flat;
    std::unique_ptr<ShardedDriver> sharded;
};

/** Build a service; `setupS` gets the wall time it took. */
Service
setUp(const Workload &workload, const FrameworkConfig &config,
      std::uint64_t seed, double &setupS)
{
    const auto begin = Clock::now();
    Service s;
    s.env = std::make_unique<Env>();
    if (workload.sharded)
        s.sharded = std::make_unique<ShardedDriver>(
            s.env->catalog, s.env->model, config, seed);
    else
        s.flat = std::make_unique<OnlineDriver>(
            s.env->catalog, s.env->model, config, seed);
    setupS = seconds(begin, Clock::now());
    return s;
}

/** What one replay produced. */
struct Replay
{
    std::string summary;
    double wallS = 0.0;       //!< first step to final report
    std::size_t events = 0;   //!< trace events replayed
    std::vector<double> stepMs;
    std::vector<double> stepAcks; //!< events each step acknowledged

    Quality quality;
};

/**
 * Trace events whose tick falls in each epoch [e T, (e+1) T), leaving
 * out the initial population at tick 0: it is handed over in one batch
 * before the service runs, and its single bootstrap epoch would
 * otherwise hold 4-7% of all events and set the ack tail alone.
 */
std::vector<double>
ackedPerEpoch(const ChurnTrace &trace, std::uint64_t epochTicks,
              std::size_t epochs)
{
    std::vector<double> out(epochs, 0.0);
    for (const ChurnEvent &e : trace.events()) {
        const std::size_t epoch = static_cast<std::size_t>(
            e.tick / epochTicks);
        if (e.tick > 0 && epoch < epochs)
            out[epoch] += 1.0;
    }
    return out;
}

/** Epoch quality of a flat report: penalty over epochs with pairs. */
Quality
flatQuality(const OnlineReport &report)
{
    Quality out;
    double penalty = 0.0;
    std::size_t penaltyEpochs = 0;
    double blocking = 0.0;
    double migrations = 0.0;
    double peak = 0.0;
    for (const OnlineEpochStats &e : report.epochs) {
        if (e.population >= 2) {
            penalty += e.meanPenalty;
            ++penaltyEpochs;
        }
        blocking += static_cast<double>(e.blockingAfter);
        migrations += static_cast<double>(e.migrations);
        peak = std::max(peak, static_cast<double>(e.population));
    }
    const double epochs =
        std::max<double>(1.0, static_cast<double>(report.epochs.size()));
    out.meanPenalty =
        penaltyEpochs == 0 ? 0.0
                           : penalty / static_cast<double>(penaltyEpochs);
    out.blockingAfter = blocking / epochs;
    out.migrationsPerEpoch = migrations / epochs;
    out.tableBytes = 8.0 * peak * peak;
    return out;
}

/** Fleet quality: per fleet epoch, shards' penalties weighted by
 *  population, blocking pairs and migrations summed over shards. */
Quality
fleetQuality(const ShardedReport &report)
{
    Quality out;
    double penalty = 0.0;
    std::size_t penaltyEpochs = 0;
    double blocking = 0.0;
    double migrations = 0.0;
    double peakTable = 0.0;
    for (std::size_t e = 0; e < report.epochs.size(); ++e) {
        double weighted = 0.0;
        double weight = 0.0;
        double table = 0.0;
        for (const OnlineReport &shard : report.perShard) {
            if (e >= shard.epochs.size())
                continue;
            const OnlineEpochStats &s = shard.epochs[e];
            const auto pop = static_cast<double>(s.population);
            if (s.population >= 2) {
                weighted += pop * s.meanPenalty;
                weight += pop;
            }
            blocking += static_cast<double>(s.blockingAfter);
            migrations += static_cast<double>(s.migrations);
            table += 8.0 * pop * pop;
        }
        if (weight > 0.0) {
            penalty += weighted / weight;
            ++penaltyEpochs;
        }
        peakTable = std::max(peakTable, table);
    }
    const double epochs =
        std::max<double>(1.0, static_cast<double>(report.epochs.size()));
    out.meanPenalty =
        penaltyEpochs == 0 ? 0.0
                           : penalty / static_cast<double>(penaltyEpochs);
    out.blockingAfter = blocking / epochs;
    out.migrationsPerEpoch = migrations / epochs;
    out.tableBytes = peakTable;
    return out;
}

/** Replay `trace` on a set-up service, timing each stepEpoch. */
Replay
replay(Service &service, const ChurnTrace &trace,
       std::uint64_t epochTicks)
{
    Replay out;
    out.events = trace.size();
    EventQueue queue;
    queue.push(trace);
    std::ostringstream summary;
    const auto begin = Clock::now();
    if (service.flat) {
        OnlineDriver &driver = *service.flat;
        OnlineReport report = driver.beginReport();
        while (!driver.idle(queue)) {
            const TraceSpan span("bench.step", "bench");
            const auto t0 = Clock::now();
            driver.stepEpoch(queue, report);
            out.stepMs.push_back(millis(t0, Clock::now()));
        }
        driver.finalizeReport(report);
        writeOnlineSummary(summary, report);
        out.wallS = seconds(begin, Clock::now());
        out.quality = flatQuality(report);
    } else {
        ShardedDriver &driver = *service.sharded;
        ShardedReport report = driver.beginReport();
        while (!driver.idle(queue)) {
            const TraceSpan span("bench.step", "bench");
            const auto t0 = Clock::now();
            driver.stepEpoch(queue, report);
            out.stepMs.push_back(millis(t0, Clock::now()));
        }
        driver.finalizeReport(report);
        writeShardedSummary(summary, report);
        out.wallS = seconds(begin, Clock::now());
        out.quality = fleetQuality(report);
    }
    out.summary = summary.str();
    out.stepAcks = ackedPerEpoch(trace, epochTicks, out.stepMs.size());
    return out;
}

/** Attach a timed checkpoint sink to a fleet service. */
void
attachSink(Service &service, Checkpointer &sink)
{
    if (service.sharded)
        service.sharded->setCheckpointSink(
            [&sink](const ShardedState &state) {
                return sink.write(state);
            });
}

/** End-to-end metrics of the untraced replays. */
Metrics
endToEnd(const std::vector<Replay> &replays,
         const std::vector<double> &setups)
{
    std::vector<double> rates;
    std::vector<double> steps;
    std::vector<std::pair<double, double>> acks;
    double events = 0.0;
    double stepSeconds = 0.0;
    for (const Replay &r : replays) {
        rates.push_back(static_cast<double>(r.events) / r.wallS);
        events += static_cast<double>(r.events);
        for (std::size_t e = 0; e < r.stepMs.size(); ++e) {
            steps.push_back(r.stepMs[e]);
            acks.emplace_back(r.stepMs[e], r.stepAcks[e]);
            stepSeconds += r.stepMs[e] * 1e-3;
        }
    }
    const Replay &first = replays.front();
    return {
        {"events_per_s", median(rates), "1/s"},
        {"epoch_p50_ms", percentile(steps, 50.0), "ms"},
        {"epoch_p95_ms", percentile(steps, 95.0), "ms"},
        {"ack_p50_ms", weightedPercentile(acks, 50.0), "ms"},
        {"ack_p95_ms", weightedPercentile(acks, 95.0), "ms"},
        {"sustained_eps", events / stepSeconds, "1/s"},
        {"mean_penalty", first.quality.meanPenalty, "penalty"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(setups), "s"},
    };
}

} // namespace

Reference
referenceReplay(const Env &env, const Workload &workload,
                std::uint64_t seed, const ChurnTrace &trace)
{
    FrameworkConfig config = workload.config;
    config.execution.threads = 1;
    config.execution.obs = ObsConfig{};
    std::ostringstream out;
    Reference ref;
    if (workload.sharded) {
        ShardedDriver driver(env.catalog, env.model, config, seed);
        const ShardedReport report = driver.run(trace);
        writeShardedSummary(out, report);
        ref.quality = fleetQuality(report);
    } else {
        OnlineDriver driver(env.catalog, env.model, config, seed);
        const OnlineReport report = driver.run(trace);
        writeOnlineSummary(out, report);
        ref.quality = flatQuality(report);
    }
    ref.summary = out.str();
    return ref;
}

Metrics
runInProcess(const Workload &workload, const RunOptions &options,
             Tally &tally)
{
    const Env env;
    const ChurnTrace trace =
        makeTraces(env.catalog, workload, options.seed).front();
    const std::string reference =
        referenceReplay(env, workload, workload.driverSeed, trace).summary;
    const std::uint64_t epochTicks =
        workload.config.execution.online.epochTicks;
    const auto gate = [&](const Replay &r, const char *what) {
        tally.check(r.summary == reference,
                    std::string(what) +
                        " summary differs from the reference replay");
    };

    const auto window = Clock::now();
    const auto elapsed = [&] { return seconds(window, Clock::now()); };

    if (!options.trace) {
        std::vector<Replay> replays;
        std::vector<double> setups;
        Checkpointer sink(options.scratch + "/" + workload.name +
                          ".checkpoint");
        do {
            double setupS = 0.0;
            Service service =
                setUp(workload, workload.config, workload.driverSeed, setupS);
            setups.push_back(setupS);
            attachSink(service, sink);
            replays.push_back(replay(service, trace, epochTicks));
            gate(replays.back(), "timed");
        } while (elapsed() < options.seconds);
        while (setups.size() < kMinSetups) {
            double setupS = 0.0;
            setUp(workload, workload.config, workload.driverSeed, setupS);
            setups.push_back(setupS);
        }
        tally.count(sink.writes(), sink.failures(),
                    "checkpoint write failed");
        return endToEnd(replays, setups);
    }

    // Traced: pairs of one untraced and one traced replay.
    std::vector<Metrics> perPair;
    do {
        double setupS = 0.0;
        Service plain =
            setUp(workload, workload.config, workload.driverSeed, setupS);
        Checkpointer plainSink(options.scratch + "/" + workload.name +
                               ".checkpoint");
        attachSink(plain, plainSink);
        const Replay untraced = replay(plain, trace, epochTicks);
        gate(untraced, "untraced");

        Service traced =
            setUp(workload, workload.config, workload.driverSeed, setupS);
        Checkpointer tracedSink(options.scratch + "/" + workload.name +
                                ".traced.checkpoint");
        attachSink(traced, tracedSink);
        ObsConfig obs;
        obs.metrics = true;
        obs.tracing = true;
        const ObsScope scope(obs);
        const Replay run = replay(traced, trace, epochTicks);
        gate(run, "traced");
        tally.check(run.summary == untraced.summary,
                    "traced summary differs from the untraced one");
        tally.count(plainSink.writes() + tracedSink.writes(),
                    plainSink.failures() + tracedSink.failures(),
                    "checkpoint write failed");

        LayerInputs in;
        in.layers = reduceSpans(scope.session()->tracer()->events());
        in.snapshot = scope.session()->metrics()->snapshot();
        in.quality = run.quality;
        in.checkpointS = tracedSink.writeSeconds();
        in.checkpointBytes = tracedSink.bytesPerWrite();
        in.obsOverhead = run.wallS / untraced.wallS;
        perPair.push_back(layerMetrics(in));
    } while (elapsed() < options.seconds);
    return medianMetrics(perPair);
}

} // namespace perfbench
