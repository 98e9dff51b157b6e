/**
 * @file
 * Online-service regression harness: replays one churn trace through
 * the OnlineDriver three ways — the clean incremental service, the
 * same service forcing a from-scratch re-predict every epoch, and the
 * incremental service under a rate-based FaultPlan (probe timeouts,
 * dropped/corrupted measurements, node crashes) — and emits one
 * BENCH_online.json (cooper.bench.v2, bench "online") that
 * tools/bench_json validates.
 *
 * Byte-identity is checked on every rep: the full-predict summary must
 * equal the incremental one, and every mode must reproduce its first
 * rep's summary.
 *
 * Three phases are reported:
 *
 *  - predict:  per-epoch prediction time, full re-predict (baseline)
 *              vs. incremental warm start (optimized). Both modes feed
 *              the same online.predict_seconds histogram, so the phase
 *              seconds are that histogram's per-run sum — exactly the
 *              time spent inside the prediction step, excluding the
 *              trace replay around it.
 *  - epoch:    whole-run wall clock of the clean incremental service
 *              (optimized_only).
 *  - degraded: whole-run wall clock under the fault plan, including
 *              retry ladders, quarantine churn, and crash repair
 *              (optimized_only).
 *
 * The counters carry the clean run's online counters (migrations,
 * pairs broken, full rematches, predict cache hits, recomputed
 * similarity pairs), the degraded run's lifetime fault counters, and
 * the degradation deltas: clean_blocking and degraded_blocking (the
 * per-epoch post-repair blocking-pair counts summed over the run —
 * every replay drains to an empty population, so the final epoch's
 * count is always 0), blocking_ratio (degraded / clean) and
 * throughput_ratio (epochs per second, degraded / clean).
 *
 * --tiny shrinks the trace for the `ctest -L bench-smoke` run; the
 * speedup acceptance number (incremental >= 1.5x full) is meant to be
 * checked at the default sizes:
 *
 *   bench_online && bench_json --file BENCH_online.json \
 *       --min-speedup predict=1.5
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fault/plan.hh"
#include "obs/obs.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;
using bench::jsonNum;

using Clock = std::chrono::steady_clock;

/** One replay of the trace: everything the phases need. */
struct RunResult
{
    OnlineReport report;
    std::string summary;        //!< writeOnlineSummary bytes
    double predictSeconds = 0.0; //!< online.predict_seconds sum
    std::uint64_t predictCount = 0;
    double wallSeconds = 0.0;
};

/** Replay `trace` once under `plan`; fresh driver, fresh registry. */
RunResult
replay(const Catalog &catalog, const InterferenceModel &model,
       FrameworkConfig config, std::uint64_t seed,
       const ChurnTrace &trace, bool incremental, const FaultPlan &plan)
{
    config.execution.online.incremental = incremental;

    ObsConfig obs_config;
    obs_config.metrics = true;
    const ObsScope obs(obs_config);

    OnlineDriver driver(catalog, model, config, seed);
    driver.setFaultPlan(plan);
    const auto start = Clock::now();
    RunResult out;
    out.report = driver.run(trace);
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    out.wallSeconds = elapsed.count();

    std::ostringstream summary;
    writeOnlineSummary(summary, out.report);
    out.summary = summary.str();

    const HistogramSnapshot predict = bench::metricValue(
        bench::metricsSnapshot().histograms, "online.predict_seconds");
    out.predictSeconds = predict.sum;
    out.predictCount = predict.count;
    return out;
}

/**
 * Fold rep `run` into `best`: the first rep is kept whole, later reps
 * must reproduce its summary and only lower its timings. Returns
 * whether the summary matched.
 */
bool
foldRep(RunResult &best, RunResult run, int rep)
{
    if (rep == 0) {
        best = std::move(run);
        return true;
    }
    best.predictSeconds = std::min(best.predictSeconds, run.predictSeconds);
    best.wallSeconds = std::min(best.wallSeconds, run.wallSeconds);
    return run.summary == best.summary;
}

/** Post-repair blocking pairs summed over every epoch of a run. */
std::size_t
summedBlocking(const OnlineReport &report)
{
    std::size_t sum = 0;
    for (const OnlineEpochStats &e : report.epochs)
        sum += e.blockingAfter;
    return sum;
}

/** An optimized_only whole-run phase over online.epoch_seconds. */
bench::PhaseResult
runPhase(const std::string &name, const RunResult &run)
{
    bench::PhaseResult p;
    p.name = name;
    p.optimizedSeconds = run.wallSeconds;
    p.metric = "online.epoch_seconds";
    p.metricCount = run.report.epochs.size();
    p.metricSum = run.wallSeconds;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("arrivals", "400", "churn-trace arrivals");
    flags.declare("initial", "24", "jobs present at tick 0");
    flags.declare("mean-gap", "6.0", "mean interarrival gap, ticks");
    flags.declare("mean-life", "900.0", "mean job lifetime, ticks");
    flags.declare("epoch-ticks", "50", "virtual-clock ticks per epoch");
    flags.declare("probes", "4", "probe colocations per admission");
    flags.declare("seed", "2017", "trace, service, and fault seed");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (arrivals 60, initial 8, ...)");
    flags.declare("out", "BENCH_online.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Online service: incremental vs. full re-predict, clean vs. "
        "degraded",
        [&] {
            const bool tiny = flags.getBool("tiny");
            const auto seed =
                static_cast<std::uint64_t>(flags.getInt("seed"));
            const int reps =
                tiny ? 1 : static_cast<int>(flags.getInt("reps"));

            ChurnConfig churn;
            churn.arrivals = static_cast<std::size_t>(
                tiny ? 60 : flags.getInt("arrivals"));
            churn.initialJobs = static_cast<std::size_t>(
                tiny ? 8 : flags.getInt("initial"));
            churn.meanInterarrivalTicks = flags.getDouble("mean-gap");
            churn.meanLifetimeTicks = flags.getDouble("mean-life");

            // The service decisions never depend on the thread count
            // (held by cooper_cli_serve and test_online_driver), so
            // the bench runs serially: the wins and deltas being
            // measured are the warm start and the degradation, not
            // parallel scaling.
            FrameworkConfig config;
            config.execution.threads = 1;
            config.execution.online.epochTicks = static_cast<std::uint64_t>(
                flags.getInt("epoch-ticks"));
            config.execution.online.probesPerArrival =
                static_cast<std::size_t>(flags.getInt("probes"));

            // The degraded replay's fault plan: one probe attempt in
            // five times out, 5% of measurements are dropped and 5%
            // corrupted, and a node crashes every ten epochs on
            // average.
            FaultSpec spec;
            spec.seed = seed;
            spec.probeTimeoutRate = 0.2;
            spec.measurementDropRate = 0.05;
            spec.measurementCorruptRate = 0.05;
            spec.crashRatePerEpoch = 0.1;
            const FaultPlan plan(spec);

            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            Rng trace_rng(seed);
            const ChurnTrace trace =
                generateChurnTrace(catalog, churn, trace_rng);

            RunResult clean, full, degraded;
            bool identical = true; //!< incremental == full-predict
            bool repeatable = true; //!< every rep == its mode's first
            for (int r = 0; r < reps; ++r) {
                RunResult inc = replay(catalog, model, config, seed,
                                       trace, true, FaultPlan());
                RunResult col = replay(catalog, model, config, seed,
                                       trace, false, FaultPlan());
                RunResult deg = replay(catalog, model, config, seed,
                                       trace, true, plan);
                identical = identical && inc.summary == col.summary;
                repeatable &= foldRep(clean, std::move(inc), r);
                repeatable &= foldRep(full, std::move(col), r);
                repeatable &= foldRep(degraded, std::move(deg), r);
            }

            std::vector<bench::PhaseResult> phases;
            {
                bench::PhaseResult p;
                p.name = "predict";
                p.mode = "baseline_vs_optimized";
                p.baselineSeconds = full.predictSeconds;
                p.optimizedSeconds = clean.predictSeconds;
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                p.identical = identical;
                p.metric = "online.predict_seconds";
                p.metricCount = clean.predictCount;
                p.metricSum = clean.predictSeconds;
                phases.push_back(std::move(p));
            }
            phases.push_back(runPhase("epoch", clean));
            phases.push_back(runPhase("degraded", degraded));
            bench::printPhases(phases);

            const OnlineReport &report = clean.report;
            std::size_t cache_hits = 0, recomputed = 0;
            for (const OnlineEpochStats &e : report.epochs) {
                cache_hits += e.predictCacheHit ? 1 : 0;
                recomputed += e.recomputedPairs;
            }
            const OnlineReport &deg = degraded.report;
            const std::size_t clean_blocking = summedBlocking(report);
            const std::size_t degraded_blocking = summedBlocking(deg);
            const double blocking_ratio =
                static_cast<double>(degraded_blocking) /
                static_cast<double>(std::max<std::size_t>(clean_blocking,
                                                          1));
            const double throughput_ratio =
                (static_cast<double>(deg.epochs.size()) /
                 degraded.wallSeconds) /
                (static_cast<double>(report.epochs.size()) /
                 clean.wallSeconds);

            std::cout << "epochs " << report.epochs.size()
                      << ", cache hits " << cache_hits
                      << ", recomputed pairs " << recomputed << "\n"
                      << "degraded: " << deg.totalFaultsInjected
                      << " faults, " << deg.totalRetries << " retries, "
                      << deg.totalQuarantined << " quarantined ("
                      << deg.totalQuarantineReleased << " released, "
                      << deg.totalAbandoned << " abandoned), "
                      << deg.totalCrashes << " crashes, "
                      << deg.totalCfFallbacks << " CF fallbacks\n"
                      << "blocking pairs summed over epochs: clean "
                      << clean_blocking << ", degraded "
                      << degraded_blocking << " (ratio "
                      << Table::num(blocking_ratio, 2)
                      << "), throughput ratio "
                      << Table::num(throughput_ratio, 2) << "\n";

            if (!identical)
                throw std::runtime_error(
                    "incremental and full-predict summaries differ");
            if (!repeatable)
                throw std::runtime_error(
                    "replays of one mode produced different summaries");
            if (report.totalFaultsInjected != 0)
                throw std::runtime_error(
                    "fault-free run reported injected faults");
            if (deg.totalFaultsInjected == 0)
                throw std::runtime_error(
                    "degraded run injected no faults");

            bench::BenchDocument doc;
            doc.bench = "online";
            doc.workload = {
                {"events", jsonNum(trace.size())},
                {"epochs", jsonNum(report.epochs.size())},
                {"types", jsonNum(catalog.size())},
                {"arrivals", jsonNum(report.totalArrivals)},
                {"threads", "1"},
                {"tiny", bench::jsonBool(tiny)},
            };
            doc.phases = std::move(phases);
            doc.counters = {
                {"migrations", jsonNum(report.totalMigrations)},
                {"pairs_broken", jsonNum(report.totalPairsBroken)},
                {"full_rematches", jsonNum(report.totalFullRematches)},
                {"predict_cache_hits", jsonNum(cache_hits)},
                {"recomputed_pairs", jsonNum(recomputed)},
                {"injected", jsonNum(deg.totalFaultsInjected)},
                {"retries", jsonNum(deg.totalRetries)},
                {"quarantined", jsonNum(deg.totalQuarantined)},
                {"quarantine_released",
                 jsonNum(deg.totalQuarantineReleased)},
                {"abandoned", jsonNum(deg.totalAbandoned)},
                {"crashes", jsonNum(deg.totalCrashes)},
                {"cf_fallbacks", jsonNum(deg.totalCfFallbacks)},
                {"checkpoint_failures",
                 jsonNum(deg.totalCheckpointFailures)},
                {"clean_blocking", jsonNum(clean_blocking)},
                {"degraded_blocking", jsonNum(degraded_blocking)},
                {"blocking_ratio", jsonNum(blocking_ratio)},
                {"throughput_ratio", jsonNum(throughput_ratio)},
            };
            bench::writeBenchDocument(flags.get("out"), doc);
        });
}
