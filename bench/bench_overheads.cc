/**
 * @file
 * Overhead microbenchmarks (Sections III.C and IV).
 *
 * The paper's Java implementation colocates 1000 agents in 1-5 s and
 * predicts preferences within 100 ms; job completion times are
 * minutes, so both are negligible. These google-benchmark timings
 * verify this C++ implementation sits comfortably under those
 * budgets.
 *
 * After the microbenchmarks, the harness runs one fully instrumented
 * epoch and reports the per-phase timings straight from the
 * observability registry (src/obs) — the same histograms a production
 * run would emit through --metrics-out.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>

#include "cf/item_knn.hh"
#include "cf/subsample.hh"
#include "core/experiment.hh"
#include "core/framework.hh"
#include "game/shapley.hh"
#include "matching/blocking.hh"
#include "matching/stable_marriage.hh"
#include "matching/stable_roommates.hh"
#include "obs/obs.hh"
#include "sim/profiler.hh"
#include "util/error.hh"
#include "util/table.hh"
#include "workload/population.hh"

namespace {

using namespace cooper;

const Catalog &
catalog()
{
    static const Catalog instance = Catalog::paperTableI();
    return instance;
}

const InterferenceModel &
model()
{
    static const InterferenceModel instance{catalog()};
    return instance;
}

ColocationInstance
makeInstance(std::size_t agents, std::uint64_t seed)
{
    Rng rng(seed);
    return sampleInstance(catalog(), model(), agents, MixKind::Uniform,
                          rng);
}

void
BM_PolicyAssign(benchmark::State &state, const char *name)
{
    const auto agents = static_cast<std::size_t>(state.range(0));
    const auto instance = makeInstance(agents, 42);
    const auto policy = makePolicy(name);
    for (auto _ : state) {
        Rng rng(7);
        benchmark::DoNotOptimize(policy->assign(instance, rng));
    }
    state.SetComplexityN(state.range(0));
}

void
BM_StableMarriageRandomPrefs(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    std::vector<std::vector<AgentId>> mlists(n), wlists(n);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            mlists[i].push_back(j);
            wlists[i].push_back(j);
        }
        rng.shuffle(mlists[i]);
        rng.shuffle(wlists[i]);
    }
    const PreferenceProfile proposers(std::move(mlists), n);
    const PreferenceProfile acceptors(std::move(wlists), n);
    for (auto _ : state)
        benchmark::DoNotOptimize(stableMarriage(proposers, acceptors));
    state.SetComplexityN(state.range(0));
}

void
BM_PreferencePrediction(benchmark::State &state)
{
    // The paper's setting: a jobs x jobs matrix at 25% sampling.
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    SparseMatrix full(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            full.set(i, j, rng.uniform() * 0.3);
    const SparseMatrix sparse = subsampleSymmetric(full, 0.25, 2, rng);
    ItemKnnPredictor predictor;
    for (auto _ : state)
        benchmark::DoNotOptimize(predictor.predict(sparse));
}

void
BM_BlockingPairCount(benchmark::State &state)
{
    const auto agents = static_cast<std::size_t>(state.range(0));
    const auto instance = makeInstance(agents, 11);
    Rng rng(13);
    const Matching m =
        StableMarriageRandomPolicy().assign(instance, rng);
    const Disutility &d = instance.trueView();
    for (auto _ : state)
        benchmark::DoNotOptimize(countBlockingPairs(m, d, 0.02));
}

void
BM_FullEpochOracular(benchmark::State &state)
{
    const auto agents = static_cast<std::size_t>(state.range(0));
    FrameworkConfig config;
    config.policy = "SMR";
    config.oracular = true;
    Rng rng(17);
    const auto population =
        samplePopulation(catalog(), agents, MixKind::Uniform, rng);
    for (auto _ : state) {
        CooperFramework framework(catalog(), model(), config, 19);
        benchmark::DoNotOptimize(framework.runEpoch(population));
    }
}

void
BM_ShapleySampled(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<double> interference(n, 1.0);
    for (std::size_t i = 0; i < n; ++i)
        interference[i] += static_cast<double>(i);
    const auto v = interferenceGame(interference);
    Rng rng(23);
    for (auto _ : state)
        benchmark::DoNotOptimize(shapleySampled(n, v, 1000, rng));
}

/**
 * One instrumented epoch; the phase timings come out of the metrics
 * registry rather than ad-hoc stopwatches. The render checks mirror
 * tests/test_chart.cc: before trusting the numbers, assert the table
 * actually materialized with the histograms the phases feed.
 */
void
reportPhaseTimings()
{
    ObsConfig obs;
    obs.metrics = true;
    const ObsScope scope(obs);

    FrameworkConfig config;
    config.policy = "SMR";
    config.sampleRatio = 0.25;
    Rng rng(29);
    const auto population =
        samplePopulation(catalog(), 200, MixKind::Uniform, rng);
    CooperFramework framework(catalog(), model(), config, 31);
    framework.runEpoch(population);

    const Table table = scope.session()->metrics()->toTable();
    const std::string text = table.toText();
    fatalIf(table.rows() == 0 || table.columns() != 7,
            "bench_overheads: metrics table failed to render (",
            table.rows(), " x ", table.columns(), ")");
    for (const char *metric :
         {"framework.epoch_seconds", "coordinator.profile_seconds",
          "coordinator.match_seconds", "profiler.samples",
          "matching.proposals"})
        fatalIf(text.find(metric) == std::string::npos,
                "bench_overheads: metrics table is missing ", metric);

    std::cout << "\nPhase timings from the metrics registry "
                 "(one SMR epoch, 200 agents):\n"
              << text;
}

} // namespace

BENCHMARK_CAPTURE(BM_PolicyAssign, greedy, "GR")
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK_CAPTURE(BM_PolicyAssign, marriage_random, "SMR")
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK_CAPTURE(BM_PolicyAssign, roommates, "SR")
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK(BM_StableMarriageRandomPrefs)
    ->RangeMultiplier(4)
    ->Range(64, 1024)
    ->Complexity();
BENCHMARK(BM_PreferencePrediction)->Arg(20)->Arg(50)->Arg(100);
BENCHMARK(BM_BlockingPairCount)->Arg(256)->Arg(1024);
BENCHMARK(BM_FullEpochOracular)->Arg(200)->Arg(1000);
BENCHMARK(BM_ShapleySampled)->Arg(8)->Arg(16)->Arg(32);

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    reportPhaseTimings();
    return 0;
}
