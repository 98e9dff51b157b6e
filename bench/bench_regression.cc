/**
 * @file
 * Kernel regression harness: times the seed ("baseline") hot-path
 * kernels against the packed/memoized rewrites on a Table-I-derived
 * workload, cross-checks exact equality of their outputs, and emits a
 * BENCH_kernels.json (cooper.bench.v2, bench "kernels") that
 * tools/bench_json validates.
 *
 * Seven phases are reported:
 *
 *  - similarity:      baselineSimilarityMatrix vs. the packed bitmask
 *                     fill
 *  - simd_similarity: the packed fill pinned to the scalar tier vs.
 *                     the widest SIMD tier this machine offers (equal
 *                     tiers on non-AVX machines: speedup ~1)
 *  - predict:         baselinePredict vs. the neighbor-list predictor
 *  - matching:        preferences + roommates over an explicit n x n
 *                     memo of the believed disutilities vs. the same
 *                     over the type-level Disutility view
 *  - blocking:        the std::function scan vs. the view scan with
 *                     row and pair pruning (count mode, no pair
 *                     vector)
 *  - blocking_incremental: the full O(n^2) view scan vs. a
 *                     quiet-epoch BlockingBounds::update (nothing
 *                     dirty, the online service's steady state)
 *  - shapley:         sampled Shapley, timed for trend tracking only
 *
 * Optimized phases run under an ObsScope, so the JSON also carries the
 * MetricsRegistry histograms behind each phase timer
 * (cf.similarity_seconds, cf.predict_pass_seconds,
 * matching.roommates_seconds, matching.blocking_seconds,
 * matching.blocking_bound_seconds, shapley.sampled_seconds).
 *
 * --tiny shrinks every dimension for the `ctest -L bench-smoke` run;
 * the speedup acceptance numbers (>= 3x similarity, >= 1.5x
 * simd_similarity, >= 2x blocking, >= 3x blocking_incremental) are
 * meant to be checked at the default sizes:
 *
 *   bench_regression && bench_json --file BENCH_kernels.json \
 *       --min-speedup similarity=3,simd_similarity=1.5,blocking=2,blocking_incremental=3
 */

#include <cstring>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "cf/item_knn.hh"
#include "cf/knn_baseline.hh"
#include "cf/subsample.hh"
#include "core/instance.hh"
#include "game/shapley.hh"
#include "matching/blocking.hh"
#include "matching/blocking_baseline.hh"
#include "matching/blocking_incremental.hh"
#include "matching/stable_roommates.hh"
#include "obs/obs.hh"
#include "sim/interference.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/simd.hh"
#include "util/table.hh"
#include "workload/catalog.hh"

namespace {

using namespace cooper;
using bench::bestSeconds;
using bench::jsonNum;
using bench::PhaseResult;
using bench::sameBits;

bool
sameDense(const std::vector<std::vector<double>> &a,
          const std::vector<std::vector<double>> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t r = 0; r < a.size(); ++r)
        if (!sameBits(a[r], b[r]))
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("matrix", "192", "CF ratings-matrix dimension");
    flags.declare("population", "640", "matching/blocking population");
    flags.declare("samples", "20000", "Shapley permutation samples");
    flags.declare("shapley-agents", "24", "Shapley game size (<= 32)");
    flags.declare("alpha", "0.0", "blocking-scan break-away threshold");
    flags.declare("density", "0.25", "observed fraction of the matrix");
    flags.declare("reps", "3", "timing repetitions (best-of)");
    flags.declare("tiny", "false",
                  "smoke-test sizes (matrix 24, population 48, ...)");
    flags.declare("out", "BENCH_kernels.json", "JSON output path");
    if (!flags.parse(argc, argv))
        return 0;

    return cooper::bench::runHarness(
        "Kernel regression: seed baselines vs. packed/memoized rewrites",
        [&] {
            const bool tiny = flags.getBool("tiny");
            const auto matrix_n = static_cast<std::size_t>(
                tiny ? 24 : flags.getInt("matrix"));
            const auto population = static_cast<std::size_t>(
                tiny ? 48 : flags.getInt("population"));
            const auto samples = static_cast<std::size_t>(
                tiny ? 500 : flags.getInt("samples"));
            const auto shapley_n = static_cast<std::size_t>(
                flags.getInt("shapley-agents"));
            const double alpha = flags.getDouble("alpha");
            const double density = flags.getDouble("density");
            const int reps =
                tiny ? 1 : static_cast<int>(flags.getInt("reps"));

            // Everything below runs serially: the wins being measured
            // are algorithmic (packed layouts, memo tables, pruning),
            // not parallel scaling — bench_parallel covers that.
            constexpr std::size_t kThreads = 1;

            // Table-I-derived workload: type-level penalties from the
            // paper's catalog, tiled to the requested sizes with a
            // small continuous perturbation so similarities have no
            // ties (the capped-neighbor gather order is only specified
            // for distinct similarities).
            const Catalog catalog = Catalog::paperTableI();
            const InterferenceModel model(catalog);
            const PenaltyMatrix penalties = model.penaltyMatrix();
            const std::size_t types = catalog.size();

            Rng rng(2017);
            SparseMatrix full(matrix_n, matrix_n);
            for (std::size_t i = 0; i < matrix_n; ++i)
                for (std::size_t j = 0; j < matrix_n; ++j)
                    full.set(i, j,
                             penalties(i % types, j % types) +
                                 rng.uniform() * 0.05);
            const SparseMatrix sparse =
                subsampleSymmetric(full, density, 2, rng);

            std::vector<JobTypeId> pop_types(population);
            for (std::size_t i = 0; i < population; ++i)
                pop_types[i] = i % types;
            const ColocationInstance instance =
                ColocationInstance::oracular(catalog, pop_types, model);

            ItemKnnConfig knn;
            knn.threads = kThreads;

            std::vector<PhaseResult> phases;

            ObsConfig obs_config;
            obs_config.metrics = true;
            const ObsScope obs(obs_config);

            // --- similarity fill --------------------------------------
            {
                PhaseResult p;
                p.name = "similarity";
                p.mode = "baseline_vs_optimized";
                std::vector<std::vector<double>> base;
                p.baselineSeconds = bestSeconds(reps, [&] {
                    base = baselineSimilarityMatrix(sparse, knn);
                });
                SimilarityTriangle tri(0);
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    tri = ItemKnnPredictor(knn).similarityTriangle(
                        sparse);
                });
                p.identical = sameDense(base, tri.toNested());
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                phases.push_back(std::move(p));
            }

            // --- simd similarity fill --------------------------------
            // Same packed fill both sides; only the dispatched tier
            // differs, so this isolates the vector win from the
            // packed-layout win the phase above measures. The predictor
            // fills similarities twice per predict (iterations = 2):
            // pass 1 over the sparse observations, pass 2 over the
            // filled dense matrix, where every lane runs full — the
            // phase times both, exactly the per-predict similarity
            // work.
            {
                PhaseResult p;
                p.name = "simd_similarity";
                p.mode = "baseline_vs_optimized";
                const Prediction filled =
                    ItemKnnPredictor(knn).predict(sparse);
                SparseMatrix dense_m(matrix_n, matrix_n);
                for (std::size_t i = 0; i < matrix_n; ++i)
                    for (std::size_t j = 0; j < matrix_n; ++j)
                        dense_m.set(i, j, filled.dense[i][j]);
                SimilarityTriangle s1(0), s2(0), v1(0), v2(0);
                setSimdOverrideForTesting(SimdLevel::Scalar);
                p.baselineSeconds = bestSeconds(reps, [&] {
                    s1 = ItemKnnPredictor(knn).similarityTriangle(
                        sparse);
                    s2 = ItemKnnPredictor(knn).similarityTriangle(
                        dense_m);
                });
                setSimdOverrideForTesting(detectedSimdLevel());
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    v1 = ItemKnnPredictor(knn).similarityTriangle(
                        sparse);
                    v2 = ItemKnnPredictor(knn).similarityTriangle(
                        dense_m);
                });
                setSimdOverrideForTesting(std::nullopt);
                const std::size_t cells =
                    matrix_n > 1 ? matrix_n * (matrix_n - 1) / 2 : 0;
                p.identical =
                    cells == 0 ||
                    (std::memcmp(s1.data(), v1.data(),
                                 cells * sizeof(double)) == 0 &&
                     std::memcmp(s2.data(), v2.data(),
                                 cells * sizeof(double)) == 0);
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                phases.push_back(std::move(p));
            }

            // --- predict ---------------------------------------------
            {
                PhaseResult p;
                p.name = "predict";
                p.mode = "baseline_vs_optimized";
                Prediction base, opt;
                p.baselineSeconds = bestSeconds(reps, [&] {
                    base = baselinePredict(sparse, knn);
                });
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    opt = ItemKnnPredictor(knn).predict(sparse);
                });
                p.identical = sameDense(base.dense, opt.dense) &&
                              base.iterations == opt.iterations &&
                              base.fallbackCells == opt.fallbackCells;
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                phases.push_back(std::move(p));
            }

            // --- matching --------------------------------------------
            // Baseline is the memoized path the view replaced: every
            // believed disutility tabulated into an explicit n x n
            // matrix, then preferences and roommates read from it.
            // The optimized path computes each value from the
            // type-level view on the fly.
            const Disutility &believed = instance.believedView();
            std::vector<AgentId> all(population);
            std::iota(all.begin(), all.end(), AgentId(0));
            Matching matched(population);
            {
                PhaseResult p;
                p.name = "matching";
                p.mode = "baseline_vs_optimized";
                Matching base_m(population);
                p.baselineSeconds = bestSeconds(reps, [&] {
                    const Disutility memo =
                        Disutility::tabulate(population, believed);
                    const PreferenceProfile prefs =
                        PreferenceProfile::fromDisutility(memo, all,
                                                          all);
                    base_m = adaptedRoommates(prefs, memo).matching;
                });
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    const PreferenceProfile prefs =
                        PreferenceProfile::fromDisutility(believed, all,
                                                          all);
                    matched = adaptedRoommates(prefs, believed).matching;
                });
                p.identical = true;
                for (AgentId a = 0; a < population; ++a)
                    p.identical &=
                        base_m.partnerOf(a) == matched.partnerOf(a);
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                phases.push_back(std::move(p));
            }

            // --- blocking scan ---------------------------------------
            // The baseline pays the seed's std::function oracle per
            // cell; the view scan prunes rows and pairs by type-level
            // bounds before hashing any jitter.
            {
                PhaseResult p;
                p.name = "blocking";
                p.mode = "baseline_vs_optimized";
                const DisutilityFn oracle = [&](AgentId a, AgentId b) {
                    return instance.believedDisutility(a, b);
                };
                std::size_t base_count = 0, opt_count = 0;
                p.baselineSeconds = bestSeconds(reps, [&] {
                    base_count = baselineCountBlockingPairs(
                        matched, oracle, alpha, kThreads);
                });
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    opt_count = countBlockingPairs(matched, believed,
                                                   alpha, kThreads);
                });
                const auto base_pairs = baselineFindBlockingPairs(
                    matched, oracle, alpha, kThreads);
                const auto opt_pairs = findBlockingPairs(
                    matched, believed, alpha, kThreads);
                p.identical = base_count == opt_count &&
                              base_pairs.size() == opt_pairs.size();
                for (std::size_t i = 0;
                     p.identical && i < base_pairs.size(); ++i) {
                    p.identical =
                        base_pairs[i].a == opt_pairs[i].a &&
                        base_pairs[i].b == opt_pairs[i].b &&
                        base_pairs[i].gainA == opt_pairs[i].gainA &&
                        base_pairs[i].gainB == opt_pairs[i].gainB;
                }
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                phases.push_back(std::move(p));
            }

            // --- incremental blocking bounds -------------------------
            // The online service's steady state: the matching and the
            // disutilities both held, so a maintained BlockingBounds
            // answers the epoch's blocking questions from its bitset
            // while the scan re-derives all O(n^2) pairs.
            {
                PhaseResult p;
                p.name = "blocking_incremental";
                p.mode = "baseline_vs_optimized";
                BlockingBounds bounds;
                bounds.rebuild(matched, believed, alpha, kThreads);
                std::size_t base_count = 0, opt_count = 0;
                p.baselineSeconds = bestSeconds(reps, [&] {
                    base_count = countBlockingPairs(matched, believed,
                                                    alpha, kThreads);
                });
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    bounds.update(matched, believed, alpha, {}, kThreads);
                    opt_count = bounds.count();
                });
                p.identical = base_count == opt_count;
                const auto scan_pairs = findBlockingPairs(
                    matched, believed, alpha, kThreads);
                const auto bound_pairs = bounds.pairs(believed);
                p.identical &= scan_pairs.size() == bound_pairs.size();
                for (std::size_t i = 0;
                     p.identical && i < scan_pairs.size(); ++i) {
                    p.identical =
                        scan_pairs[i].a == bound_pairs[i].a &&
                        scan_pairs[i].b == bound_pairs[i].b &&
                        scan_pairs[i].gainA == bound_pairs[i].gainA &&
                        scan_pairs[i].gainB == bound_pairs[i].gainB;
                }
                p.speedup = p.baselineSeconds / p.optimizedSeconds;
                phases.push_back(std::move(p));
            }

            // --- sampled Shapley -------------------------------------
            {
                PhaseResult p;
                p.name = "shapley";
                p.mode = "optimized_only";
                std::vector<double> interference(shapley_n, 1.0);
                for (std::size_t i = 0; i < shapley_n; ++i)
                    interference[i] += 0.1 * static_cast<double>(i);
                const auto v = interferenceGame(interference);
                p.optimizedSeconds = bestSeconds(reps, [&] {
                    Rng shapley_rng(42);
                    shapleySampled(shapley_n, v, samples, shapley_rng,
                                   kThreads);
                });
                phases.push_back(std::move(p));
            }

            // Attach the registry histograms behind each phase timer.
            const MetricsSnapshot snapshot = bench::metricsSnapshot();
            const char *backing[] = {
                "cf.similarity_seconds", "cf.similarity_seconds",
                "cf.predict_pass_seconds",
                "matching.roommates_seconds",
                "matching.blocking_seconds",
                "matching.blocking_bound_seconds",
                "shapley.sampled_seconds"};
            for (std::size_t i = 0; i < phases.size(); ++i) {
                const HistogramSnapshot histogram =
                    bench::metricValue(snapshot.histograms, backing[i]);
                phases[i].metric = backing[i];
                phases[i].metricCount = histogram.count;
                phases[i].metricSum = histogram.sum;
            }

            bench::printPhases(phases);

            for (const PhaseResult &p : phases)
                if (!p.identical)
                    throw std::runtime_error(
                        "equivalence violation in phase " + p.name);

            bench::BenchDocument doc;
            doc.bench = "kernels";
            doc.workload = {
                {"matrix", jsonNum(matrix_n)},
                {"population", jsonNum(population)},
                {"samples", jsonNum(samples)},
                {"shapley_agents", jsonNum(shapley_n)},
                {"alpha", jsonNum(alpha)},
                {"density", jsonNum(density)},
                {"reps", jsonNum(reps)},
                {"threads", jsonNum(kThreads)},
                {"tiny", bench::jsonBool(tiny)},
            };
            doc.phases = std::move(phases);
            bench::writeBenchDocument(flags.get("out"), doc);
        });
}
