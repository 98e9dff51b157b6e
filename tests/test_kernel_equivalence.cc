/**
 * @file
 * Property tests proving the packed kernel rewrites and the pruned
 * disutility-view scans are byte-identical to the seed implementations
 * they replaced.
 *
 * The optimized similarity fill, predictor, and blocking scans promise
 * *exact* equality with the baselines in cf/knn_baseline and
 * matching/blocking_baseline — not tolerance-based closeness — across
 * random instances and at every thread count (1, 2, 8). Random values
 * are continuous, so similarity ties (where the seed's capped-neighbor
 * gather order was unspecified) occur with probability zero.
 *
 * This file is also part of the `tsan` suite: at 8 threads the packed
 * fills, the staged prediction writes, and the view-backed scans are
 * exactly the code ThreadSanitizer should vet.
 */

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "cf/item_knn.hh"
#include "cf/knn_baseline.hh"
#include "matching/blocking.hh"
#include "matching/blocking_baseline.hh"
#include "matching/blocking_incremental.hh"
#include "matching/disutility.hh"
#include "matching/preferences.hh"
#include "matching/stable_roommates.hh"
#include "util/rng.hh"

namespace {

using namespace cooper;

const std::size_t kThreadCounts[] = {1, 2, 8};

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    if (a.size() != b.size())
        return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(double)) == 0;
}

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

/** Random sparse matrix with continuous values; rows or columns may
 *  end up empty, exercising the fallback paths. */
SparseMatrix
randomSparse(std::size_t rows, std::size_t cols, double density,
             Rng &rng)
{
    SparseMatrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.uniform() < density)
                m.set(r, c, rng.uniform() * 0.5);
    return m;
}

TEST(KernelEquivalence, SimilarityMatchesBaselineAcrossKindsAndThreads)
{
    Rng rng(101);
    const Similarity kinds[] = {Similarity::Cosine,
                                Similarity::AdjustedCosine,
                                Similarity::Pearson};
    for (int round = 0; round < 8; ++round) {
        const std::size_t rows = 4 + (round * 5) % 29;
        const std::size_t cols = 4 + (round * 7) % 23;
        const double density = 0.2 + 0.1 * (round % 5);
        const SparseMatrix m = randomSparse(rows, cols, density, rng);
        for (Similarity kind : kinds) {
            for (std::size_t min_overlap : {1, 2, 3}) {
                ItemKnnConfig config;
                config.similarity = kind;
                config.minOverlap = min_overlap;
                const auto baseline =
                    baselineSimilarityMatrix(m, config);
                for (std::size_t threads : kThreadCounts) {
                    config.threads = threads;
                    const auto optimized =
                        ItemKnnPredictor(config).similarityMatrix(m);
                    EXPECT_TRUE(sameDense(baseline, optimized))
                        << "round " << round << " kind "
                        << static_cast<int>(kind) << " overlap "
                        << min_overlap << " threads " << threads;
                }
            }
        }
    }
}

TEST(KernelEquivalence, TriangleViewAgreesWithNestedView)
{
    Rng rng(555);
    const SparseMatrix m = randomSparse(17, 13, 0.4, rng);
    ItemKnnConfig config;
    const ItemKnnPredictor predictor(config);
    const SimilarityTriangle tri = predictor.similarityTriangle(m);
    const auto nested = predictor.similarityMatrix(m);
    ASSERT_EQ(tri.items(), nested.size());
    for (std::size_t a = 0; a < nested.size(); ++a)
        for (std::size_t b = 0; b < nested.size(); ++b)
            EXPECT_EQ(tri.at(a, b), nested[a][b]) << a << "," << b;
}

TEST(KernelEquivalence, PredictMatchesBaselineAcrossConfigsAndThreads)
{
    Rng rng(202);
    for (int round = 0; round < 5; ++round) {
        const std::size_t n = 6 + (round * 9) % 26;
        const SparseMatrix m =
            randomSparse(n, n, 0.25 + 0.1 * (round % 4), rng);
        for (std::size_t neighbors : {0, 4}) {
            for (bool bidirectional : {false, true}) {
                ItemKnnConfig config;
                config.neighbors = neighbors;
                config.bidirectional = bidirectional;
                config.iterations = 1 + (round % 2);
                const Prediction baseline =
                    baselinePredict(m, config);
                for (std::size_t threads : kThreadCounts) {
                    config.threads = threads;
                    const Prediction optimized =
                        ItemKnnPredictor(config).predict(m);
                    EXPECT_TRUE(
                        sameDense(baseline.dense, optimized.dense))
                        << "round " << round << " k " << neighbors
                        << " bidir " << bidirectional << " threads "
                        << threads;
                    EXPECT_EQ(baseline.iterations,
                              optimized.iterations);
                    EXPECT_EQ(baseline.fallbackCells,
                              optimized.fallbackCells);
                }
            }
        }
    }
}

TEST(KernelEquivalence, PredictHandlesNonSquareMatrices)
{
    Rng rng(303);
    const SparseMatrix m = randomSparse(14, 9, 0.4, rng);
    ItemKnnConfig config;
    config.bidirectional = true; // ignored: matrix is not square
    const Prediction baseline = baselinePredict(m, config);
    for (std::size_t threads : kThreadCounts) {
        config.threads = threads;
        const Prediction optimized =
            ItemKnnPredictor(config).predict(m);
        EXPECT_TRUE(sameDense(baseline.dense, optimized.dense))
            << "threads " << threads;
    }
}

TEST(KernelEquivalence, EdgeShapesMatchBaseline)
{
    // Degenerate shapes the random rounds above hit rarely or never:
    // a 1x1 catalog, columns with no known cells, masks shorter than
    // one 64-bit word, and duplicate columns (zero variance, so the
    // Pearson/adjusted-cosine denominators vanish). SparseMatrix
    // rejects 0x0, so n = 1 is the smallest buildable catalog.
    std::vector<SparseMatrix> shapes;

    SparseMatrix one(1, 1);
    one.set(0, 0, 0.3);
    shapes.push_back(one);

    // Columns 3..5 entirely unknown; rows 4+ entirely unknown too.
    SparseMatrix sparse_cols(12, 6);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            sparse_cols.set(r, c, 0.1 * double(r + 1) + 0.01 * double(c));
    shapes.push_back(sparse_cols);

    // Two rows: every column mask fits far inside one word.
    SparseMatrix tiny_rows(2, 5);
    tiny_rows.set(0, 0, 0.4);
    tiny_rows.set(0, 2, 0.2);
    tiny_rows.set(1, 0, 0.6);
    tiny_rows.set(1, 3, 0.5);
    shapes.push_back(tiny_rows);

    // Columns 1 and 2 duplicate column 0 exactly; column 3 is
    // constant (zero variance after centering).
    SparseMatrix duplicates(6, 4);
    for (std::size_t r = 0; r < 6; ++r) {
        const double v = 0.05 * double(r + 1);
        duplicates.set(r, 0, v);
        duplicates.set(r, 1, v);
        duplicates.set(r, 2, v);
        duplicates.set(r, 3, 0.25);
    }
    shapes.push_back(duplicates);

    const Similarity kinds[] = {Similarity::Cosine,
                                Similarity::AdjustedCosine,
                                Similarity::Pearson};
    for (std::size_t s = 0; s < shapes.size(); ++s) {
        const SparseMatrix &m = shapes[s];
        for (Similarity kind : kinds) {
            ItemKnnConfig config;
            config.similarity = kind;
            config.minOverlap = 1;
            const auto sim_baseline = baselineSimilarityMatrix(m, config);
            const Prediction baseline = baselinePredict(m, config);
            for (std::size_t threads : kThreadCounts) {
                config.threads = threads;
                const ItemKnnPredictor predictor(config);
                EXPECT_TRUE(
                    sameDense(sim_baseline, predictor.similarityMatrix(m)))
                    << "shape " << s << " kind "
                    << static_cast<int>(kind) << " threads " << threads;
                const Prediction optimized = predictor.predict(m);
                EXPECT_TRUE(sameDense(baseline.dense, optimized.dense))
                    << "shape " << s << " kind "
                    << static_cast<int>(kind) << " threads " << threads;
                EXPECT_EQ(baseline.fallbackCells,
                          optimized.fallbackCells);
            }
        }
    }
}

/** Random even matching plus continuous explicit penalties. */
struct BlockingInstance
{
    Matching matching{0};
    std::vector<std::vector<double>> penalty;
    DisutilityFn fn;
    Disutility view;
};

BlockingInstance
randomBlockingInstance(std::size_t n, Rng &rng)
{
    BlockingInstance out;
    out.penalty.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out.penalty[i][j] = rng.uniform() * 0.3;
    out.fn = [penalty = out.penalty](AgentId a, AgentId b) {
        return penalty[a][b];
    };
    out.matching = Matching(n);
    const auto order = rng.permutation(n);
    // Leave a few agents unmatched to exercise that branch.
    for (std::size_t i = 0; i + 1 < n - n / 8; i += 2)
        out.matching.pair(order[i], order[i + 1]);
    out.view = Disutility::tabulate(n, out.fn);
    return out;
}

void
expectSamePairs(const std::vector<BlockingPair> &expect,
                const std::vector<BlockingPair> &got)
{
    ASSERT_EQ(expect.size(), got.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(expect[i].a, got[i].a) << "pair " << i;
        EXPECT_EQ(expect[i].b, got[i].b) << "pair " << i;
        EXPECT_TRUE(sameBits({expect[i].gainA}, {got[i].gainA}))
            << "pair " << i;
        EXPECT_TRUE(sameBits({expect[i].gainB}, {got[i].gainB}))
            << "pair " << i;
    }
}

/** The view's scans and BlockingBounds answer what the baseline
 *  oracle scan answers, pair for pair and bit for bit. */
void
expectViewMatchesBaseline(const Matching &matching, const Disutility &d,
                          const DisutilityFn &oracle, double alpha,
                          std::size_t threads)
{
    const auto baseline =
        baselineFindBlockingPairs(matching, oracle, alpha);
    expectSamePairs(baseline,
                    findBlockingPairs(matching, d, alpha, threads));
    EXPECT_EQ(baseline.size(),
              countBlockingPairs(matching, d, alpha, threads));
    const auto first = firstBlockingPair(matching, d, alpha);
    ASSERT_EQ(baseline.empty(), !first.has_value());
    if (first.has_value())
        expectSamePairs({baseline.front()}, {*first});

    BlockingBounds bounds;
    bounds.rebuild(matching, d, alpha, threads);
    EXPECT_EQ(baseline.size(), bounds.count());
    expectSamePairs(baseline, bounds.pairs(d));
}

TEST(KernelEquivalence, BlockingScanMatchesBaselineAcrossThreads)
{
    Rng rng(404);
    for (int round = 0; round < 6; ++round) {
        const std::size_t n = 12 + (round * 17) % 53;
        const BlockingInstance inst = randomBlockingInstance(n, rng);
        // Alpha sweep includes values high enough for the row bound
        // to skip most rows; the answers must not move.
        for (double alpha : {0.0, 0.02, 0.2})
            for (std::size_t threads : kThreadCounts)
                expectViewMatchesBaseline(inst.matching, inst.view,
                                          inst.fn, alpha, threads);
    }
}

/** Independent restatement of the jitter formula: splitmix64 of the
 *  ordered pair, top 53 bits scaled into [0, amplitude). */
double
referenceJitter(AgentId a, AgentId b, double amplitude)
{
    if (amplitude == 0.0)
        return 0.0;
    std::uint64_t z = ((std::uint64_t(a) << 32) ^
                       (std::uint64_t(b) + 0x51ed2701)) +
                      0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return double(z >> 11) * 0x1.0p-53 * amplitude;
}

/** A random type-level view: `types` types over n agents, matrix
 *  entries in [lo, lo + 0.4) (negative when lo < 0, as noisy CF
 *  predictions can be). */
Disutility
randomTypeView(std::size_t n, std::size_t types, double lo,
               double jitter, Rng &rng, std::vector<std::uint32_t> &who,
               std::vector<double> &matrix)
{
    who.assign(n, 0);
    for (auto &t : who)
        t = std::uint32_t(rng.uniformInt(std::uint64_t(types)));
    matrix.assign(types * types, 0.0);
    for (double &m : matrix)
        m = lo + 0.4 * rng.uniform();
    return Disutility(who, types, matrix, jitter);
}

TEST(KernelEquivalence, DisutilityMatchesIndependentSplitmix)
{
    Rng rng(808);
    for (double jitter : {0.0, 1e-4, 0.05}) {
        std::vector<std::uint32_t> who;
        std::vector<double> matrix;
        const std::size_t n = 41;
        const std::size_t types = 7;
        const Disutility d =
            randomTypeView(n, types, -0.1, jitter, rng, who, matrix);
        EXPECT_EQ(d.agents(), n);
        for (AgentId a = 0; a < n; ++a) {
            for (AgentId b = 0; b < n; ++b) {
                const double m = matrix[who[a] * types + who[b]];
                const double expect = m + referenceJitter(a, b, jitter);
                EXPECT_TRUE(sameBits({expect}, {d(a, b)}))
                    << "jitter " << jitter << " pair " << a << "," << b;
                EXPECT_TRUE(sameBits({m}, {d.typeLevel(a, b)}));
            }
        }
    }
}

TEST(KernelEquivalence, DisutilityRowBoundIsSound)
{
    Rng rng(606);
    std::vector<std::uint32_t> who;
    std::vector<double> matrix;
    const std::size_t n = 23;
    const std::size_t types = 9;
    const Disutility d =
        randomTypeView(n, types, -0.2, 0.01, rng, who, matrix);
    std::vector<bool> present(types, false);
    for (std::uint32_t t : who)
        present[t] = true;
    for (AgentId a = 0; a < n; ++a) {
        // Exactly the minimum of a's type row over the present types,
        // and below every agent-level value in a's row.
        double expect = 0.0;
        bool any = false;
        for (std::size_t t = 0; t < types; ++t) {
            if (!present[t])
                continue;
            const double m = matrix[who[a] * types + t];
            expect = any ? std::min(expect, m) : m;
            any = true;
        }
        EXPECT_EQ(expect, d.rowBound(a)) << "agent " << a;
        for (AgentId b = 0; b < n; ++b) {
            EXPECT_LE(d.rowBound(a), d.typeLevel(a, b));
            EXPECT_LE(d.typeLevel(a, b), d(a, b));
        }
    }
}

TEST(KernelEquivalence, ViewPruningExactWithNegativeEntries)
{
    // The type-level row and pair bounds skip work only where the
    // answer provably cannot change; random believed matrices with
    // negative entries, jitter large enough to reorder same-type
    // co-runners, and a few unmatched agents must leave every answer
    // identical to the unpruned seed scan.
    Rng rng(909);
    for (int round = 0; round < 8; ++round) {
        const std::size_t n = 10 + (round * 23) % 70;
        const std::size_t types = 2 + round % 6;
        const double jitter = round % 2 == 0 ? 1e-4 : 0.03;
        std::vector<std::uint32_t> who;
        std::vector<double> matrix;
        const Disutility d =
            randomTypeView(n, types, -0.15, jitter, rng, who, matrix);
        const DisutilityFn oracle = [&](AgentId a, AgentId b) {
            return matrix[who[a] * types + who[b]] +
                   referenceJitter(a, b, jitter);
        };
        Matching matching(n);
        const auto order = rng.permutation(n);
        for (std::size_t i = 0; i + 1 < n - n / 6; i += 2)
            matching.pair(order[i], order[i + 1]);
        for (double alpha : {0.0, 0.02})
            for (std::size_t threads : {std::size_t(1), std::size_t(4)})
                expectViewMatchesBaseline(matching, d, oracle, alpha,
                                          threads);
    }
}

TEST(KernelEquivalence, PreferenceProfileMatchesOracleSort)
{
    // fromDisutility must order each list exactly like sorting the
    // candidates by (d, id) — the comparator the coalition scan
    // relies on when it reuses the profile's lists.
    Rng rng(505);
    for (int round = 0; round < 4; ++round) {
        const std::size_t n = 5 + (round * 11) % 37;
        std::vector<std::uint32_t> who;
        std::vector<double> matrix;
        // Few types and zero jitter in odd rounds: many exact ties.
        const Disutility d = randomTypeView(
            n, 3, 0.0, round % 2 == 0 ? 1e-4 : 0.0, rng, who, matrix);
        std::vector<AgentId> all(n);
        for (AgentId a = 0; a < n; ++a)
            all[a] = a;
        const PreferenceProfile prefs =
            PreferenceProfile::fromDisutility(d, all, all);
        for (AgentId i = 0; i < n; ++i) {
            std::vector<AgentId> expect;
            for (AgentId j = 0; j < n; ++j)
                if (j != i)
                    expect.push_back(j);
            std::sort(expect.begin(), expect.end(),
                      [&](AgentId x, AgentId y) {
                          return d(i, x) != d(i, y) ? d(i, x) < d(i, y)
                                                    : x < y;
                      });
            EXPECT_EQ(expect, prefs.list(i)) << "agent " << i;
        }
    }
}

} // namespace
