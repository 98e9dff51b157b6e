/**
 * @file
 * Property tests for the incrementally maintained blocking-pair
 * bounds (matching/blocking_incremental.hh).
 *
 * The contract is exact equivalence with the full O(n^2) scans: after
 * ANY sequence of disutility-row churn, re-pairings, and quiet epochs, the
 * bounds' count / first / pairs answer precisely what
 * countBlockingPairs / firstBlockingPair / findBlockingPairs would —
 * same pairs, same scan order, bit-identical gains — at any thread
 * count. The churn-sequence test here drives randomized interleavings
 * of all three change kinds and cross-checks after every step; the
 * driver test proves the online service's run summary is byte-identical
 * with incrementalBlocking on and off.
 *
 * Part of the tsan suite: the staged parallel row derivation is the
 * code ThreadSanitizer should vet.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "matching/blocking.hh"
#include "matching/blocking_incremental.hh"
#include "matching/disutility.hh"
#include "matching/matching.hh"
#include "online/churn.hh"
#include "online/driver.hh"
#include "sim/interference.hh"
#include "util/rng.hh"
#include "workload/catalog.hh"

namespace cooper {
namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/** Mutable penalty matrix + the disutility/matching views over it;
 *  refresh() re-reads the live penalties after an edit. */
struct ChurnFixture
{
    std::size_t n = 0;
    std::vector<std::vector<double>> penalty;
    Matching matching{0};
    Disutility view;

    ChurnFixture(std::size_t agents, Rng &rng) : n(agents)
    {
        penalty.assign(n, std::vector<double>(n, 0.0));
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j < n; ++j)
                penalty[i][j] = rng.uniform() * 0.3;
        matching = Matching(n);
        const auto order = rng.permutation(n);
        // Leave ~n/8 agents unmatched to exercise that branch.
        for (std::size_t i = 0; i + 1 < n - n / 8; i += 2)
            matching.pair(order[i], order[i + 1]);
        refresh();
    }

    void refresh()
    {
        view = Disutility::tabulate(
            n, [this](AgentId a, AgentId b) { return penalty[a][b]; });
    }
};

/** The bounds' answers must equal the scans' answers exactly. */
void
expectMatchesScan(BlockingBounds &bounds, const Matching &matching,
                  const Disutility &view, double alpha,
                  std::size_t threads, const std::string &context)
{
    SCOPED_TRACE(context);
    const auto scan = findBlockingPairs(matching, view, alpha, threads);
    EXPECT_EQ(scan.size(),
              countBlockingPairs(matching, view, alpha, threads));
    EXPECT_EQ(scan.size(), bounds.count());
    const auto via_bounds = bounds.pairs(view);
    ASSERT_EQ(scan.size(), via_bounds.size());
    for (std::size_t i = 0; i < scan.size(); ++i) {
        EXPECT_EQ(scan[i].a, via_bounds[i].a) << "pair " << i;
        EXPECT_EQ(scan[i].b, via_bounds[i].b) << "pair " << i;
        EXPECT_EQ(scan[i].gainA, via_bounds[i].gainA) << "pair " << i;
        EXPECT_EQ(scan[i].gainB, via_bounds[i].gainB) << "pair " << i;
    }
    const auto first_scan = firstBlockingPair(matching, view, alpha);
    const auto first_bounds = bounds.first(view);
    ASSERT_EQ(first_scan.has_value(), first_bounds.has_value());
    if (first_scan.has_value()) {
        EXPECT_EQ(first_scan->a, first_bounds->a);
        EXPECT_EQ(first_scan->b, first_bounds->b);
        EXPECT_EQ(first_scan->gainA, first_bounds->gainA);
        EXPECT_EQ(first_scan->gainB, first_bounds->gainB);
    }
}

TEST(BlockingBounds, RebuildMatchesFullScan)
{
    Rng rng(910);
    for (int round = 0; round < 5; ++round) {
        const std::size_t n = 10 + (round * 17) % 53;
        const ChurnFixture fx(n, rng);
        // Alpha sweep includes values high enough for the row bound
        // to skip most rows.
        for (double alpha : {0.0, 0.02, 0.2}) {
            for (std::size_t threads : kThreadCounts) {
                BlockingBounds bounds;
                EXPECT_FALSE(bounds.ready());
                bounds.rebuild(fx.matching, fx.view, alpha, threads);
                EXPECT_TRUE(bounds.ready());
                EXPECT_EQ(bounds.agents(), n);
                EXPECT_EQ(bounds.lastRescanned(), n);
                std::ostringstream ctx;
                ctx << "round " << round << " alpha " << alpha
                    << " threads " << threads;
                expectMatchesScan(bounds, fx.matching, fx.view, alpha,
                                  threads, ctx.str());
            }
        }
    }
}

TEST(BlockingBounds, ChurnSequenceStaysExactAtEveryStep)
{
    // The core property: interleave disutility-row churn, partner
    // churn, and quiet epochs; the incremental bounds must equal the
    // from-scratch scans after every single step.
    for (std::size_t threads : kThreadCounts) {
        for (double alpha : {0.0, 0.05}) {
            Rng rng(920 + threads);
            ChurnFixture fx(37, rng);
            BlockingBounds bounds;
            bounds.rebuild(fx.matching, fx.view, alpha, threads);
            for (int step = 0; step < 60; ++step) {
                std::vector<AgentId> dirty;
                const double move = rng.uniform();
                if (move < 0.35) {
                    // Re-randomize a few penalty rows (a profile
                    // refresh): rows i change, columns keep their old
                    // values toward i — exactly the dirty-row
                    // granularity.
                    const std::size_t count = 1 + step % 3;
                    for (std::size_t k = 0; k < count; ++k) {
                        const AgentId i = AgentId(
                            rng.uniform() * double(fx.n));
                        for (std::size_t j = 0; j < fx.n; ++j)
                            fx.penalty[i][j] = rng.uniform() * 0.3;
                        dirty.push_back(i);
                    }
                    // Duplicates in the dirty list must be harmless.
                    if (!dirty.empty() && step % 4 == 0)
                        dirty.push_back(dirty.front());
                    fx.refresh();
                } else if (move < 0.7) {
                    // Partner churn: break a matched pair and/or form
                    // a new one. No dirty rows — the bounds detect
                    // this internally against the partner snapshot.
                    std::vector<AgentId> matched, free_agents;
                    for (AgentId a = 0; a < fx.n; ++a)
                        (fx.matching.isMatched(a) ? matched
                                                  : free_agents)
                            .push_back(a);
                    if (!matched.empty()) {
                        const AgentId victim = matched[std::size_t(
                            rng.uniform() * double(matched.size()))];
                        fx.matching.unpair(victim);
                    }
                    if (free_agents.size() >= 2 && step % 2 == 0)
                        fx.matching.pair(free_agents[0],
                                         free_agents.back());
                }
                // else: a quiet epoch — nothing changed at all.
                bounds.update(fx.matching, fx.view, alpha, dirty,
                              threads);
                if (move >= 0.7) {
                    EXPECT_EQ(bounds.lastRescanned(), 0u)
                        << "quiet step " << step;
                }
                std::ostringstream ctx;
                ctx << "threads " << threads << " alpha " << alpha
                    << " step " << step << " move " << move;
                expectMatchesScan(bounds, fx.matching, fx.view, alpha,
                                  threads, ctx.str());
            }
        }
    }
}

TEST(BlockingBounds, QuietEpochRescansNothing)
{
    Rng rng(930);
    const ChurnFixture fx(24, rng);
    BlockingBounds bounds;
    bounds.rebuild(fx.matching, fx.view, 0.0, 2);
    const std::size_t count = bounds.count();
    bounds.update(fx.matching, fx.view, 0.0, {}, 2);
    EXPECT_EQ(bounds.lastRescanned(), 0u);
    EXPECT_EQ(bounds.count(), count);
}

TEST(BlockingBounds, UpdateFallsBackToRebuildWhenStale)
{
    Rng rng(940);
    const ChurnFixture small(12, rng);
    const ChurnFixture big(29, rng);

    BlockingBounds bounds;
    // Not ready yet: the first update IS a rebuild.
    bounds.update(small.matching, small.view, 0.0, {}, 2);
    EXPECT_TRUE(bounds.ready());
    EXPECT_EQ(bounds.lastRescanned(), small.n);
    expectMatchesScan(bounds, small.matching, small.view, 0.0, 2,
                      "first update");

    // Alpha changed: every pair's threshold moved, so the incremental
    // path is invalid and the bounds must rescan everything.
    bounds.update(small.matching, small.view, 0.1, {}, 2);
    EXPECT_EQ(bounds.lastRescanned(), small.n);
    expectMatchesScan(bounds, small.matching, small.view, 0.1, 2,
                      "alpha change");

    // Population changed: same story.
    bounds.update(big.matching, big.view, 0.1, {}, 2);
    EXPECT_EQ(bounds.agents(), big.n);
    expectMatchesScan(bounds, big.matching, big.view, 0.1, 2,
                      "population change");

    // Explicit invalidation drops everything.
    bounds.invalidate();
    EXPECT_FALSE(bounds.ready());
    bounds.update(big.matching, big.view, 0.1, {}, 2);
    EXPECT_EQ(bounds.lastRescanned(), big.n);
    expectMatchesScan(bounds, big.matching, big.view, 0.1, 2,
                      "after invalidate");
}

TEST(BlockingBounds, HandlesTinyPopulations)
{
    // Fresh bounds cover nobody; rebuilt bounds must also handle the
    // empty population and n = 1 and n = 2.
    {
        const BlockingBounds fresh;
        EXPECT_FALSE(fresh.ready());
        EXPECT_EQ(fresh.agents(), 0u);
        EXPECT_EQ(fresh.count(), 0u);
    }
    for (std::size_t n : {0u, 1u, 2u}) {
        Matching matching(n);
        if (n == 2)
            matching.pair(0, 1);
        const Disutility view = Disutility::tabulate(
            n, [](AgentId, AgentId) { return 0.0; });
        BlockingBounds bounds;
        bounds.rebuild(matching, view, 0.0, 2);
        EXPECT_EQ(bounds.count(), 0u) << "n " << n;
        EXPECT_FALSE(bounds.first(view).has_value()) << "n " << n;
        EXPECT_TRUE(bounds.pairs(view).empty()) << "n " << n;
        bounds.update(matching, view, 0.0, {}, 2);
        EXPECT_EQ(bounds.lastRescanned(), 0u) << "n " << n;
    }
}

// -- Online driver: decisions must not depend on the knob.

ChurnTrace
makeTrace(const Catalog &catalog, std::size_t arrivals,
          std::uint64_t seed, double mean_gap = 6.0)
{
    ChurnConfig churn;
    churn.arrivals = arrivals;
    churn.initialJobs = 12;
    churn.meanInterarrivalTicks = mean_gap;
    churn.meanLifetimeTicks = 400.0;
    Rng rng(seed);
    return generateChurnTrace(catalog, churn, rng);
}

std::string
summaryOf(const OnlineReport &report)
{
    std::ostringstream out;
    writeOnlineSummary(out, report);
    return out.str();
}

TEST(BlockingBounds, DriverSummaryIdenticalWithKnobOnAndOff)
{
    const Catalog catalog = Catalog::paperTableI();
    const InterferenceModel model(catalog);
    const ChurnTrace trace = makeTrace(catalog, 200, 1234);

    // Scenario sweep: profile refresh dirties believed rows mid-run,
    // a tight full-rematch threshold forces bounds rebuilds, and both
    // serial and parallel paths run.
    struct Scenario
    {
        std::size_t threads;
        std::size_t refresh;
        std::size_t fullRematch;
    };
    const Scenario scenarios[] = {
        {1, 0, 32},
        {8, 8, 32},
        {2, 4, 1},
    };
    for (const Scenario &s : scenarios) {
        std::vector<std::string> summaries;
        for (bool incremental_blocking : {true, false}) {
            FrameworkConfig config;
            config.execution.threads = s.threads;
            config.execution.online.refreshProbesPerEpoch = s.refresh;
            config.execution.online.fullRematchBlockingPairs =
                s.fullRematch;
            config.execution.online.incrementalBlocking =
                incremental_blocking;
            OnlineDriver driver(catalog, model, config, 21);
            summaries.push_back(summaryOf(driver.run(trace)));
        }
        EXPECT_EQ(summaries[0], summaries[1])
            << "threads " << s.threads << " refresh " << s.refresh
            << " fullRematch " << s.fullRematch;
    }
}

} // namespace
} // namespace cooper
