/**
 * @file
 * Unit tests for blocking-pair analysis.
 */

#include <gtest/gtest.h>

#include "matching/blocking.hh"
#include "util/error.hh"

namespace cooper {
namespace {

/** 4-agent disutilities from the Figure 2 discussion. */
class BlockingTest : public ::testing::Test
{
  protected:
    // d[i][j]: agent i's penalty with co-runner j. A prefers B most;
    // A and B prefer each other; the {AD, BC} pairing minimizes total
    // penalty but leaves the blocking pair (A, B).
    static constexpr double d_[4][4] = {
        {0.00, 0.02, 0.04, 0.09}, // A
        {0.03, 0.00, 0.05, 0.07}, // B
        {0.06, 0.04, 0.00, 0.10}, // C
        {0.05, 0.08, 0.12, 0.00}, // D
    };

    const Disutility disutility = Disutility::tabulate(
        4, [](AgentId a, AgentId b) { return d_[a][b]; });
};

TEST_F(BlockingTest, PerformanceOptimalPairingHasBlockingPair)
{
    Matching m(4);
    m.pair(0, 3); // AD
    m.pair(1, 2); // BC
    const auto pairs = findBlockingPairs(m, disutility, 0.0);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_EQ(pairs[0].a, 0u);
    EXPECT_EQ(pairs[0].b, 1u);
    EXPECT_NEAR(pairs[0].gainA, 0.09 - 0.02, 1e-12);
    EXPECT_NEAR(pairs[0].gainB, 0.05 - 0.03, 1e-12);
}

TEST_F(BlockingTest, StablePairingHasNone)
{
    Matching m(4);
    m.pair(0, 1); // AB
    m.pair(2, 3); // CD
    EXPECT_EQ(countBlockingPairs(m, disutility, 0.0), 0u);
}

TEST_F(BlockingTest, AlphaFiltersSmallGains)
{
    Matching m(4);
    m.pair(0, 3);
    m.pair(1, 2);
    // B's gain is only 0.02; alpha above that dissolves the pair.
    EXPECT_EQ(countBlockingPairs(m, disutility, 0.02), 1u);
    EXPECT_EQ(countBlockingPairs(m, disutility, 0.03), 0u);
}

TEST_F(BlockingTest, NegativeAlphaFatal)
{
    Matching m(4);
    EXPECT_THROW(countBlockingPairs(m, disutility, -0.1), FatalError);
}

TEST_F(BlockingTest, UnmatchedAgentsNeverBlock)
{
    Matching m(4);
    m.pair(0, 3);
    // 1 and 2 run alone: zero penalty, no incentive to pair.
    EXPECT_EQ(countBlockingPairs(m, disutility, 0.0), 0u);
}

TEST(BlockingStability, PreferenceCheckerAcceptsAndRejects)
{
    PreferenceProfile prefs({{1, 2, 3},
                             {0, 2, 3},
                             {3, 0, 1},
                             {2, 0, 1}},
                            4);
    Matching good(4);
    good.pair(0, 1);
    good.pair(2, 3);
    EXPECT_TRUE(isStableMatching(good, prefs));

    Matching bad(4);
    bad.pair(0, 2);
    bad.pair(1, 3);
    // 0 prefers 1 over 2 and 1 prefers 0 over 3.
    EXPECT_FALSE(isStableMatching(bad, prefs));
}

TEST(BlockingStability, SizeMismatchFatal)
{
    PreferenceProfile prefs({{1}, {0}}, 2);
    Matching m(4);
    EXPECT_THROW(isStableMatching(m, prefs), FatalError);
}

TEST(BlockingStability, EmptyMatchingIsStableForEmptyPrefs)
{
    PreferenceProfile prefs({{}, {}}, 2);
    Matching m(2);
    EXPECT_TRUE(isStableMatching(m, prefs));
}

} // namespace
} // namespace cooper
