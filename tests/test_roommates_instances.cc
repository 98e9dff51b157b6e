/**
 * @file
 * Canonical stable-roommates instances from the literature, plus
 * adversarial structures that stress phase 2 (rotation elimination).
 */

#include <gtest/gtest.h>

#include "matching/blocking.hh"
#include "matching/stable_roommates.hh"
#include "util/rng.hh"

namespace cooper {
namespace {

TEST(RoommatesInstances, GusfieldIrvingEightAgent)
{
    // 8-agent instance from Gusfield & Irving's book (Example 1.17,
    // 0-indexed); known to require phase-2 rotation eliminations.
    PreferenceProfile prefs({{1, 4, 3, 5, 6, 7, 2},
                             {2, 5, 4, 0, 6, 7, 3},
                             {3, 6, 5, 1, 7, 0, 4},
                             {4, 7, 6, 2, 0, 1, 5},
                             {5, 0, 7, 3, 1, 2, 6},
                             {6, 1, 0, 4, 2, 3, 7},
                             {7, 2, 1, 5, 3, 4, 0},
                             {0, 3, 2, 6, 4, 5, 1}},
                            8);
    const auto matching = stableRoommates(prefs);
    if (matching.has_value()) {
        EXPECT_TRUE(matching->isPerfect());
        EXPECT_TRUE(isStableMatching(*matching, prefs));
    }
    // Either way the adapted variant must produce a perfect matching.
    const RoommatesResult adapted = adaptedRoommates(
        prefs, Disutility::tabulate(8, [&](AgentId a, AgentId b) {
            return a == b ? 0.0 : static_cast<double>(prefs.rankOf(a, b));
        }));
    EXPECT_TRUE(adapted.matching.isPerfect());
}

TEST(RoommatesInstances, MutualFirstChoicesAlwaysPair)
{
    // Agents 0-1 and 2-3 rank each other first; any stable matching
    // must pair mutual first choices.
    PreferenceProfile prefs({{1, 2, 3},
                             {0, 2, 3},
                             {3, 0, 1},
                             {2, 0, 1}},
                            4);
    const auto matching = stableRoommates(prefs);
    ASSERT_TRUE(matching.has_value());
    EXPECT_EQ(matching->partnerOf(0), 1u);
    EXPECT_EQ(matching->partnerOf(2), 3u);
}

TEST(RoommatesInstances, IdenticalPreferenceOrders)
{
    // Everyone ranks candidates by ascending index: assortative
    // pairing 0-1, 2-3, 4-5 is the unique stable outcome.
    std::vector<std::vector<AgentId>> lists(6);
    for (AgentId i = 0; i < 6; ++i)
        for (AgentId j = 0; j < 6; ++j)
            if (j != i)
                lists[i].push_back(j);
    PreferenceProfile prefs(std::move(lists), 6);
    const auto matching = stableRoommates(prefs);
    ASSERT_TRUE(matching.has_value());
    EXPECT_EQ(matching->partnerOf(0), 1u);
    EXPECT_EQ(matching->partnerOf(2), 3u);
    EXPECT_EQ(matching->partnerOf(4), 5u);
}

TEST(RoommatesInstances, SixAgentUnsolvableOddParty)
{
    // Three agents in a preference cycle all ranked above the rest;
    // extending the 4-agent odd-party construction to 6 keeps it
    // unsolvable.
    PreferenceProfile prefs({{1, 2, 3, 4, 5},
                             {2, 0, 3, 4, 5},
                             {0, 1, 3, 4, 5},
                             {0, 1, 2, 4, 5},
                             {0, 1, 2, 3, 5},
                             {0, 1, 2, 3, 4}},
                            6);
    EXPECT_FALSE(stableRoommates(prefs).has_value());
    // Adapted mode still pairs everyone.
    const RoommatesResult adapted = adaptedRoommates(
        prefs,
        Disutility::tabulate(6, [](AgentId, AgentId) { return 0.5; }));
    EXPECT_TRUE(adapted.matching.isPerfect());
    EXPECT_FALSE(adapted.perfectlyStable);
}

TEST(RoommatesInstances, LargeRandomInstancesStaySane)
{
    Rng rng(4242);
    for (std::size_t n : {200u, 500u}) {
        std::vector<std::vector<AgentId>> lists(n);
        for (AgentId i = 0; i < n; ++i) {
            for (AgentId j = 0; j < n; ++j)
                if (j != i)
                    lists[i].push_back(j);
            rng.shuffle(lists[i]);
        }
        PreferenceProfile prefs(std::move(lists), n);
        // Rank-consistent disutility for the fallback.
        const Disutility by_rank =
            Disutility::tabulate(n, [&](AgentId a, AgentId b) {
                return a == b ? 0.0
                              : static_cast<double>(prefs.rankOf(a, b)) /
                                    static_cast<double>(n);
            });
        const RoommatesResult result = adaptedRoommates(prefs, by_rank);
        EXPECT_TRUE(result.matching.isPerfect()) << "n=" << n;
        EXPECT_TRUE(result.matching.consistent());
        // Either Irving solved it outright or the fallback kicked in;
        // in both cases blocking pairs must be a vanishing fraction.
        const std::size_t blocking =
            countBlockingPairs(result.matching, by_rank, 0.0);
        EXPECT_LT(blocking, n) << "n=" << n;
    }
}

TEST(RoommatesInstances, ProposalAndRotationCountsReported)
{
    Rng rng(99);
    std::vector<std::vector<AgentId>> lists(16);
    for (AgentId i = 0; i < 16; ++i) {
        for (AgentId j = 0; j < 16; ++j)
            if (j != i)
                lists[i].push_back(j);
        rng.shuffle(lists[i]);
    }
    PreferenceProfile prefs(std::move(lists), 16);
    const RoommatesResult result = adaptedRoommates(
        prefs,
        Disutility::tabulate(16, [](AgentId, AgentId) { return 0.1; }));
    EXPECT_GE(result.proposals, 16u);
}

} // namespace
} // namespace cooper
