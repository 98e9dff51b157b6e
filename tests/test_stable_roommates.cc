/**
 * @file
 * Unit tests for Irving's stable-roommates algorithm and Cooper's
 * adapted variant, cross-checked against brute force on small
 * instances.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "matching/blocking.hh"
#include "matching/stable_roommates.hh"
#include "util/error.hh"
#include "util/rng.hh"

namespace cooper {
namespace {

/** Complete random roommate preferences for n agents. */
PreferenceProfile
randomRoommatePrefs(std::size_t n, Rng &rng)
{
    std::vector<std::vector<AgentId>> lists(n);
    for (AgentId i = 0; i < n; ++i) {
        for (AgentId j = 0; j < n; ++j)
            if (j != i)
                lists[i].push_back(j);
        rng.shuffle(lists[i]);
    }
    return PreferenceProfile(std::move(lists), n);
}

/** Brute force: does any perfect stable matching exist? */
bool
bruteForceHasStable(const PreferenceProfile &prefs)
{
    const std::size_t n = prefs.agents();
    std::vector<AgentId> partner(n, kUnmatched);

    std::function<bool()> recurse = [&]() -> bool {
        AgentId a = kUnmatched;
        for (AgentId i = 0; i < n; ++i) {
            if (partner[i] == kUnmatched) {
                a = i;
                break;
            }
        }
        if (a == kUnmatched) {
            Matching m(n);
            for (AgentId i = 0; i < n; ++i)
                if (i < partner[i])
                    m.pair(i, partner[i]);
            return isStableMatching(m, prefs);
        }
        for (AgentId b = a + 1; b < n; ++b) {
            if (partner[b] != kUnmatched)
                continue;
            partner[a] = b;
            partner[b] = a;
            if (recurse())
                return true;
            partner[a] = kUnmatched;
            partner[b] = kUnmatched;
        }
        return false;
    };
    return recurse();
}

TEST(StableRoommates, TextbookSolvableInstance)
{
    // Classic 6-agent instance (Irving 1985) with a stable matching
    // {0-5, 1-2, 3-4} (0-indexed from the 1-indexed original).
    PreferenceProfile prefs({{3, 5, 1, 4, 2},
                             {5, 2, 4, 0, 3},
                             {1, 4, 3, 5, 0},
                             {2, 5, 0, 1, 4},
                             {0, 3, 2, 5, 1},
                             {4, 1, 3, 0, 2}},
                            6);
    const auto matching = stableRoommates(prefs);
    ASSERT_TRUE(matching.has_value());
    EXPECT_TRUE(matching->isPerfect());
    EXPECT_TRUE(isStableMatching(*matching, prefs));
}

TEST(StableRoommates, ClassicUnsolvableInstance)
{
    // Four agents where 0, 1, 2 cyclically prefer each other and all
    // rank 3 last: every matching has a blocking pair.
    PreferenceProfile prefs({{1, 2, 3},
                             {2, 0, 3},
                             {0, 1, 3},
                             {0, 1, 2}},
                            4);
    EXPECT_FALSE(bruteForceHasStable(prefs));
    EXPECT_FALSE(stableRoommates(prefs).has_value());
}

TEST(StableRoommates, TwoAgentsTrivial)
{
    PreferenceProfile prefs({{1}, {0}}, 2);
    const auto matching = stableRoommates(prefs);
    ASSERT_TRUE(matching.has_value());
    EXPECT_EQ(matching->partnerOf(0), 1u);
}

TEST(StableRoommates, OddPopulationFatal)
{
    PreferenceProfile prefs({{1, 2}, {0, 2}, {0, 1}}, 3);
    EXPECT_THROW(stableRoommates(prefs), FatalError);
}

TEST(StableRoommates, IncompleteListFatal)
{
    PreferenceProfile prefs({{1}, {0}, {0}, {0}}, 4);
    EXPECT_THROW(stableRoommates(prefs), FatalError);
}

TEST(StableRoommates, AgreesWithBruteForceOnRandomInstances)
{
    Rng rng(2024);
    int solvable = 0, unsolvable = 0;
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t n = 2 * (1 + rng.uniformInt(std::uint64_t(4)));
        const PreferenceProfile prefs = randomRoommatePrefs(n, rng);
        const auto matching = stableRoommates(prefs);
        const bool exists = bruteForceHasStable(prefs);
        EXPECT_EQ(matching.has_value(), exists) << "trial " << trial;
        if (matching.has_value()) {
            ++solvable;
            EXPECT_TRUE(matching->isPerfect());
            EXPECT_TRUE(isStableMatching(*matching, prefs))
                << "trial " << trial;
        } else {
            ++unsolvable;
        }
    }
    // Random instances of these sizes include both kinds.
    EXPECT_GT(solvable, 0);
    EXPECT_GT(unsolvable, 0);
}

TEST(AdaptedRoommates, MatchesEveryoneOnEvenPopulations)
{
    Rng rng(7);
    auto d = [](AgentId a, AgentId b) {
        return static_cast<double>((a * 31 + b * 17) % 101) / 101.0;
    };
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 * (1 + rng.uniformInt(std::uint64_t(10)));
        const PreferenceProfile prefs = randomRoommatePrefs(n, rng);
        const RoommatesResult result =
            adaptedRoommates(prefs, Disutility::tabulate(n, d));
        EXPECT_TRUE(result.matching.isPerfect()) << "trial " << trial;
        EXPECT_TRUE(result.matching.consistent());
    }
}

TEST(AdaptedRoommates, PerfectlyStableWhenIrvingSolves)
{
    PreferenceProfile prefs({{3, 5, 1, 4, 2},
                             {5, 2, 4, 0, 3},
                             {1, 4, 3, 5, 0},
                             {2, 5, 0, 1, 4},
                             {0, 3, 2, 5, 1},
                             {4, 1, 3, 0, 2}},
                            6);
    const RoommatesResult result = adaptedRoommates(
        prefs, Disutility::tabulate(6, [](AgentId, AgentId) {
            return 0.5;
        }));
    EXPECT_TRUE(result.perfectlyStable);
    EXPECT_TRUE(result.fallbackAgents.empty());
    EXPECT_TRUE(isStableMatching(result.matching, prefs));
}

TEST(AdaptedRoommates, FallbackEngagesOnUnsolvableInstance)
{
    PreferenceProfile prefs({{1, 2, 3},
                             {2, 0, 3},
                             {0, 1, 3},
                             {0, 1, 2}},
                            4);
    const Disutility d = Disutility::tabulate(4, [](AgentId a, AgentId b) {
        return 0.1 * static_cast<double>(a + b);
    });
    const RoommatesResult result = adaptedRoommates(prefs, d);
    EXPECT_FALSE(result.perfectlyStable);
    EXPECT_FALSE(result.fallbackAgents.empty());
    EXPECT_TRUE(result.matching.isPerfect());
}

TEST(AdaptedRoommates, FewBlockingPairsOnLargePopulations)
{
    // The adapted algorithm should leave dramatically fewer blocking
    // pairs than random pairing on the same preferences.
    Rng rng(99);
    const std::size_t n = 100;
    const PreferenceProfile prefs = randomRoommatePrefs(n, rng);
    // Disutility consistent with the preference lists.
    const Disutility d = Disutility::tabulate(n, [&](AgentId i, AgentId j) {
        return i == j ? 0.0
                      : static_cast<double>(prefs.rankOf(i, j)) /
                            static_cast<double>(n);
    });

    const RoommatesResult result = adaptedRoommates(prefs, d);
    EXPECT_TRUE(result.matching.isPerfect());
    const std::size_t adapted_blocking =
        countBlockingPairs(result.matching, d, 0.0);

    Matching random_pairing(n);
    auto perm = rng.permutation(n);
    for (std::size_t k = 0; k < n; k += 2)
        random_pairing.pair(perm[k], perm[k + 1]);
    const std::size_t random_blocking =
        countBlockingPairs(random_pairing, d, 0.0);

    EXPECT_LT(adapted_blocking, random_blocking / 10 + 1);
}

TEST(AdaptedRoommates, OddPopulationLeavesOneUnmatched)
{
    Rng rng(5);
    const PreferenceProfile prefs = randomRoommatePrefs(7, rng);
    const RoommatesResult result = adaptedRoommates(
        prefs, Disutility::tabulate(7, [](AgentId, AgentId) {
            return 0.1;
        }));
    EXPECT_EQ(result.matching.pairCount(), 3u);
}

} // namespace
} // namespace cooper
