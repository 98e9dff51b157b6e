/**
 * @file
 * Unit tests for preference profiles.
 */

#include <gtest/gtest.h>

#include "matching/preferences.hh"
#include "util/error.hh"

namespace cooper {
namespace {

TEST(PreferenceProfile, RanksFollowLists)
{
    PreferenceProfile prefs({{2, 0, 1}, {1, 2, 0}}, 3);
    EXPECT_EQ(prefs.agents(), 2u);
    EXPECT_EQ(prefs.candidates(), 3u);
    EXPECT_EQ(prefs.rankOf(0, 2), 0u);
    EXPECT_EQ(prefs.rankOf(0, 0), 1u);
    EXPECT_EQ(prefs.rankOf(1, 0), 2u);
    EXPECT_TRUE(prefs.prefers(0, 2, 1));
    EXPECT_FALSE(prefs.prefers(0, 1, 2));
}

TEST(PreferenceProfile, DuplicateCandidateFatal)
{
    EXPECT_THROW(PreferenceProfile({{0, 0}}, 2), FatalError);
}

TEST(PreferenceProfile, CandidateOutOfRangeFatal)
{
    EXPECT_THROW(PreferenceProfile({{3}}, 2), FatalError);
}

TEST(PreferenceProfile, PartialListsSupported)
{
    PreferenceProfile prefs({{1}, {}}, 2);
    EXPECT_TRUE(prefs.hasCandidate(0, 1));
    EXPECT_FALSE(prefs.hasCandidate(0, 0));
    EXPECT_FALSE(prefs.hasCandidate(1, 0));
    EXPECT_THROW(prefs.rankOf(1, 0), FatalError);
}

TEST(PreferenceProfile, FromDisutilitySortsAscending)
{
    // Agents 0-1 rank candidates 2-4; agent 0 dislikes candidate 2
    // (local id 2, global 4) most.
    const Disutility d = Disutility::tabulate(5, [](AgentId a, AgentId b) {
        static const double table[2][3] = {{0.0, 0.1, 0.9},
                                           {0.5, 0.0, 0.2}};
        return a < 2 && b >= 2 ? table[a][b - 2] : 0.0;
    });
    const std::vector<AgentId> agents{0, 1};
    const std::vector<AgentId> candidates{2, 3, 4};
    const auto prefs =
        PreferenceProfile::fromDisutility(d, agents, candidates);
    EXPECT_EQ(prefs.list(0), (std::vector<AgentId>{0, 1, 2}));
    EXPECT_EQ(prefs.list(1), (std::vector<AgentId>{1, 2, 0}));
}

TEST(PreferenceProfile, FromDisutilityExcludesSelf)
{
    const Disutility d = Disutility::tabulate(
        3, [](AgentId, AgentId b) { return static_cast<double>(b); });
    const std::vector<AgentId> all{0, 1, 2};
    const auto prefs = PreferenceProfile::fromDisutility(d, all, all);
    for (AgentId i = 0; i < 3; ++i) {
        EXPECT_EQ(prefs.list(i).size(), 2u);
        EXPECT_FALSE(prefs.hasCandidate(i, i));
    }
}

TEST(PreferenceProfile, TieBreaksTowardLowerId)
{
    const Disutility d =
        Disutility::tabulate(5, [](AgentId, AgentId) { return 1.0; });
    const std::vector<AgentId> agent{0};
    const std::vector<AgentId> candidates{1, 2, 3, 4};
    const auto prefs = PreferenceProfile::fromDisutility(d, agent, candidates);
    EXPECT_EQ(prefs.list(0), (std::vector<AgentId>{0, 1, 2, 3}));
}

} // namespace
} // namespace cooper
