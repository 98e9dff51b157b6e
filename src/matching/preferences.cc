#include "preferences.hh"

#include <algorithm>
#include <limits>

#include "util/error.hh"

namespace cooper {

namespace {

constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();

} // namespace

PreferenceProfile::PreferenceProfile(
    std::vector<std::vector<AgentId>> lists, std::size_t candidates)
    : lists_(std::move(lists)), candidates_(candidates)
{
    ranks_.assign(lists_.size() * candidates_, kNoRank);
    for (AgentId i = 0; i < lists_.size(); ++i) {
        for (std::size_t r = 0; r < lists_[i].size(); ++r) {
            const AgentId j = lists_[i][r];
            fatalIf(j >= candidates_, "PreferenceProfile: agent ", i,
                    " lists candidate ", j, " >= ", candidates_);
            fatalIf(ranks_[i * candidates_ + j] != kNoRank,
                    "PreferenceProfile: agent ", i,
                    " lists candidate ", j, " twice");
            ranks_[i * candidates_ + j] = r;
        }
    }
}

PreferenceProfile
PreferenceProfile::fromDisutility(const Disutility &d,
                                  std::span<const AgentId> agents,
                                  std::span<const AgentId> candidates)
{
    std::vector<std::vector<AgentId>> lists(agents.size());
    std::vector<double> keys(candidates.size(), 0.0);
    for (AgentId i = 0; i < agents.size(); ++i) {
        std::vector<AgentId> &list = lists[i];
        list.reserve(candidates.size());
        for (AgentId j = 0; j < candidates.size(); ++j) {
            if (candidates[j] == agents[i])
                continue;
            keys[j] = d(agents[i], candidates[j]);
            list.push_back(j);
        }
        // Comparing precomputed keys evaluates d once per candidate;
        // the stable sort over ascending j breaks exact ties toward
        // the lower id.
        std::stable_sort(list.begin(), list.end(),
                         [&](AgentId a, AgentId b) {
                             return keys[a] < keys[b];
                         });
    }
    return PreferenceProfile(std::move(lists), candidates.size());
}

std::size_t
PreferenceProfile::rankOf(AgentId i, AgentId j) const
{
    fatalIf(i >= lists_.size(), "rankOf: agent ", i, " out of range");
    fatalIf(j >= candidates_, "rankOf: candidate ", j, " out of range");
    const std::size_t r = ranks_[i * candidates_ + j];
    fatalIf(r == kNoRank, "rankOf: candidate ", j,
            " not on agent ", i, "'s list");
    return r;
}

bool
PreferenceProfile::hasCandidate(AgentId i, AgentId j) const
{
    fatalIf(i >= lists_.size(), "hasCandidate: agent out of range");
    fatalIf(j >= candidates_, "hasCandidate: candidate out of range");
    return ranks_[i * candidates_ + j] != kNoRank;
}

bool
PreferenceProfile::prefers(AgentId i, AgentId a, AgentId b) const
{
    return rankOf(i, a) < rankOf(i, b);
}

} // namespace cooper
