/**
 * @file
 * Preference profiles over candidate co-runners.
 *
 * An agent prefers co-runner x over y when its predicted disutility
 * with x is lower (Section III.B). Profiles store each agent's strict
 * preference order plus an O(1) rank lookup.
 */

#ifndef COOPER_MATCHING_PREFERENCES_HH
#define COOPER_MATCHING_PREFERENCES_HH

#include <span>
#include <vector>

#include "matching/disutility.hh"
#include "matching/matching.hh"

namespace cooper {

/**
 * Strict preference lists for a set of agents over a candidate set.
 *
 * For the roommates setting, candidates are the agents themselves
 * (self excluded). For the marriage setting, the candidates of one
 * side are the agents of the other.
 */
class PreferenceProfile
{
  public:
    PreferenceProfile() = default;

    /**
     * @param lists lists[i] is agent i's candidate order, most
     *        preferred first. Lists may cover any subset of candidate
     *        ids but must not repeat entries.
     * @param candidates Total number of candidate ids (rank table
     *        width).
     */
    PreferenceProfile(std::vector<std::vector<AgentId>> lists,
                      std::size_t candidates);

    /**
     * Rank by disutility: local agent i ranks local candidate j by
     * increasing d(agents[i], candidates[j]), ties toward the lower j.
     * An agent never ranks itself: a candidate with the same global id
     * is left off its list. Pass the same id list twice for the
     * roommates setting, two disjoint sides for marriage.
     */
    static PreferenceProfile
    fromDisutility(const Disutility &d, std::span<const AgentId> agents,
                   std::span<const AgentId> candidates);

    std::size_t agents() const { return lists_.size(); }
    std::size_t candidates() const { return candidates_; }

    /** Agent i's full order, most preferred first. */
    const std::vector<AgentId> &list(AgentId i) const { return lists_[i]; }

    /**
     * Rank of candidate j for agent i (0 = most preferred); fatal if
     * j is not on i's list.
     */
    std::size_t rankOf(AgentId i, AgentId j) const;

    /** True when candidate j appears on agent i's list. */
    bool hasCandidate(AgentId i, AgentId j) const;

    /** True when agent i strictly prefers a over b (both listed). */
    bool prefers(AgentId i, AgentId a, AgentId b) const;

  private:
    std::vector<std::vector<AgentId>> lists_;

    /**
     * Rank table in one flat row-major block (agent i's row starts at
     * i * candidates_): the matching inner loops hammer rankOf, and a
     * single contiguous allocation keeps those lookups on hot cache
     * lines instead of chasing per-agent vectors.
     */
    std::vector<std::size_t> ranks_;
    std::size_t candidates_ = 0;
};

} // namespace cooper

#endif // COOPER_MATCHING_PREFERENCES_HH
