/**
 * @file
 * Irving's stable-roommates algorithm and Cooper's adaptation.
 *
 * Roommate assignment matches agents within a single set: any agent
 * may pair with any other. Irving's algorithm (1985) finds a perfectly
 * stable matching when one exists via proposal (phase 1) and rotation
 * elimination (phase 2). Perfect stability often does not exist for
 * large populations, so Cooper's SR policy adapts the algorithm: when
 * an agent is rejected by all others it is set aside, the remainder
 * continues, and set-aside agents are greedily paired at the end to
 * minimize their disutilities (Section III.C).
 */

#ifndef COOPER_MATCHING_STABLE_ROOMMATES_HH
#define COOPER_MATCHING_STABLE_ROOMMATES_HH

#include <optional>

#include "matching/disutility.hh"
#include "matching/matching.hh"
#include "matching/preferences.hh"

namespace cooper {

/** Outcome of the adapted roommates procedure. */
struct RoommatesResult
{
    Matching matching;

    /** True when Irving succeeded outright (no fallback pairing). */
    bool perfectlyStable = false;

    /** Agents rejected by all others and paired greedily. */
    std::vector<AgentId> fallbackAgents;

    /** Proposals issued across all proposal rounds. */
    std::size_t proposals = 0;

    /** Rotations eliminated in phase 2. */
    std::size_t rotations = 0;
};

/**
 * Strict Irving: a perfectly stable matching, or nullopt when none
 * exists. Requires an even number of agents with complete preference
 * lists.
 */
std::optional<Matching> stableRoommates(const PreferenceProfile &prefs);

/**
 * Cooper's adapted roommates. Runs Irving; agents whose lists empty
 * are set aside and the algorithm continues on the rest. Set-aside
 * agents are then paired greedily, each new pair minimizing the sum of
 * both agents' disutilities.
 *
 * @param prefs Complete preference lists over all other agents.
 * @param disutility d(agent, partner) used for the greedy fallback.
 */
RoommatesResult adaptedRoommates(const PreferenceProfile &prefs,
                                 const Disutility &disutility);

} // namespace cooper

#endif // COOPER_MATCHING_STABLE_ROOMMATES_HH
