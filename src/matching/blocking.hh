/**
 * @file
 * Blocking-pair analysis (Section III.B and Figure 10).
 *
 * Agents i and j block a matching when each prefers the other over its
 * assigned co-runner; such pairs would break away to a separate
 * subsystem. The stability analysis parameterizes this with alpha, the
 * minimum performance benefit for which an agent bothers to break
 * away: with alpha = 2%, agents defect only for colocations improving
 * both penalties by at least two points.
 */

#ifndef COOPER_MATCHING_BLOCKING_HH
#define COOPER_MATCHING_BLOCKING_HH

#include <optional>
#include <vector>

#include "matching/disutility.hh"
#include "matching/matching.hh"
#include "matching/preferences.hh"

namespace cooper {

/** One blocking pair with both sides' gains. */
struct BlockingPair
{
    AgentId a = 0;
    AgentId b = 0;
    double gainA = 0.0; //!< penalty reduction a would see
    double gainB = 0.0; //!< penalty reduction b would see
};

/**
 * Does a gain clear the alpha threshold? With alpha = 0 any strict
 * improvement counts; a positive alpha demands at least that much.
 */
inline bool
clearsAlpha(double gain, double alpha)
{
    return alpha > 0.0 ? gain >= alpha : gain > 0.0;
}

/**
 * Does the pair (i, j) block, given both agents' current penalties?
 * On true, `gain_i` and `gain_j` hold both sides' gains. A pair whose
 * type-level upper bound on either gain already misses alpha is
 * rejected without hashing the jitter (see disutility.hh for why that
 * is sound); every scan and BlockingBounds decide pairs here.
 */
inline bool
pairBlocks(const Disutility &d, AgentId i, AgentId j, double current_i,
           double current_j, double alpha, double &gain_i,
           double &gain_j)
{
    if (!clearsAlpha(current_i - d.typeLevel(i, j), alpha) ||
        !clearsAlpha(current_j - d.typeLevel(j, i), alpha))
        return false;
    gain_i = current_i - d(i, j);
    gain_j = current_j - d(j, i);
    return clearsAlpha(gain_i, alpha) && clearsAlpha(gain_j, alpha);
}

/**
 * All pairs that would break away for a benefit of at least alpha.
 *
 * Unmatched agents run alone with zero penalty and therefore never
 * join a blocking pair. Rows whose best possible gain (via
 * Disutility::rowBound) cannot reach alpha are skipped whole.
 *
 * The O(n^2) scan parallelizes over the first agent's index; chunk
 * results are concatenated in index order, so the returned pairs are
 * in exactly the serial scan's order for any thread count.
 *
 * @param matching Current colocations.
 * @param disutility Disutilities the agents judge by.
 * @param alpha Minimum penalty reduction for both agents.
 * @param threads Worker threads; 0 = hardware, 1 = serial.
 */
std::vector<BlockingPair> findBlockingPairs(const Matching &matching,
                                            const Disutility &disutility,
                                            double alpha,
                                            std::size_t threads = 1);

/**
 * Count of blocking pairs (same semantics as findBlockingPairs).
 *
 * Runs the scan in count-only mode: per-chunk integer tallies are
 * summed in chunk order, so no pair vector is ever materialized and
 * the count is exact for any thread count.
 */
std::size_t countBlockingPairs(const Matching &matching,
                               const Disutility &disutility,
                               double alpha, std::size_t threads = 1);

/**
 * First blocking pair in scan order, or nullopt when the matching is
 * alpha-stable. Serial with early exit: stops at the first hit, so a
 * very unstable matching answers in O(1) pairs instead of O(n^2).
 */
std::optional<BlockingPair> firstBlockingPair(const Matching &matching,
                                              const Disutility &disutility,
                                              double alpha);

/**
 * Preference-based stability check for roommate matchings: true when
 * no pair of agents prefers each other over their partners (the
 * textbook, alpha-free notion used to verify Irving's output).
 */
bool isStableMatching(const Matching &matching,
                      const PreferenceProfile &prefs);

} // namespace cooper

#endif // COOPER_MATCHING_BLOCKING_HH
