/**
 * @file
 * Incrementally maintained blocking-pair bounds.
 *
 * The per-epoch blocking scan is O(n^2) even when almost nothing
 * changed: a quiet online epoch departs nobody, admits nobody, and
 * refreshes a handful of profile cells, yet the repairing policy
 * re-derives every pair's status from scratch. BlockingBounds keeps
 * the full pair-status bitset alive across epochs and refreshes only
 * the rows that could have changed:
 *
 *  - callers report the agents whose disutility rows churned (for the
 *    online driver: agents whose believed-penalty row was re-predicted
 *    or whose slot now holds a different job);
 *  - partner churn is detected internally against a matching snapshot.
 *
 * Every query (count / first / pairs) answers exactly what the
 * blocking.hh scans would: the same pairs, in the same scan order,
 * with bit-identical gains. A pair's status depends only on its two
 * endpoints' current penalties and the two directed disutilities
 * between them, so pairs with both endpoints clean are provably
 * unchanged and a quiet epoch costs O(changed agents * n) instead of
 * O(n^2).
 */

#ifndef COOPER_MATCHING_BLOCKING_INCREMENTAL_HH
#define COOPER_MATCHING_BLOCKING_INCREMENTAL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "matching/blocking.hh"
#include "matching/matching.hh"

namespace cooper {

/**
 * Pair-status bitset over a matching plus a disutility view,
 * refreshable in O(dirty agents * n).
 */
class BlockingBounds
{
  public:
    BlockingBounds() = default;

    /** A rebuild or update has run and the bitset is coherent. */
    bool ready() const { return ready_; }

    /** Drop all state; the next update() falls back to a rebuild. */
    void invalidate() { ready_ = false; }

    /** Agents covered (0 until the first rebuild). */
    std::size_t agents() const { return n_; }

    /**
     * Full O(n^2) rescan of every pair against `matching` and
     * `d`. The fill parallelizes over first-agent rows exactly
     * like the blocking.hh scans; the resulting bitset is identical
     * for any thread count.
     */
    void rebuild(const Matching &matching, const Disutility &d,
                 double alpha, std::size_t threads = 1);

    /**
     * Incremental refresh after a batch of changes.
     *
     * `dirty_rows` lists the agents whose disutility rows changed since
     * the last rebuild/update (duplicates are fine); agents whose
     * partner differs from the snapshot are picked up internally.
     * Every pair touching a dirty agent is re-derived; pairs between
     * two clean agents are untouched — sound because a pair's status
     * reads nothing else. Falls back to rebuild() when not ready or
     * when the agent count or alpha changed.
     */
    void update(const Matching &matching, const Disutility &d,
                double alpha, const std::vector<AgentId> &dirty_rows,
                std::size_t threads = 1);

    /** Blocking-pair count; equals countBlockingPairs. */
    std::size_t count() const { return count_; }

    /**
     * First blocking pair in scan order (ascending i, then ascending
     * j > i), gains recomputed from `d`; equals firstBlockingPair.
     */
    std::optional<BlockingPair>
    first(const Disutility &d) const;

    /** All blocking pairs in scan order; equals findBlockingPairs. */
    std::vector<BlockingPair>
    pairs(const Disutility &d) const;

    /** Agents re-derived by the last rebuild()/update(); 0 after a
     *  no-change update — the quiet-epoch fast path. */
    std::size_t lastRescanned() const { return lastRescanned_; }

  private:
    /** Word index of pair (i, j), i < j, in the row-aligned bitset. */
    std::size_t pairWord(AgentId i, AgentId j) const
    {
        return i * words_ + j / 64;
    }

    bool testPair(AgentId i, AgentId j) const
    {
        return (bits_[pairWord(i, j)] >> (j % 64) & 1) != 0;
    }

    /** Recompute one row's statuses into `row` (words_ words, zeroed
     *  by the caller): bit j set iff (i, j) blocks, for ALL j != i. */
    void deriveRow(const Matching &matching,
                   const Disutility &d, AgentId i,
                   std::uint64_t *row) const;

    bool ready_ = false;
    std::size_t n_ = 0;
    std::size_t words_ = 0;
    double alpha_ = 0.0;
    std::size_t count_ = 0;
    std::size_t lastRescanned_ = 0;

    /** Partner snapshot at the last refresh (kUnmatched when alone). */
    std::vector<AgentId> partner_;

    /** d(i, partner_[i]), or 0 when unmatched — the scans'
     *  currentPenalties, maintained instead of recomputed. */
    std::vector<double> current_;

    /** Row-aligned status bits: pair (i, j), i < j, lives at word
     *  i * words_ + j/64, bit j%64. Bits at or below the diagonal
     *  stay zero. */
    std::vector<std::uint64_t> bits_;
};

} // namespace cooper

#endif // COOPER_MATCHING_BLOCKING_INCREMENTAL_HH
