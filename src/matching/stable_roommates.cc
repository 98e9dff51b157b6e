#include "stable_roommates.hh"

#include <algorithm>
#include <deque>

#include "obs/obs.hh"
#include "util/error.hh"

namespace cooper {

namespace {

/**
 * Mutable preference table shared by both roommates entry points.
 *
 * The table maintains Irving's "stable table" invariant after every
 * proposal round: each live agent is semiengaged to the first agent on
 * its reduced list, and an agent's list holds exactly the partners
 * that would not immediately reject it. Deletions are symmetric.
 */
class RoommateEngine
{
  public:
    RoommateEngine(const PreferenceProfile &prefs, bool strict)
        : prefs_(&prefs), strict_(strict), n_(prefs.agents()),
          active_(n_ * n_, 0), count_(n_, 0),
          headIdx_(n_, 0), tailIdx_(n_, 0),
          engagedTo_(n_, kUnmatched), holder_(n_, kUnmatched),
          alive_(n_, 1)
    {
        for (AgentId i = 0; i < n_; ++i) {
            const auto &list = prefs.list(i);
            for (AgentId j : list) {
                panicIf(j == i, "roommates: agent ", i, " lists itself");
                active_[i * n_ + j] = 1;
            }
            count_[i] = list.size();
            tailIdx_[i] = list.empty() ? 0 : list.size() - 1;
        }
        // Lists must be mutually consistent: (i, j) live implies
        // (j, i) live, otherwise symmetric deletion breaks.
        for (AgentId i = 0; i < n_; ++i)
            for (AgentId j : prefs.list(i))
                fatalIf(!active_[j * n_ + i],
                        "roommates: agent ", i, " lists ", j,
                        " but not vice versa");
    }

    /** Run phase 1 + phase 2; false when strict mode hit a dead end. */
    bool
    run(RoommatesResult &result)
    {
        for (AgentId i = 0; i < n_; ++i)
            free_.push_back(i);
        if (!proposeAll(result))
            return false;
        while (true) {
            const AgentId pivot = agentWithChoice();
            if (pivot == kUnmatched)
                break;
            eliminateRotation(pivot, result);
            if (strict_ && failed_)
                return false;
            if (!proposeAll(result))
                return false;
        }
        return !failed_ || !strict_;
    }

    /** Extract the final matching; engaged pairs only. */
    Matching
    extract() const
    {
        Matching m(n_);
        for (AgentId i = 0; i < n_; ++i) {
            const AgentId j = engagedTo_[i];
            if (j == kUnmatched)
                continue;
            panicIf(engagedTo_[j] != i,
                    "roommates: asymmetric engagement ", i, " -> ", j);
            if (i < j)
                m.pair(i, j);
        }
        return m;
    }

    const std::vector<AgentId> &setAside() const { return setAside_; }

  private:
    bool pairActive(AgentId a, AgentId b) const
    {
        return active_[a * n_ + b] != 0;
    }

    /** First live candidate on a's list, or kUnmatched. */
    AgentId
    first(AgentId a)
    {
        const auto &list = prefs_->list(a);
        while (headIdx_[a] < list.size() &&
               !pairActive(a, list[headIdx_[a]])) {
            ++headIdx_[a];
        }
        return headIdx_[a] < list.size() ? list[headIdx_[a]]
                                         : kUnmatched;
    }

    /** Second live candidate on a's list, or kUnmatched. */
    AgentId
    second(AgentId a)
    {
        const auto &list = prefs_->list(a);
        if (first(a) == kUnmatched)
            return kUnmatched;
        for (std::size_t idx = headIdx_[a] + 1; idx < list.size(); ++idx)
            if (pairActive(a, list[idx]))
                return list[idx];
        return kUnmatched;
    }

    /** Last live candidate on a's list, or kUnmatched. */
    AgentId
    last(AgentId a)
    {
        const auto &list = prefs_->list(a);
        if (list.empty())
            return kUnmatched;
        std::size_t idx = tailIdx_[a];
        while (!pairActive(a, list[idx])) {
            if (idx == 0)
                return kUnmatched;
            --idx;
        }
        tailIdx_[a] = idx;
        return list[idx];
    }

    /**
     * Symmetric deletion. Breaks any semiengagement across the pair
     * and requeues the agent that lost its proposal.
     */
    void
    deletePair(AgentId a, AgentId b)
    {
        panicIf(!pairActive(a, b), "roommates: deleting dead pair ",
                a, "-", b);
        active_[a * n_ + b] = 0;
        active_[b * n_ + a] = 0;
        --count_[a];
        --count_[b];
        if (engagedTo_[a] == b) {
            engagedTo_[a] = kUnmatched;
            holder_[b] = kUnmatched;
            free_.push_back(a);
        }
        if (engagedTo_[b] == a) {
            engagedTo_[b] = kUnmatched;
            holder_[a] = kUnmatched;
            free_.push_back(b);
        }
    }

    /**
     * Proposal loop: every free agent proposes down its list until
     * held or exhausted. Returns false only when strict mode proves
     * the instance unsolvable.
     */
    bool
    proposeAll(RoommatesResult &result)
    {
        while (!free_.empty()) {
            const AgentId x = free_.front();
            free_.pop_front();
            if (!alive_[x] || engagedTo_[x] != kUnmatched)
                continue;
            const AgentId y = first(x);
            if (y == kUnmatched) {
                // Rejected by everyone.
                if (strict_) {
                    failed_ = true;
                    return false;
                }
                alive_[x] = 0;
                setAside_.push_back(x);
                continue;
            }
            ++result.proposals;
            const AgentId z = holder_[y];
            if (z != kUnmatched && prefs_->prefers(y, z, x)) {
                deletePair(x, y); // y rejects x outright
                free_.push_back(x);
                continue;
            }
            // y accepts x: everyone y likes less than x is deleted
            // (this frees z, the displaced holder, via deletePair).
            const auto &ylist = prefs_->list(y);
            const std::size_t cut = prefs_->rankOf(y, x);
            for (std::size_t idx = ylist.size(); idx-- > cut + 1;) {
                const AgentId w = ylist[idx];
                if (pairActive(y, w))
                    deletePair(y, w);
            }
            holder_[y] = x;
            engagedTo_[x] = y;
        }
        return true;
    }

    /** Any live agent with at least two live candidates. */
    AgentId
    agentWithChoice()
    {
        for (AgentId i = 0; i < n_; ++i)
            if (alive_[i] && count_[i] >= 2)
                return i;
        return kUnmatched;
    }

    /**
     * Find and eliminate the rotation exposed at `start`.
     *
     * Follow x_{k+1} = last(second(x_k)) until an agent repeats; the
     * portion from its first occurrence is the rotation. Eliminating
     * deletes each pair (x_{k+1}, y_k), freeing those agents to
     * propose again.
     */
    void
    eliminateRotation(AgentId start, RoommatesResult &result)
    {
        std::vector<AgentId> xs, ys;
        std::vector<std::size_t> seen_at(n_, kUnmatched);
        AgentId x = start;
        std::size_t cycle_start = kUnmatched;
        while (true) {
            if (seen_at[x] != kUnmatched) {
                cycle_start = seen_at[x];
                break;
            }
            seen_at[x] = xs.size();
            const AgentId y = second(x);
            panicIf(y == kUnmatched,
                    "roommates: rotation walk hit a singleton list");
            xs.push_back(x);
            ys.push_back(y);
            x = last(y);
            panicIf(x == kUnmatched,
                    "roommates: rotation walk hit an empty list");
        }
        ++result.rotations;
        const std::size_t len = xs.size() - cycle_start;
        for (std::size_t k = 0; k < len; ++k) {
            const AgentId yk = ys[cycle_start + k];
            const AgentId xnext = xs[cycle_start + (k + 1) % len];
            // first(xnext) == yk in a stable table; deleting the pair
            // frees xnext to propose to its next candidate.
            if (pairActive(xnext, yk))
                deletePair(xnext, yk);
        }
    }

    const PreferenceProfile *prefs_;
    bool strict_;
    std::size_t n_;
    std::vector<std::uint8_t> active_;
    std::vector<std::size_t> count_;
    std::vector<std::size_t> headIdx_;
    std::vector<std::size_t> tailIdx_;
    std::vector<AgentId> engagedTo_;
    std::vector<AgentId> holder_;
    std::vector<std::uint8_t> alive_;
    std::vector<AgentId> setAside_;
    std::deque<AgentId> free_;
    bool failed_ = false;
};

} // namespace

RoommatesResult
adaptedRoommates(const PreferenceProfile &prefs,
                 const Disutility &disutility)
{
    fatalIf(disutility.agents() != prefs.agents(),
            "adaptedRoommates: disutility covers ", disutility.agents(),
            " agents, preferences cover ", prefs.agents());
    const ScopedTimer timer("matching.roommates_seconds");
    RoommatesResult result;
    RoommateEngine engine(prefs, /*strict=*/false);
    engine.run(result);
    result.matching = engine.extract();
    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("matching.proposals").add(result.proposals);
        metrics->counter("matching.rotations").add(result.rotations);
    }

    // Pool every agent Irving could not place.
    std::vector<AgentId> pool;
    for (AgentId i = 0; i < prefs.agents(); ++i)
        if (!result.matching.isMatched(i))
            pool.push_back(i);
    result.fallbackAgents = pool;
    result.perfectlyStable = pool.empty();

    // Greedy completion, GR applied to the rejects: take set-aside
    // agents in order and give each the remaining partner that
    // minimizes the pair's combined disutility.
    std::vector<std::uint8_t> used(prefs.agents(), 0);
    for (std::size_t ai = 0; ai + 1 < pool.size(); ++ai) {
        const AgentId a = pool[ai];
        if (used[a])
            continue;
        double best = 0.0;
        AgentId best_b = kUnmatched;
        for (std::size_t bi = ai + 1; bi < pool.size(); ++bi) {
            const AgentId b = pool[bi];
            if (used[b])
                continue;
            const double cost = disutility(a, b) + disutility(b, a);
            if (best_b == kUnmatched || cost < best) {
                best = cost;
                best_b = b;
            }
        }
        if (best_b == kUnmatched)
            break; // a is the single odd agent left
        result.matching.pair(a, best_b);
        used[a] = 1;
        used[best_b] = 1;
    }
    return result;
}

std::optional<Matching>
stableRoommates(const PreferenceProfile &prefs)
{
    const std::size_t n = prefs.agents();
    if (n == 0)
        return Matching(0);
    fatalIf(n % 2 != 0,
            "stableRoommates: odd population (", n, ") cannot pair up");
    for (AgentId i = 0; i < n; ++i)
        fatalIf(prefs.list(i).size() != n - 1,
                "stableRoommates: agent ", i,
                " has an incomplete preference list");

    RoommatesResult scratch;
    RoommateEngine engine(prefs, /*strict=*/true);
    const bool solved = engine.run(scratch);
    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("matching.proposals").add(scratch.proposals);
        metrics->counter("matching.rotations").add(scratch.rotations);
    }
    if (!solved)
        return std::nullopt;
    Matching m = engine.extract();
    if (!m.isPerfect())
        return std::nullopt;
    return m;
}

} // namespace cooper
