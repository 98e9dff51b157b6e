/**
 * @file
 * The one source of pairwise disutility values.
 *
 * Cooper only consumes pairwise throughput penalties, and every agent
 * of a job type shares that type's penalties; a tiny deterministic
 * per-ordered-pair jitter breaks ties so preferences are strict. So
 * every agent-level disutility is
 *
 *     d(a, b) = M(type a, type b) + jitter(a, b)
 *
 * with M a square type-level matrix (20 x 20 for the paper's catalog)
 * and jitter a splitmix64 hash of the ordered pair scaled into
 * [0, amplitude). Disutility is a view that computes d on the fly
 * from the agent -> type vector, M and the amplitude; it stores no
 * agents x agents array, so an epoch never rebuilds one when a slot
 * moves.
 *
 * Callers holding arbitrary agent-level values (tests, the
 * super-agent merge) tabulate() a view over an explicit matrix with
 * identity types and zero jitter: M is then the values themselves.
 *
 * Pruning bounds read M alone. Jitter is non-negative and rounding is
 * monotone, so d(a, b) >= M(type a, type b) >= rowBound(a); a gain
 * fl(c - d) is monotone non-increasing in d, so a threshold the
 * type-level value already misses is missed by the agent-level one.
 */

#ifndef COOPER_MATCHING_DISUTILITY_HH
#define COOPER_MATCHING_DISUTILITY_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "matching/matching.hh"
#include "util/rng.hh"

namespace cooper {

/** Type-level disutility view over a population of agents. */
class Disutility
{
  public:
    Disutility() = default;

    /**
     * @param types Agent -> type index, each < `type_count`.
     * @param type_count Side of the square type-level matrix.
     * @param matrix Row-major type_count x type_count values M.
     * @param jitter Amplitude of the tie-breaking jitter (>= 0).
     */
    Disutility(std::vector<std::uint32_t> types, std::size_t type_count,
               std::vector<double> matrix, double jitter);

    /**
     * Explicit agent-level values: identity types and zero jitter, so
     * d(a, b) == value(a, b), evaluated once per ordered pair.
     */
    template <typename F>
    static Disutility tabulate(std::size_t n, const F &value)
    {
        std::vector<std::uint32_t> identity(n);
        std::vector<double> values(n * n, 0.0);
        for (AgentId a = 0; a < n; ++a) {
            identity[a] = static_cast<std::uint32_t>(a);
            for (AgentId b = 0; b < n; ++b)
                values[a * n + b] = value(a, b);
        }
        return Disutility(std::move(identity), n, std::move(values), 0.0);
    }

    std::size_t agents() const { return types_.size(); }

    /** M(type a, type b): d(a, b) without the jitter, a lower bound
     *  on it. */
    double typeLevel(AgentId a, AgentId b) const
    {
        return matrix_[types_[a] * typeCount_ + types_[b]];
    }

    /** Tie-breaking jitter of the ordered pair, in [0, amplitude). */
    double jitter(AgentId a, AgentId b) const
    {
        if (jitter_ == 0.0)
            return 0.0;
        // Including the pair (not just the co-runner) keeps two
        // same-type co-runners distinguishable.
        std::uint64_t h = (static_cast<std::uint64_t>(a) << 32) ^
                          (static_cast<std::uint64_t>(b) + 0x51ed2701);
        return (splitmix64(h) >> 11) * 0x1.0p-53 * jitter_;
    }

    /** d(a, b): disutility of agent a colocated with agent b. */
    double operator()(AgentId a, AgentId b) const
    {
        return typeLevel(a, b) + jitter(a, b);
    }

    /**
     * Smallest M(type a, t) over the types present in the population:
     * a lower bound on d(a, b) for every b, self included.
     */
    double rowBound(AgentId a) const { return rowBound_[types_[a]]; }

  private:
    std::vector<std::uint32_t> types_;
    std::size_t typeCount_ = 0;
    std::vector<double> matrix_;
    double jitter_ = 0.0;
    std::vector<double> rowBound_; //!< per type
};

} // namespace cooper

#endif // COOPER_MATCHING_DISUTILITY_HH
