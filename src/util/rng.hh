/**
 * @file
 * Deterministic pseudo-random number generation for reproducible
 * experiments.
 *
 * Cooper's evaluation repeats experiments over many sampled agent
 * populations; all sampling flows through Rng so a (seed, stream) pair
 * fully determines an experiment. The generator is xoshiro256**
 * seeded via splitmix64, both implemented here so results do not depend
 * on standard-library distribution details.
 */

#ifndef COOPER_UTIL_RNG_HH
#define COOPER_UTIL_RNG_HH

#include <array>
#include <cstdint>
#include <vector>

namespace cooper {

/** splitmix64 step, used for seeding and cheap hashing. */
inline std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * xoshiro256** generator with explicit distribution helpers.
 *
 * Satisfies UniformRandomBitGenerator so it can also feed standard
 * algorithms such as std::shuffle, but the helpers below are preferred
 * because their output is platform-independent.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /** Construct from a seed; equal seeds yield equal streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Derive an independent child stream (for per-trial generators). */
    Rng split();

    /**
     * Derive an independent sub-stream keyed by a task id, without
     * advancing this generator.
     *
     * Substreams are the parallelism primitive: a loop that previously
     * drew from one shared generator instead gives iteration i the
     * generator `substream(i)`, so results are bit-identical no matter
     * how iterations are partitioned across threads or reordered.
     * `substream(i)` called twice on the same generator state returns
     * the same stream; distinct ids yield streams that do not overlap
     * in practice.
     */
    Rng substream(std::uint64_t stream) const;

    /**
     * Full generator state, for serialization. The cached second
     * gaussian variate is deliberately excluded: restore points sit
     * between complete variates, which keeps the state format a plain
     * four-word seed.
     */
    std::array<std::uint64_t, 4> state() const { return state_; }

    /** Rebuild a generator from a saved state (round-trips state()). */
    static Rng fromState(const std::array<std::uint64_t, 4> &state);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit value. */
    result_type operator()() { return next(); }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be positive. */
    std::uint64_t uniformInt(std::uint64_t n);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Standard normal via Marsaglia polar method. */
    double gaussian();

    /** Normal with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /** Gamma(shape, 1) via Marsaglia-Tsang; shape must be positive. */
    double gamma(double shape);

    /** Beta(a, b) variate in (0, 1). */
    double beta(double a, double b);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p);

    /**
     * Sample an index according to non-negative weights.
     *
     * @param weights Relative weights; at least one must be positive.
     * @return Index in [0, weights.size()).
     */
    std::size_t discrete(const std::vector<double> &weights);

    /** Fisher-Yates shuffle of an arbitrary sequence. */
    template <typename Seq>
    void
    shuffle(Seq &seq)
    {
        if (seq.size() < 2)
            return;
        for (std::size_t i = seq.size() - 1; i > 0; --i) {
            std::size_t j = uniformInt(i + 1);
            using std::swap;
            swap(seq[i], seq[j]);
        }
    }

    /** A uniformly random permutation of [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

  private:
    result_type next();

    std::array<std::uint64_t, 4> state_;
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace cooper

#endif // COOPER_UTIL_RNG_HH
