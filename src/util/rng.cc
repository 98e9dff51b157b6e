#include "rng.hh"

#include <cmath>
#include <numeric>

#include "error.hh"

namespace cooper {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // splitmix64 expansion guarantees a non-zero xoshiro state for any
    // seed, including zero.
    std::uint64_t sm = seed;
    for (auto &word : state_)
        word = splitmix64(sm);
}

Rng
Rng::split()
{
    // Mixing two successive outputs gives child streams that do not
    // overlap the parent's sequence in practice.
    std::uint64_t s = next() ^ rotl(next(), 17);
    return Rng(s);
}

Rng
Rng::substream(std::uint64_t stream) const
{
    // Hash the full current state together with the stream id through
    // splitmix64. The parent is not advanced, so substream(i) is a
    // pure function of (state, i): reproducible across calls and
    // independent of which thread asks.
    std::uint64_t acc = stream ^ 0x2545f4914f6cdd1dULL;
    std::uint64_t mixed = splitmix64(acc);
    for (std::uint64_t word : state_) {
        acc ^= word;
        mixed ^= splitmix64(acc);
    }
    return Rng(mixed);
}

Rng
Rng::fromState(const std::array<std::uint64_t, 4> &state)
{
    fatalIf(state[0] == 0 && state[1] == 0 && state[2] == 0 &&
                state[3] == 0,
            "Rng::fromState: all-zero state is invalid for xoshiro256**");
    Rng rng(0);
    rng.state_ = state;
    return rng;
}

Rng::result_type
Rng::next()
{
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;

    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high-quality bits -> double in [0, 1).
    return (next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    fatalIf(!(lo <= hi), "uniform: invalid range [", lo, ", ", hi, ")");
    return lo + (hi - lo) * uniform();
}

std::uint64_t
Rng::uniformInt(std::uint64_t n)
{
    fatalIf(n == 0, "uniformInt: n must be positive");
    // Rejection sampling removes modulo bias.
    const std::uint64_t threshold = (~n + 1) % n; // (2^64 - n) mod n
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % n;
    }
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    fatalIf(lo > hi, "uniformInt: invalid range [", lo, ", ", hi, "]");
    std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u, v, s;
    do {
        u = uniform(-1.0, 1.0);
        v = uniform(-1.0, 1.0);
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * factor;
    haveSpare_ = true;
    return u * factor;
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::gamma(double shape)
{
    fatalIf(shape <= 0.0, "gamma: shape must be positive, got ", shape);
    if (shape < 1.0) {
        // Boost to shape >= 1 (Marsaglia-Tsang appendix trick).
        double u = uniform();
        while (u == 0.0)
            u = uniform();
        return gamma(shape + 1.0) * std::pow(u, 1.0 / shape);
    }
    const double d = shape - 1.0 / 3.0;
    const double c = 1.0 / std::sqrt(9.0 * d);
    for (;;) {
        double x, v;
        do {
            x = gaussian();
            v = 1.0 + c * x;
        } while (v <= 0.0);
        v = v * v * v;
        const double u = uniform();
        if (u < 1.0 - 0.0331 * x * x * x * x)
            return d * v;
        if (u > 0.0 &&
            std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
            return d * v;
        }
    }
}

double
Rng::beta(double a, double b)
{
    const double x = gamma(a);
    const double y = gamma(b);
    return x / (x + y);
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    fatalIf(weights.empty(), "discrete: empty weight vector");
    double total = 0.0;
    for (double w : weights) {
        fatalIf(w < 0.0, "discrete: negative weight ", w);
        total += w;
    }
    fatalIf(total <= 0.0, "discrete: all weights are zero");
    double r = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        r -= weights[i];
        if (r < 0.0)
            return i;
    }
    return weights.size() - 1; // floating-point slack
}

std::vector<std::size_t>
Rng::permutation(std::size_t n)
{
    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), std::size_t(0));
    shuffle(perm);
    return perm;
}

} // namespace cooper
