#include "blocking_incremental.hh"

#include <algorithm>
#include <bit>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"

namespace cooper {

namespace {

/** Bits 0..i (inclusive) cleared: keeps only the j > i half. */
inline std::uint64_t
aboveDiagonalMask(std::size_t i_in_word)
{
    return i_in_word == 63
               ? 0
               : ~std::uint64_t(0) << (i_in_word + 1);
}

void
checkShape(const Disutility &d, std::size_t n)
{
    panicIf(d.agents() != n, "BlockingBounds: disutility covers ",
            d.agents(), " agents, matching has ", n);
}

} // namespace

void
BlockingBounds::deriveRow(const Matching &matching,
                          const Disutility &d, AgentId i,
                          std::uint64_t *row) const
{
    if (!matching.isMatched(i))
        return; // running alone cannot be improved upon
    // Same row prune as the scans: if even the row's bound cannot
    // clear the threshold, no pair with i blocks (the test is
    // symmetric, so this covers both sides).
    if (!clearsAlpha(current_[i] - d.rowBound(i), alpha_))
        return;
    const AgentId partner = matching.partnerOf(i);
    for (AgentId j = 0; j < n_; ++j) {
        if (j == i || j == partner || !matching.isMatched(j))
            continue;
        double gain_i = 0.0;
        double gain_j = 0.0;
        if (pairBlocks(d, i, j, current_[i], current_[j], alpha_,
                       gain_i, gain_j))
            row[j / 64] |= std::uint64_t(1) << (j % 64);
    }
}

void
BlockingBounds::rebuild(const Matching &matching,
                        const Disutility &d, double alpha,
                        std::size_t threads)
{
    const ScopedTimer timer("matching.blocking_bound_seconds");
    n_ = matching.size();
    words_ = (n_ + 63) / 64;
    alpha_ = alpha;
    if (n_ > 0)
        checkShape(d, n_);

    partner_.assign(n_, kUnmatched);
    current_.assign(n_, 0.0);
    parallelFor(0, n_, threads, [&](std::size_t i) {
        partner_[i] = matching.partnerOf(i);
        if (matching.isMatched(i))
            current_[i] = d(i, partner_[i]);
    });

    bits_.assign(n_ * words_, 0);
    std::vector<std::size_t> row_count(n_, 0);
    parallelFor(0, n_, threads, [&](std::size_t i) {
        std::vector<std::uint64_t> row(words_, 0);
        deriveRow(matching, d, i, row.data());
        // Store only the j > i half; the j < i bits are the mirror
        // pairs, owned by those rows.
        std::uint64_t *dst = bits_.data() + i * words_;
        const std::size_t wi = i / 64;
        std::size_t found = 0;
        for (std::size_t w = wi; w < words_; ++w) {
            std::uint64_t word = row[w];
            if (w == wi)
                word &= aboveDiagonalMask(i % 64);
            dst[w] = word;
            found += static_cast<std::size_t>(std::popcount(word));
        }
        row_count[i] = found;
    });
    count_ = 0;
    for (std::size_t c : row_count)
        count_ += c;
    lastRescanned_ = n_;
    ready_ = true;
    if (MetricsRegistry *metrics = obsMetrics())
        metrics->counter("matching.blocking_bound_rebuilds").add(1);
}

void
BlockingBounds::update(const Matching &matching,
                       const Disutility &d, double alpha,
                       const std::vector<AgentId> &dirty_rows,
                       std::size_t threads)
{
    if (!ready_ || matching.size() != n_ || alpha != alpha_) {
        rebuild(matching, d, alpha, threads);
        return;
    }
    const ScopedTimer timer("matching.blocking_bound_seconds");
    checkShape(d, n_);

    std::vector<std::uint8_t> is_dirty(n_, 0);
    for (AgentId a : dirty_rows) {
        panicIf(a >= n_, "BlockingBounds::update: dirty row ", a,
                " out of range (", n_, " agents)");
        is_dirty[a] = 1;
    }
    for (AgentId i = 0; i < n_; ++i)
        if (matching.partnerOf(i) != partner_[i])
            is_dirty[i] = 1;
    std::vector<AgentId> dirty;
    for (AgentId i = 0; i < n_; ++i)
        if (is_dirty[i])
            dirty.push_back(i);

    lastRescanned_ = dirty.size();
    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("matching.blocking_incremental_updates").add(1);
        metrics->counter("matching.blocking_rescanned_rows")
            .add(dirty.size());
    }
    if (dirty.empty())
        return;

    // Stage 1: refresh the snapshots of every dirty agent, before any
    // row is re-derived — a pair of two dirty agents must see both
    // sides' new current penalties.
    for (AgentId i : dirty) {
        partner_[i] = matching.partnerOf(i);
        current_[i] =
            matching.isMatched(i) ? d(i, partner_[i]) : 0.0;
    }

    // Stage 2: re-derive each dirty row against ALL other agents into
    // a scratch buffer (pure reads, safe in parallel).
    std::vector<std::uint64_t> rows(dirty.size() * words_, 0);
    parallelFor(0, dirty.size(), threads, [&](std::size_t k) {
        deriveRow(matching, d, dirty[k], rows.data() + k * words_);
    });

    // Stage 3: apply serially. A pair shared by two dirty agents is
    // derived twice with the same result, so the second application
    // is a no-op and the final bitset (and count) is deterministic
    // for any thread count.
    for (std::size_t k = 0; k < dirty.size(); ++k) {
        const AgentId i = dirty[k];
        const std::uint64_t *row = rows.data() + k * words_;
        for (std::size_t w = 0; w < words_; ++w) {
            // Every bit that may flip: the new status word OR the old
            // bits (old set bits absent from the new word must clear).
            for (AgentId j = w * 64;
                 j < std::min(n_, (w + 1) * 64); ++j) {
                if (j == i)
                    continue;
                const bool now = (row[w] >> (j % 64) & 1) != 0;
                const AgentId lo = std::min<AgentId>(i, j);
                const AgentId hi = std::max<AgentId>(i, j);
                if (now == testPair(lo, hi))
                    continue;
                bits_[pairWord(lo, hi)] ^= std::uint64_t(1)
                                           << (hi % 64);
                if (now)
                    ++count_;
                else
                    --count_;
            }
        }
    }
}

std::optional<BlockingPair>
BlockingBounds::first(const Disutility &d) const
{
    panicIf(!ready_, "BlockingBounds::first: not built");
    if (n_ > 0)
        checkShape(d, n_);
    for (AgentId i = 0; i < n_; ++i) {
        const std::uint64_t *row = bits_.data() + i * words_;
        for (std::size_t w = i / 64; w < words_; ++w) {
            std::uint64_t word = row[w];
            while (word) {
                const AgentId j =
                    w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(word));
                return BlockingPair{i, j, current_[i] - d(i, j),
                                    current_[j] - d(j, i)};
            }
        }
    }
    return std::nullopt;
}

std::vector<BlockingPair>
BlockingBounds::pairs(const Disutility &d) const
{
    panicIf(!ready_, "BlockingBounds::pairs: not built");
    if (n_ > 0)
        checkShape(d, n_);
    std::vector<BlockingPair> out;
    out.reserve(count_);
    for (AgentId i = 0; i < n_; ++i) {
        const std::uint64_t *row = bits_.data() + i * words_;
        for (std::size_t w = i / 64; w < words_; ++w) {
            std::uint64_t word = row[w];
            while (word) {
                const AgentId j =
                    w * 64 + static_cast<std::size_t>(
                                 std::countr_zero(word));
                word &= word - 1;
                out.push_back(
                    BlockingPair{i, j, current_[i] - d(i, j),
                                 current_[j] - d(j, i)});
            }
        }
    }
    return out;
}

} // namespace cooper
