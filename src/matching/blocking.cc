#include "blocking.hh"

#include <iterator>

#include "obs/obs.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"

namespace cooper {

namespace {

/** Per-agent current penalties (zero when running alone). */
std::vector<double>
currentPenalties(const Matching &matching, const Disutility &d,
                 std::size_t threads)
{
    const std::size_t n = matching.size();
    std::vector<double> current(n, 0.0);
    parallelFor(0, n, threads, [&](std::size_t i) {
        if (matching.isMatched(i))
            current[i] = d(i, matching.partnerOf(i));
    });
    return current;
}

/**
 * Visit every blocking pair (i, j), i < j, with i in [row_begin,
 * row_end), in (i, then j) order; `visit` returns true to stop.
 * Returns true when stopped early.
 */
template <typename Visit>
bool
scanRows(const Matching &matching, const Disutility &d,
         const std::vector<double> &current, double alpha,
         std::size_t row_begin, std::size_t row_end, Visit &&visit)
{
    const std::size_t n = matching.size();
    for (AgentId i = row_begin; i < row_end; ++i) {
        if (!matching.isMatched(i))
            continue; // running alone cannot be improved upon
        // Row bound: the largest gain i can see is current_i minus
        // its row's smallest disutility.
        if (!clearsAlpha(current[i] - d.rowBound(i), alpha))
            continue;
        for (AgentId j = i + 1; j < n; ++j) {
            if (!matching.isMatched(j) || matching.partnerOf(i) == j)
                continue;
            double gain_i = 0.0;
            double gain_j = 0.0;
            if (pairBlocks(d, i, j, current[i], current[j], alpha,
                           gain_i, gain_j) &&
                visit(BlockingPair{i, j, gain_i, gain_j}))
                return true;
        }
    }
    return false;
}

constexpr std::size_t kGrain = 16;

void
checkAlpha(double alpha)
{
    fatalIf(alpha < 0.0, "findBlockingPairs: negative alpha ", alpha);
}

void
checkShape(const Matching &matching, const Disutility &d)
{
    fatalIf(d.agents() != matching.size(), "blocking scan: disutility "
            "covers ", d.agents(), " agents, matching has ",
            matching.size());
}

void
recordScan(std::size_t pairs)
{
    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("matching.blocking_scans").add(1);
        metrics->counter("matching.blocking_pairs").add(pairs);
    }
}

} // namespace

std::vector<BlockingPair>
findBlockingPairs(const Matching &matching, const Disutility &disutility,
                  double alpha, std::size_t threads)
{
    checkAlpha(alpha);
    checkShape(matching, disutility);
    const TraceSpan span("matching.blocking_scan", "matching");
    const ScopedTimer timer("matching.blocking_seconds");
    const std::vector<double> current =
        currentPenalties(matching, disutility, threads);
    // Chunks of i-rows, concatenated in row order: the output matches
    // the serial (i, then j) scan exactly.
    auto pairs = parallelReduce(
        std::size_t(0), matching.size(), threads, kGrain,
        std::vector<BlockingPair>{},
        [&](std::size_t row_begin, std::size_t row_end) {
            std::vector<BlockingPair> local;
            scanRows(matching, disutility, current, alpha, row_begin,
                     row_end, [&](const BlockingPair &pair) {
                         local.push_back(pair);
                         return false;
                     });
            return local;
        },
        [](std::vector<BlockingPair> &acc,
           std::vector<BlockingPair> &&part) {
            acc.insert(acc.end(),
                       std::make_move_iterator(part.begin()),
                       std::make_move_iterator(part.end()));
        });
    recordScan(pairs.size());
    return pairs;
}

std::size_t
countBlockingPairs(const Matching &matching, const Disutility &disutility,
                   double alpha, std::size_t threads)
{
    checkAlpha(alpha);
    checkShape(matching, disutility);
    const TraceSpan span("matching.blocking_scan", "matching");
    const ScopedTimer timer("matching.blocking_seconds");
    const std::vector<double> current =
        currentPenalties(matching, disutility, threads);
    // Integer tallies summed in chunk order: exact for any thread
    // count, and nothing is materialized just to be counted.
    const std::size_t count = parallelReduce(
        std::size_t(0), matching.size(), threads, kGrain, std::size_t(0),
        [&](std::size_t row_begin, std::size_t row_end) {
            std::size_t local = 0;
            scanRows(matching, disutility, current, alpha, row_begin,
                     row_end, [&](const BlockingPair &) {
                         ++local;
                         return false;
                     });
            return local;
        },
        [](std::size_t &acc, std::size_t &&part) { acc += part; });
    recordScan(count);
    return count;
}

std::optional<BlockingPair>
firstBlockingPair(const Matching &matching, const Disutility &disutility,
                  double alpha)
{
    checkAlpha(alpha);
    checkShape(matching, disutility);
    const TraceSpan span("matching.blocking_scan", "matching");
    const std::vector<double> current =
        currentPenalties(matching, disutility, /*threads=*/1);
    std::optional<BlockingPair> first;
    scanRows(matching, disutility, current, alpha, 0, matching.size(),
             [&](const BlockingPair &pair) {
                 first = pair;
                 return true;
             });
    if (MetricsRegistry *metrics = obsMetrics())
        metrics->counter("matching.blocking_scans").add(1);
    return first;
}

bool
isStableMatching(const Matching &matching, const PreferenceProfile &prefs)
{
    const std::size_t n = matching.size();
    fatalIf(prefs.agents() != n, "isStableMatching: size mismatch");
    for (AgentId i = 0; i < n; ++i) {
        for (AgentId j = i + 1; j < n; ++j) {
            if (matching.partnerOf(i) == j)
                continue;
            if (!prefs.hasCandidate(i, j) || !prefs.hasCandidate(j, i))
                continue;
            const bool i_wants =
                !matching.isMatched(i) ||
                prefs.prefers(i, j, matching.partnerOf(i));
            const bool j_wants =
                !matching.isMatched(j) ||
                prefs.prefers(j, i, matching.partnerOf(j));
            if (i_wants && j_wants)
                return false;
        }
    }
    return true;
}

} // namespace cooper
