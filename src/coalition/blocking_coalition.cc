#include "blocking_coalition.hh"

#include <algorithm>
#include <iterator>

#include "matching/blocking.hh"
#include "obs/obs.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"

namespace cooper {

namespace {

/** Believed cost each agent pays in its current coalition (zero when
 *  alone). */
std::vector<double>
currentPenalties(const CoalitionStructure &structure,
                 const CoalitionPreferences &prefs, std::size_t threads)
{
    const std::size_t n = structure.agents();
    std::vector<double> current(n, 0.0);
    parallelFor(0, n, threads, [&](std::size_t a) {
        if (structure.coalitionOf(a) != kNoCoalition) {
            const auto others = structure.othersOf(a);
            current[a] = prefs.believedPenalty(a, others);
        }
    });
    return current;
}

void
checkConfig(const CoalitionScanConfig &config)
{
    fatalIf(config.maxSize < 2,
            "blocking-coalition scan: maxSize must be >= 2, got ",
            config.maxSize);
    fatalIf(config.alpha < 0.0,
            "blocking-coalition scan: negative alpha ", config.alpha);
}

/**
 * Enumerate candidate coalitions anchored at `anchor` in preference
 * order and hand each blocking one to `found`; `found` returns true
 * to stop this anchor's enumeration early (first mode). Returns the
 * number of candidate coalitions evaluated.
 */
template <typename Found>
std::size_t
scanAnchor(AgentId anchor, const CoalitionStructure &structure,
           const CoalitionPreferences &prefs,
           const CoalitionScanConfig &config,
           const std::vector<double> &current, Found &&found)
{
    // Anchor dedup: only co-members above the anchor, so every
    // coalition is seen exactly once, from its minimum member.
    std::vector<AgentId> candidates;
    for (AgentId j : prefs.rankedCandidates(anchor)) {
        if (j <= anchor || structure.coalitionOf(j) == kNoCoalition)
            continue;
        candidates.push_back(j);
        if (config.candidateCap != 0 &&
            candidates.size() == config.candidateCap)
            break;
    }

    std::size_t evaluated = 0;
    std::vector<AgentId> chosen;
    std::vector<AgentId> members;
    std::vector<AgentId> others;
    bool stop = false;

    // Depth-first subset growth along the ranked candidate list; each
    // node is one candidate coalition {anchor} + chosen.
    auto grow = [&](auto &&self, std::size_t next) -> void {
        if (stop)
            return;
        if (!chosen.empty()) {
            ++evaluated;
            members.clear();
            members.push_back(anchor);
            members.insert(members.end(), chosen.begin(),
                           chosen.end());
            std::sort(members.begin(), members.end());

            double min_gain = 0.0;
            bool first = true;
            for (std::size_t i = 0; i < members.size(); ++i) {
                others.clear();
                for (std::size_t j = 0; j < members.size(); ++j)
                    if (j != i)
                        others.push_back(members[j]);
                const double gain =
                    current[members[i]] -
                    prefs.believedPenalty(members[i], others);
                if (first || gain < min_gain)
                    min_gain = gain;
                first = false;
            }
            if (clearsAlpha(min_gain, config.alpha) &&
                found(BlockingCoalition{members, min_gain})) {
                stop = true;
                return;
            }
        }
        if (chosen.size() + 1 >= config.maxSize)
            return;
        for (std::size_t c = next; c < candidates.size(); ++c) {
            chosen.push_back(candidates[c]);
            self(self, c + 1);
            chosen.pop_back();
            if (stop)
                return;
        }
    };
    grow(grow, 0);
    return evaluated;
}

/** Can any coalition of up to maxSize members make the anchor clear
 *  alpha? The analogue of blocking.cc's row bound. */
inline bool
anchorCanBlock(AgentId anchor, double current_a,
               const CoalitionPreferences &prefs,
               const CoalitionScanConfig &config)
{
    return clearsAlpha(
        current_a - prefs.bestPossiblePenalty(anchor, config.maxSize),
        config.alpha);
}

void
recordScan(std::size_t candidates, std::size_t found)
{
    if (MetricsRegistry *metrics = obsMetrics()) {
        metrics->counter("coalition.blocking_scans").add(1);
        metrics->counter("coalition.blocking_candidates").add(candidates);
        metrics->counter("coalition.blocking_found").add(found);
    }
}

constexpr std::size_t kGrain = 8;

} // namespace

std::vector<BlockingCoalition>
collectBlockingCoalitions(const CoalitionStructure &structure,
                          const CoalitionPreferences &prefs,
                          const CoalitionScanConfig &config)
{
    checkConfig(config);
    const TraceSpan span("coalition.blocking_scan", "coalition");
    const ScopedTimer timer("coalition.blocking_seconds");
    const std::size_t n = structure.agents();
    const std::vector<double> current =
        currentPenalties(structure, prefs, config.threads);

    struct Part
    {
        std::vector<BlockingCoalition> found;
        std::size_t evaluated = 0;
    };
    // Anchor chunks concatenated in chunk order: the output matches
    // the serial anchor-ascending scan exactly.
    Part all = parallelReduce(
        std::size_t(0), n, config.threads, kGrain, Part{},
        [&](std::size_t begin, std::size_t end) {
            Part local;
            for (AgentId a = begin; a < end; ++a) {
                if (structure.coalitionOf(a) == kNoCoalition)
                    continue;
                if (!anchorCanBlock(a, current[a], prefs, config))
                    continue;
                local.evaluated += scanAnchor(
                    a, structure, prefs, config, current,
                    [&](BlockingCoalition coalition) {
                        local.found.push_back(std::move(coalition));
                        return false;
                    });
            }
            return local;
        },
        [](Part &acc, Part &&part) {
            acc.evaluated += part.evaluated;
            acc.found.insert(acc.found.end(),
                             std::make_move_iterator(part.found.begin()),
                             std::make_move_iterator(part.found.end()));
        });
    recordScan(all.evaluated, all.found.size());
    return std::move(all.found);
}

std::size_t
countBlockingCoalitions(const CoalitionStructure &structure,
                        const CoalitionPreferences &prefs,
                        const CoalitionScanConfig &config)
{
    checkConfig(config);
    const TraceSpan span("coalition.blocking_scan", "coalition");
    const ScopedTimer timer("coalition.blocking_seconds");
    const std::size_t n = structure.agents();
    const std::vector<double> current =
        currentPenalties(structure, prefs, config.threads);

    struct Part
    {
        std::size_t found = 0;
        std::size_t evaluated = 0;
    };
    Part all = parallelReduce(
        std::size_t(0), n, config.threads, kGrain, Part{},
        [&](std::size_t begin, std::size_t end) {
            Part local;
            for (AgentId a = begin; a < end; ++a) {
                if (structure.coalitionOf(a) == kNoCoalition)
                    continue;
                if (!anchorCanBlock(a, current[a], prefs, config))
                    continue;
                local.evaluated += scanAnchor(
                    a, structure, prefs, config, current,
                    [&](const BlockingCoalition &) {
                        ++local.found;
                        return false;
                    });
            }
            return local;
        },
        [](Part &acc, Part &&part) {
            acc.found += part.found;
            acc.evaluated += part.evaluated;
        });
    recordScan(all.evaluated, all.found);
    return all.found;
}

std::optional<BlockingCoalition>
firstBlockingCoalition(const CoalitionStructure &structure,
                       const CoalitionPreferences &prefs,
                       const CoalitionScanConfig &config)
{
    checkConfig(config);
    const TraceSpan span("coalition.blocking_scan", "coalition");
    const std::size_t n = structure.agents();
    const std::vector<double> current =
        currentPenalties(structure, prefs, /*threads=*/1);

    std::optional<BlockingCoalition> first;
    std::size_t evaluated = 0;
    for (AgentId a = 0; a < n && !first; ++a) {
        if (structure.coalitionOf(a) == kNoCoalition)
            continue;
        if (!anchorCanBlock(a, current[a], prefs, config))
            continue;
        evaluated += scanAnchor(a, structure, prefs, config, current,
                                [&](BlockingCoalition coalition) {
                                    first = std::move(coalition);
                                    return true;
                                });
    }
    recordScan(evaluated, first ? 1 : 0);
    return first;
}

std::optional<BlockingCoalition>
bestBlockingCoalition(const CoalitionStructure &structure,
                      const CoalitionPreferences &prefs,
                      const CoalitionScanConfig &config)
{
    checkConfig(config);
    const TraceSpan span("coalition.blocking_scan", "coalition");
    const ScopedTimer timer("coalition.blocking_seconds");
    const std::size_t n = structure.agents();
    const std::vector<double> current =
        currentPenalties(structure, prefs, config.threads);

    // A flagged value instead of std::optional in the accumulator:
    // gcc 12 reports spurious maybe-uninitialized warnings on moving
    // an optional's payload through parallelReduce's join.
    struct Part
    {
        BlockingCoalition best;
        bool hasBest = false;
        std::size_t evaluated = 0;
        std::size_t found = 0;
    };
    const auto better = [](const BlockingCoalition &a,
                           const BlockingCoalition &b) {
        if (a.minGain != b.minGain)
            return a.minGain > b.minGain;
        return a.members < b.members;
    };
    Part all = parallelReduce(
        std::size_t(0), n, config.threads, kGrain, Part{},
        [&](std::size_t begin, std::size_t end) {
            Part local;
            for (AgentId a = begin; a < end; ++a) {
                if (structure.coalitionOf(a) == kNoCoalition)
                    continue;
                if (!anchorCanBlock(a, current[a], prefs, config))
                    continue;
                local.evaluated += scanAnchor(
                    a, structure, prefs, config, current,
                    [&](BlockingCoalition coalition) {
                        ++local.found;
                        if (!local.hasBest ||
                            better(coalition, local.best)) {
                            local.best = std::move(coalition);
                            local.hasBest = true;
                        }
                        return false;
                    });
            }
            return local;
        },
        [&](Part &acc, Part &&part) {
            acc.evaluated += part.evaluated;
            acc.found += part.found;
            if (part.hasBest &&
                (!acc.hasBest || better(part.best, acc.best))) {
                acc.best = std::move(part.best);
                acc.hasBest = true;
            }
        });
    recordScan(all.evaluated, all.found);
    if (!all.hasBest)
        return std::nullopt;
    return std::move(all.best);
}

} // namespace cooper
