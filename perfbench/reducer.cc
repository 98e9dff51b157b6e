/**
 * @file
 * Traced-run reducer: turns the spans a run recorded into per-layer
 * times.
 *
 * Spans nest per thread (the tracer records a depth, not a parent),
 * so each thread's spans are ordered by start and walked with a
 * stack: a span's parent is the innermost open span that contains it.
 * A layer's self time is its duration minus its direct children's;
 * its inclusive time counts only outermost instances, so a span that
 * recurses into itself is not counted twice.
 */

#include "perfbench.hh"

#include <algorithm>
#include <map>

namespace perfbench {

using namespace cooper;

namespace {

/** Slack for start/end comparisons of microsecond timestamps. */
constexpr double kSlackMicros = 0.5;

const LayerStats::Span kNoSpan{};

} // namespace

const LayerStats::Span &
LayerStats::span(const std::string &name) const
{
    for (const auto &[n, s] : spans)
        if (n == name)
            return s;
    return kNoSpan;
}

double
LayerStats::epochChild(const std::string &name) const
{
    for (const auto &[n, s] : epochChildren)
        if (n == name)
            return s;
    return 0.0;
}

double
LayerStats::epochChildTotal() const
{
    double total = 0.0;
    for (const auto &[n, s] : epochChildren)
        total += s;
    return total;
}

LayerStats
reduceSpans(const std::vector<TraceEvent> &events)
{
    std::map<int, std::vector<std::size_t>> byThread;
    for (std::size_t i = 0; i < events.size(); ++i)
        byThread[events[i].tid].push_back(i);

    std::vector<double> childMicros(events.size(), 0.0);
    std::vector<bool> nestedInSelf(events.size(), false);
    std::map<std::string, double> epochChildren;
    for (auto &[tid, order] : byThread) {
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      if (events[a].tsMicros != events[b].tsMicros)
                          return events[a].tsMicros < events[b].tsMicros;
                      return events[a].depth < events[b].depth;
                  });
        std::vector<std::size_t> open;
        for (const std::size_t i : order) {
            const TraceEvent &e = events[i];
            while (!open.empty()) {
                const TraceEvent &top = events[open.back()];
                if (top.tsMicros + top.durMicros <=
                    e.tsMicros + kSlackMicros)
                    open.pop_back();
                else
                    break;
            }
            if (!open.empty()) {
                const TraceEvent &parent = events[open.back()];
                childMicros[open.back()] += e.durMicros;
                if (parent.name == "online.epoch")
                    epochChildren[e.name] += e.durMicros * 1e-6;
            }
            for (const std::size_t o : open)
                if (events[o].name == e.name)
                    nestedInSelf[i] = true;
            open.push_back(i);
        }
    }

    std::map<std::string, LayerStats::Span> spans;
    for (std::size_t i = 0; i < events.size(); ++i) {
        LayerStats::Span &s = spans[events[i].name];
        s.selfS += (events[i].durMicros - childMicros[i]) * 1e-6;
        if (!nestedInSelf[i])
            s.inclusiveS += events[i].durMicros * 1e-6;
    }

    LayerStats out;
    out.spans.assign(spans.begin(), spans.end());
    out.epochChildren.assign(epochChildren.begin(), epochChildren.end());

    // Shard skew: shards step concurrently inside each shard.epoch
    // span, each on its own online.epoch span (any thread).
    std::vector<const TraceEvent *> shardEpochs;
    std::vector<const TraceEvent *> onlineEpochs;
    for (const TraceEvent &e : events) {
        if (e.name == "shard.epoch")
            shardEpochs.push_back(&e);
        else if (e.name == "online.epoch")
            onlineEpochs.push_back(&e);
    }
    const auto byStart = [](const TraceEvent *a, const TraceEvent *b) {
        return a->tsMicros < b->tsMicros;
    };
    std::sort(shardEpochs.begin(), shardEpochs.end(), byStart);
    std::sort(onlineEpochs.begin(), onlineEpochs.end(), byStart);
    std::vector<double> skews;
    std::size_t next = 0;
    for (const TraceEvent *fleet : shardEpochs) {
        const double begin = fleet->tsMicros - kSlackMicros;
        const double end =
            fleet->tsMicros + fleet->durMicros + kSlackMicros;
        while (next < onlineEpochs.size() &&
               onlineEpochs[next]->tsMicros < begin)
            ++next;
        double slowest = 0.0;
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t k = next; k < onlineEpochs.size() &&
                                   onlineEpochs[k]->tsMicros <= end;
             ++k) {
            slowest = std::max(slowest, onlineEpochs[k]->durMicros);
            sum += onlineEpochs[k]->durMicros;
            ++n;
        }
        if (n > 0 && sum > 0.0)
            skews.push_back(slowest / (sum / static_cast<double>(n)));
    }
    out.shardSkew = median(skews);
    return out;
}

namespace {

std::uint64_t
counter(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &[n, value] : snapshot.counters)
        if (n == name)
            return value;
    return 0;
}

double
histogramSum(const MetricsSnapshot &snapshot, const std::string &name)
{
    for (const auto &[n, h] : snapshot.histograms)
        if (n == name)
            return h.sum;
    return 0.0;
}

/** num / den, or 0 when the base is empty (the layer did not run). */
double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

Metrics
layerMetrics(const LayerInputs &in)
{
    const LayerStats &l = in.layers;
    const MetricsSnapshot &m = in.snapshot;
    const auto c = [&](const char *name) {
        return static_cast<double>(counter(m, name));
    };
    const double epochS = l.span("online.epoch").inclusiveS;
    const double selfS = epochS - l.epochChild("online.predict") -
                         l.epochChild("online.repair") -
                         l.epochChild("coalition.formation");
    const double rebuilds = c("matching.blocking_bound_rebuilds");
    const double updates = c("matching.blocking_incremental_updates");
    const double hits = c("online.predict_cache_hits");
    const double refills = c("online.predict_refills");
    const double frames = c("net.frames_in") + c("net.frames_out");
    const double syscalls =
        c("net.read_syscalls") + c("net.write_syscalls");
    const double ingested = c("net.events_ingested");
    const double candidates = c("coalition.blocking_candidates");
    return {
        {"online.epoch_s", epochS, "s"},
        {"online.self_s", selfS, "s"},
        {"online.repair_s", l.span("online.repair").inclusiveS, "s"},
        {"online.coverage", ratio(l.epochChildTotal(), epochS), "ratio"},
        {"online.full_rematches", c("online.full_rematches"), "count"},
        {"matching.bounds_s",
         histogramSum(m, "matching.blocking_bound_seconds"), "s"},
        {"matching.bound_rebuild_ratio",
         ratio(rebuilds, rebuilds + updates), "ratio"},
        {"matching.rescanned_rows", c("matching.blocking_rescanned_rows"),
         "count"},
        {"matching.roommates_s",
         histogramSum(m, "matching.roommates_seconds"), "s"},
        {"matching.proposals", c("matching.proposals"), "count"},
        {"matching.table_mb", in.quality.tableBytes / (1024.0 * 1024.0),
         "MB"},
        {"matching.blocking_after", in.quality.blockingAfter, "count"},
        {"online.migrations_per_epoch", in.quality.migrationsPerEpoch,
         "count"},
        {"cf.predict_s", l.span("cf.predict").inclusiveS, "s"},
        {"cf.cache_hit_ratio", ratio(hits, hits + refills), "ratio"},
        {"shard.epoch_s", l.span("shard.epoch").inclusiveS, "s"},
        {"shard.skew", l.shardSkew, "ratio"},
        {"shard.rebalance_s", l.span("shard.rebalance").inclusiveS, "s"},
        {"shard.migrations", c("shard.migrations"), "count"},
        {"io.checkpoint_s", in.checkpointS, "s"},
        {"io.checkpoint_bytes", in.checkpointBytes, "B"},
        {"coalition.formation_s",
         l.span("coalition.formation").inclusiveS, "s"},
        {"coalition.scan_s", l.span("coalition.blocking_scan").inclusiveS,
         "s"},
        {"coalition.candidates_per_formation",
         ratio(candidates, c("coalition.formations")), "count"},
        {"coalition.found_ratio",
         ratio(c("coalition.blocking_found"), candidates), "ratio"},
        {"net.drain_s", l.span("net.drain").selfS, "s"},
        {"net.plane_epoch_s", l.span("net.plane_epoch").inclusiveS, "s"},
        {"net.syscalls_per_frame", ratio(syscalls, frames), "ratio"},
        {"net.busy_ratio", ratio(c("net.busy_sent"), ingested), "ratio"},
        {"net.bytes_per_event",
         ratio(c("net.bytes_in") + c("net.bytes_out"), ingested), "B"},
        {"loadgen.lag_p99_ms", in.lagP99Ms, "ms"},
        {"loadgen.backlog_max", in.backlogMax, "count"},
        {"obs.overhead", in.obsOverhead, "ratio"},
    };
}

Metrics
medianMetrics(const std::vector<Metrics> &runs)
{
    Metrics out = runs.front();
    for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> values;
        for (const Metrics &run : runs)
            values.push_back(run[i].value);
        out[i].value = median(values);
    }
    return out;
}

} // namespace perfbench
