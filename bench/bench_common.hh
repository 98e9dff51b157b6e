/**
 * @file
 * Shared helpers for the figure/table reproduction binaries, and the
 * one writer of the `cooper.bench.v2` documents that the regression
 * harnesses (bench_regression, bench_online, bench_shard, bench_serve,
 * bench_coalition) emit and tools/bench_json validates.
 *
 * Every document has the same six top-level members:
 *
 *   {"schema": "cooper.bench.v2", "bench": "<kernels|online|shard|
 *    serve|coalition>", "workload": {...}, "phases": {...},
 *    "counters": {...}, "rows": {...}}
 *
 * `workload` holds the run's dimensions plus the `tiny` flag; `phases`
 * one PhaseResult per timed phase; `counters` flat run-level numbers
 * (online/fault counters, serve latency tails); `rows` one object per
 * swept setting (shard counts `k<K>`, group sizes `g<G>`). A section a
 * harness does not use is written as `{}`.
 *
 * This stays a header: bench/CMakeLists.txt's registration drift check
 * globs bench_*.cc.
 */

#ifndef COOPER_BENCH_COMMON_HH
#define COOPER_BENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "util/table.hh"

namespace cooper::bench {

/** Run a harness body with uniform banner and error handling. */
template <typename Fn>
int
runHarness(const std::string &title, Fn &&body)
{
    std::cout << "=====================================================\n"
              << title << "\n"
              << "=====================================================\n";
    try {
        body();
    } catch (const std::exception &err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
    std::cout << "\n";
    return 0;
}

/** Wall-clock seconds of the best of `reps` runs. */
template <typename Fn>
double
bestSeconds(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
        const auto start = std::chrono::steady_clock::now();
        fn();
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        best = std::min(best, elapsed.count());
    }
    return best;
}

/** True when two vectors hold the same doubles, bit for bit. */
inline bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(),
                                     a.size() * sizeof(double)) == 0);
}

/**
 * Parse a comma-separated list of positive decimal integers ("1,2,4")
 * for flag `--<flag>`. Anything else — an empty list or item, a sign,
 * a suffix ("4x"), zero, or a value past size_t — is rejected.
 */
inline std::vector<std::size_t>
parseCountList(const std::string &text, const std::string &flag)
{
    std::vector<std::size_t> out;
    std::size_t start = 0;
    do {
        const std::size_t comma = std::min(text.find(',', start),
                                           text.size());
        const std::string item = text.substr(start, comma - start);
        std::size_t value = 0;
        bool ok = !item.empty();
        for (const char c : item) {
            const auto digit = static_cast<std::size_t>(c - '0');
            ok = ok && c >= '0' && c <= '9' &&
                 value <= (SIZE_MAX - digit) / 10;
            if (!ok)
                break;
            value = value * 10 + digit;
        }
        if (!ok || value == 0)
            throw std::runtime_error("--" + flag + ": \"" + item +
                                     "\" is not a positive integer");
        out.push_back(value);
        start = comma + 1;
    } while (start <= text.size());
    return out;
}

/** A number as JSON text: integers exactly, doubles to 17 digits. */
template <typename T>
std::string
jsonNum(T value)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
    if constexpr (std::is_integral_v<T>) {
        return std::to_string(value);
    } else {
        std::ostringstream out;
        out << std::setprecision(17) << value;
        return out.str();
    }
}

inline std::string
jsonBool(bool value)
{
    return value ? "true" : "false";
}

/** Ordered JSON members: name and already-rendered value. */
using Fields = std::vector<std::pair<std::string, std::string>>;

/** One timed phase of a bench document. */
struct PhaseResult
{
    std::string name;
    std::string mode = "optimized_only"; //!< or "baseline_vs_optimized"
    double baselineSeconds = 0.0;
    double optimizedSeconds = 0.0;
    double speedup = 0.0; //!< 0 in optimized_only mode
    bool identical = true;
    std::string metric; //!< backing MetricsRegistry series
    std::uint64_t metricCount = 0;
    double metricSum = 0.0;
};

/** A `cooper.bench.v2` document before it is written. */
struct BenchDocument
{
    std::string bench; //!< kernels, online, shard, serve, or coalition
    Fields workload;
    std::vector<PhaseResult> phases;
    Fields counters;
    std::vector<std::pair<std::string, Fields>> rows;
};

/**
 * The value of metric `name` in one snapshot section (counters,
 * gauges, or histograms); a value-initialized entry when absent.
 */
template <typename Value>
Value
metricValue(const std::vector<std::pair<std::string, Value>> &section,
            const std::string &name)
{
    for (const auto &[entry, value] : section)
        if (entry == name)
            return value;
    return Value{};
}

/** Snapshot of the installed metrics session (throws without one). */
inline MetricsSnapshot
metricsSnapshot()
{
    MetricsRegistry *metrics = obsMetrics();
    if (metrics == nullptr)
        throw std::runtime_error("metrics session missing");
    return metrics->snapshot();
}

/** Print the phases as a baseline/optimized/speedup table. */
inline void
printPhases(const std::vector<PhaseResult> &phases)
{
    Table table({"phase", "baseline", "optimized", "speedup",
                 "identical"});
    for (const PhaseResult &p : phases) {
        const bool compared = p.mode == "baseline_vs_optimized";
        table.addRow(
            {p.name,
             compared ? Table::num(p.baselineSeconds * 1e3, 2) + " ms"
                      : std::string("-"),
             Table::num(p.optimizedSeconds * 1e3, 2) + " ms",
             compared ? Table::num(p.speedup, 2) : std::string("-"),
             p.identical ? "yes" : "NO"});
    }
    table.print(std::cout);
}

/** `{"a": 1, "b": 2}` on one line. */
inline void
writeFields(std::ostream &out, const Fields &fields)
{
    out << "{";
    for (std::size_t i = 0; i < fields.size(); ++i)
        out << (i ? ", " : "") << "\"" << fields[i].first
            << "\": " << fields[i].second;
    out << "}";
}

/** A section of named objects, one per line; `{}` when empty. */
inline void
writeSection(std::ostream &out,
             const std::vector<std::pair<std::string, Fields>> &entries)
{
    if (entries.empty()) {
        out << "{}";
        return;
    }
    out << "{\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        out << "    \"" << entries[i].first << "\": ";
        writeFields(out, entries[i].second);
        out << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    out << "  }";
}

/** Write `doc` to `path` as a `cooper.bench.v2` document. */
inline void
writeBenchDocument(const std::string &path, const BenchDocument &doc)
{
    std::vector<std::pair<std::string, Fields>> phases;
    for (const PhaseResult &p : doc.phases)
        phases.push_back(
            {p.name,
             {{"mode", "\"" + p.mode + "\""},
              {"baseline_seconds", jsonNum(p.baselineSeconds)},
              {"optimized_seconds", jsonNum(p.optimizedSeconds)},
              {"speedup", jsonNum(p.speedup)},
              {"identical", jsonBool(p.identical)},
              {"metric", "\"" + p.metric + "\""},
              {"metric_count", jsonNum(p.metricCount)},
              {"metric_sum", jsonNum(p.metricSum)}}});

    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "{\n  \"schema\": \"cooper.bench.v2\",\n"
        << "  \"bench\": \"" << doc.bench << "\",\n  \"workload\": ";
    writeFields(out, doc.workload);
    out << ",\n  \"phases\": ";
    writeSection(out, phases);
    out << ",\n  \"counters\": ";
    writeFields(out, doc.counters);
    out << ",\n  \"rows\": ";
    writeSection(out, doc.rows);
    out << "\n}\n";
    if (!out.flush())
        throw std::runtime_error("failed writing " + path);
    std::cout << "\nwrote " << path << " (schema cooper.bench.v2, bench "
              << doc.bench << ")\n";
}

} // namespace cooper::bench

#endif // COOPER_BENCH_COMMON_HH
