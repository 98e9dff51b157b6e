/**
 * @file
 * Benchmark entry point: one workload per process.
 *
 *   perfbench --workload churn|fleet|coalition|served --seed N
 *             --seconds S --trace 0|1 [--scratch DIR]
 *   perfbench --trace-digest --workload W --seed N
 *
 * With --trace 0 it prints every end-to-end metric; with --trace 1 it
 * runs the traced variant and prints every per-layer metric. The last
 * line of standard output is one JSON object:
 *
 *   {"correct": true, "attempted": 12, "failed": 0,
 *    "metrics": {"name": {"value": 1.25, "unit": "ms"}, ...}}
 *
 * The line before it records the machine: CPU model, nproc, SIMD tier,
 * compiler and build type. --trace-digest prints the byte count and
 * FNV-1a hash of the workload's generated trace, for the self-test.
 */

#include "perfbench.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "util/simd.hh"

namespace {

using namespace perfbench;

/** JSON string literal (quotes, backslashes, control bytes escaped). */
std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') {
            out += '\\';
            out += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            out += ' ';
        } else {
            out += ch;
        }
    }
    return out + "\"";
}

/** A number with all its digits. */
std::string
number(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
fingerprint()
{
    std::ostringstream out;
    out << "{\"cpu\": " << quote(cpuModel())
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"simd\": "
        << quote(cooper::simdLevelName(cooper::activeSimdLevel()))
        << ", \"compiler\": " << quote(PERFBENCH_COMPILER)
        << ", \"build_type\": " << quote(PERFBENCH_BUILD_TYPE) << "}";
    return out.str();
}

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (const char ch : bytes) {
        h ^= static_cast<unsigned char>(ch);
        h *= 1099511628211ULL;
    }
    return h;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n"
              << "       perfbench --trace-digest --workload NAME "
                 "--seed N\n";
    return 2;
}

/** Parse a whole non-negative integer; false on anything else. */
bool
parseCount(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos)
        return false;
    try {
        out = std::stoull(text);
    } catch (const std::exception &) {
        return false;
    }
    return true;
}

int
run(int argc, char **argv)
{
    std::string workloadName;
    std::string scratch = ".bench_build/tmp";
    std::uint64_t seed = 0;
    std::uint64_t secondsArg = 10;
    std::uint64_t trace = 0;
    bool digest = false;
    bool haveWorkload = false;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--trace-digest") {
            digest = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            workloadName = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            if (!parseCount(value, seed))
                return usage("bad --seed '" + value + "'");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseCount(value, secondsArg) || secondsArg == 0)
                return usage("bad --seconds '" + value + "'");
        } else if (flag == "--trace") {
            if (!parseCount(value, trace) || trace > 1)
                return usage("bad --trace '" + value + "'");
        } else if (flag == "--scratch") {
            scratch = value;
        } else {
            return usage("unknown flag " + flag);
        }
    }
    if (!haveWorkload || !haveSeed)
        return usage("--workload and --seed are required");

    const Workload workload = makeWorkload(workloadName);
    if (digest) {
        const Env env;
        std::string bytes;
        for (const cooper::ChurnTrace &t :
             makeTraces(env.catalog, workload, seed))
            bytes += traceBytes(t);
        std::cout << workload.name << " seed " << seed << ": "
                  << bytes.size() << " bytes, fnv1a " << std::hex
                  << fnv1a(bytes) << std::dec << "\n";
        return 0;
    }

    std::filesystem::create_directories(scratch);
    RunOptions options;
    options.seed = seed;
    options.seconds = static_cast<double>(secondsArg);
    options.trace = trace == 1;
    options.scratch = scratch;

    std::cout << "perfbench " << workload.name << " seed " << seed
              << " seconds " << secondsArg << " trace " << trace
              << std::endl;
    Tally tally;
    const Metrics metrics = workload.served
                                ? runServed(workload, options, tally)
                                : runInProcess(workload, options, tally);

    for (const Metric &m : metrics) {
        if (!std::isfinite(m.value))
            tally.count(1, 1, "metric " + m.name + " is not finite");
        std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    for (const std::string &why : tally.errors)
        std::cout << "  FAILED: " << why << "\n";
    std::cout << "fingerprint " << fingerprint() << "\n";

    std::ostringstream out;
    out << "{\"correct\": "
        << (tally.failed == 0 && tally.attempted > 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out << (i ? ", " : "") << quote(m.name) << ": {\"value\": "
            << number(std::isfinite(m.value) ? m.value : 0.0)
            << ", \"unit\": " << quote(m.unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &err) {
        std::cerr << "perfbench: " << err.what() << "\n";
        return 1;
    }
}
