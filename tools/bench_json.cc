/**
 * @file
 * bench_json — python-free validation of the bench JSON documents.
 *
 * Every bench harness writes one document shape, `cooper.bench.v2`
 * (bench/bench_common.hh):
 *
 *   {"schema": "cooper.bench.v2", "bench": B, "workload": {...},
 *    "phases": {...}, "counters": {...}, "rows": {...}}
 *
 * where B is one of kernels (bench_regression), online (bench_online),
 * shard (bench_shard), serve (bench_serve), or coalition
 * (bench_coalition). One validation path checks every document; what
 * differs per bench is data in kBenches: the required workload
 * fields, phases, counters and row fields, the minimum row count, the
 * per-field bounds, and the row booleans that must be true.
 *
 * Rules every document obeys:
 *
 *  - workload carries the bench's numeric fields and a boolean `tiny`;
 *  - every phase carries mode / baseline_seconds / optimized_seconds /
 *    speedup / identical / metric / metric_count / metric_sum, with
 *    non-negative seconds; phases in baseline_vs_optimized mode must
 *    report identical == true (the equivalence gate) and a positive
 *    speedup;
 *  - counters and row fields are numbers, non-negative unless the
 *    bench's table gives them another range (online `injected`,
 *    `throughput_ratio` and `clean_blocking` > 0; serve
 *    `arrivals_per_sec` > 0; shard `shards` >= 1 and `efficiency` > 0;
 *    coalition fairness in [-1, 1] and `group_size` >= 2).
 *
 * Empty, truncated, or otherwise corrupt documents, and documents of
 * any other schema, are hard failures (exit 1) — a bench run that
 * crashed mid-write must not validate.
 *
 * --min-speedup takes phase=value pairs so a perf run can enforce the
 * acceptance numbers. Every floor is checked before the verdict: a
 * failing run reports ALL offending phases, each with its measured
 * value against the required one, so one fix-and-rerun cycle sees the
 * whole damage:
 *
 *   bench_json --file BENCH_kernels.json \
 *       --min-speedup similarity=3,blocking=2
 *   bench_json --file BENCH_online.json --min-speedup predict=1.5
 *
 * --min-efficiency does the same for the shard document's per-count
 * scaling efficiency (rows k<K>):
 *
 *   bench_json --file BENCH_shard.json --min-efficiency k2=0.5
 *
 * --max-blocking-ratio is the coalition document's stability ceiling
 * (rows g<G>): the formation's blocking-coalition count relative to
 * the packed stable-roommates baseline at the same capacity must not
 * exceed the bound (1 = "never less stable than packed pairs"):
 *
 *   bench_json --file BENCH_coalition.json \
 *       --max-blocking-ratio g3=1,g4=1
 */

#include <cstring>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "util/cli.hh"
#include "util/error.hh"

namespace {

using namespace cooper;

constexpr const char *kSchema = "cooper.bench.v2";
constexpr double kInf = std::numeric_limits<double>::infinity();

/** Allowed range of one numeric counter or row field. */
struct Limit
{
    const char *field;
    double low;
    bool strict; //!< low itself is excluded
    double high;
};

/** What one bench's document must carry. */
struct BenchSpec
{
    const char *bench;
    std::vector<const char *> workload; //!< numbers, besides `tiny`
    std::vector<const char *> phases;   //!< required by name
    std::vector<const char *> counters;
    std::vector<const char *> rowFields;
    std::vector<const char *> rowFlags; //!< booleans that must be true
    std::size_t minRows;
    std::vector<Limit> limits; //!< fields not listed must be >= 0
};

const std::vector<BenchSpec> kBenches = {
    {"kernels",
     {"matrix", "population", "samples", "shapley_agents", "alpha",
      "density", "reps", "threads"},
     {"similarity", "simd_similarity", "predict", "matching", "blocking",
      "blocking_incremental", "shapley"},
     {},
     {},
     {},
     0,
     {}},
    {"online",
     {"events", "epochs", "types", "arrivals", "threads"},
     {"predict", "epoch", "degraded"},
     {"migrations", "pairs_broken", "full_rematches",
      "predict_cache_hits", "recomputed_pairs", "injected", "retries",
      "quarantined", "quarantine_released", "abandoned", "crashes",
      "cf_fallbacks", "checkpoint_failures", "clean_blocking",
      "degraded_blocking", "blocking_ratio", "throughput_ratio"},
     {},
     {},
     0,
     {{"injected", 0.0, true, kInf},
      {"throughput_ratio", 0.0, true, kInf},
      {"clean_blocking", 0.0, true, kInf}}},
    // Phase names are data ("scale2", "scale4", ...): every phase the
    // document carries is checked, none is required by name.
    {"shard",
     {"events", "arrivals", "types", "threads", "rebalance_budget"},
     {},
     {},
     {"shards", "wall_seconds", "speedup", "efficiency",
      "egalitarian_final", "egalitarian_mean", "migrations", "epochs"},
     {},
     2,
     {{"shards", 1.0, false, kInf}, {"efficiency", 0.0, true, kInf}}},
    {"serve",
     {"events", "epochs", "types", "arrivals", "runs", "connections",
      "threads"},
     {"serve", "batched_decode", "runs_per_server"},
     {"arrivals_per_sec", "rtt_p50_ms", "rtt_p99_ms", "rtt_p999_ms",
      "epoch_p50_ms", "epoch_p99_ms", "epoch_p999_ms"},
     {},
     {},
     0,
     {{"arrivals_per_sec", 0.0, true, kInf}}},
    {"coalition",
     {"agents", "trials", "types", "threads", "shapley_samples"},
     {},
     {},
     {"group_size", "machines", "trials", "core_stable_trials",
      "rounds_mean", "blocking_coalition", "blocking_sr", "blocking_smr",
      "blocking_ratio", "mean_penalty_coalition", "mean_penalty_sr",
      "mean_penalty_smr", "egalitarian_coalition", "egalitarian_sr",
      "egalitarian_smr", "fairness_coalition", "fairness_sr",
      "fairness_smr"},
     {"identical_across_threads"},
     1,
     {{"group_size", 2.0, false, kInf},
      {"fairness_coalition", -1.0, false, 1.0},
      {"fairness_sr", -1.0, false, 1.0},
      {"fairness_smr", -1.0, false, 1.0}}},
};

const JsonValue &
member(const JsonValue &object, const std::string &key,
       const std::string &where)
{
    const JsonValue *value = object.find(key);
    fatalIf(value == nullptr, "bench_json: ", where, " lacks \"", key,
            "\"");
    return *value;
}

const JsonValue &
objectField(const JsonValue &object, const std::string &key,
            const std::string &where)
{
    const JsonValue &value = member(object, key, where);
    fatalIf(!value.isObject(), "bench_json: ", where, ".", key,
            " is not an object");
    return value;
}

double
numberField(const JsonValue &object, const std::string &key,
            const std::string &where)
{
    const JsonValue &value = member(object, key, where);
    fatalIf(!value.isNumber(), "bench_json: ", where, ".", key,
            " is not a number");
    return value.number;
}

bool
boolField(const JsonValue &object, const std::string &key,
          const std::string &where)
{
    const JsonValue &value = member(object, key, where);
    fatalIf(value.kind != JsonValue::Kind::Bool, "bench_json: ", where,
            ".", key, " is not a boolean");
    return value.boolean;
}

/** Check `field` of `object` against the bench's range for it. */
void
checkBounded(const JsonValue &object, const char *field,
             const std::string &where, const BenchSpec &spec)
{
    Limit limit{field, 0.0, false, kInf};
    for (const Limit &candidate : spec.limits)
        if (std::strcmp(candidate.field, field) == 0)
            limit = candidate;
    const double value = numberField(object, field, where);
    const bool above = limit.strict ? value > limit.low : value >= limit.low;
    if (above && value <= limit.high)
        return;
    std::ostringstream want;
    want << (limit.strict ? "> " : ">= ") << limit.low;
    if (limit.high < kInf)
        want << " and <= " << limit.high;
    fatal("bench_json: ", where, ".", field, " is ", value, ", want ",
          want.str());
}

/** Split "name=value,name=value" into pairs. */
std::vector<std::pair<std::string, double>>
parseBounds(const std::string &flag, const std::string &csv)
{
    std::vector<std::pair<std::string, double>> out;
    std::size_t start = 0;
    while (start < csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        const std::string item = csv.substr(start, end - start);
        const std::size_t eq = item.find('=');
        fatalIf(eq == std::string::npos || eq == 0 ||
                    eq + 1 >= item.size(),
                "bench_json: bad --", flag, " entry \"", item,
                "\"; want name=value");
        out.emplace_back(item.substr(0, eq),
                         std::stod(item.substr(eq + 1)));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

void
checkPhase(const JsonValue &phase, const std::string &name)
{
    const std::string where = "phases." + name;
    fatalIf(!phase.isObject(), "bench_json: ", where,
            " is not an object");

    const JsonValue &mode = member(phase, "mode", where);
    fatalIf(!mode.isString() ||
                (mode.text != "baseline_vs_optimized" &&
                 mode.text != "optimized_only"),
            "bench_json: ", where, ".mode is not a known mode");

    for (const char *field : {"baseline_seconds", "optimized_seconds"})
        fatalIf(numberField(phase, field, where) < 0.0, "bench_json: ",
                where, ".", field, " is negative");
    const double speedup = numberField(phase, "speedup", where);
    const bool identical = boolField(phase, "identical", where);

    fatalIf(!member(phase, "metric", where).isString(),
            "bench_json: ", where, ".metric is not a string");
    numberField(phase, "metric_count", where);
    numberField(phase, "metric_sum", where);

    if (mode.text == "baseline_vs_optimized") {
        fatalIf(!identical, "bench_json: ", where,
                ".identical is false: the compared kernels' outputs "
                "differ");
        fatalIf(speedup <= 0.0, "bench_json: ", where,
                ".speedup is not positive");
    }
}

/** Validate `root` as a cooper.bench.v2 document; returns its spec. */
const BenchSpec &
validate(const JsonValue &root, const std::string &path)
{
    const JsonValue &schema = member(root, "schema", path);
    fatalIf(!schema.isString() || schema.text != kSchema,
            "bench_json: ", path, " schema is not \"", kSchema, "\"");

    const JsonValue &bench = member(root, "bench", path);
    const BenchSpec *spec = nullptr;
    for (const BenchSpec &candidate : kBenches)
        if (bench.isString() && bench.text == candidate.bench)
            spec = &candidate;
    fatalIf(spec == nullptr, "bench_json: ", path,
            " has an unknown bench \"", bench.text, "\"");

    const JsonValue &workload = objectField(root, "workload", path);
    for (const char *field : spec->workload)
        numberField(workload, field, "workload");
    boolField(workload, "tiny", "workload");

    const JsonValue &phases = objectField(root, "phases", path);
    for (const char *name : spec->phases)
        member(phases, name, "phases");
    for (const auto &[name, phase] : phases.members)
        checkPhase(phase, name);

    const JsonValue &counters = objectField(root, "counters", path);
    for (const char *field : spec->counters)
        checkBounded(counters, field, "counters", *spec);

    const JsonValue &rows = objectField(root, "rows", path);
    fatalIf(rows.members.size() < spec->minRows, "bench_json: rows has ",
            rows.members.size(), " entries, want at least ",
            spec->minRows);
    for (const auto &[name, row] : rows.members) {
        const std::string where = "rows." + name;
        fatalIf(!row.isObject(), "bench_json: ", where,
                " is not an object");
        for (const char *field : spec->rowFields)
            checkBounded(row, field, where, *spec);
        for (const char *flag : spec->rowFlags)
            fatalIf(!boolField(row, flag, where), "bench_json: ", where,
                    ".", flag, " is false");
    }
    return *spec;
}

/** One `name=value` bound option: a floor or a ceiling on a field. */
struct BoundOption
{
    const char *flag;
    const char *bench;   //!< the only bench it applies to; "" = any
    const char *section; //!< "phases" or "rows"
    const char *field;
    const char *failLabel; //!< "phase", "shard row", "group row"
    const char *passLabel;
    const char *quantity;
    const char *unit;
    bool ceiling;
};

const BoundOption kBoundOptions[] = {
    {"min-speedup", "", "phases", "speedup", "phase", "phase", "speedup",
     "x", false},
    {"min-efficiency", "shard", "rows", "efficiency", "shard row",
     "shards", "efficiency", "", false},
    {"max-blocking-ratio", "coalition", "rows", "blocking_ratio",
     "group row", "groups", "blocking ratio", "", true},
};

} // namespace

int
main(int argc, char **argv)
{
    CliFlags flags;
    flags.declare("file", "BENCH_kernels.json",
                  "bench JSON document to validate");
    flags.declare("min-speedup", "",
                  "comma-separated phase=value floors to enforce");
    flags.declare("min-efficiency", "",
                  "comma-separated shard-row=value efficiency floors "
                  "(shard documents only), e.g. k2=0.5");
    flags.declare("max-blocking-ratio", "",
                  "comma-separated group-row=value stability ceilings "
                  "(coalition documents only), e.g. g3=1,g4=1");
    try {
        if (!flags.parse(argc, argv))
            return 0;
        const std::string path = flags.get("file");
        const JsonValue root = parseJsonFile(path);
        fatalIf(!root.isObject(), "bench_json: ", path,
                " is not a JSON object");
        const BenchSpec &spec = validate(root, path);

        // Floors and ceilings: check every requested entry before the
        // verdict so a failing run names all offenders, not just the
        // first.
        std::vector<std::string> violations;
        for (const BoundOption &option : kBoundOptions) {
            if (flags.get(option.flag).empty())
                continue;
            fatalIf(*option.bench != '\0' &&
                        std::strcmp(option.bench, spec.bench) != 0,
                    "bench_json: --", option.flag, " only applies to ",
                    option.bench, " documents");
            const JsonValue &section = member(root, option.section, path);
            for (const auto &[name, bound] :
                 parseBounds(option.flag, flags.get(option.flag))) {
                const std::string where =
                    std::string(option.section) + "." + name;
                const double value = numberField(
                    member(section, name, option.section), option.field,
                    where);
                if (option.ceiling ? value > bound : value < bound) {
                    std::ostringstream os;
                    os << "bench_json: " << option.failLabel << " "
                       << name << ": measured " << option.quantity << " "
                       << value
                       << (option.ceiling ? " exceeds the allowed "
                                          : " is below the required ")
                       << bound << option.unit;
                    violations.push_back(os.str());
                    continue;
                }
                std::cout << option.passLabel << " " << name << ": "
                          << option.quantity << " " << value
                          << (option.ceiling ? " <= " : " >= ") << bound
                          << option.unit << "\n";
            }
        }
        if (!violations.empty()) {
            for (const std::string &violation : violations)
                std::cerr << violation << "\n";
            std::cerr << "bench_json: " << path << ": "
                      << violations.size()
                      << " floor(s) not met\n";
            return 1;
        }
        std::cout << "bench_json: " << path << " OK\n";
    } catch (const std::exception &err) {
        std::cerr << err.what() << "\n";
        return 1;
    }
    return 0;
}
