# Runs bench_regression, bench_online, bench_shard, bench_serve, and
# bench_coalition at smoke-test sizes and validates the emitted
# cooper.bench.v2 documents with bench_json. Mostly only the document
# shape and the exact-equivalence bits are checked here — speedup and
# efficiency floors are timing-sensitive and belong to manual
# full-size runs
# (bench_json --min-speedup
#      similarity=3,simd_similarity=1.5,blocking=2,blocking_incremental=3,
#  bench_json --file BENCH_online.json --min-speedup predict=1.5, and
#  bench_json --file BENCH_shard.json --min-efficiency k2=0.5).
# The exceptions are the serve document's floors: batched_decode —
# the per-message baseline pays ~4x the syscalls, so batched >= 1.1x
# holds with a wide margin even at tiny sizes on a noisy runner — and
# runs_per_server, whose 0.5 floor only asserts that hosting N runs
# concurrently costs at most 2x serving them back to back. The
# coalition document's blocking-ratio ceiling is also held here — it
# counts blocking coalitions, not seconds, so it is noise-free: the
# formation seeds from the packed-pairs baseline among its candidates
# and only improves, making ratio <= 1 structural.
#
# Every validator rule is then proven able to fail: each case below
# derives a mutated document from one tiny output and requires
# bench_json to reject it, naming the offending field. Corrupt
# documents (empty file, truncated write) must be rejected too: a
# bench run that crashed mid-write must not validate. A failing floor
# must name every offending phase with measured-vs-required values,
# and the harnesses' --shard-list/--group-list accept only positive
# decimal integers.
function(run_step)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT code EQUAL 0)
        message(FATAL_ERROR "step failed (${code}): ${ARGV}\n${out}${err}")
    endif()
    message(STATUS "${out}")
endfunction()

function(expect_failure)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(code EQUAL 0)
        message(FATAL_ERROR
                "step was expected to fail but passed: ${ARGV}\n${out}")
    endif()
    message(STATUS "rejected as expected: ${err}")
endfunction()

run_step(${BENCH} --tiny --out bench_smoke_kernels.json)
run_step(${BENCH_JSON} --file bench_smoke_kernels.json)

run_step(${BENCH_ONLINE} --tiny --out bench_smoke_online.json)
run_step(${BENCH_JSON} --file bench_smoke_online.json)

run_step(${BENCH_SHARD} --tiny --out bench_smoke_shard.json)
run_step(${BENCH_JSON} --file bench_smoke_shard.json)

run_step(${BENCH_SERVE} --tiny --out bench_smoke_serve.json)
run_step(${BENCH_JSON} --file bench_smoke_serve.json
         --min-speedup batched_decode=1.1,runs_per_server=0.5)

run_step(${BENCH_COALITION} --tiny --out bench_smoke_coalition.json)
run_step(${BENCH_JSON} --file bench_smoke_coalition.json
         --max-blocking-ratio g3=1,g4=1)

# One negative case per validator rule: rewrite the tiny `source`
# document (kernels, online, shard, serve, coalition) with the regex
# `match` -> `replace`, and require bench_json to reject the result
# with a message matching `field`. The rewrite must change the
# document, or the case would prove nothing.
function(expect_rejection source field match replace)
    file(READ ${WORKDIR}/bench_smoke_${source}.json doc)
    string(REGEX REPLACE "${match}" "${replace}" mutated "${doc}")
    if(mutated STREQUAL doc)
        message(FATAL_ERROR
                "mutation '${match}' left bench_smoke_${source}.json "
                "unchanged")
    endif()
    file(WRITE ${WORKDIR}/bench_smoke_mutated.json "${mutated}")
    execute_process(
        COMMAND ${BENCH_JSON} --file bench_smoke_mutated.json
        WORKING_DIRECTORY ${WORKDIR}
        RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(code EQUAL 0)
        message(FATAL_ERROR
                "mutated ${source} document (${match} -> ${replace}) "
                "was accepted:\n${mutated}")
    endif()
    if(NOT "${err}" MATCHES "${field}")
        message(FATAL_ERROR
                "rejection of '${match}' does not name ${field}: ${err}")
    endif()
    message(STATUS "rejected as expected: ${err}")
endfunction()

# Document shape: schema and bench.
expect_rejection(online "schema" "bench\\.v2\"" "bench_online.v1\"")
expect_rejection(online "unknown bench \"faults\""
    "\"bench\": \"online\"" "\"bench\": \"faults\"")
expect_rejection(kernels "lacks \"counters\""
    "\"counters\": {}," "\"totals\": {},")

# Workload: required fields and the tiny flag.
expect_rejection(online "workload lacks \"events\""
    "\"events\":" "\"event_count\":")
expect_rejection(kernels "workload.tiny is not a boolean"
    "\"tiny\": true" "\"tiny\": 1")

# Phases: named phases, mode, fields, seconds, compared-phase gates.
expect_rejection(online "phases lacks \"degraded\""
    "\"degraded\": {" "\"faulty\": {")
expect_rejection(kernels "phases.shapley.mode"
    "\"optimized_only\"" "\"fastest\"")
expect_rejection(serve "phases.serve lacks \"metric_sum\""
    "(\"serve\": {[^}]*), \"metric_sum\": [^}]*}" "\\1}")
expect_rejection(kernels "phases.blocking.identical is false"
    "\"identical\": true" "\"identical\": false")
expect_rejection(online "phases.predict.speedup is not positive"
    "(\"predict\": {[^}]*\"speedup\": )[^,]*" "\\10")
expect_rejection(online "optimized_seconds is negative"
    "\"optimized_seconds\": " "\"optimized_seconds\": -")

# Counters: non-negative, and the online/serve lower bounds.
expect_rejection(online "counters.retries is -1"
    "\"retries\": [0-9]+" "\"retries\": -1")
expect_rejection(online "counters.injected is 0"
    "\"injected\": [0-9]+" "\"injected\": 0")
expect_rejection(online "counters.throughput_ratio is 0"
    "\"throughput_ratio\": [^}]*" "\"throughput_ratio\": 0")
expect_rejection(online "counters.clean_blocking is 0"
    "\"clean_blocking\": [0-9]+" "\"clean_blocking\": 0")
expect_rejection(serve "counters.arrivals_per_sec is 0"
    "\"arrivals_per_sec\": [^,]*" "\"arrivals_per_sec\": 0")

# Rows: count, non-negative fields, and per-bench bounds and flags.
expect_rejection(shard "rows has 1 entries"
    ",\n    \"k2\": {[^}]*}" "")
expect_rejection(shard "rows.k1.shards is 0"
    "\"shards\": 1," "\"shards\": 0,")
expect_rejection(shard "efficiency is 0"
    "\"efficiency\": [^,]*" "\"efficiency\": 0")
expect_rejection(shard "migrations is -1"
    "\"migrations\": [0-9]+" "\"migrations\": -1")
expect_rejection(coalition "identical_across_threads is false"
    "\"identical_across_threads\": true"
    "\"identical_across_threads\": false")
expect_rejection(coalition "fairness_sr is 1.5"
    "\"fairness_sr\": [^,]*" "\"fairness_sr\": 1.5")
expect_rejection(coalition "rows.g2.group_size is 1"
    "\"group_size\": 2," "\"group_size\": 1,")
expect_rejection(coalition "rows has 0 entries"
    "\"rows\": {.*" "\"rows\": {}\n}\n")

# Floor-failure diagnostics: an unmeetable floor must fail naming the
# phase with its measured value against the requirement, and a
# multi-floor failure must report every offender, not just the first.
function(expect_floor_failure pattern)
    set(cmd ${ARGV})
    list(REMOVE_AT cmd 0)
    execute_process(COMMAND ${cmd} WORKING_DIRECTORY ${WORKDIR}
                    RESULT_VARIABLE code OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(code EQUAL 0)
        message(FATAL_ERROR
                "floor was expected to fail but passed: ${cmd}\n${out}")
    endif()
    if(NOT "${out}${err}" MATCHES "${pattern}")
        message(FATAL_ERROR
                "floor failure lacks '${pattern}': ${cmd}\n${out}${err}")
    endif()
    message(STATUS "floor rejected as expected: ${err}")
endfunction()

expect_floor_failure(
    "phase batched_decode: measured speedup .* is below the required 10000"
    ${BENCH_JSON} --file bench_smoke_serve.json
    --min-speedup batched_decode=10000)
expect_floor_failure("2 floor\\(s\\) not met"
    ${BENCH_JSON} --file bench_smoke_serve.json
    --min-speedup batched_decode=10000,serve=10000)
expect_floor_failure(
    "group row g2: measured blocking ratio .* exceeds the allowed 0"
    ${BENCH_JSON} --file bench_smoke_coalition.json
    --max-blocking-ratio g2=0)

# Corruption regressions: empty document, truncated document, and a
# whitespace-only document must all exit nonzero.
file(WRITE ${WORKDIR}/bench_smoke_empty.json "")
expect_failure(${BENCH_JSON} --file bench_smoke_empty.json)

file(READ ${WORKDIR}/bench_smoke_online.json whole_doc)
string(LENGTH "${whole_doc}" whole_len)
math(EXPR half_len "${whole_len} / 2")
string(SUBSTRING "${whole_doc}" 0 ${half_len} half_doc)
file(WRITE ${WORKDIR}/bench_smoke_truncated.json "${half_doc}")
expect_failure(${BENCH_JSON} --file bench_smoke_truncated.json)

file(WRITE ${WORKDIR}/bench_smoke_blank.json "  \n\t\n")
expect_failure(${BENCH_JSON} --file bench_smoke_blank.json)

# Strict list flags: a suffixed count and a negative one are errors,
# not K = 4 and a wrapped 2^64 - 1.
expect_failure(${BENCH_SHARD} --tiny --shard-list 4x
               --out bench_smoke_bad_list.json)
expect_failure(${BENCH_COALITION} --tiny --group-list -1
               --out bench_smoke_bad_list.json)
