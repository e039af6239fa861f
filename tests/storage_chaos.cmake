# Storage-fault soak gate for the durable fleet catalog, run as
#
#   cmake -DBENCH_CHAOS=<bench_chaos> -DCATALOG_DUMP=<catalog_dump>
#         -DWORK_DIR=<scratch dir> -P storage_chaos.cmake
#
# bench_chaos sweeps seeded fault schedules (crash-tail mutations at
# every commit point, live EINTR storms, short writes, EIO, ENOSPC)
# and exits nonzero when any case leaves the recovery trichotomy. The
# gate checks that:
#
# - the tiny sweep passes at --jobs 1 and at --jobs 4, and the two
#   stdout tables are byte-identical;
# - a re-keyed sweep (--seed 11) passes too, so the trichotomy holds
#   beyond the default fault schedules;
# - catalog_dump reads the catalogs back: --scan of the reference and
#   of a recovered torn-tail catalog exits 0 with "verdict: clean",
#   and --diff of the reference against itself is empty;
# - bench_chaos, which writes no metrics, rejects --metrics.
#
# Each run keeps its catalogs under its own TMPDIR in WORK_DIR.

foreach(var BENCH_CHAOS CATALOG_DUMP WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "storage_chaos: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# sweep(<name> <args>...): run bench_chaos --tiny <args> with its
# catalogs under <name>.tmp, stdout to <name>.txt; it must exit 0.
function(sweep name)
    file(MAKE_DIRECTORY "${WORK_DIR}/${name}.tmp")
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E env "TMPDIR=${WORK_DIR}/${name}.tmp"
            "${BENCH_CHAOS}" --tiny ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        OUTPUT_FILE "${WORK_DIR}/${name}.txt"
        ERROR_FILE "${WORK_DIR}/${name}.err"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        string(JOIN " " command "${BENCH_CHAOS}" --tiny ${ARGN})
        message(FATAL_ERROR "storage_chaos: '${command}' exited "
            "'${status}' (see ${name}.txt and ${name}.err)")
    endif()
endfunction()

sweep(serial --jobs 1)
sweep(parallel --jobs 4)
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files serial.txt parallel.txt
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
        "storage_chaos: parallel.txt differs from serial.txt")
endif()

sweep(seed11 --seed 11 --jobs 4)

# dump(<name> <expect> <args>...): run catalog_dump <args>, require
# exit 0 and <expect> in its stdout.
function(dump name expect)
    execute_process(COMMAND "${CATALOG_DUMP}" ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE status)
    file(WRITE "${WORK_DIR}/${name}.txt" "${out}${err}")
    string(JOIN " " command "${CATALOG_DUMP}" ${ARGN})
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "storage_chaos: '${command}' exited "
            "'${status}' (see ${name}.txt)")
    endif()
    string(FIND "${out}" "${expect}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "storage_chaos: '${command}' did not print "
            "'${expect}' (see ${name}.txt)")
    endif()
endfunction()

set(catalogs "${WORK_DIR}/serial.tmp")
dump(scan-ref "verdict: clean" "${catalogs}/rap_bench_chaos.ref" --scan)
dump(diff-ref "catalogs identical"
    --diff "${catalogs}/rap_bench_chaos.ref" "${catalogs}/rap_bench_chaos.ref")
file(GLOB torn LIST_DIRECTORIES true "${catalogs}/rap_bench_chaos.tail_torn@*")
list(SORT torn)
list(LENGTH torn torn_count)
if(torn_count EQUAL 0)
    message(FATAL_ERROR "storage_chaos: the sweep left no torn-tail catalog "
        "in ${catalogs}")
endif()
list(GET torn 0 first_torn)
dump(scan-torn "verdict: clean" "${first_torn}" --scan)

# A flag the bench would ignore is a usage error instead.
execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "TMPDIR=${WORK_DIR}/seed11.tmp"
        "${BENCH_CHAOS}" --tiny --metrics rejected.json
    WORKING_DIRECTORY "${WORK_DIR}"
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE status)
if(status EQUAL 0 OR EXISTS "${WORK_DIR}/rejected.json")
    message(FATAL_ERROR
        "storage_chaos: bench_chaos accepted --metrics (exit '${status}')")
endif()
string(FIND "${err}" "unknown flag '--metrics'" at)
if(at EQUAL -1)
    message(FATAL_ERROR "storage_chaos: bench_chaos rejected --metrics "
        "without the usage error: ${err}")
endif()
