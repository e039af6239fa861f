# Hard-kill resume gate for the WAL-backed fleet catalog, run as
#
#   cmake -DBENCH_FLEET=<bench_fleet> -DCATALOG_DUMP=<catalog_dump>
#         -DWORK_DIR=<scratch dir> -P fleet_kill_resume.cmake
#
# The same tiny shared-policy run executes uninterrupted (the byte
# reference), SIGKILL'd by --stop-after mid-trace (a deterministic
# power cut leaving only the catalog's durable prefix), and resumed
# over the killed catalog. The resumed FleetReport must be
# byte-identical to the reference, with and without fsync-per-commit
# and compaction, and catalog_dump must read the catalogs back. A
# catalog run with --trace must write its traces, and --resume must
# refuse --trace (the genesis record fixes the prefix). A negative
# --compact-every must be refused by the catalog with the field named,
# and the catalog-only flags must be refused without --catalog.

foreach(var BENCH_FLEET CATALOG_DUMP WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "fleet_kill_resume: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<expected status> <command...>): run in WORK_DIR, stdout
# discarded, and fail unless the exit status matches.
function(run expected)
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status
        OUTPUT_QUIET)
    if(NOT status STREQUAL expected)
        message(FATAL_ERROR
            "fleet_kill_resume: '${ARGN}' exited '${status}', "
            "expected '${expected}'")
    endif()
endfunction()

# refuse(<needle> <command...>): the command must exit non-zero and
# print <needle> on stdout or stderr.
function(refuse needle)
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(status EQUAL 0)
        message(FATAL_ERROR
            "fleet_kill_resume: '${ARGN}' exited 0, expected a refusal")
    endif()
    string(FIND "${out}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "fleet_kill_resume: '${ARGN}' did not name '${needle}':\n"
            "${out}")
    endif()
endfunction()

# cmp(<a> <b>): the two reports must be byte-identical.
function(cmp a b)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
        WORKING_DIRECTORY "${WORK_DIR}"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
            "fleet_kill_resume: ${b} differs from ${a}")
    endif()
endfunction()

# A SIGKILL'd child has no exit status of its own; under a shell the
# death reads as 128 + 9.
set(under_shell sh -c "\"$0\" \"$@\" || exit $?")

run(0 "${BENCH_FLEET}" --tiny --catalog cat-ref --report ref.json)

run(137 ${under_shell} "${BENCH_FLEET}" --tiny --catalog cat-killed
    --stop-after 7)
run(0 "${BENCH_FLEET}" --tiny --catalog cat-killed --resume
    --report resumed.json)
cmp(ref.json resumed.json)

run(137 ${under_shell} "${BENCH_FLEET}" --tiny --catalog cat-killed2
    --fsync --compact-every 5 --stop-after 11)
run(0 "${BENCH_FLEET}" --tiny --catalog cat-killed2 --fsync
    --compact-every 5 --resume --report resumed2.json)
cmp(ref.json resumed2.json)

run(0 "${BENCH_FLEET}" --tiny --catalog cat-traced --trace traced)
if(NOT EXISTS "${WORK_DIR}/traced.job0.seg0.json")
    message(FATAL_ERROR
        "fleet_kill_resume: --catalog --trace wrote no traced.job0.seg0.json")
endif()
run(1 "${BENCH_FLEET}" --tiny --catalog cat-traced --resume
    --trace traced)

refuse(compactEvery "${BENCH_FLEET}" --tiny --catalog cat-bad
    --compact-every -1)
refuse(--resume "${BENCH_FLEET}" --tiny --resume)
refuse(--stop-after "${BENCH_FLEET}" --tiny --stop-after 3)

run(0 "${CATALOG_DUMP}" cat-ref)
run(0 "${CATALOG_DUMP}" cat-killed --state)
