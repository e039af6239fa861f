# Bench command-line refusal gate, run as
#
#   cmake -DBENCH_CRASH_RECOVERY=<bench_crash_recovery>
#         -DBENCH_FAULT_DEGRADATION=<bench_fault_degradation>
#         -P bench_flag_refusals.cmake
#
# A negative --mtbf or --jobs, a --crash-at below its -1 sentinel, and
# an integer flag whose value is not a whole integer must each exit
# non-zero and name the flag, instead of running the default sweep.

foreach(var BENCH_CRASH_RECOVERY BENCH_FAULT_DEGRADATION)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "bench_flag_refusals: -D${var}=... is required")
    endif()
endforeach()

# refuse(<needle> <command...>): the command must exit non-zero and
# print <needle> on stdout or stderr.
function(refuse needle)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE status
        OUTPUT_VARIABLE out
        ERROR_VARIABLE out)
    if(status EQUAL 0)
        message(FATAL_ERROR
            "bench_flag_refusals: '${ARGN}' exited 0, expected a refusal")
    endif()
    string(FIND "${out}" "${needle}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "bench_flag_refusals: '${ARGN}' did not name '${needle}':\n"
            "${out}")
    endif()
endfunction()

foreach(bench "${BENCH_CRASH_RECOVERY}" "${BENCH_FAULT_DEGRADATION}")
    refuse(--mtbf "${bench}" --tiny --mtbf -5)
    refuse(--crash-at "${bench}" --tiny --crash-at -7)
endforeach()
refuse(--mtbf "${BENCH_CRASH_RECOVERY}" --tiny --mtbf abc)
refuse(--jobs "${BENCH_CRASH_RECOVERY}" --tiny --jobs 2x)
refuse(--jobs "${BENCH_FAULT_DEGRADATION}" --tiny --jobs -3)
refuse(--crash-at "${BENCH_FAULT_DEGRADATION}" --tiny --crash-at=)
