# Serial-vs-parallel determinism gate for the sweep benches, run as
#
#   cmake -DBENCH_ABLATIONS=<bench_ablations> -DBENCH_FLEET=<bench_fleet>
#         -DBENCH_FIG09=<bench_fig09_end_to_end>
#         -DBENCH_INFERENCE=<bench_inference> -DBENCH_INGEST=<bench_ingest>
#         -DBENCH_CRASH_RECOVERY=<bench_crash_recovery>
#         -DWORK_DIR=<scratch dir> -P serial_parallel_determinism.cmake
#
# Each bench runs its tiny configuration twice: once with one worker
# and once with four (--jobs for the sweeps and the crash-recovery
# chaos arms, --producers for the ingest event-generation threads). The
# stdout tables, the --metrics snapshots and, where the bench writes
# one, the --report artifacts must come out byte-identical.

foreach(var BENCH_ABLATIONS BENCH_FLEET BENCH_FIG09 BENCH_INFERENCE
            BENCH_INGEST BENCH_CRASH_RECOVERY WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR
            "serial_parallel_determinism: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# pair(<name> <bench> <knob> [REPORT]): run <bench> --tiny with
# "<knob> 1" and "<knob> 4", writing <name>-serial.* and
# <name>-parallel.*, and fail unless stdout, the metrics snapshot and
# (with REPORT) the report are byte-identical. stderr, which carries
# wall-clock lines, goes to <name>-*.err and is not compared.
function(pair name bench knob)
    cmake_parse_arguments(PAIR "REPORT" "" "" ${ARGN})
    set(artifacts txt metrics.json)
    if(PAIR_REPORT)
        list(APPEND artifacts report.json)
    endif()
    foreach(side serial parallel)
        if(side STREQUAL "serial")
            set(workers 1)
        else()
            set(workers 4)
        endif()
        set(args --tiny ${knob} ${workers}
            --metrics ${name}-${side}.metrics.json)
        if(PAIR_REPORT)
            list(APPEND args --report ${name}-${side}.report.json)
        endif()
        execute_process(COMMAND "${bench}" ${args}
            WORKING_DIRECTORY "${WORK_DIR}"
            OUTPUT_FILE "${WORK_DIR}/${name}-${side}.txt"
            ERROR_FILE "${WORK_DIR}/${name}-${side}.err"
            RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            string(JOIN " " command "${bench}" ${args})
            message(FATAL_ERROR "serial_parallel_determinism: "
                "'${command}' exited '${status}'")
        endif()
    endforeach()
    foreach(ext ${artifacts})
        execute_process(
            COMMAND "${CMAKE_COMMAND}" -E compare_files
                "${name}-serial.${ext}" "${name}-parallel.${ext}"
            WORKING_DIRECTORY "${WORK_DIR}"
            RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR "serial_parallel_determinism: "
                "${name}-parallel.${ext} differs from ${name}-serial.${ext}")
        endif()
    endforeach()
endfunction()

pair(ablations "${BENCH_ABLATIONS}" --jobs)
pair(fleet "${BENCH_FLEET}" --jobs REPORT)
pair(fig09 "${BENCH_FIG09}" --jobs)
pair(serve "${BENCH_INFERENCE}" --jobs REPORT)
pair(ingest "${BENCH_INGEST}" --producers REPORT)
pair(chaos "${BENCH_CRASH_RECOVERY}" --jobs REPORT)
