# Metrics-schema gate for the bench snapshots, run as
#
#   cmake -DBENCH_FIG09=<bench_fig09_end_to_end> -DBENCH_FLEET=<bench_fleet>
#         -DBENCH_CRASH_RECOVERY=<bench_crash_recovery>
#         -DBENCH_INFERENCE=<bench_inference> -DBENCH_INGEST=<bench_ingest>
#         -DVALIDATE_METRICS=<validate_metrics> -DSCHEMA=<metrics.schema.json>
#         -DWORK_DIR=<scratch dir> -P metrics_schema.cmake
#
# Each bench writes its tiny configuration's --metrics snapshot, the
# fleet bench once more with a compacting, fsync'd catalog, and every
# snapshot must satisfy the checked-in schema: its shape,
# integer-valued counters, instrument names drawn from the registered
# enum, and section ordering.

foreach(var BENCH_FIG09 BENCH_FLEET BENCH_CRASH_RECOVERY BENCH_INFERENCE
            BENCH_INGEST VALIDATE_METRICS SCHEMA WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "metrics_schema: -D${var}=... is required")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run(<command> <arg>...): run in WORK_DIR and fail on a non-zero
# exit. stdout and stderr go to one log per call, which is not compared.
set(step 0)
function(run)
    math(EXPR step "${step} + 1")
    set(step ${step} PARENT_SCOPE)
    execute_process(COMMAND ${ARGN}
        WORKING_DIRECTORY "${WORK_DIR}"
        OUTPUT_FILE "${WORK_DIR}/step${step}.out"
        ERROR_FILE "${WORK_DIR}/step${step}.err"
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        string(JOIN " " command ${ARGN})
        message(FATAL_ERROR "metrics_schema: '${command}' exited "
            "'${status}' (see ${WORK_DIR}/step${step}.out and .err)")
    endif()
endfunction()

run("${BENCH_FIG09}" --tiny --metrics fig09.metrics.json)
run("${BENCH_FLEET}" --tiny --metrics fleet.metrics.json)
run("${BENCH_FLEET}" --tiny --catalog cat-metrics --fsync
    --compact-every 5 --metrics catalog.metrics.json)
run("${BENCH_CRASH_RECOVERY}" --tiny --metrics chaos.metrics.json)
run("${BENCH_INFERENCE}" --tiny --metrics serve.metrics.json)
run("${BENCH_INGEST}" --tiny --metrics ingest.metrics.json)
run("${VALIDATE_METRICS}" "${SCHEMA}"
    fig09.metrics.json fleet.metrics.json chaos.metrics.json
    catalog.metrics.json serve.metrics.json ingest.metrics.json)
