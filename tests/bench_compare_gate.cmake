# ctest driver for bench/bench_compare (run with `cmake -P`):
#  1. every gated committed BENCH_*.json compared against itself must
#     pass (exit 0);
#  2. a snapshot-refresh copy whose 0.1% snapshot speedup is doctored down
#     to 0.96x (the figure the segment-rebuild regression recorded) must
#     be flagged as a regression (exit 1, not a parse or usage error);
#  3. so must a delta-maintenance copy whose khop2 10%-deletion speedup is
#     doctored down to 1x (incremental no faster than re-materializing);
#  4. a query-latency copy with a collapsed parallel-scaling ratio passes
#     while the runs record one hardware thread (scaling gates skipped)
#     and fails once both record four;
#  5. so must a query-latency copy whose Q1 SELECT overhead is doctored up
#     to 2.35x (the string-keyed SELECT evaluator's full / MATCH ratio);
#  6. and one whose Q2 engine overhead is doctored up to 1.5x (what the
#     copying view-to-base row mapping cost a view-served read).
# Inputs: COMPARE (the binary), SOURCE_DIR (holding the committed JSONs),
# WORK_DIR.

function(expect_exit committed fresh expected label)
  execute_process(COMMAND ${COMPARE} ${committed} ${fresh}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "${label}: exit ${rc}, expected ${expected}")
  endif()
endfunction()

# Writes a copy of `input` to WORK_DIR/`name` with the value of
# `section`/`metric` replaced by `value`.
function(doctor input section metric value name)
  file(READ ${input} json)
  string(REPLACE "." "\\." section_re "${section}")
  set(entry_re
    "(\"section\": \"${section_re}\", \"metric\": \"${metric}\", \"value\": )[^}]*")
  string(REGEX MATCH "${entry_re}" found "${json}")
  if(NOT found)
    message(FATAL_ERROR "${section}/${metric} not found in ${input}")
  endif()
  string(REGEX REPLACE "${entry_re}" "\\1${value}" doctored "${json}")
  file(WRITE ${WORK_DIR}/${name} "${doctored}")
endfunction()

foreach(bench snapshot_refresh query_latency delta_maintenance)
  set(committed ${SOURCE_DIR}/BENCH_${bench}.json)
  expect_exit(${committed} ${committed} 0 "committed ${bench} vs itself")
endforeach()

doctor(${SOURCE_DIR}/BENCH_snapshot_refresh.json
       delta_0.1pct snapshot_speedup 0.96 snapshot_refresh.doctored.json)
expect_exit(${SOURCE_DIR}/BENCH_snapshot_refresh.json
            ${WORK_DIR}/snapshot_refresh.doctored.json 1
            "doctored snapshot_refresh")

doctor(${SOURCE_DIR}/BENCH_delta_maintenance.json
       khop2_del10% speedup 1.0 delta_maintenance.doctored.json)
expect_exit(${SOURCE_DIR}/BENCH_delta_maintenance.json
            ${WORK_DIR}/delta_maintenance.doctored.json 1
            "doctored delta_maintenance")

set(latency ${SOURCE_DIR}/BENCH_query_latency.json)
doctor(${latency} meta hardware_threads 1 query_latency.1t.json)
doctor(${WORK_DIR}/query_latency.1t.json
       prov typed_2hop_par4_scaling 0.01 query_latency.1t.doctored.json)
expect_exit(${WORK_DIR}/query_latency.1t.json
            ${WORK_DIR}/query_latency.1t.doctored.json 0
            "collapsed scaling on one hardware thread")
doctor(${latency} meta hardware_threads 4 query_latency.4t.json)
doctor(${WORK_DIR}/query_latency.4t.json
       prov typed_2hop_par4_scaling 0.01 query_latency.4t.doctored.json)
expect_exit(${WORK_DIR}/query_latency.4t.json
            ${WORK_DIR}/query_latency.4t.doctored.json 1
            "collapsed scaling on four hardware threads")

doctor(${latency} select q1_select_overhead 2.35
       query_latency.select.doctored.json)
expect_exit(${latency} ${WORK_DIR}/query_latency.select.doctored.json 1
            "doctored Q1 select overhead")

doctor(${latency} view_read q2_engine_overhead 1.5
       query_latency.view_read.doctored.json)
expect_exit(${latency} ${WORK_DIR}/query_latency.view_read.doctored.json 1
            "doctored Q2 engine overhead")
