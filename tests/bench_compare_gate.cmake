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
#  6. and one whose Q2 engine overhead is doctored up to 1.5 times the
#     committed ratio (the copying view-to-base row mapping cost a
#     view-served read 1.5x the executor's time; a fixed 1.5 would pass
#     once the committed ratio reached 1.5 / 1.3);
#  7. and one whose Q2 result-table build time per row is doctored up to
#     4 times the committed figure (one heap-allocated vector per row read
#     5-12 times the flat cell array's figure);
#  8. and one whose fusion batch speedup is doctored down to 0.6 times the
#     committed ratio (the per-member compare loop read 0.79-1.13 where
#     the indexed equality probe reads 1.20-1.51).
# Inputs: COMPARE (the binary), SOURCE_DIR (holding the committed JSONs),
# WORK_DIR.

function(expect_exit committed fresh expected label)
  execute_process(COMMAND ${COMPARE} ${committed} ${fresh}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected)
    message(FATAL_ERROR "${label}: exit ${rc}, expected ${expected}")
  endif()
endfunction()

# Sets `entry_re` in the caller to the regex of the `section`/`metric`
# entry of a bench JSON: group 1 is everything up to the value, group 2
# the value.
macro(entry_regex section metric)
  string(REPLACE "." "\\." section_re "${section}")
  set(entry_re
    "(\"section\": \"${section_re}\", \"metric\": \"${metric}\", \"value\": )([^}]*[^} ])")
endmacro()

# Writes a copy of `input` to WORK_DIR/`name` with the value of
# `section`/`metric` replaced by `value`.
function(doctor input section metric value name)
  file(READ ${input} json)
  entry_regex(${section} ${metric})
  string(REGEX MATCH "${entry_re}" found "${json}")
  if(NOT found)
    message(FATAL_ERROR "${section}/${metric} not found in ${input}")
  endif()
  string(REGEX REPLACE "${entry_re}" "\\1${value}" doctored "${json}")
  file(WRITE ${WORK_DIR}/${name} "${doctored}")
endfunction()

# Sets `out` to the value of `section`/`metric` in `input` times `factor`
# (given in hundredths: 150 is 1.5x), to six decimals. CMake's math() is
# integer-only, so the value goes through fixed point.
function(scaled_value input section metric factor out)
  file(READ ${input} json)
  entry_regex(${section} ${metric})
  if(NOT json MATCHES "${entry_re}")
    message(FATAL_ERROR "${section}/${metric} not found in ${input}")
  endif()
  set(value "${CMAKE_MATCH_2}")
  if(NOT value MATCHES "^([0-9]+)(\\.([0-9]*))?$")
    message(FATAL_ERROR "${section}/${metric}: cannot scale ${value}")
  endif()
  string(SUBSTRING "${CMAKE_MATCH_3}000000" 0 6 fraction)
  math(EXPR micro
       "(${CMAKE_MATCH_1} * 1000000 + ${fraction}) * ${factor} / 100")
  math(EXPR whole "${micro} / 1000000")
  math(EXPR part "${micro} % 1000000 + 1000000")
  string(SUBSTRING "${part}" 1 6 part)
  set(${out} "${whole}.${part}" PARENT_SCOPE)
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

scaled_value(${latency} view_read q2_engine_overhead 150 overhead)
doctor(${latency} view_read q2_engine_overhead ${overhead}
       query_latency.view_read.doctored.json)
expect_exit(${latency} ${WORK_DIR}/query_latency.view_read.doctored.json 1
            "doctored Q2 engine overhead (${overhead})")

scaled_value(${latency} view_read q2_table_ns_per_row 400 ns_per_row)
doctor(${latency} view_read q2_table_ns_per_row ${ns_per_row}
       query_latency.table.doctored.json)
expect_exit(${latency} ${WORK_DIR}/query_latency.table.doctored.json 1
            "doctored Q2 table build time per row (${ns_per_row})")

scaled_value(${latency} fusion batch_speedup 60 batch_speedup)
doctor(${latency} fusion batch_speedup ${batch_speedup}
       query_latency.fusion.doctored.json)
expect_exit(${latency} ${WORK_DIR}/query_latency.fusion.doctored.json 1
            "doctored fusion batch speedup (${batch_speedup})")
