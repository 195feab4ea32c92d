# ctest driver for bench/bench_compare (run with `cmake -P`):
#  1. the committed BENCH_snapshot_refresh.json compared against itself
#     must pass (exit 0);
#  2. a copy whose 0.1% snapshot speedup is doctored down to 0.96x (the
#     figure the segment-rebuild regression recorded) must be flagged as
#     a regression (exit 1, not a parse or usage error).
# Inputs: COMPARE (the binary), COMMITTED (the JSON), WORK_DIR.

execute_process(COMMAND ${COMPARE} ${COMMITTED} ${COMMITTED}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "committed file vs itself: exit ${rc}, expected 0")
endif()

file(READ ${COMMITTED} json)
string(REGEX REPLACE
  "(\"section\": \"delta_0\\.1pct\", \"metric\": \"snapshot_speedup\", \"value\": )[^}]*"
  "\\10.96" doctored "${json}")
if(doctored STREQUAL json)
  message(FATAL_ERROR "delta_0.1pct snapshot_speedup not found in ${COMMITTED}")
endif()
set(doctored_path ${WORK_DIR}/BENCH_snapshot_refresh.doctored.json)
file(WRITE ${doctored_path} "${doctored}")

execute_process(COMMAND ${COMPARE} ${COMMITTED} ${doctored_path}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "doctored file: exit ${rc}, expected 1 (regression)")
endif()
