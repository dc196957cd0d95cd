# Golden-digest gate for one bench binary (docs/sweeps.md, "Determinism").
#
# Invoked as a ctest by bench/CMakeLists.txt with:
#   BENCH    - the bench binary
#   OUT      - where its report is written
#   EXPECTED - the committed SHA-256 of that report
#   STDOUT   - (optional) set for benches without --json: the report is
#              the bench's stdout, which prints results only, no timings
#
# The bench runs at --refs 20000 (sweeps on two threads); the report is
# byte-identical for any thread count and build type, so any other
# digest means the bench now computes different results.

if(STDOUT)
    execute_process(
        COMMAND ${BENCH} --refs 20000
        OUTPUT_FILE ${OUT}
        RESULT_VARIABLE result)
else()
    execute_process(
        COMMAND ${BENCH} --refs 20000 --threads 2 --json ${OUT}
        RESULT_VARIABLE result)
endif()
if(NOT result EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${result}")
endif()

file(SHA256 ${OUT} actual)
if(NOT actual STREQUAL EXPECTED)
    message(FATAL_ERROR
        "bench results changed: ${OUT} has SHA-256 ${actual}, the "
        "committed digest is ${EXPECTED}")
endif()
