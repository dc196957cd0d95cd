# Golden-digest gate for one paper sweep (docs/sweeps.md, "Determinism").
#
# Invoked as a ctest by bench/CMakeLists.txt with:
#   BENCH    - the sweep binary
#   OUT      - where its JSON report is written
#   EXPECTED - the committed SHA-256 of that report
#
# The bench runs at --refs 20000 on two threads; the report is
# byte-identical for any thread count and build type, so any other
# digest means the sweep now computes different results.

execute_process(
    COMMAND ${BENCH} --refs 20000 --threads 2 --json ${OUT}
    RESULT_VARIABLE result)
if(NOT result EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${result}")
endif()

file(SHA256 ${OUT} actual)
if(NOT actual STREQUAL EXPECTED)
    message(FATAL_ERROR
        "sweep results changed: ${OUT} has SHA-256 ${actual}, the "
        "committed digest is ${EXPECTED}")
endif()
