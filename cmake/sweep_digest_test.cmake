# Golden-digest gate for one bench binary (docs/sweeps.md, "Determinism").
#
# Invoked as a ctest by bench/CMakeLists.txt with:
#   BENCH    - the bench binary
#   OUT      - where its report is written
#   EXPECTED - the committed SHA-256 of that report
#   STDOUT   - (optional) set for benches without --json: the report is
#              the bench's stdout, which prints results only, no timings
#
# The bench runs at --refs 20000.  A JSON sweep runs twice, serially
# (--threads 1) and on two threads: its report is byte-identical for any
# thread count and build type, so both runs must match the one committed
# digest.  Any other digest means the bench now computes different
# results, or the sweep engine's 1-vs-N determinism broke.

function(check_digest what)
    file(SHA256 ${OUT} actual)
    if(NOT actual STREQUAL EXPECTED)
        message(FATAL_ERROR
            "bench results changed: ${OUT} (${what}) has SHA-256 "
            "${actual}, the committed digest is ${EXPECTED}")
    endif()
endfunction()

if(STDOUT)
    execute_process(
        COMMAND ${BENCH} --refs 20000
        OUTPUT_FILE ${OUT}
        RESULT_VARIABLE result)
    if(NOT result EQUAL 0)
        message(FATAL_ERROR "${BENCH} exited with ${result}")
    endif()
    check_digest("stdout")
else()
    foreach(threads 1 2)
        execute_process(
            COMMAND ${BENCH} --refs 20000 --threads ${threads} --json ${OUT}
            RESULT_VARIABLE result)
        if(NOT result EQUAL 0)
            message(FATAL_ERROR
                "${BENCH} --threads ${threads} exited with ${result}")
        endif()
        check_digest("--threads ${threads}")
    endforeach()
endif()
