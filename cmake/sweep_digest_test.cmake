# Golden-digest gate for one bench binary (docs/sweeps.md, "Determinism").
#
# Invoked as a ctest by bench/CMakeLists.txt with:
#   BENCH    - the bench binary
#   OUT      - where its report is written
#   EXPECTED - the committed SHA-256 of that report
#   STDOUT   - (optional) set for benches without --json: the report is
#              the bench's stdout, which prints results only, no timings
#   ARGS     - (optional, STDOUT only) the bench's arguments as one
#              space-separated string, in place of --refs 20000
#
# The bench runs at --refs 20000 unless ARGS says otherwise.  A JSON sweep runs twice, serially
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
    if(DEFINED ARGS)
        separate_arguments(args UNIX_COMMAND "${ARGS}")
    else()
        set(args --refs 20000)
    endif()
    execute_process(
        COMMAND ${BENCH} ${args}
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
