# Run a command and require an exact exit code.
#
# CTest's PASS/FAIL only distinguishes zero from non-zero; the
# beethoven subcommands document distinct non-zero codes (1 = check
# failed, 2 = usage or IO error, 3 = fuzzer found a failure) and the
# tests below pin the exact one. Usage:
#
#   cmake -DCMD="beethoven json-check missing.json" -DEXPECTED=1
#         -P expect_exit.cmake
#
# Optional: -DSTDOUT_FILE=path captures the command's stdout to a file
# (for fixture chains that validate a tool's emitted document).

if(NOT DEFINED CMD OR NOT DEFINED EXPECTED)
    message(FATAL_ERROR "expect_exit.cmake needs -DCMD=... -DEXPECTED=N")
endif()

separate_arguments(cmd_list UNIX_COMMAND "${CMD}")
execute_process(COMMAND ${cmd_list}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)

if(DEFINED STDOUT_FILE)
    file(WRITE "${STDOUT_FILE}" "${out}")
endif()

if(NOT rc EQUAL "${EXPECTED}")
    message(FATAL_ERROR
        "command [${CMD}] exited with '${rc}', expected ${EXPECTED}\n"
        "stdout:\n${out}\nstderr:\n${err}")
endif()
