# Runs PROG and compares its stdout byte for byte with the file GOLDEN.
# On a mismatch the actual output is written to ACTUAL for diffing.
#   cmake -DPROG=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P check_stdout.cmake
execute_process(COMMAND "${PROG}" OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROG} exited with ${rc}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${PROG} differs from ${GOLDEN}; "
                      "actual output written to ${ACTUAL}")
endif()
