# Runs PROGRAM and fails unless its stdout equals the file EXPECTED byte
# for byte; on a mismatch the actual output is left in PROGRAM.actual.txt.
#
#   cmake -DPROGRAM=<executable> -DEXPECTED=<file> -P check_output.cmake
execute_process(COMMAND "${PROGRAM}" OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ "${EXPECTED}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${PROGRAM}.actual.txt" "${actual}")
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${EXPECTED}; "
                      "see ${PROGRAM}.actual.txt")
endif()
