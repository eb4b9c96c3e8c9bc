# Runs one command and fails unless it exits with the expected code.
#
#   cmake -DEXPECT=2 "-DCMD=prog|arg1|arg2" -P ExpectExit.cmake
#
# CMD separates its words with '|' so the list survives add_test.
string(REPLACE "|" ";" Command "${CMD}")
execute_process(COMMAND ${Command} RESULT_VARIABLE Code
                OUTPUT_QUIET ERROR_VARIABLE Stderr)
if(NOT Code STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${Code}: ${Command}\n"
                      "${Stderr}")
endif()
