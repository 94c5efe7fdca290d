# Runs the slmob CLI with ARGS ('|'-separated) and fails unless it exits
# with EXPECT and prints the usage text to stderr.
#
#   cmake -DSLMOB=<slmob binary> -DEXPECT=<code> -DARGS=<a|b|c> -P cli_expect_exit.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${SLMOB}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "slmob ${args}: exit ${rc}, expected ${EXPECT}\n${out}${err}")
endif()
if(NOT err MATCHES "usage:")
  message(FATAL_ERROR "slmob ${args}: no usage text on stderr\n${err}")
endif()
