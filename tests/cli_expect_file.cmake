# Runs the slmob CLI with ARGS ('|'-separated) and fails unless it exits 0
# and leaves FILE behind (FILE is removed first, so a stale copy from an
# earlier run cannot pass the check).
#
#   cmake -DSLMOB=<slmob binary> -DFILE=<path> -DARGS=<a|b|c> -P cli_expect_file.cmake
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE "${FILE}")
execute_process(COMMAND "${SLMOB}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "slmob ${args}: exit ${rc}, expected 0\n${out}${err}")
endif()
if(NOT EXISTS "${FILE}")
  message(FATAL_ERROR "slmob ${args}: exited 0 but wrote no ${FILE}\n${out}${err}")
endif()
