# cli.huge_die: a layout that parses cleanly but whose die implies billions
# of tiles must fail with a clean error (exit 1 and a message), never abort.
# Builds the layout from data/sample.pld with its DIE line replaced.
#
#   cmake -DPILFILL=<pilfill> -DSAMPLE=<sample.pld> -DWORK_DIR=<dir>
#         -P huge_die_test.cmake

file(READ ${SAMPLE} layout)
string(REGEX REPLACE "DIE [^\n]*" "DIE 0 0 1e9 1e9" layout "${layout}")
set(huge ${WORK_DIR}/huge_die.pld)
file(WRITE ${huge} "${layout}")

execute_process(COMMAND ${PILFILL} fill ${huge}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "pilfill on a 1e9 um die: expected exit 1, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "^pilfill: .")
  message(FATAL_ERROR "pilfill on a 1e9 um die exited 1 without a message: '${err}'")
endif()
