# Runs BIN with the arguments in ARGS (a ;-list) that end in a bad flag
# and asserts a usage error: exit code 2 with a usage line on stderr,
# never a signal or a run of the workload.
#
#   cmake -DBIN=path/to/binary -DARGS="--profile" -P usage_exit.cmake
execute_process(COMMAND ${BIN} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_QUIET
  ERROR_VARIABLE err
  TIMEOUT 60)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${BIN} ${ARGS}: want exit code 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${BIN} ${ARGS}: no usage line on stderr\n${err}")
endif()
