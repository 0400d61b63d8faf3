# Run one command line and check both its exit code and its output
# (stdout + stderr), which PASS_REGULAR_EXPRESSION alone cannot do:
#
#   cmake -DPROG=<exe> "-DARGS=<space-separated args>" -DRC=<exit code>
#         "-DRE=<regex>" -P check_cli.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${PROG} ${arg_list}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "${RC}")
  message(FATAL_ERROR "exit status '${rc}', expected ${RC}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${RE}")
  message(FATAL_ERROR "output does not match '${RE}':\n${out}${err}")
endif()
