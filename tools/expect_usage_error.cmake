# Runs one str_sim invocation that must be rejected as a usage error.
#
#   cmake -DEXE=<str_sim> -DARGS="<flags>" -DEXPECT="<text>" -P this-file
#
# Passes iff the process exits with status exactly 1 and its output contains
# EXPECT (a literal string). An assertion abort, a crash, or running past
# the timeout fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 30)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "str_sim ${ARGS}: expected exit status 1, got '${rc}'\n"
                      "${err}${out}")
endif()
string(FIND "${err}${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "str_sim ${ARGS}: output lacks '${EXPECT}'\n${err}${out}")
endif()
