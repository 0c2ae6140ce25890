# Runs one str_sim invocation and checks its exit status and output.
#
#   cmake -DEXE=<str_sim> -DARGS="<flags>" -DSTATUS=<n> -DEXPECT="<text>" \
#         -P this-file
#
# Passes iff the process exits with status exactly STATUS and its output
# contains EXPECT (a literal string). An assertion abort, a crash, or running
# past the timeout fails.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 120)
if(NOT rc STREQUAL "${STATUS}")
  message(FATAL_ERROR "str_sim ${ARGS}: expected exit status ${STATUS}, "
                      "got '${rc}'\n${err}${out}")
endif()
string(FIND "${err}${out}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "str_sim ${ARGS}: output lacks '${EXPECT}'\n${err}${out}")
endif()
