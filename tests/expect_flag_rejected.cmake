# Runs BINARY with FLAG VALUE and passes only if it exits 1 and names FLAG
# on stderr: a misspelt flag, a value after a bare boolean flag, or a
# malformed count must stop a collection binary before any work, never
# run it on defaults.
# Usage:
#   cmake -DBINARY=<path> -DFLAG=--usres -DVALUE=10 -P expect_flag_rejected.cmake
execute_process(COMMAND ${BINARY} ${FLAG} ${VALUE}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                TIMEOUT 60)
if(NOT code STREQUAL "1")
  message(FATAL_ERROR "${BINARY} ${FLAG} ${VALUE}: exit code ${code}, "
                      "want 1\nstdout:\n${out}\nstderr:\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BINARY} ${FLAG} ${VALUE}: stderr does not name "
                      "${FLAG}:\n${err}")
endif()
