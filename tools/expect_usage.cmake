# Runs the command after "--" and passes only if it exits 2 (usage error)
# with the usage text on stdout or stderr:
#
#   cmake -P expect_usage.cmake -- <program> [args...]
#
# ctest's PASS_REGULAR_EXPRESSION alone would ignore the exit code.
set(cmd)
set(seen_dashes OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(seen_dashes ON)
  endif()
endforeach()
if(NOT cmd)
  message(FATAL_ERROR "usage: cmake -P expect_usage.cmake -- <program> [args...]")
endif()

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc STREQUAL "2" OR NOT out MATCHES "usage:")
  message(FATAL_ERROR "expected exit 2 with the usage text, got exit ${rc}:\n${out}")
endif()
