# Usage-error check for the command-line tools:
#
#   cmake -DEXPECT=<regex> -P tests/cli_expect.cmake <tool> <args>...
#
# Runs the tool and requires exit status 2 and a stderr of exactly two
# lines: a message matching EXPECT, then the subcommand's "usage:" line.
set(command)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if("${CMAKE_ARGV${i}}" STREQUAL "-P" AND NOT DEFINED first)
    math(EXPR first "${i} + 2")  # the tool follows the script path
  elseif(DEFINED first AND i GREATER_EQUAL first)
    list(APPEND command "${CMAKE_ARGV${i}}")
  endif()
endforeach()

execute_process(COMMAND ${command} RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "exit status ${rc}, expected 2:\n${err}")
endif()
if(NOT err MATCHES "^([^\n]*)\nusage: [^\n]*\n$")
  message(FATAL_ERROR "expected a message and one usage line, got:\n${err}")
endif()
if(NOT CMAKE_MATCH_1 MATCHES "${EXPECT}")
  message(FATAL_ERROR "message does not match \"${EXPECT}\":\n${err}")
endif()
