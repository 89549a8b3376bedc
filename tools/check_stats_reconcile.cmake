# Runs one `sitam` command with --json and --metrics-out, then checks that
# the evaluation total the command prints equals the run's
# tam.evaluator.evaluations counter.
#
#   cmake -DSITAM=<path to sitam> -DMETRICS=<scratch metrics file>
#         -DARGS=<;-separated command and flags> -P check_stats_reconcile.cmake
foreach(var SITAM METRICS ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_stats_reconcile: -D${var}= is required")
  endif()
endforeach()

list(JOIN ARGS " " shown)
file(REMOVE ${METRICS})
execute_process(
  COMMAND ${SITAM} ${ARGS} --json --metrics-out=${METRICS}
  OUTPUT_VARIABLE printed
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "sitam ${shown} exited with ${status}")
endif()
file(READ ${METRICS} metrics)

string(JSON cli_total GET "${printed}" evaluations)
string(JSON counter GET "${metrics}" counters tam.evaluator.evaluations)
if(NOT cli_total EQUAL counter)
  message(FATAL_ERROR "sitam ${shown} printed ${cli_total} evaluations but "
                      "the tam.evaluator.evaluations counter reads ${counter}")
endif()
message(STATUS "sitam ${shown}: ${cli_total} evaluations, counter agrees")
