# The --events flight-recorder schema, end to end through the CLI: a
# sharded `mpcn explore` over three forked workers and a sharded `mpcn
# run` over two, both streaming heartbeats, must each write a log that
# tools/validate_events.py accepts with every worker's spawn -> dispatch
# -> shutdown lifeline.
#
#   cmake -DMPCN=<mpcn binary> -DPYTHON=<python3> -DVALIDATOR=<script>
#         -DOUT=<log path prefix> -P events_schema.cmake
foreach(var MPCN PYTHON VALIDATOR OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "events_schema.cmake needs -D${var}=...")
  endif()
endforeach()

function(check_events name workers)
  set(log "${OUT}_${name}.jsonl")
  file(REMOVE "${log}")
  execute_process(COMMAND "${MPCN}" ${ARGN} --telemetry-ms 25
                          --events "${log}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mpcn ${name} exited ${rc}")
  endif()
  execute_process(COMMAND "${PYTHON}" "${VALIDATOR}" "${log}"
                          --expect-workers ${workers}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${log} does not validate")
  endif()
endfunction()

check_events(explore 3
  explore snapshot_churn --in 3,0,1 --inputs 10,11,12 --budget 12
  --seed 1 --shards 3)
check_events(run 2
  run snapshot_churn --in 3,0,1 --inputs 10,11,12 --seeds 1..4
  --shards 2 --fork-workers --no-timing)
