# `mpcn run --shards` through the built CLI and its own exec-mode
# `mpcn worker` subprocesses: the grid's --no-timing report must be
# byte-identical to the in-process run of the same grid.
#
#   cmake -DMPCN=<mpcn binary> -DOUT=<report path prefix>
#         -P cli_exec_shards.cmake
foreach(var MPCN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_exec_shards.cmake needs -D${var}=...")
  endif()
endforeach()

function(run_grid name)
  set(report "${OUT}_${name}.json")
  file(REMOVE "${report}")
  execute_process(COMMAND "${MPCN}" run snapshot_churn --in 3,0,1
                          --seeds 1..4 --no-timing --json "${report}" ${ARGN}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mpcn run (${name}) exited ${rc}")
  endif()
endfunction()

run_grid(local)
run_grid(sharded --shards 2)
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUT}_local.json" "${OUT}_sharded.json"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the exec-sharded report differs from the in-process one")
endif()
