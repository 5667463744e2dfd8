# The streaming-telemetry smoke: the cross-process health layer end to end
# through the CLI and its forked workers. A sharded explore with every
# sidecar on (streaming heartbeats, merged trace, flight recorder, health
# table) must write a report byte-identical to the all-off run; the
# merged trace must carry the coordinator and all 3 workers under
# distinct pids, with cell_index args, sorted; every worker must
# heartbeat at least once. A worker SIGSTOPped holding a job must be
# written off by heartbeat age with its job requeued, report bytes still
# identical, and `mpcn events` must summarize that log's requeue chain.
#
#   cmake -DMPCN=<mpcn binary> -DPYTHON=<python3> -DOUT=<file prefix>
#         -P telemetry_smoke.cmake
foreach(var MPCN PYTHON OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "telemetry_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

set(explore explore snapshot_churn --in 3,0,1 --inputs 10,11,12 --budget 12
    --seed 1 --shards 3)

# Runs a command and fails the test unless it exits 0.
function(run what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${what} exited ${rc}")
  endif()
endfunction()

function(same_report a b)
  run("cmp ${a} ${b}" "${CMAKE_COMMAND}" -E compare_files
      "${OUT}_${a}.json" "${OUT}_${b}.json")
endfunction()

# Runs a Python check script on `files` (sys.argv[1:]).
function(check what script)
  run("${what} check" "${PYTHON}" -c "${script}" ${ARGN})
endfunction()

file(REMOVE "${OUT}_events.jsonl" "${OUT}_stop_events.jsonl")

run("plain explore" "${MPCN}" ${explore} --json "${OUT}_plain.json")
run("streamed explore" "${MPCN}" ${explore} --json "${OUT}_on.json"
    --telemetry-ms 25 --trace "${OUT}_trace.json"
    --events "${OUT}_events.jsonl" --metrics "${OUT}_metrics.json"
    --health "${OUT}_health.json")
same_report(plain on)
run("mpcn events" "${MPCN}" events "${OUT}_events.jsonl")
check(streaming [=[
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
meta = {e["pid"]: e["args"]["name"] for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"}
xs = [e for e in events if e.get("ph") == "X"]
pids = {e["pid"] for e in xs}
assert meta[1] == "coordinator", meta
assert {2, 3, 4} <= set(meta) and {2, 3, 4} <= pids, (meta, pids)
cells = [e for e in xs if e["name"] in ("shard.cell", "worker.cell")]
assert cells and all("cell_index" in c["args"] for c in cells)
ts = [e["ts"] for e in xs]
assert ts == sorted(ts), "merged trace not sorted"
health = json.load(open(sys.argv[2]))
assert len(health) == 3, health
for h in health:
    assert h["heartbeats"] >= 1, h  # >= 1 telemetry msg each
    assert not h["written_off"], h
print("streaming ok:", len(xs), "spans,",
      sum(h["heartbeats"] for h in health), "heartbeats")
]=] "${OUT}_trace.json" "${OUT}_health.json")

# SIGSTOP fault: slot 0 freezes on receiving its first job, before serving
# it. Every worker is dispatched one job at the start, so the freeze is
# certain, and the job's watchdog deadline (its 120 s wall limit plus
# grace) leaves heartbeat age as the only detector: the write-off and the
# job's requeue always happen.
run("stopped-worker explore" "${CMAKE_COMMAND}" -E env
    MPCN_WORKER_STOP_AFTER=1,0,0 "${MPCN}" ${explore}
    --json "${OUT}_stop.json" --telemetry-ms 25 --stale-ms 500
    --events "${OUT}_stop_events.jsonl" --health "${OUT}_stop_health.json")
same_report(plain stop)
check(write-off [=[
import json, sys
health = json.load(open(sys.argv[1]))
stopped = health[0]
assert stopped["written_off"], stopped
assert stopped["write_off_reason"] == "heartbeat stale", stopped
events = [json.loads(l) for l in open(sys.argv[2])]
gaps = [e for e in events if e["type"] == "heartbeat_gap"]
assert any(e["slot"] == 0 for e in gaps), events
requeues = [e for e in events if e["type"] == "cell_requeue"]
assert requeues, events
print("write-off ok:", stopped["write_off_reason"], "-",
      len(requeues), "cell(s) requeued")
]=] "${OUT}_stop_health.json" "${OUT}_stop_events.jsonl")

# The summarizer digests the churny log and reports the chain.
run("mpcn events --json" "${MPCN}" events "${OUT}_stop_events.jsonl" --json
    OUTPUT_FILE "${OUT}_events_summary.json")
check(summary [=[
import json, sys
s = json.load(open(sys.argv[1]))
assert s["events"] >= 1 and s["malformed"] == 0, s
assert s["counts"].get("worker_spawn", 0) == 3, s["counts"]
assert s["requeue_chains"], s
print("events summary ok:", s["counts"])
]=] "${OUT}_events_summary.json")
