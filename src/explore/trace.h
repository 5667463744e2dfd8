// ScheduleTrace: the serializable form of one lock-step grant schedule,
// and ScheduleSpec: the declarative, wire-safe description of a schedule
// policy.
//
// A lock-step run's schedule is fully determined by its grant trace —
// the sequence of ThreadIds the controller handed the step token to
// (step_controller.h). ScheduleTrace captures that sequence, JSON
// round-trips it (src/common/json), and digests it into a stable 64-bit
// fingerprint so RunRecords can carry a schedule identity without the
// full trace.
//
// ScheduleSpec names a policy by kind plus its parameters, which is what
// lets explore cells cross the shard wire (src/dist/): a worker rebuilds
// the exact policy from the spec, the same way it rebuilds algorithms
// from registry names. Bounded DFS is the exception — its state is the
// search tree accumulated across runs, so it is in-process only and has
// no spec kind.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/json.h"

namespace mpcn {

struct ScheduleTrace {
  std::vector<ThreadId> grants;
  // Grant indices at which the crash adversary crashed the granted thread
  // (ascending; explored crash plans only). A trace with no crashes
  // serializes and digests exactly as it did before crashes existed, so
  // pre-crash trace bytes and digests are stable.
  std::vector<std::uint64_t> crashes;

  std::size_t size() const { return grants.size(); }
  bool empty() const { return grants.empty(); }

  bool operator==(const ScheduleTrace& o) const {
    return grants == o.grants && crashes == o.crashes;
  }
  bool operator!=(const ScheduleTrace& o) const { return !(*this == o); }

  // Stable FNV-1a 64 fingerprint over the (pid, sub) stream, as 16 hex
  // digits. Equal traces digest equal on every platform; used as the
  // RunRecord schedule identity and the explorer's dedup key. Crash marks
  // are mixed in only when present, so crash-free digests are unchanged.
  // A word below 256 is mixed in one multiply, with the same result as
  // its four bytes one at a time.
  std::string digest() const;

  // {"grants":[[pid,sub],...]} — compact, order-preserving; a "crashes"
  // index array is added only when crashes were recorded.
  Json to_json() const;
  static ScheduleTrace from_json(const Json& j);  // throws JsonError/ProtocolError
};

// Which grant policy a cell runs under (policies live in
// src/explore/policy.h). kDefault means no policy object: the run gets
// the runtime's default, SeededRandomPolicy at the cell's seed.
enum class SchedulePolicyKind { kDefault, kSeededRandom, kScripted, kPct };

const char* to_string(SchedulePolicyKind kind);
SchedulePolicyKind schedule_policy_kind_from_string(const std::string& s);

struct ScheduleSpec {
  SchedulePolicyKind kind = SchedulePolicyKind::kDefault;
  // kSeededRandom / kPct: the policy's own seed. 0 = inherit the cell's
  // execution seed (so `schedule.seed` only needs setting when the
  // schedule axis must vary independently of the cell seed).
  std::uint64_t seed = 0;
  // kPct: number of priority change points is depth - 1 (depth d gives
  // the classic PCT guarantee for bug depth d).
  int pct_depth = 3;
  // kPct: schedule horizon k — change points are drawn uniformly from
  // [1, horizon). 0 = the cell's step limit (usually far too sparse;
  // the explorer probes a realistic horizon before fanning out).
  std::uint64_t pct_horizon = 0;
  // kScripted: the trace to replay.
  std::shared_ptr<const ScheduleTrace> script;

  bool is_default() const { return kind == SchedulePolicyKind::kDefault; }

  Json to_json() const;
  static ScheduleSpec from_json(const Json& j);

  // Field-wise equality (script compared by content).
  bool operator==(const ScheduleSpec& o) const;
  bool operator!=(const ScheduleSpec& o) const { return !(*this == o); }
};

}  // namespace mpcn
