// Execution: runs one distributed algorithm in one system model.
//
// An algorithm is a vector of Programs, one per process p_0..p_{n-1}
// (the paper's p_1..p_n). The harness starts one thread of control per
// process through the step controller — a fiber on the calling thread
// under lock-step, an OS thread in free mode — wires each to the crash
// adversary, and collects the decision vector O (Section 2.1).
//
// Termination detection: the run ends when (a) every process has
// returned (decided, crashed, or halted), with an early global stop once
// every non-crashed process has decided — the liveness contract of a
// t-resilient algorithm in a legal run — or (b) the step budget / wall
// clock is exhausted, in which case the outcome is flagged timed_out.
// Timed-out runs are first-class results: they are how impossibility
// demonstrations report "this model cannot solve this task" empirically.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "src/common/value.h"
#include "src/runtime/crash_plan.h"
#include "src/runtime/process_context.h"
#include "src/runtime/step_controller.h"

namespace mpcn {

using Program = std::function<void(ProcessContext&)>;

struct ExecutionOptions {
  SchedulerMode mode = SchedulerMode::kLockstep;
  std::uint64_t seed = 1;
  std::uint64_t step_limit = 1'000'000;
  std::chrono::milliseconds wall_limit{120'000};
  CrashPlan crashes = CrashPlan::none();
  // Stop the run once all non-crashed processes decided (normal case).
  bool stop_when_all_correct_decided = true;
  // Lock-step only: the adversary that picks every grant
  // (schedule_policy.h; the explorer's policies are in src/explore/).
  // Null runs SeededRandomPolicy(seed).
  std::shared_ptr<SchedulePolicy> schedule_policy;
  // Lock-step only: capture the grant trace (one ThreadId per step) so
  // the schedule can be digested, recorded and replayed.
  bool record_schedule = false;
};

struct Outcome {
  std::vector<std::optional<Value>> decisions;  // O[j], per process
  std::vector<bool> crashed;
  bool timed_out = false;
  std::uint64_t steps = 0;

  int decided_count() const;
  // Every process that did not crash decided (the t-resilient liveness
  // obligation for legal runs).
  bool all_correct_decided() const;
  std::set<Value> distinct_decisions() const;
};

class Execution : public ExecutionBackend {
 public:
  Execution(std::vector<Program> programs, std::vector<Value> inputs,
            ExecutionOptions options);
  ~Execution() override;

  // Runs to completion; single use.
  Outcome run();

  // ExecutionBackend:
  StepController& controller() override { return *controller_; }
  CrashManager& crashes() override { return *crash_mgr_; }
  void record_decision(ProcessId pid, const Value& v) override;
  bool has_decision(ProcessId pid) const override;
  Value input_of(ProcessId pid) const override;
  int next_sub(ProcessId pid) override;
  void note_crash(ProcessId pid) override;

 private:
  // Requests the global stop if every non-crashed process has decided.
  // Called from on-token contexts (decision recording, crash events) so
  // the stop lands at a deterministic schedule point.
  void maybe_stop_all_correct_decided();
  // One process's thread of control: its program, with crash and halt
  // unwinding absorbed and any other exception latched into error_.
  void run_process(ProcessContext& ctx);

  const int n_;
  std::vector<Program> programs_;
  std::vector<Value> inputs_;
  ExecutionOptions options_;
  std::unique_ptr<StepController> controller_;
  std::unique_ptr<CrashManager> crash_mgr_;

  mutable std::mutex m_;  // free-mode processes share the fields below
  std::vector<std::optional<Value>> decisions_;
  std::vector<int> sub_counters_;
  std::exception_ptr error_;
  bool ran_ = false;
};

// Convenience: run `programs` with `inputs` under `options`.
Outcome run_execution(std::vector<Program> programs, std::vector<Value> inputs,
                      ExecutionOptions options);

}  // namespace mpcn
