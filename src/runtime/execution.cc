#include "src/runtime/execution.h"

#include "src/common/errors.h"

namespace mpcn {

int Outcome::decided_count() const {
  int c = 0;
  for (const auto& d : decisions) c += d.has_value() ? 1 : 0;
  return c;
}

bool Outcome::all_correct_decided() const {
  for (std::size_t j = 0; j < decisions.size(); ++j) {
    if (!crashed[j] && !decisions[j].has_value()) return false;
  }
  return true;
}

std::set<Value> Outcome::distinct_decisions() const {
  std::set<Value> s;
  for (const auto& d : decisions) {
    if (d) s.insert(*d);
  }
  return s;
}

namespace {

std::shared_ptr<SchedulePolicy> policy_of(const ExecutionOptions& options) {
  if (options.schedule_policy) return options.schedule_policy;
  return std::make_shared<SeededRandomPolicy>(options.seed);
}

}  // namespace

Execution::Execution(std::vector<Program> programs, std::vector<Value> inputs,
                     ExecutionOptions options)
    : n_(static_cast<int>(programs.size())),
      programs_(std::move(programs)),
      inputs_(std::move(inputs)),
      options_(std::move(options)),
      crash_mgr_(n_, options_.crashes),
      controller_(options_.step_limit, policy_of(options_)),
      decisions_(static_cast<std::size_t>(n_)),
      sub_counters_(static_cast<std::size_t>(n_), 1) {
  if (inputs_.size() != static_cast<std::size_t>(n_)) {
    throw ProtocolError("inputs size must match program count");
  }
  if (options_.record_schedule) controller_.enable_grant_trace();
  // Explored crashes: the schedule adversary doubles as the crash
  // adversary.
  if (options_.crashes.is_explored()) {
    controller_.set_crash_director(&crash_mgr_);
  }
}

Execution::~Execution() = default;

void Execution::record_decision(ProcessId pid, const Value& v) {
  if (!decisions_[static_cast<std::size_t>(pid)].has_value()) {
    decisions_[static_cast<std::size_t>(pid)] = v;
  }
  maybe_stop_all_correct_decided();
}

void Execution::maybe_stop_all_correct_decided() {
  if (!options_.stop_when_all_correct_decided ||
      controller_.stop_requested()) {
    return;
  }
  for (ProcessId pid = 0; pid < n_; ++pid) {
    if (!decisions_[static_cast<std::size_t>(pid)].has_value() &&
        !crash_mgr_.is_crashed(pid)) {
      return;
    }
  }
  controller_.request_stop();
}

bool Execution::has_decision(ProcessId pid) const {
  return decisions_[static_cast<std::size_t>(pid)].has_value();
}

Value Execution::input_of(ProcessId pid) const {
  return inputs_[static_cast<std::size_t>(pid)];
}

int Execution::next_sub(ProcessId pid) {
  return sub_counters_[static_cast<std::size_t>(pid)]++;
}

void Execution::run_process(ProcessContext& ctx) {
  try {
    programs_[static_cast<std::size_t>(ctx.pid())](ctx);
  } catch (const ProcessCrashed&) {
    // The crash event: the process simply stops taking steps.
    controller_.note_crash_unwind();
  } catch (const SimulationHalted&) {
    // Run ended under this process.
    controller_.note_halt_unwind();
  } catch (...) {
    if (!error_) error_ = std::current_exception();
    controller_.request_stop();
  }
}

Outcome Execution::run() {
  if (ran_) throw ProtocolError("Execution::run is single-use");
  ran_ = true;

  for (ProcessId pid = 0; pid < n_; ++pid) {
    controller_.spawn(ThreadId{pid, 0}, *this,
                      [this](ProcessContext& ctx) { run_process(ctx); });
  }
  // Completion is event-driven: the all-correct-decided stop is requested
  // on-token from decision and crash events, and the controller returns
  // once every process has finished (or stops the run at the deadline).
  controller_.run(std::chrono::steady_clock::now() + options_.wall_limit);

  if (error_) std::rethrow_exception(error_);
  if (!controller_.policy_error().empty()) {
    throw ProtocolError(controller_.policy_error());
  }

  Outcome out;
  out.decisions = std::move(decisions_);  // run() is single use
  out.crashed = crash_mgr_.crashed_vector();
  out.timed_out = controller_.timed_out();
  out.steps = controller_.steps();
  return out;
}

Outcome run_execution(std::vector<Program> programs, std::vector<Value> inputs,
                      ExecutionOptions options) {
  Execution e(std::move(programs), std::move(inputs), std::move(options));
  return e.run();
}

}  // namespace mpcn
