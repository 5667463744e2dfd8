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

Execution::Execution(std::vector<Program> programs, std::vector<Value> inputs,
                     ExecutionOptions options)
    : n_(static_cast<int>(programs.size())),
      programs_(std::move(programs)),
      inputs_(std::move(inputs)),
      options_(std::move(options)),
      decisions_(static_cast<std::size_t>(n_)),
      sub_counters_(static_cast<std::size_t>(n_), 1) {
  if (inputs_.size() != static_cast<std::size_t>(n_)) {
    throw ProtocolError("inputs size must match program count");
  }
  if (options_.mode == SchedulerMode::kLockstep) {
    std::shared_ptr<SchedulePolicy> policy = options_.schedule_policy;
    if (!policy) policy = std::make_shared<SeededRandomPolicy>(options_.seed);
    controller_ = std::make_unique<LockstepController>(options_.step_limit,
                                                       std::move(policy));
    if (options_.record_schedule) controller_->enable_grant_trace();
  } else {
    controller_ = std::make_unique<FreeController>(options_.step_limit);
  }
  crash_mgr_ = std::make_unique<CrashManager>(n_, options_.crashes);
  if (options_.mode == SchedulerMode::kLockstep &&
      options_.crashes.is_explored()) {
    // Explored crashes: the schedule adversary doubles as the crash
    // adversary. The manager outlives the controller's last grant (both
    // are owned here and torn down after run()).
    static_cast<LockstepController*>(controller_.get())
        ->set_crash_director(crash_mgr_.get());
  }
}

Execution::~Execution() = default;

void Execution::record_decision(ProcessId pid, const Value& v) {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (!decisions_[static_cast<std::size_t>(pid)].has_value()) {
      decisions_[static_cast<std::size_t>(pid)] = v;
    }
  }
  maybe_stop_all_correct_decided();
}

void Execution::note_crash(ProcessId) { maybe_stop_all_correct_decided(); }

void Execution::maybe_stop_all_correct_decided() {
  if (!options_.stop_when_all_correct_decided ||
      controller_->stop_requested()) {
    return;
  }
  std::lock_guard<std::mutex> lk(m_);
  for (ProcessId pid = 0; pid < n_; ++pid) {
    if (!decisions_[static_cast<std::size_t>(pid)].has_value() &&
        !crash_mgr_->is_crashed(pid)) {
      return;
    }
  }
  controller_->request_stop();
}

bool Execution::has_decision(ProcessId pid) const {
  std::lock_guard<std::mutex> lk(m_);
  return decisions_[static_cast<std::size_t>(pid)].has_value();
}

Value Execution::input_of(ProcessId pid) const {
  return inputs_[static_cast<std::size_t>(pid)];
}

int Execution::next_sub(ProcessId pid) {
  std::lock_guard<std::mutex> lk(m_);
  return sub_counters_[static_cast<std::size_t>(pid)]++;
}

void Execution::run_process(ProcessContext& ctx) {
  try {
    programs_[static_cast<std::size_t>(ctx.pid())](ctx);
  } catch (const ProcessCrashed&) {
    // The crash event: the process simply stops taking steps.
  } catch (const SimulationHalted&) {
    // Run ended under this process.
  } catch (...) {
    std::lock_guard<std::mutex> lk(m_);
    if (!error_) error_ = std::current_exception();
    controller_->request_stop();
  }
}

Outcome Execution::run() {
  {
    std::lock_guard<std::mutex> lk(m_);
    if (ran_) throw ProtocolError("Execution::run is single-use");
    ran_ = true;
  }

  std::vector<std::unique_ptr<ProcessContext>> contexts;
  contexts.reserve(static_cast<std::size_t>(n_));
  for (ProcessId pid = 0; pid < n_; ++pid) {
    contexts.push_back(
        std::make_unique<ProcessContext>(ThreadId{pid, 0}, this));
    ProcessContext* ctx = contexts.back().get();
    controller_->spawn(ctx->tid(), [this, ctx] { run_process(*ctx); });
  }
  // Completion is event-driven: the all-correct-decided stop is requested
  // on-token from decision and crash events, and the controller returns
  // once every process has finished (or stops the run at the deadline).
  controller_->run(std::chrono::steady_clock::now() + options_.wall_limit);

  if (error_) std::rethrow_exception(error_);
  if (auto* lockstep = dynamic_cast<LockstepController*>(controller_.get())) {
    if (!lockstep->policy_error().empty()) {
      throw ProtocolError(lockstep->policy_error());
    }
  }

  Outcome out;
  out.decisions = decisions_;
  out.crashed = crash_mgr_->crashed_vector();
  out.timed_out = controller_->timed_out();
  out.steps = controller_->steps();
  return out;
}

Outcome run_execution(std::vector<Program> programs, std::vector<Value> inputs,
                      ExecutionOptions options) {
  Execution e(std::move(programs), std::move(inputs), std::move(options));
  return e.run();
}

}  // namespace mpcn
