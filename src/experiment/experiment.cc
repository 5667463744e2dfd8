#include "src/experiment/experiment.h"

#include <chrono>
#include <map>
#include <utility>

#include "src/common/errors.h"
#include "src/core/colored_engine.h"
#include "src/experiment/batch_runner.h"
#include "src/experiment/registry.h"
#include "src/explore/policy.h"
#include "src/history/history.h"
#include "src/objects/x_consensus.h"
#include "src/snapshot/afek_snapshot.h"
#include "src/snapshot/primitive_snapshot.h"

namespace mpcn {

// ------------------------------------------------------- direct programs

namespace {

// Shared objects of a native run of A in its own model.
struct DirectWorld {
  DirectWorld(const SimulatedAlgorithm& a, MemKind mem_kind)
      : mem(mem_kind == MemKind::kAfek
                ? std::shared_ptr<SnapshotObject>(
                      std::make_shared<AfekSnapshot>(
                          a.n(), /*check_ownership=*/true))
                : std::make_shared<PrimitiveSnapshot>(
                      a.n(), /*check_ownership=*/true)) {
    for (const XConsDecl& d : a.xcons) {
      xcons.emplace(d.name, std::make_shared<XConsensus>(d.ports.begin(),
                                                         d.ports.end()));
    }
  }
  std::shared_ptr<SnapshotObject> mem;
  std::map<std::string, std::shared_ptr<XConsensus>> xcons;
};

class DirectSimContext : public SimContext {
 public:
  DirectSimContext(std::shared_ptr<DirectWorld> world, int n,
                   ProcessContext& ctx, Value input,
                   std::shared_ptr<HistoryRecorder> history)
      : world_(std::move(world)),
        n_(n),
        ctx_(ctx),
        input_(std::move(input)),
        history_(std::move(history)) {}

  int id() const override { return ctx_.pid(); }
  int n() const override { return n_; }
  Value input() const override { return input_; }

  void write(const Value& v) override {
    const std::uint64_t invoke = history_ ? step_clock() : 0;
    world_->mem->write(ctx_, ctx_.pid(), v);
    if (history_) {
      history_->record(Event{ctx_.tid(), EventOp::kWrite, ctx_.pid(), v, {},
                             invoke, step_clock()});
    }
  }
  std::vector<Value> snapshot() override {
    const std::uint64_t invoke = history_ ? step_clock() : 0;
    std::vector<Value> view = world_->mem->snapshot(ctx_);
    if (history_) {
      history_->record(Event{ctx_.tid(), EventOp::kSnapshot, -1, Value(), view,
                             invoke, step_clock()});
    }
    return view;
  }
  Value x_cons_propose(const std::string& name, const Value& v) override {
    auto it = world_->xcons.find(name);
    if (it == world_->xcons.end()) {
      throw ProtocolError("undeclared x_cons object: " + name);
    }
    return it->second->propose(ctx_, v);
  }
  void decide(const Value& v) override { ctx_.decide(v); }
  bool has_decided() const override { return ctx_.has_decided(); }

 private:
  std::uint64_t step_clock() const {
    return ctx_.backend().controller().steps();
  }

  std::shared_ptr<DirectWorld> world_;
  const int n_;
  ProcessContext& ctx_;
  Value input_;
  std::shared_ptr<HistoryRecorder> history_;
};

}  // namespace

std::vector<Program> make_direct_programs(
    const SimulatedAlgorithm& algorithm, MemKind mem,
    std::shared_ptr<HistoryRecorder> history) {
  algorithm.validate();
  auto world = std::make_shared<DirectWorld>(algorithm, mem);
  const int n = algorithm.n();
  std::vector<Program> programs;
  programs.reserve(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    SimProgram prog = algorithm.programs[static_cast<std::size_t>(j)];
    const std::optional<std::vector<Value>>& stat = algorithm.static_inputs;
    Value static_input =
        stat ? (*stat)[static_cast<std::size_t>(j)] : Value::nil();
    const bool use_static = stat.has_value();
    programs.push_back([world, n, prog, static_input, use_static,
                        history](ProcessContext& ctx) {
      DirectSimContext sc(world, n, ctx,
                          use_static ? static_input : ctx.input(), history);
      prog(sc);
    });
  }
  return programs;
}

// ----------------------------------------------------------- cell runner

namespace {

// The record's identity fields, shared by the success and error paths so
// they cannot drift apart.
RunRecord init_record(const ExperimentCell& cell) {
  RunRecord rec;
  rec.scenario = cell.scenario;
  rec.cell_index = cell.cell_index;
  rec.mode = cell.mode;
  rec.source = cell.algorithm ? cell.algorithm->model : ModelSpec{};
  rec.target = cell.target;
  rec.hop_index = cell.hop_index;
  rec.seed = cell.options.seed;
  rec.mem = cell.mem;
  rec.inputs = cell.inputs;
  if (cell.task) rec.task = cell.task->name();
  return rec;
}

}  // namespace

RunRecord run_cell_throwing(const ExperimentCell& cell) {
  if (!cell.algorithm) {
    throw ProtocolError("ExperimentCell has no algorithm");
  }
  const SimulatedAlgorithm& algo = *cell.algorithm;

  RunRecord rec = init_record(cell);

  std::shared_ptr<HistoryRecorder> history = cell.history;
  if (cell.check_races) {
    if (cell.mode != ExecutionMode::kDirect) {
      throw ProtocolError(
          "check_races observes direct-mode memory histories; engine "
          "modes funnel operations through agreement protocols");
    }
    if (!history) history = std::make_shared<HistoryRecorder>();
  }

  std::vector<Program> programs;
  switch (cell.mode) {
    case ExecutionMode::kDirect:
      programs = make_direct_programs(algo, cell.mem, history);
      break;
    case ExecutionMode::kSimulated: {
      SimulationOptions so;
      so.check_legality = cell.check_legality;
      so.mem = cell.mem;
      programs = make_simulation(algo, cell.target, so);
      break;
    }
    case ExecutionMode::kColored: {
      ColoredSimulationOptions co;
      co.check_legality = cell.check_legality;
      co.mem = cell.mem;
      programs = make_colored_simulation(algo, cell.target, co);
      break;
    }
    case ExecutionMode::kChain:
      throw ProtocolError(
          "kChain cells are expanded at Experiment::cells() time and never "
          "executed directly");
  }

  ExecutionOptions options = cell.options;
  if (!options.schedule_policy) {
    options.schedule_policy = make_policy(cell.schedule, options.seed);
  }
  // The race oracle needs the grant trace even when the caller did not
  // ask for schedule fields in the record; capturing it is observation
  // only and cannot perturb the schedule.
  options.record_schedule = cell.record_schedule || cell.check_races;

  const auto start = std::chrono::steady_clock::now();
  Execution exec(std::move(programs), cell.inputs, options);
  Outcome out = exec.run();
  rec.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  // One copy of the controller's grant vector: the race oracle reads it,
  // then the record takes it.
  ScheduleTrace grants;
  if (options.record_schedule) {
    grants.grants = exec.controller().grant_trace();
    grants.crashes = exec.controller().crash_marks();
  }
  if (cell.record_schedule) rec.schedule_digest = grants.digest();
  if (cell.check_races) {
    rec.races_checked = true;
    rec.race_reports =
        find_races(history->events(), grants, rec.schedule_digest);
  }
  if (cell.record_schedule) {
    rec.schedule_trace = std::make_shared<ScheduleTrace>(std::move(grants));
  }
  // Crash reproducibility: the effective plan plus the crashes the run
  // realized, so any crashing run replays exactly from its report.
  rec.crash_plan = options.crashes;
  rec.crash_points = exec.crashes().realized();
  rec.decisions = std::move(out.decisions);
  rec.crashed = std::move(out.crashed);
  rec.timed_out = out.timed_out;
  rec.steps = out.steps;

  if (cell.task) {
    rec.validated = true;
    rec.valid = cell.task->validate(rec.inputs, rec.decisions, &rec.why);
    if (rec.valid) rec.why.clear();
  }
  return rec;
}

RunRecord run_cell(const ExperimentCell& cell) {
  try {
    return run_cell_throwing(cell);
  } catch (const std::exception& e) {
    RunRecord rec = init_record(cell);
    rec.error = e.what();
    return rec;
  }
}

// -------------------------------------------------------------- builder

Experiment Experiment::of(SimulatedAlgorithm algorithm) {
  algorithm.validate();
  Experiment e;
  e.algorithm_ =
      std::make_shared<const SimulatedAlgorithm>(std::move(algorithm));
  return e;
}

Experiment Experiment::named(const std::string& scenario,
                             const ModelSpec& source) {
  const Scenario& s = find_scenario(scenario);
  Experiment e = Experiment::of(s.make_algorithm(source));
  e.scenario_ = s.name;
  e.colored_ = s.colored;
  if (s.make_task) e.task_ = s.make_task(source);
  return e;
}

Experiment& Experiment::direct() {
  targets_.push_back(TargetSpec{ExecutionMode::kDirect, algorithm_->model});
  return *this;
}

Experiment& Experiment::in(const ModelSpec& target) {
  targets_.push_back(TargetSpec{
      colored_ ? ExecutionMode::kColored : ExecutionMode::kSimulated,
      target});
  return *this;
}

Experiment& Experiment::in_each(const std::vector<ModelSpec>& targets) {
  for (const ModelSpec& m : targets) in(m);
  return *this;
}

Experiment& Experiment::colored_in(const ModelSpec& target) {
  targets_.push_back(TargetSpec{ExecutionMode::kColored, target});
  return *this;
}

Experiment& Experiment::through_chain_to(const ModelSpec& other) {
  targets_.push_back(TargetSpec{ExecutionMode::kChain, other});
  return *this;
}

Experiment& Experiment::with_task(
    std::shared_ptr<const ColorlessTask> task) {
  task_ = std::move(task);
  return *this;
}

Experiment& Experiment::inputs(std::vector<Value> exact) {
  inputs_fn_ = [exact = std::move(exact)](const ModelSpec& m) {
    if (static_cast<int>(exact.size()) != m.n) {
      throw ProtocolError(
          "Experiment::inputs: exact inputs have size " +
          std::to_string(exact.size()) + " but cell model " + m.to_string() +
          " needs " + std::to_string(m.n) +
          " (use input_pool() for mixed-size grids)");
    }
    return exact;
  };
  return *this;
}

Experiment& Experiment::input_pool(std::vector<Value> pool) {
  if (pool.empty()) {
    throw ProtocolError("Experiment::input_pool: pool must be non-empty");
  }
  inputs_fn_ = [pool = std::move(pool)](const ModelSpec& m) {
    std::vector<Value> in;
    in.reserve(static_cast<std::size_t>(m.n));
    for (int i = 0; i < m.n; ++i) {
      in.push_back(pool[static_cast<std::size_t>(i) % pool.size()]);
    }
    return in;
  };
  return *this;
}

Experiment& Experiment::inputs_fn(
    std::function<std::vector<Value>(const ModelSpec&)> fn) {
  inputs_fn_ = std::move(fn);
  return *this;
}

Experiment& Experiment::seed(std::uint64_t s) { return seeds(s, s); }

Experiment& Experiment::seeds(std::uint64_t lo, std::uint64_t hi) {
  if (hi < lo) {
    throw ProtocolError("Experiment::seeds: need lo <= hi");
  }
  seed_lo_ = lo;
  seed_hi_ = hi;
  seed_set_ = true;
  seed_list_.clear();  // last seed-axis call wins, like the other axes
  return *this;
}

Experiment& Experiment::seed_list(std::vector<std::uint64_t> seeds) {
  if (seeds.empty()) {
    throw ProtocolError("Experiment::seed_list: need at least one seed");
  }
  seed_list_ = std::move(seeds);
  seed_set_ = true;
  return *this;
}

Experiment& Experiment::mem(MemKind kind) {
  mems_ = {kind};
  return *this;
}

Experiment& Experiment::mems(std::vector<MemKind> kinds) {
  if (kinds.empty()) {
    throw ProtocolError("Experiment::mems: need at least one backend");
  }
  mems_ = std::move(kinds);
  return *this;
}

Experiment& Experiment::crashes(CrashPlan plan) {
  crash_fn_ = [plan = std::move(plan)](const ModelSpec&, std::uint64_t) {
    return plan;
  };
  return *this;
}

Experiment& Experiment::crashes(CrashPlanFactory plan_fn) {
  crash_fn_ = std::move(plan_fn);
  return *this;
}

Experiment& Experiment::step_limit(std::uint64_t limit) {
  base_.step_limit = limit;
  return *this;
}

Experiment& Experiment::wall_limit(std::chrono::milliseconds limit) {
  base_.wall_limit = limit;
  return *this;
}

Experiment& Experiment::base_options(const ExecutionOptions& options) {
  const bool keep_seed_axis = seed_set_;
  base_ = options;
  if (!keep_seed_axis) {
    seed_lo_ = seed_hi_ = options.seed;
  }
  return *this;
}

Experiment& Experiment::check_legality(bool check) {
  check_legality_ = check;
  return *this;
}

Experiment& Experiment::label(std::string scenario_label) {
  scenario_ = std::move(scenario_label);
  return *this;
}

std::vector<ExperimentCell> Experiment::cells() const {
  if (!algorithm_) {
    throw ProtocolError("Experiment: no algorithm configured");
  }
  if (targets_.empty()) {
    throw ProtocolError(
        "Experiment: pick an execution mode — direct(), in(target) or "
        "through_chain_to(other)");
  }
  if (!inputs_fn_) {
    throw ProtocolError(
        "Experiment: set inputs(), input_pool() or inputs_fn()");
  }

  // Expand chains into per-hop (mode, model) pairs first.
  struct ExpandedTarget {
    ExecutionMode mode;
    ModelSpec model;
    int hop_index;
  };
  std::vector<ExpandedTarget> expanded;
  for (const TargetSpec& t : targets_) {
    if (t.mode != ExecutionMode::kChain) {
      expanded.push_back(ExpandedTarget{t.mode, t.model, -1});
      continue;
    }
    int hop_index = 0;
    for (const ModelSpec& hop :
         equivalence_chain(algorithm_->model, t.model)) {
      const ExecutionMode hop_mode =
          hop == algorithm_->model
              ? ExecutionMode::kDirect
              : (colored_ ? ExecutionMode::kColored
                          : ExecutionMode::kSimulated);
      expanded.push_back(ExpandedTarget{hop_mode, hop, hop_index++});
    }
  }

  std::vector<std::uint64_t> seeds = seed_list_;
  if (seeds.empty()) {
    seeds.reserve(static_cast<std::size_t>(seed_hi_ - seed_lo_ + 1));
    for (std::uint64_t s = seed_lo_; s <= seed_hi_; ++s) seeds.push_back(s);
  }
  std::vector<ExperimentCell> out;
  out.reserve(expanded.size() * seeds.size() * mems_.size());
  for (const ExpandedTarget& t : expanded) {
    const std::vector<Value> cell_inputs = inputs_fn_(t.model);
    if (static_cast<int>(cell_inputs.size()) != t.model.n) {
      throw ProtocolError("Experiment: inputs_fn returned " +
                          std::to_string(cell_inputs.size()) +
                          " inputs for model " + t.model.to_string());
    }
    for (std::uint64_t s : seeds) {
      for (MemKind mem_kind : mems_) {
        ExperimentCell cell;
        cell.scenario = scenario_;
        cell.algorithm = algorithm_;
        cell.mode = t.mode;
        cell.target = t.model;
        cell.hop_index = t.hop_index;
        cell.cell_index = static_cast<int>(out.size());
        cell.mem = mem_kind;
        cell.check_legality = check_legality_;
        cell.options = base_;
        cell.options.seed = s;
        if (crash_fn_) cell.options.crashes = crash_fn_(t.model, s);
        cell.task = task_;
        cell.inputs = cell_inputs;
        out.push_back(std::move(cell));
      }
    }
  }
  return out;
}

RunRecord Experiment::run() const {
  const std::vector<ExperimentCell> grid = cells();
  if (grid.size() != 1) {
    throw ProtocolError(
        "Experiment::run is for single-cell experiments (grid has " +
        std::to_string(grid.size()) + " cells); use run_all()");
  }
  return run_cell_throwing(grid.front());
}

Report Experiment::run_all(const BatchOptions& batch) const {
  BatchOptions opts = batch;
  if (opts.title.empty()) {
    opts.title = scenario_.empty() ? "experiment" : scenario_;
  }
  return run_batch(cells(), opts);
}

Report Experiment::run_all() const { return run_all(BatchOptions{}); }

}  // namespace mpcn
