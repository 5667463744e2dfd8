#include "src/core/bg_engine.h"

#include <algorithm>
#include <set>

#include "src/common/errors.h"
#include "src/core/engine_internal.h"
#include "src/core/safe_agreement.h"
#include "src/core/x_safe_agreement.h"
#include "src/snapshot/afek_snapshot.h"
#include "src/snapshot/primitive_snapshot.h"

namespace mpcn {

void SimulatedAlgorithm::validate() const {
  model.validate();
  if (programs.empty() || static_cast<int>(programs.size()) != model.n) {
    throw ProtocolError("SimulatedAlgorithm: need one program per process");
  }
  std::set<std::string> names;
  for (const XConsDecl& d : xcons) {
    if (!names.insert(d.name).second) {
      throw ProtocolError("SimulatedAlgorithm: duplicate x_cons name " +
                          d.name);
    }
    if (d.ports.empty() ||
        static_cast<int>(d.ports.size()) > model.x) {
      throw ProtocolError(
          "SimulatedAlgorithm: x_cons '" + d.name +
          "' must have 1..x ports (model x = " + std::to_string(model.x) +
          ")");
    }
    for (int p : d.ports) {
      if (p < 0 || p >= model.n) {
        throw ProtocolError("SimulatedAlgorithm: x_cons port out of range");
      }
    }
  }
  if (static_inputs &&
      static_inputs->size() != static_cast<std::size_t>(model.n)) {
    throw ProtocolError("SimulatedAlgorithm: static_inputs size mismatch");
  }
}

namespace internal {

namespace {

std::shared_ptr<SnapshotObject> make_mem(MemKind kind, int width) {
  if (kind == MemKind::kAfek) {
    return std::make_shared<AfekSnapshot>(width, /*check_ownership=*/true);
  }
  return std::make_shared<PrimitiveSnapshot>(width,
                                             /*check_ownership=*/true);
}

// table[index], growing the table to reach it; null until first touch.
template <typename T>
std::unique_ptr<T>& slot(std::vector<std::unique_ptr<T>>& table,
                         std::size_t index) {
  if (index >= table.size()) table.resize(index + 1);
  return table[index];
}

}  // namespace

EngineShared::EngineShared(SimulatedAlgorithm algo_in, ModelSpec target_in,
                           MemKind mem_kind, bool colored_in)
    : algo(std::move(algo_in)),
      target(target_in),
      colored(colored_in),
      mem(make_mem(mem_kind, target_in.n)),
      set_list(target_in.x > 1
                   ? std::make_shared<const SetList>(target_in.n, target_in.x)
                   : nullptr),
      ag_(static_cast<std::size_t>(algo.n())) {}

AgreementObject& EngineShared::agreement(
    std::unique_ptr<AgreementObject>& entry) {
  if (!entry) {
    if (target.x == 1) {
      entry = std::make_unique<SafeAgreement>(target.n);
    } else {
      entry = std::make_unique<XSafeAgreement>(set_list);
    }
  }
  return *entry;
}

AgreementObject& EngineShared::input_agreement(int j) {
  return agreement(slot(input_, static_cast<std::size_t>(j)));
}

AgreementObject& EngineShared::snapshot_agreement(int j,
                                                  std::int64_t snapsn) {
  return agreement(slot(ag_[static_cast<std::size_t>(j)],
                        static_cast<std::size_t>(snapsn)));
}

AgreementObject& EngineShared::xcons_agreement(std::size_t d) {
  return agreement(slot(xag_, d));
}

TestAndSet& EngineShared::decision_test_and_set(int j) {
  std::unique_ptr<TestAndSet>& entry =
      slot(tsdecide_, static_cast<std::size_t>(j));
  if (!entry) entry = std::make_unique<TestAndSet>();
  return *entry;
}

std::size_t EngineShared::xcons_index(const std::string& name) const {
  for (std::size_t d = 0; d < algo.xcons.size(); ++d) {
    if (algo.xcons[d].name == name) return d;
  }
  throw ProtocolError("undeclared x_cons object: " + name);
}

// ------------------------------------------------------------------------
// The simulated-process-facing API adapter.

class EngineSimContext : public SimContext {
 public:
  EngineSimContext(EngineSimulator* sim, int j, ProcessContext& cctx,
                   Value agreed_input)
      : sim_(sim),
        j_(j),
        cctx_(cctx),
        input_(std::move(agreed_input)),
        proposed_(sim->shared_->algo.xcons.size()) {}

  int id() const override { return j_; }
  int n() const override { return sim_->n_sim(); }
  Value input() const override { return input_; }

  void write(const Value& v) override { sim_->sim_write(cctx_, j_, v); }

  std::vector<Value> snapshot() override {
    return sim_->sim_snapshot(cctx_, j_);
  }

  Value x_cons_propose(const std::string& name, const Value& v) override {
    // Model discipline of the *simulated* object: only declared objects
    // and ports, at most once per port (one-shot).
    const std::size_t d = sim_->shared_->xcons_index(name);
    if (proposed_[d]) {
      throw ProtocolError("simulated p" + std::to_string(j_) +
                          " proposed twice to x_cons " + name);
    }
    proposed_[d] = true;
    return sim_->sim_x_cons_propose(cctx_, j_, d, v);
  }

  void decide(const Value& v) override {
    sim_->record_simulated_decision(cctx_, j_, v);
  }
  bool has_decided() const override {
    return sim_->simulated_has_decided(j_);
  }

 private:
  EngineSimulator* sim_;
  const int j_;
  ProcessContext& cctx_;
  Value input_;
  std::vector<bool> proposed_;  // by position in algo.xcons
};

// ------------------------------------------------------------------------
// EngineSimulator

EngineSimulator::EngineSimulator(std::shared_ptr<EngineShared> shared, int i)
    : shared_(std::move(shared)),
      i_(i),
      // All initial (nil, 0) pairs alias ONE shared payload.
      memi_pairs_(static_cast<std::size_t>(shared_->n_sim()),
                  Value::pair(Value::nil(), Value(0))),
      memi_sn_(static_cast<std::size_t>(shared_->n_sim()), 0),
      snap_sn_(static_cast<std::size_t>(shared_->n_sim()), 0),
      xobjects_(shared_->algo.xcons.size()),
      sim_decisions_(static_cast<std::size_t>(shared_->n_sim())) {}

template <typename V, typename Key>
void EngineSimulator::propose(ProcessContext& cctx, AgreementObject& ag,
                              V&& v, const Key& key) {
  // One agreement propose at a time per simulator (mutex1), so a
  // simulator crash blocks at most one agreement object (Lemma 1/7).
  CoopLock l1(mutex1_, cctx);
  // White-box adversary hook, with mutex1 already held: the victim's
  // next steps are the propose body itself, so an armed crash lands
  // mid-propose as intended.
  CrashManager& crashes = cctx.backend().crashes();
  if (crashes.traps_proposes()) crashes.on_propose_enter(cctx.tid(), key());
  // A simulator that stops its simulation completes this propose first.
  // Cancelled mid-propose, the thread would leave the object half-proposed
  // as a crash does (a safe agreement inside Figure 1's lines 01-03), and
  // a later decide() on it could wait forever.
  ProcessContext::CancelDeferral finish_propose(cctx);
  ag.propose(cctx, std::forward<V>(v));
}

// Figure 2:
//   (01) w_sn_i[j] <- w_sn_i[j] + 1
//   (02) mem_i[j] <- (v, w_sn_i[j])
//   (03) MEM[i] <- mem_i
void EngineSimulator::sim_write(ProcessContext& cctx, int j, const Value& v) {
  auto& sn = memi_sn_[static_cast<std::size_t>(j)];
  memi_pairs_[static_cast<std::size_t>(j)] = Value::pair(v, Value(++sn));
  // n refcount bumps, one payload
  shared_->mem->write(cctx, i_, Value(Value::List(memi_pairs_)));
}

// Figure 3:
//   (01) sm_i <- MEM.snapshot()
//   (02-03) input_i[y] <- value written by the most advanced simulator
//   (04) snapsn <- ++snap_sn_i[j]
//   (05) enter mutex1; SAFE_AG[j,snapsn].propose(input_i); exit mutex1
//   (06) res <- SAFE_AG[j,snapsn].decide()
//   (07) return res
std::vector<Value> EngineSimulator::sim_snapshot(ProcessContext& cctx, int j) {
  const int n = shared_->n_sim();
  const std::vector<Value> sm = shared_->mem->snapshot(cctx);  // (01)

  Value::List input(static_cast<std::size_t>(n));  // (02-03)
  std::vector<std::int64_t> best_sn(static_cast<std::size_t>(n), -1);
  for (const Value& entry : sm) {
    if (entry.is_nil()) continue;  // simulator with no writes yet
    for (int y = 0; y < n; ++y) {
      const Value& cell = entry.at(static_cast<std::size_t>(y));
      const std::int64_t sn = cell.at(1).as_int();
      if (sn > best_sn[static_cast<std::size_t>(y)]) {
        best_sn[static_cast<std::size_t>(y)] = sn;
        input[static_cast<std::size_t>(y)] = cell.at(0);
      }
    }
  }

  const std::int64_t snapsn = ++snap_sn_[static_cast<std::size_t>(j)];  // (04)
  AgreementObject& ag = shared_->snapshot_agreement(j, snapsn);
  propose(cctx, ag, std::move(input), [j, snapsn] {  // (05)
    return "AG/" + std::to_string(j) + "/" + std::to_string(snapsn);
  });
  Value res = ag.decide(cctx);  // (06)
  return res.take_list();  // (07) — steals or bumps, never deep-copies
}

// Figure 4 (and Figure 8, which is the same text over x'-safe agreement):
//   (01) enter mutex2[a]
//   (02) if xres_i[a] = ⊥ then enter mutex1; XAG[a].propose(v); exit mutex1
//   (03)   xres_i[a] <- XAG[a].decide()
//   (04) end if
//   (05) exit mutex2[a]
//   (06) return xres_i[a]
// mutex2 is per simulated object — see engine_internal.h for why the
// paper's single shared mutex2 would over-block.
Value EngineSimulator::sim_x_cons_propose(ProcessContext& cctx, int j,
                                          std::size_t d, const Value& v) {
  const XConsDecl& decl = shared_->algo.xcons[d];
  if (!decl.ports.count(j)) {
    throw ProtocolError("simulated p" + std::to_string(j) +
                        " is not a port of x_cons " + decl.name);
  }
  XObjectState& obj = xobjects_[d];
  CoopLock l2(obj.mutex, cctx);  // (01)/(05)
  if (!obj.result.has_value()) {  // (02)
    AgreementObject& ag = shared_->xcons_agreement(d);
    propose(cctx, ag, v, [&decl] { return "XAG/" + decl.name; });
    obj.result = ag.decide(cctx);  // (03)
  }
  return *obj.result;  // (06)
}

void EngineSimulator::record_simulated_decision(ProcessContext& cctx, int j,
                                                const Value& v) {
  auto g = cctx.step();  // fix the visibility point in the schedule
  auto& slot = sim_decisions_[static_cast<std::size_t>(j)];
  if (!slot.has_value()) {
    slot = v;
    decision_order_.push_back(j);
    progress_.wake_all();
  }
}

bool EngineSimulator::simulated_has_decided(int j) const {
  return sim_decisions_[static_cast<std::size_t>(j)].has_value();
}

void EngineSimulator::child_body(ProcessContext& cctx, int j) {
  // However the thread ends (its program returns, or it halts or
  // crashes), run() may be waiting for it.
  struct WakeOnEnd {
    WaitList& progress;
    ~WakeOnEnd() { progress.wake_all(); }
  } wake_on_end{progress_};
  // Park once before touching anything shared. At startup every thread
  // runs natively until its first step; without this barrier the first
  // mutex1 acquisitions (and trap armings) of sibling threads would follow
  // the fiber start order instead of the schedule. After this step, a
  // thread's native windows are exclusive (no grant can fire while it is
  // alive and unparked), so all subsequent preamble work is
  // schedule-ordered.
  cctx.yield();
  // Agree on p_j's input. Colorless: every simulator proposes its own
  // input; the agreement object makes the choice common. Colored: the
  // inputs are statically fixed by the task instance.
  Value agreed;
  if (shared_->algo.static_inputs) {
    agreed = (*shared_->algo.static_inputs)[static_cast<std::size_t>(j)];
  } else {
    AgreementObject& ag = shared_->input_agreement(j);
    propose(cctx, ag, cctx.input(),
            [j] { return "INPUT/" + std::to_string(j); });
    agreed = ag.decide(cctx);
  }
  EngineSimContext sc(this, j, cctx, std::move(agreed));
  shared_->algo.programs[static_cast<std::size_t>(j)](sc);
}

std::vector<ChildHandle> EngineSimulator::fork_children(ProcessContext& ctx) {
  std::vector<ChildHandle> children;
  children.reserve(static_cast<std::size_t>(shared_->n_sim()));
  for (int j = 0; j < shared_->n_sim(); ++j) {
    children.push_back(
        ctx.fork([this, j](ProcessContext& cctx) { child_body(cctx, j); }));
  }
  return children;
}

void EngineSimulator::check_child_errors(
    const std::vector<ChildHandle>& children) {
  for (const ChildHandle& c : children) {
    if (auto e = c.error()) std::rethrow_exception(e);
  }
}

void EngineSimulator::run(ProcessContext& ctx) {
  std::vector<ChildHandle> children = fork_children(ctx);
  // Colored mode: q_i lost the T&S of decision_order_[0..lost) to other
  // simulators. Colorless mode loses none.
  std::size_t lost = 0;
  for (;;) {
    // Observe the oldest unclaimed decision while holding the step token,
    // so the claim point is fixed by the schedule. Colorless mode adopts
    // it inside that step.
    int cand = -1;
    {
      auto g = ctx.step();
      if (lost < decision_order_.size()) {
        cand = decision_order_[lost];
        if (!shared_->colored) {
          ctx.decide(*sim_decisions_[static_cast<std::size_t>(cand)]);
          break;
        }
      }
    }
    if (cand >= 0) {
      if (shared_->decision_test_and_set(cand).test_and_set(ctx)) {
        ctx.decide(Value::pair(
            Value(cand), *sim_decisions_[static_cast<std::size_t>(cand)]));
        break;
      }
      ++lost;  // "If q_i looses, it resumes the simulation."
      continue;
    }
    check_child_errors(children);
    // No child runs between the on-token observation above and this
    // done() scan, nor before the wait below: once every simulated
    // thread has ended (halted or crashed) with no decision left to
    // claim, q_i gives up, and otherwise no wake-up can be missed.
    if (std::all_of(children.begin(), children.end(),
                    [](const ChildHandle& c) { return c.done(); })) {
      break;
    }
    ctx.wait(progress_);
  }
  // Cancel every child NOW, while this thread is alive and unparked: no
  // grant can fire during this window, so all cancel flags become
  // visible at one schedule point. (Cancelling lazily from the handle
  // destructors would race the grant stream while the parent is absent
  // joining an earlier child — a determinism leak found by the grant
  // tracer.) The destructors then only join, granting a child inside an
  // agreement propose the steps that finish it.
  for (ChildHandle& c : children) c.cancel();
}

std::vector<Program> make_programs(std::shared_ptr<EngineShared> shared) {
  std::vector<Program> programs;
  programs.reserve(static_cast<std::size_t>(shared->target.n));
  for (int i = 0; i < shared->target.n; ++i) {
    auto simulator = std::make_shared<EngineSimulator>(shared, i);
    programs.push_back(
        [simulator](ProcessContext& ctx) { simulator->run(ctx); });
  }
  return programs;
}

}  // namespace internal

// --------------------------------------------------------------------------
// Public entry point (colorless).

std::vector<Program> make_simulation(const SimulatedAlgorithm& algorithm,
                                     const ModelSpec& target,
                                     const SimulationOptions& options) {
  algorithm.validate();
  target.validate();
  if (options.check_legality && target.power() > algorithm.model.power()) {
    throw ProtocolError(
        "illegal simulation: target power index " +
        std::to_string(target.power()) + " exceeds source power index " +
        std::to_string(algorithm.model.power()) + " (" + target.to_string() +
        " cannot simulate " + algorithm.model.to_string() + ")");
  }

  return internal::make_programs(std::make_shared<internal::EngineShared>(
      algorithm, target, options.mem, /*colored_in=*/false));
}

}  // namespace mpcn
