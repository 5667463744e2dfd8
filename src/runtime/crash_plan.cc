#include "src/runtime/crash_plan.h"

#include <stdexcept>

namespace mpcn {

CrashPlan CrashPlan::none() { return CrashPlan{}; }

CrashPlan CrashPlan::fixed(std::vector<CrashPoint> points) {
  CrashPlan p;
  p.kind_ = Kind::kFixed;
  p.points_ = std::move(points);
  return p;
}

CrashPlan CrashPlan::hazard(double per_step_probability, int max_crashes,
                            std::uint64_t seed,
                            std::set<ProcessId> eligible) {
  if (per_step_probability < 0.0 || per_step_probability > 1.0) {
    throw std::invalid_argument("hazard probability out of range");
  }
  CrashPlan p;
  p.kind_ = Kind::kHazard;
  p.probability_ = per_step_probability;
  p.max_crashes_ = max_crashes;
  p.seed_ = seed;
  p.eligible_ = std::move(eligible);
  return p;
}

CrashPlan CrashPlan::propose_trap(std::vector<std::string> keys,
                                  int victims_per_key,
                                  std::uint64_t extra_steps,
                                  TrapPoint point) {
  if (victims_per_key < 1) {
    throw std::invalid_argument("propose_trap needs victims_per_key >= 1");
  }
  CrashPlan p;
  p.kind_ = Kind::kProposeTrap;
  p.trap_keys_ = std::move(keys);
  p.victims_per_key_ = victims_per_key;
  p.trap_extra_steps_ = extra_steps;
  p.trap_point_ = point;
  return p;
}

CrashPlan CrashPlan::explored(int max_crashes, double crash_rate) {
  if (max_crashes < 1) {
    throw std::invalid_argument("explored needs max_crashes >= 1");
  }
  if (crash_rate < 0.0 || crash_rate > 1.0) {
    throw std::invalid_argument("explored crash_rate out of range");
  }
  CrashPlan p;
  p.kind_ = Kind::kExplored;
  p.max_crashes_ = max_crashes;
  p.probability_ = crash_rate;
  return p;
}

Json CrashPlan::to_json() const {
  Json j = Json::object();
  switch (kind_) {
    case Kind::kNone:
      j.set("kind", "none");
      return j;
    case Kind::kFixed: {
      j.set("kind", "fixed");
      Json points = Json::array();
      for (const CrashPoint& cp : points_) {
        Json p = Json::object();
        p.set("pid", cp.pid)
            .set("at_step", static_cast<std::int64_t>(cp.at_step));
        points.push(std::move(p));
      }
      j.set("points", std::move(points));
      return j;
    }
    case Kind::kHazard: {
      j.set("kind", "hazard")
          .set("probability", probability_)
          .set("max_crashes", max_crashes_)
          .set("seed", static_cast<std::int64_t>(seed_));
      Json eligible = Json::array();
      for (ProcessId pid : eligible_) eligible.push(Json(pid));
      j.set("eligible", std::move(eligible));
      return j;
    }
    case Kind::kProposeTrap: {
      j.set("kind", "propose_trap");
      Json keys = Json::array();
      for (const std::string& k : trap_keys_) keys.push(Json(k));
      j.set("keys", std::move(keys))
          .set("victims_per_key", victims_per_key_)
          .set("extra_steps", static_cast<std::int64_t>(trap_extra_steps_))
          .set("trap_point", trap_point_ == TrapPoint::kProposeEntry
                                 ? "propose_entry"
                                 : "owner_elected");
      return j;
    }
    case Kind::kExplored: {
      j.set("kind", "explored")
          .set("max_crashes", max_crashes_)
          .set("crash_rate", probability_);
      return j;
    }
  }
  j.set("kind", "none");
  return j;
}

CrashPlan CrashPlan::from_json(const Json& j) {
  const std::string& kind = j.at("kind").as_string();
  if (kind == "none") return CrashPlan::none();
  if (kind == "fixed") {
    std::vector<CrashPoint> points;
    for (const Json& p : j.at("points").items()) {
      points.push_back(
          CrashPoint{static_cast<ProcessId>(p.at("pid").as_int()),
                     static_cast<std::uint64_t>(p.at("at_step").as_int())});
    }
    return CrashPlan::fixed(std::move(points));
  }
  if (kind == "hazard") {
    std::set<ProcessId> eligible;
    for (const Json& pid : j.at("eligible").items()) {
      eligible.insert(static_cast<ProcessId>(pid.as_int()));
    }
    return CrashPlan::hazard(
        j.at("probability").as_double(),
        static_cast<int>(j.at("max_crashes").as_int()),
        static_cast<std::uint64_t>(j.at("seed").as_int()),
        std::move(eligible));
  }
  if (kind == "propose_trap") {
    std::vector<std::string> keys;
    for (const Json& k : j.at("keys").items()) keys.push_back(k.as_string());
    const std::string& tp = j.at("trap_point").as_string();
    if (tp != "propose_entry" && tp != "owner_elected") {
      throw std::invalid_argument("unknown trap_point: " + tp);
    }
    return CrashPlan::propose_trap(
        std::move(keys), static_cast<int>(j.at("victims_per_key").as_int()),
        static_cast<std::uint64_t>(j.at("extra_steps").as_int()),
        tp == "propose_entry" ? TrapPoint::kProposeEntry
                              : TrapPoint::kOwnerElected);
  }
  if (kind == "explored") {
    return CrashPlan::explored(static_cast<int>(j.at("max_crashes").as_int()),
                               j.at("crash_rate").as_double());
  }
  throw std::invalid_argument("unknown CrashPlan kind: " + kind);
}

int CrashPlan::budget(int n) const {
  switch (kind_) {
    case Kind::kNone:
      return 0;
    case Kind::kFixed:
      return static_cast<int>(points_.size());
    case Kind::kHazard:
      return std::min(max_crashes_, n);
    case Kind::kProposeTrap:
      return std::min(
          static_cast<int>(trap_keys_.size()) * victims_per_key_, n);
    case Kind::kExplored:
      return std::min(max_crashes_, n);
  }
  return 0;
}

namespace {

// The hazard stream's seed: one splitmix64 step from the plan's seed, so
// that the stream is not the scheduler's (see CrashManager::realized).
std::uint64_t hazard_stream_seed(std::uint64_t seed) {
  return splitmix64(seed);
}

}  // namespace

CrashManager::CrashManager(int n, CrashPlan plan)
    : n_(n),
      plan_(std::move(plan)),
      rng_(hazard_stream_seed(plan_.seed_)),
      crashed_(static_cast<std::size_t>(n), false),
      step_counts_(static_cast<std::size_t>(n), 0) {
  for (const CrashPoint& cp : plan_.points_) {
    if (cp.pid < 0 || cp.pid >= n) {
      throw std::invalid_argument("crash point pid out of range");
    }
    fixed_points_[cp.pid] = cp.at_step;
  }
  for (const std::string& key : plan_.trap_keys_) {
    trap_remaining_[key] = plan_.victims_per_key_;
  }
}

void CrashManager::arm_trap(ThreadId tid, TrapTable::iterator trap) {
  if (crashed_[static_cast<std::size_t>(tid.pid)]) return;
  if (armed_pids_.count(tid.pid)) return;  // one trap per process
  if (trap == trap_remaining_.end() || trap->second <= 0) return;
  --trap->second;
  // Crash this victim after `extra_steps` more steps *of this thread* —
  // inside the propose body it is executing.
  armed_[tid] = plan_.trap_extra_steps_;
  armed_pids_.insert(tid.pid);
}

bool CrashManager::traps_proposes() const {
  return plan_.kind_ == CrashPlan::Kind::kProposeTrap;
}

void CrashManager::on_propose_enter(ThreadId tid, const std::string& key) {
  if (!traps_proposes()) return;
  proposing_[tid] = trap_remaining_.find(key);
}

void CrashManager::on_owner_elected(ThreadId tid) {
  const auto it = proposing_.find(tid);
  if (it != proposing_.end()) arm_trap(tid, it->second);
}

bool CrashManager::on_step(ThreadId tid) {
  const ProcessId pid = tid.pid;
  if (crashed_[static_cast<std::size_t>(pid)]) return true;
  const std::uint64_t my_step = ++step_counts_[static_cast<std::size_t>(pid)];
  switch (plan_.kind_) {
    case CrashPlan::Kind::kNone:
      return false;
    case CrashPlan::Kind::kFixed: {
      auto it = fixed_points_.find(pid);
      if (it != fixed_points_.end() && my_step >= it->second) {
        crashed_[static_cast<std::size_t>(pid)] = true;
        ++crash_count_;
        realized_.push_back(CrashPoint{pid, my_step});
        return true;
      }
      return false;
    }
    case CrashPlan::Kind::kProposeTrap: {
      if (plan_.trap_point_ == CrashPlan::TrapPoint::kProposeEntry) {
        // The thread's first step in a propose: it arms in step order.
        const auto entering = proposing_.find(tid);
        if (entering != proposing_.end()) {
          const TrapTable::iterator trap = entering->second;
          proposing_.erase(entering);
          arm_trap(tid, trap);
        }
      }
      auto it = armed_.find(tid);
      if (it == armed_.end()) return false;
      if (it->second > 1) {
        --it->second;
        return false;
      }
      armed_.erase(it);
      crashed_[static_cast<std::size_t>(pid)] = true;
      ++crash_count_;
      realized_.push_back(CrashPoint{pid, my_step});
      return true;
    }
    case CrashPlan::Kind::kHazard: {
      if (crash_count_ >= plan_.max_crashes_) return false;
      if (!plan_.eligible_.empty() && !plan_.eligible_.count(pid)) {
        return false;
      }
      if (rng_.chance(plan_.probability_)) {
        crashed_[static_cast<std::size_t>(pid)] = true;
        ++crash_count_;
        realized_.push_back(CrashPoint{pid, my_step});
        return true;
      }
      return false;
    }
    case CrashPlan::Kind::kExplored: {
      // Consume a grant-time directive: the controller directed a crash
      // onto this thread's next step, and this is that step (grants only
      // reach threads parked in acquire(), and acquire() returns into
      // step(), which calls on_step before anything else — so exactly
      // one directive is ever pending and it lands 1:1).
      if (!directed_ || !(*directed_ == tid)) return false;
      directed_.reset();
      crashed_[static_cast<std::size_t>(pid)] = true;
      ++crash_count_;
      realized_.push_back(CrashPoint{pid, my_step});
      return true;
    }
  }
  return false;
}

void CrashManager::crash_now(ProcessId pid) {
  if (!crashed_[static_cast<std::size_t>(pid)]) {
    crashed_[static_cast<std::size_t>(pid)] = true;
    ++crash_count_;
    // External crash: the process dies before its next own step.
    realized_.push_back(
        CrashPoint{pid, step_counts_[static_cast<std::size_t>(pid)] + 1});
  }
}

bool CrashManager::is_crashed(ProcessId pid) const {
  return crashed_[static_cast<std::size_t>(pid)];
}

int CrashManager::crash_count() const { return crash_count_; }

std::vector<bool> CrashManager::crashed_vector() const { return crashed_; }

std::vector<CrashPoint> CrashManager::realized() const { return realized_; }

int CrashManager::budget_remaining() const {
  if (plan_.kind_ != CrashPlan::Kind::kExplored) return 0;
  const int budget = std::min(plan_.max_crashes_, n_);
  return budget > crash_count_ ? budget - crash_count_ : 0;
}

bool CrashManager::crashable(ProcessId pid) const {
  return pid >= 0 && pid < n_ && !crashed_[static_cast<std::size_t>(pid)];
}

double CrashManager::rate() const { return plan_.probability_; }

bool CrashManager::direct_crash(ThreadId tid) {
  if (plan_.kind_ != CrashPlan::Kind::kExplored) return false;
  if (crash_count_ >= std::min(plan_.max_crashes_, n_)) return false;
  if (crashed_[static_cast<std::size_t>(tid.pid)]) return false;
  if (directed_) return false;  // previous directive still pending
  directed_ = tid;
  return true;
}

}  // namespace mpcn
