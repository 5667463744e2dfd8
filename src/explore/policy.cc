#include "src/explore/policy.h"

#include <algorithm>

#include "src/common/errors.h"

namespace mpcn {

// ----------------------------------------------------------- Scripted

ScriptedPolicy::ScriptedPolicy(std::shared_ptr<const ScheduleTrace> script)
    : script_(std::move(script)) {
  if (!script_) throw ProtocolError("ScriptedPolicy needs a script trace");
  cursor_ = script_->grants.data();
  end_ = cursor_ + script_->grants.size();
  crash_cursor_ = script_->crashes.data();
  crash_end_ = crash_cursor_ + script_->crashes.size();
}

GrantChoice ScriptedPolicy::pick(const std::vector<ThreadId>& runnable,
                                 CrashDirector*) {
  while (cursor_ != end_) {
    const std::uint64_t pos =
        static_cast<std::uint64_t>(cursor_ - script_->grants.data());
    const ThreadId want = *cursor_++;
    // Crash marks of skipped entries are dropped with them (the marks
    // are ascending, so a single forward cursor suffices).
    while (crash_cursor_ != crash_end_ && *crash_cursor_ < pos) {
      ++crash_cursor_;
    }
    const bool marked = crash_cursor_ != crash_end_ && *crash_cursor_ == pos;
    const auto it = std::find(runnable.begin(), runnable.end(), want);
    if (it != runnable.end()) {
      if (marked) ++crash_cursor_;
      return GrantChoice{static_cast<std::size_t>(it - runnable.begin()),
                         marked};
    }
    ++skipped_;
  }
  ++fallback_;
  return GrantChoice{0, false};  // lowest runnable ThreadId (sorted)
}

// ---------------------------------------------------------------- PCT

PctPolicy::PctPolicy(std::uint64_t seed, int depth, std::uint64_t horizon)
    : rng_(seed) {
  if (depth < 1) throw ProtocolError("PctPolicy needs depth >= 1");
  if (horizon == 0) throw ProtocolError("PctPolicy needs horizon > 0");
  // d - 1 distinct change points from [1, horizon).
  const std::uint64_t want = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(depth - 1), horizon - 1);
  while (change_points_.size() < want) {
    change_points_.insert(
        1 + static_cast<std::uint64_t>(
                rng_.index(static_cast<std::size_t>(horizon - 1))));
  }
}

GrantChoice PctPolicy::pick(const std::vector<ThreadId>& runnable,
                            CrashDirector* director) {
  // Assign a random high priority on first sight. Thread appearance
  // order is schedule-deterministic, so priorities replay with the seed.
  for (const ThreadId& t : runnable) {
    if (priority_.find(t) == priority_.end()) {
      priority_[t] =
          (1ull << 32) + static_cast<std::uint64_t>(rng_.index(1u << 20));
    }
  }
  auto leader = [&] {
    std::size_t best = 0;
    for (std::size_t i = 1; i < runnable.size(); ++i) {
      // Ties break toward the lower ThreadId (earlier index).
      if (priority_[runnable[i]] > priority_[runnable[best]]) best = i;
    }
    return best;
  };
  if (change_points_.count(grants_)) {
    // Drop the current leader below every priority handed out so far
    // (and below earlier drops: next_low_ descends).
    priority_[runnable[leader()]] = next_low_--;
  }
  ++grants_;
  const std::size_t index = leader();
  return GrantChoice{index, draw_crash(rng_, director, runnable[index].pid)};
}

// --------------------------------------------------------- BoundedDfs

BoundedDfsPolicy::BoundedDfsPolicy(int preemption_bound)
    : bound_(preemption_bound) {
  if (preemption_bound < 0) {
    throw ProtocolError("BoundedDfsPolicy needs preemption_bound >= 0");
  }
}

std::size_t BoundedDfsPolicy::default_choice(const Node& n) {
  return n.cont == kNoCont ? 0 : n.cont;
}

std::size_t BoundedDfsPolicy::option_for_rank(const Node& n,
                                              std::size_t rank) {
  const std::size_t def = default_choice(n);
  if (rank == 0) return def;
  // Rank r > 0 walks the non-default indices in increasing order.
  std::size_t idx = rank - 1;
  if (idx >= def) ++idx;
  return idx;
}

GrantChoice BoundedDfsPolicy::pick(const std::vector<ThreadId>& runnable,
                                   CrashDirector* director) {
  if (director) {
    // Total adversary budget = crashes this run already spent + what the
    // director still affords. Observed every grant so advance() gates
    // crash ranks on the true budget between runs.
    crash_budget_ = crashes_used_ + director->budget_remaining();
  }
  auto snapshot_crashable = [&] {
    std::vector<char> out(runnable.size(), 0);
    if (director) {
      for (std::size_t i = 0; i < runnable.size(); ++i) {
        out[i] = director->crashable(runnable[i].pid) ? 1 : 0;
      }
    }
    return out;
  };

  // Continuation option: the previous holder, if still runnable.
  std::size_t cont = kNoCont;
  if (has_last_) {
    const auto it =
        std::find(runnable.begin(), runnable.end(), last_granted_);
    if (it != runnable.end()) {
      cont = static_cast<std::size_t>(it - runnable.begin());
    }
  }

  std::size_t choice;
  bool crash = false;
  if (cursor_ < prefix_len_ && !diverged_) {
    // Replay the prefix by granted THREAD, not by index: the runnable
    // set must contain the recorded grant, but may otherwise differ.
    Node& n = path_[cursor_];
    const ThreadId want = n.options[n.chosen];
    const auto it = std::find(runnable.begin(), runnable.end(), want);
    if (it == runnable.end()) {
      diverged_ = true;
      choice = cont == kNoCont ? 0 : cont;
    } else {
      choice = static_cast<std::size_t>(it - runnable.begin());
      crash = n.chosen_crash;
      // Refresh the node against this run's observed reality.
      n.options = runnable;
      n.chosen = choice;
      n.cont = cont;
      n.preemptions_before = preemptions_used_;
      n.crashes_before = crashes_used_;
      n.crashable = snapshot_crashable();
    }
  } else if (!diverged_ && path_.size() < kMaxDepth &&
             cursor_ == path_.size()) {
    // Extend the tree with the non-preemptive, crash-free default.
    Node n;
    n.options = runnable;
    n.cont = cont;
    n.rank = 0;
    n.chosen = default_choice(n);
    n.preemptions_before = preemptions_used_;
    n.crashes_before = crashes_used_;
    n.crashable = snapshot_crashable();
    choice = n.chosen;
    path_.push_back(std::move(n));
  } else {
    // Past the recorded tree (max depth or divergence): run
    // non-preemptively without recording.
    choice = cont == kNoCont ? 0 : cont;
  }

  if (cont != kNoCont && choice != cont) ++preemptions_used_;
  if (crash) ++crashes_used_;
  has_last_ = true;
  last_granted_ = runnable[choice];
  ++cursor_;
  return GrantChoice{choice, crash};
}

bool BoundedDfsPolicy::advance() {
  if (exhausted_) return false;
  while (!path_.empty()) {
    Node& n = path_.back();
    bool advanced = false;
    // Rank space is doubled when a crash budget exists: the schedule
    // options first, then the same options with a crash directed onto
    // the grant. A crash variant costs the preemptions of its schedule
    // sibling (crashing the continuation costs none).
    while (n.rank + 1 < 2 * n.options.size()) {
      ++n.rank;
      const bool crash = n.rank >= n.options.size();
      const std::size_t r = crash ? n.rank - n.options.size() : n.rank;
      const std::size_t idx = option_for_rank(n, r);
      const int cost = (n.cont != kNoCont && idx != n.cont) ? 1 : 0;
      if (n.preemptions_before + cost > bound_) continue;
      if (crash) {
        if (n.crashes_before >= crash_budget_) continue;
        if (idx >= n.crashable.size() || !n.crashable[idx]) continue;
      }
      n.chosen = idx;
      n.chosen_crash = crash;
      advanced = true;
      break;
    }
    if (advanced) {
      prefix_len_ = path_.size();
      cursor_ = 0;
      preemptions_used_ = 0;
      crashes_used_ = 0;
      has_last_ = false;
      diverged_ = false;
      return true;
    }
    path_.pop_back();
  }
  exhausted_ = true;
  return false;
}

// ------------------------------------------------------------ factory

std::unique_ptr<SchedulePolicy> make_policy(const ScheduleSpec& spec,
                                            std::uint64_t cell_seed) {
  const std::uint64_t seed = spec.seed != 0 ? spec.seed : cell_seed;
  switch (spec.kind) {
    case SchedulePolicyKind::kDefault:
      return nullptr;
    case SchedulePolicyKind::kSeededRandom:
      return std::make_unique<SeededRandomPolicy>(seed);
    case SchedulePolicyKind::kScripted:
      return std::make_unique<ScriptedPolicy>(spec.script);
    case SchedulePolicyKind::kPct:
      return std::make_unique<PctPolicy>(seed, spec.pct_depth,
                                         spec.pct_horizon);
  }
  throw ProtocolError("unknown SchedulePolicyKind");
}

}  // namespace mpcn
