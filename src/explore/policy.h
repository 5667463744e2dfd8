// The explorer's grant policies (seam: src/runtime/schedule_policy.h,
// which also holds SeededRandomPolicy, the runtime's default adversary).
//
//   ScriptedPolicy — replay an explicit ScheduleTrace. Entries that name
//     a thread not currently runnable are skipped; an exhausted script
//     falls back to the lowest runnable ThreadId. Both rules are
//     deterministic, which is what makes every *subsequence* of a
//     recorded trace a valid schedule — the property the delta-debugging
//     shrinker (explorer.h) relies on.
//   PctPolicy — probabilistic concurrency testing (Burckhardt et al.):
//     random per-thread priorities, highest-priority runnable thread
//     runs, and at d-1 pre-drawn step indices the current leader's
//     priority drops below everything else. For a bug of depth d and
//     horizon k, one run finds it with probability >= 1/(n * k^(d-1)).
//     Priorities sit in a flat table sorted by ThreadId, matched to the
//     sorted runnable set by one merge walk per grant.
//   BoundedDfsPolicy — systematic enumeration of schedules under a
//     preemption bound (CHESS-style). Stateful ACROSS runs: each run
//     replays the current choice prefix and extends it non-preemptively;
//     advance() backtracks to the next unexplored branch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/explore/trace.h"
#include "src/runtime/schedule_policy.h"

namespace mpcn {

class ScriptedPolicy : public SchedulePolicy {
 public:
  explicit ScriptedPolicy(std::shared_ptr<const ScheduleTrace> script);
  // Replays the script's crash marks alongside its grants: a matched
  // entry whose script position is marked directs a crash onto the
  // granted thread (the marks of skipped entries are dropped with them).
  GrantChoice pick(const std::vector<ThreadId>& runnable,
                   CrashDirector* director) override;

  // Diagnostics: script entries skipped because the named thread was not
  // runnable, and grants issued after the script ran out.
  std::size_t skipped() const { return skipped_; }
  std::size_t fallback_grants() const { return fallback_; }

 private:
  const std::shared_ptr<const ScheduleTrace> script_;  // keepalive only
  // Precomputed cursor over the (immutable) grant array: pick() walks
  // raw pointers instead of re-dereferencing the shared script per
  // grant, keeping scripted replay within noise of a native run (the
  // bench asserts <= 1.05x).
  const ThreadId* cursor_ = nullptr;
  const ThreadId* end_ = nullptr;
  // Cursor over the script's (ascending) crash marks.
  const std::uint64_t* crash_cursor_ = nullptr;
  const std::uint64_t* crash_end_ = nullptr;
  std::size_t skipped_ = 0;
  std::size_t fallback_ = 0;
};

class PctPolicy : public SchedulePolicy {
 public:
  // depth >= 1 priority levels to inject (d - 1 change points); horizon
  // > 0 is the step range the change points are drawn from.
  PctPolicy(std::uint64_t seed, int depth, std::uint64_t horizon);
  // Like SeededRandom: the priority schedule is undisturbed, a separate
  // draw_crash decides whether the leader crashes at this grant.
  GrantChoice pick(const std::vector<ThreadId>& runnable,
                   CrashDirector* director) override;

 private:
  struct Priority {
    ThreadId tid;
    std::uint64_t value;
  };

  // One merge walk of the sorted runnable set against table_: gives each
  // first-seen thread its initial priority (one draw each, in runnable
  // order) and returns the index of the highest-priority runnable
  // thread, ties to the lower ThreadId. *row receives its table row.
  std::size_t leader(const std::vector<ThreadId>& runnable,
                     std::size_t* row);

  Rng rng_;
  // Grant indices at which the leader drops, ascending and distinct;
  // grants reach them in order, so a cursor replaces a lookup.
  std::vector<std::uint64_t> change_points_;
  std::size_t next_change_ = 0;
  std::vector<Priority> table_;  // every thread seen, sorted by ThreadId
  // Dropped-leader priorities descend from here; initial priorities all
  // sit above 1 << 32, so every drop lands below every initial value.
  std::uint64_t next_low_ = 1ull << 31;
  std::uint64_t grants_ = 0;
};

class BoundedDfsPolicy : public SchedulePolicy {
 public:
  // preemption_bound: max schedule points where a runnable previous
  // holder is NOT continued.
  explicit BoundedDfsPolicy(int preemption_bound);

  // Product enumeration: with a CrashDirector attached each choice point
  // doubles — every runnable option also exists in a "crash here"
  // variant, gated by the adversary's remaining budget. A crash variant
  // costs the same preemptions as its schedule sibling, so at preemption
  // bound 0 the product tree is exactly the schedule-only tree plus
  // crash placements along each non-preemptive schedule.
  GrantChoice pick(const std::vector<ThreadId>& runnable,
                   CrashDirector* director) override;

  // Move to the next unexplored schedule prefix; false once the bounded
  // tree is exhausted. Call BETWEEN runs (after the run driven by the
  // current prefix has completed).
  bool advance();

  bool exhausted() const { return exhausted_; }
  // True if the latest run failed to replay its prefix (the workload was
  // not schedule-deterministic); the run's tail ran non-preemptively.
  bool diverged() const { return diverged_; }

 private:
  struct Node {
    std::vector<ThreadId> options;  // runnable set at this choice point
    std::size_t chosen = 0;         // index into options
    bool chosen_crash = false;      // the chosen option crashes here
    // Try-order position. Ranks [0, options.size()) are the schedule
    // options (0 = default); ranks [size, 2*size) are the same options
    // with a crash directed onto the grant.
    std::size_t rank = 0;
    std::size_t cont = kNoCont;     // index of the continuation option
    int preemptions_before = 0;
    int crashes_before = 0;         // crashes directed earlier in the path
    std::vector<char> crashable;    // per-option: pid still crashable here
  };
  static constexpr std::size_t kNoCont = static_cast<std::size_t>(-1);
  // Depth of the recorded choice tree: deeper grants run non-preemptively
  // and are not backtracked into.
  static constexpr std::size_t kMaxDepth = 4096;

  static std::size_t default_choice(const Node& n);
  // Option index for try-order position `rank` (0 = default).
  static std::size_t option_for_rank(const Node& n, std::size_t rank);

  const int bound_;
  std::vector<Node> path_;
  std::size_t prefix_len_ = 0;  // nodes [0, prefix_len_) replay `chosen`
  std::size_t cursor_ = 0;      // position within the current run
  int preemptions_used_ = 0;
  int crashes_used_ = 0;
  // The adversary budget observed from the director (0 when searching
  // schedule-only); advance() gates crash ranks on it between runs.
  int crash_budget_ = 0;
  bool has_last_ = false;
  ThreadId last_granted_{};
  bool diverged_ = false;
  bool exhausted_ = false;
};

// Materialize a policy from its declarative spec. kDefault returns null
// (no policy object: the run gets SeededRandomPolicy at its own seed).
// `cell_seed` substitutes for spec.seed == 0. Throws ProtocolError on an
// unusable spec (scripted without a script, pct without a horizon).
std::unique_ptr<SchedulePolicy> make_policy(const ScheduleSpec& spec,
                                            std::uint64_t cell_seed);

}  // namespace mpcn
