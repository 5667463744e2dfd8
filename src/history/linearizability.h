// Linearizability checking (Wing & Gong style search with memoization).
//
// A history is linearizable w.r.t. a sequential specification if there is
// a total order of its operations that (a) respects real time — if op A's
// response precedes op B's invocation, A orders before B — and (b) is a
// legal sequential execution of the spec.
//
// The checker does a DFS over "which operation linearizes next", pruning
// by real-time minimality and memoizing failed (done-set, state) pairs.
// Worst case exponential; intended for the short adversarial histories
// produced by the lock-step tests (<= ~30 operations,
// kMaxLinearizableOps enforced).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "src/history/history.h"

namespace mpcn {

// A deterministic sequential specification with serializable state.
class SequentialSpec {
 public:
  virtual ~SequentialSpec() = default;

  virtual std::string initial_state() const = 0;

  // If applying `e` in `state` is legal (a snapshot's view is what the
  // state holds), return the successor state; otherwise nullopt.
  virtual std::optional<std::string> apply(const std::string& state,
                                           const Event& e) const = 0;
};

// Snapshot object of the given width. Width 1 is a register: a write to
// cell 0 writes it, and a one-wide view reads it.
//   kWrite     cell, value                  legal iff 0 <= cell < width
//   kSnapshot  view = the width values      legal iff it equals the state
class SnapshotSpec : public SequentialSpec {
 public:
  explicit SnapshotSpec(int width) : width_(width) {}
  std::string initial_state() const override;
  std::optional<std::string> apply(const std::string& state,
                                   const Event& e) const override;

 private:
  const int width_;
};

// The longest history is_linearizable accepts; longer ones throw.
constexpr std::size_t kMaxLinearizableOps = 64;

bool is_linearizable(const std::vector<Event>& history,
                     const SequentialSpec& spec);

}  // namespace mpcn
