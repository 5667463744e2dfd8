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

  // If applying `e` (op, arg) in `state` legally yields `e.ret`, return
  // the successor state; otherwise nullopt.
  virtual std::optional<std::string> apply(const std::string& state,
                                           const Event& e) const = 0;
};

// Single-writer snapshot object of the given width.
//   ops: "write"    arg = [index, value]      ret ignored
//        "snapshot" arg ignored               ret = list of width values
class SnapshotSpec : public SequentialSpec {
 public:
  explicit SnapshotSpec(int width) : width_(width) {}
  std::string initial_state() const override;
  std::optional<std::string> apply(const std::string& state,
                                   const Event& e) const override;

 private:
  const int width_;
};

// Single MWMR register.
//   ops: "write" arg = value; "read" ret = value.
class RegisterSpec : public SequentialSpec {
 public:
  std::string initial_state() const override;
  std::optional<std::string> apply(const std::string& state,
                                   const Event& e) const override;
};

// The longest history is_linearizable accepts; longer ones throw.
constexpr std::size_t kMaxLinearizableOps = 64;

bool is_linearizable(const std::vector<Event>& history,
                     const SequentialSpec& spec);

}  // namespace mpcn
