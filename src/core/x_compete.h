// XCompete: dynamic owner election (Section 4.3, Figure 5).
//
//   x_compete_i():
//     (01) l <- 1; winner <- false
//     (02) while (l <= x and not winner) do
//     (03)   winner <- TS[l].test&set(); l <- l + 1
//     (04) end while
//     (05) return winner
//
// Built from an array of x one-shot test&set objects. Guarantees:
//  * at most x invokers obtain true (each TS object crowns one winner);
//  * if at most x processes invoke, every non-crashed invoker obtains
//    true (a process returns false only after losing all x objects,
//    which requires x distinct other winners).
// The winners become the *owners* of the associated x_safe_agreement
// object — the dynamic ownership that lets crashes of t' simulators kill
// at most ⌊t'/x⌋ objects.
#pragma once

#include <vector>

#include "src/objects/test_and_set.h"
#include "src/runtime/process_context.h"

namespace mpcn {

class XCompete {
 public:
  explicit XCompete(int x);

  // Returns true iff the caller becomes one of the <= x owners.
  bool compete(ProcessContext& ctx);

  int x() const { return static_cast<int>(ts_.size()); }

  // Harness-side: number of TS objects already taken.
  int taken_count() const;

 private:
  std::vector<TestAndSet> ts_;
};

}  // namespace mpcn
