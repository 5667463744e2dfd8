// TestAndSet: one-shot test&set object (consensus number 2).
//
// Paper convention (Section 4.3 / Figure 5): "Such an object returns true
// to the first invocation, and false to the following invocations." Note
// this is the *winner* convention, inverted from the hardware TAS that
// returns the old flag value; we follow the paper.
//
// Model legality: test&set has consensus number 2 and "can be implemented
// from consensus number x objects [19]" for x >= 2, so ASM(n,t,x) worlds
// with x >= 2 may use them (the legality checker in core/models enforces
// this).
#pragma once

#include "src/runtime/process_context.h"

namespace mpcn {

class TestAndSet {
 public:
  // Returns true iff the caller is the first invoker (the winner).
  bool test_and_set(ProcessContext& ctx);

  // Harness-side peek.
  bool taken() const { return taken_; }

  static constexpr int consensus_number = 2;

 private:
  bool taken_ = false;
};

}  // namespace mpcn
