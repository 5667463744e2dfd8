// Atomic multi-writer multi-reader registers of Value.
//
// The base communication object of the model (Section 2.3). One register
// read or write is one atomic step: the access happens under the step
// guard, so register operations are serialized by the schedule and the
// step is the linearization point. Values are copy-on-write, so an access
// is a refcount bump regardless of payload depth.
#pragma once

#include <vector>

#include "src/common/value.h"
#include "src/runtime/process_context.h"

namespace mpcn {

class AtomicRegister {
 public:
  explicit AtomicRegister(Value initial = Value::nil())
      : value_(std::move(initial)) {}

  Value read(ProcessContext& ctx) const;
  void write(ProcessContext& ctx, Value v);

  // Non-stepping peek for harness-side inspection (tests, printing).
  Value peek() const;

 private:
  Value value_;
};

// A fixed-width array of atomic registers (collects read one entry at a
// time — reading the whole array is *not* atomic; that is what snapshot
// objects are for).
class RegisterArray {
 public:
  explicit RegisterArray(int width, Value initial = Value::nil());

  Value read(ProcessContext& ctx, int index) const;
  void write(ProcessContext& ctx, int index, Value v);
  int width() const { return static_cast<int>(cells_.size()); }

 private:
  std::vector<AtomicRegister> cells_;
};

}  // namespace mpcn
