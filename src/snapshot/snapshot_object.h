// SnapshotObject: the model's shared memory mem[1..n] (Section 2.3).
//
// "The shared read/write memory is a snapshot object [1] denoted
//  mem[1..n], that has one entry mem[j] per process p_j. The process p_j
//  is the only one that can write mem[j] ... Any process can atomically
//  read the array mem[1..n] by invoking mem.snapshot()."
//
// Two implementations, the two values of the `mem` axis:
//  * PrimitiveSnapshot — the model primitive: write and snapshot are one
//    atomic step each. This is what the simulations run on.
//  * AfekSnapshot — the wait-free construction of Afek, Attiya, Dolev,
//    Gafni, Merritt & Shavit from single-writer registers (double collect
//    with embedded-view helping), at per-register step granularity. It
//    validates the paper's remark that "such a snapshot object can be
//    wait-free implemented on top of atomic read/write registers [1,4]".
#pragma once

#include <vector>

#include "src/common/value.h"
#include "src/runtime/process_context.h"

namespace mpcn {

class SnapshotObject {
 public:
  virtual ~SnapshotObject() = default;

  // Write entry `index` (single-writer discipline: when ownership checking
  // is on, index must equal ctx.pid()).
  virtual void write(ProcessContext& ctx, int index, const Value& v) = 0;

  // Atomically read all entries.
  virtual std::vector<Value> snapshot(ProcessContext& ctx) = 0;

  virtual int width() const = 0;
};

}  // namespace mpcn
