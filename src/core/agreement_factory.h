// AgreementObject: the common contract of the paper's two agreement types.
//
//  * safe_agreement (Section 3.1, Figure 1):
//      Termination: if no simulator crashes while executing sa_propose(),
//      every correct simulator returns from sa_decide().
//  * x_safe_agreement (Section 4.2, Figure 6):
//      Termination: if at most (x-1) processes crash while executing
//      x_sa_propose(), every correct simulator returns from x_sa_decide().
//  Both: Agreement — at most one value decided; Validity — the decided
//  value was proposed.
//
// The generalized simulation engine is parameterized by which concrete
// type backs its agreement objects: in a target model ASM(N, t, 1) only
// snapshot-based safe agreement is legal (Section 3); in ASM(N, t', x)
// with x > 1 the engine uses x_safe_agreement built from the model's
// x-consensus and test&set objects (Section 4). EngineShared
// (engine_internal.h) makes that choice when it creates an object.
#pragma once

#include "src/common/value.h"
#include "src/runtime/process_context.h"

namespace mpcn {

class AgreementObject {
 public:
  virtual ~AgreementObject() = default;

  // One-shot per process, propose before decide (enforced).
  virtual void propose(ProcessContext& ctx, const Value& v) = 0;
  // Blocks (yield-spins) until a value is decided; see the type-specific
  // termination properties above.
  virtual Value decide(ProcessContext& ctx) = 0;
};

}  // namespace mpcn
