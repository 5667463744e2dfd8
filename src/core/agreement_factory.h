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
// type backs its agreement keys: in a target model ASM(N, t, 1) only
// snapshot-based safe agreement is legal (Section 3); in ASM(N, t', x)
// with x > 1 the engine uses x_safe_agreement built from the model's
// x-consensus and test&set objects (Section 4). make_agreement() embodies
// that choice.
#pragma once

#include <memory>
#include <string>

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

class SetList;  // x_safe_agreement.h

// Factory selecting the agreement implementation legal in the target
// model: x == 1 -> SafeAgreement (Figure 1), x > 1 -> XSafeAgreement
// (Figure 6). `width` is the number of simulators (N). A non-empty `key`
// identifies the object for the white-box crash adversary: when x > 1,
// owner elections are reported to CrashManager::on_owner_elected so that
// CrashPlan::propose_trap(kOwnerElected) can target exactly the owners.
// `set_list` is the SET_LIST table of (width, x) that the engine's
// x_safe_agreement objects share (unused when x == 1).
std::shared_ptr<AgreementObject> make_agreement(
    int width, int x, const std::string& key,
    std::shared_ptr<const SetList> set_list);

}  // namespace mpcn
