#include "src/core/agreement_factory.h"

#include "src/common/errors.h"
#include "src/core/safe_agreement.h"
#include "src/core/x_safe_agreement.h"
#include "src/runtime/execution.h"

namespace mpcn {

std::shared_ptr<AgreementObject> make_agreement(
    int width, int x, const std::string& key,
    std::shared_ptr<const SetList> set_list) {
  if (width < 1) throw ProtocolError("make_agreement: width < 1");
  if (x == 1) {
    // ASM(N, t, 1): only registers/snapshots are available — Figure 1.
    return std::make_shared<SafeAgreement>(width);
  }
  // ASM(N, t', x) with x > 1: x-consensus and test&set objects are legal —
  // Figure 6. Owner elections are reported to the crash adversary so the
  // white-box trap can realize the Theorem 2 x-crash scenario exactly.
  XSafeAgreement::CompeteHook hook;
  if (!key.empty()) {
    hook = [key](ProcessContext& ctx, bool owner) {
      if (owner) ctx.backend().crashes().on_owner_elected(ctx.tid(), key);
    };
  }
  return std::make_shared<XSafeAgreement>(std::move(set_list),
                                          std::move(hook));
}

}  // namespace mpcn
