#include "src/objects/test_and_set.h"

#include <utility>

namespace mpcn {

bool TestAndSet::test_and_set(ProcessContext& ctx) {
  auto g = ctx.step();
  return !std::exchange(taken_, true);
}

}  // namespace mpcn
