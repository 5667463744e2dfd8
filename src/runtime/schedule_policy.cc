#include "src/runtime/schedule_policy.h"

namespace mpcn {

bool draw_crash(Rng& rng, CrashDirector* director, ProcessId pid) {
  return director != nullptr && director->budget_remaining() > 0 &&
         director->crashable(pid) && rng.chance(director->rate());
}

GrantChoice SeededRandomPolicy::pick(const std::vector<ThreadId>& runnable,
                                     CrashDirector* director) {
  const std::size_t index = rng_.index(runnable.size());
  return GrantChoice{index, draw_crash(rng_, director, runnable[index].pid)};
}

}  // namespace mpcn
