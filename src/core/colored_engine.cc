#include "src/core/colored_engine.h"

#include <algorithm>

#include "src/common/errors.h"
#include "src/core/engine_internal.h"

namespace mpcn {

std::vector<Program> make_colored_simulation(
    const SimulatedAlgorithm& algorithm, const ModelSpec& target,
    const ColoredSimulationOptions& options) {
  algorithm.validate();
  target.validate();
  if (!algorithm.static_inputs) {
    throw ProtocolError(
        "colored simulation needs static_inputs: colored tasks assign "
        "inputs per simulated process (e.g. identities for renaming)");
  }
  if (options.check_legality) {
    if (target.x <= 1) {
      throw ProtocolError("colored simulation requires x' > 1");
    }
    if (algorithm.model.power() < target.power()) {
      throw ProtocolError("colored simulation requires ⌊t/x⌋ >= ⌊t'/x'⌋");
    }
    const int needed = std::max(target.n,
                                (target.n - target.t) + algorithm.model.t);
    if (algorithm.n() < needed) {
      throw ProtocolError(
          "colored simulation requires n >= max(n', (n'-t')+t): need " +
          std::to_string(needed) + ", have " +
          std::to_string(algorithm.n()));
    }
  }

  return internal::make_programs(std::make_shared<internal::EngineShared>(
      algorithm, target, options.mem, /*colored_in=*/true));
}

}  // namespace mpcn
