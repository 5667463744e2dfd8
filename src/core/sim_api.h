// The simulated-algorithm API: how users express an algorithm A designed
// for a source model ASM(n, t, x).
//
// A simulated process p_j (Section 2.3/2.4) interacts with its world only
// through:
//   * mem[j].write(v)            -> SimContext::write
//   * mem.snapshot()             -> SimContext::snapshot
//   * x_cons[a].x_cons_propose(v)-> SimContext::x_cons_propose
// plus reading its input and deciding. These are exactly the operations
// the simulators know how to reproduce ("These are the only operations
// used by the processes p_1..p_n to cooperate").
//
// The same SimProgram runs unchanged:
//   * natively in its own model (experiment.h: make_direct_programs), or
//   * under the generalized BG engine in any target model of at least the
//     same power index (bg_engine.h: make_simulation).
#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/common/value.h"
#include "src/core/models.h"

namespace mpcn {

class SimContext {
 public:
  virtual ~SimContext() = default;

  virtual int id() const = 0;  // simulated process id j (0-based)
  virtual int n() const = 0;   // number of simulated processes
  virtual Value input() const = 0;

  // mem[j].write(v) — writes this process's entry.
  virtual void write(const Value& v) = 0;
  // mem.snapshot() — atomically reads all n entries.
  virtual std::vector<Value> snapshot() = 0;
  // x_cons[name].x_cons_propose(v) — one-shot, only for declared ports.
  virtual Value x_cons_propose(const std::string& name, const Value& v) = 0;

  virtual void decide(const Value& v) = 0;
  virtual bool has_decided() const = 0;
};

using SimProgram = std::function<void(SimContext&)>;

// Declaration of one x-consensus object the algorithm uses: a name and
// the statically-defined set of simulated processes allowed to access it
// (|ports| <= x of the source model).
struct XConsDecl {
  std::string name;
  std::set<int> ports;
};

struct SimulatedAlgorithm {
  ModelSpec model;  // the source model (n, t, x) the algorithm targets
  std::vector<SimProgram> programs;  // one per simulated process
  std::vector<XConsDecl> xcons;      // the objects the programs may access

  // Colorless runs agree on inputs through agreement objects (every
  // simulator proposes its own input as p_j's input — legitimate because
  // any value may be proposed by any process in a colorless task). A
  // colored task instead fixes p_j's input statically here (e.g. identity
  // for renaming).
  std::optional<std::vector<Value>> static_inputs;

  int n() const { return static_cast<int>(programs.size()); }

  // Structural checks: model validity, program count, port discipline.
  void validate() const;
};

}  // namespace mpcn
