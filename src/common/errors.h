// Exception types used as control flow for crash/stop semantics.
//
// A crashed process "executes no more steps" (Section 2.3). We realize this
// by making its next primitive step throw ProcessCrashed, which unwinds the
// process function through RAII; the runtime catches it at the thread root.
// SimulationHalted similarly unwinds threads once the harness has decided
// the run is over (all correct processes decided, or step budget exceeded).
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>

namespace mpcn {

// Thrown at the next step of a process whose crash point was reached.
// Not an error: it is the crash event itself. The message is formatted
// into the exception, since every crash throws one.
class ProcessCrashed : public std::exception {
 public:
  explicit ProcessCrashed(int pid) : pid_(pid) {
    std::snprintf(msg_, sizeof msg_, "process %d crashed", pid);
  }
  int pid() const { return pid_; }
  const char* what() const noexcept override { return msg_; }

 private:
  int pid_;
  char msg_[32];  // "process -2147483648 crashed" fits
};

// Thrown at the next interruptible step once the harness stops the run.
class SimulationHalted : public std::exception {
 public:
  const char* what() const noexcept override { return "simulation halted"; }
};

// A genuine usage error (port violation, double propose, bad model
// parameters). Always a bug in the caller, never expected control flow.
class ProtocolError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

}  // namespace mpcn
