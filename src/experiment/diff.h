// Report diffing: compare two experiment Reports cell by cell and
// summarize regressions.
//
// The intended workflow (`mpcn diff a.json b.json`, or CI comparing
// reports across commits): run the same grid twice — different commit,
// backend, shard count or machine — and ask what changed. Records are
// matched by their grid IDENTITY (scenario, mode, source/target models,
// hop, seed, mem backend), not by position, so
// reports whose grids only partially overlap still diff usefully;
// duplicate identities pair up in order.
//
// Regressions, per matched cell:
//   * verdict — A was ok(), B is not (an equivalence witness broke);
//   * steps   — B took more scheduler steps than A on the same seeded
//               cell (the deterministic cost metric; wall time is
//               reported but machine-dependent, so it never regresses a
//               diff by itself);
//   * races   — both records ran the race oracle and B reports more
//               races than A. Fewer races is a fix (listed in the
//               changed cells, never a regression); a checked record
//               against an unchecked one compares nothing.
//   * crashes — B is a crash violation (failed AND realized at least one
//               process crash) where A was not: a fault-injection
//               finding appeared. The reverse is a fix. Unlike races
//               this needs no gating flag — both sides of the predicate
//               come from fields every record carries.
#pragma once

#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/experiment/record.h"

namespace mpcn {

// The grid identity of a record, as a human-readable key:
// "scenario|mode|source->target|hop|seed|lockstep|mem" (every run is
// lock-step; the segment keeps keys of older reports matching).
std::string record_identity(const RunRecord& r);

struct CellDelta {
  std::string key;  // record_identity of the matched pair
  std::uint64_t steps_a = 0;
  std::uint64_t steps_b = 0;
  bool ok_a = false;
  bool ok_b = false;
  bool races_checked_a = false;
  bool races_checked_b = false;
  int races_a = 0;
  int races_b = 0;
  // The record failed AND at least one process crashed in its run: the
  // failure involved the fault adversary.
  bool crash_violation_a = false;
  bool crash_violation_b = false;
  double wall_ms_a = 0.0;
  double wall_ms_b = 0.0;

  bool step_regression() const { return steps_b > steps_a; }
  bool step_improvement() const { return steps_b < steps_a; }
  bool verdict_regression() const { return ok_a && !ok_b; }
  bool verdict_fix() const { return !ok_a && ok_b; }
  // Race comparisons only fire when BOTH records ran the oracle —
  // comparing a checked run against an unchecked one says nothing.
  bool race_regression() const {
    return races_checked_a && races_checked_b && races_b > races_a;
  }
  bool race_fix() const {
    return races_checked_a && races_checked_b && races_b < races_a;
  }
  bool crash_regression() const {
    return !crash_violation_a && crash_violation_b;
  }
  bool crash_fix() const { return crash_violation_a && !crash_violation_b; }
  bool changed() const {
    return steps_a != steps_b || ok_a != ok_b || race_regression() ||
           race_fix() || crash_regression() || crash_fix();
  }
};

struct ReportDiff {
  int matched = 0;
  std::vector<CellDelta> changed;        // matched cells that differ
  std::vector<std::string> only_a;       // identities missing from B
  std::vector<std::string> only_b;       // identities missing from A
  int step_regressions = 0;
  int step_improvements = 0;
  int verdict_regressions = 0;
  int verdict_fixes = 0;
  int race_regressions = 0;  // cells where B reports more races than A
  int race_fixes = 0;        // cells where B reports fewer races than A
  int crash_regressions = 0;  // cells where B is a crash violation, A not
  int crash_fixes = 0;        // cells where A was a crash violation, B not
  double wall_ms_a = 0.0;    // total over matched cells
  double wall_ms_b = 0.0;

  bool has_regressions() const {
    return step_regressions > 0 || verdict_regressions > 0 ||
           race_regressions > 0 || crash_regressions > 0;
  }

  // Multi-line human summary; contains the literal phrase
  // "no regressions" iff !has_regressions() (CI greps for it).
  std::string summary() const;

  Json to_json() const;
};

ReportDiff diff_reports(const Report& a, const Report& b);

}  // namespace mpcn
