#include "src/experiment/diff.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace mpcn {

namespace {

// A "crash violation": the record failed AND its run realized at least
// one process crash — the failure needed the fault adversary.
bool crash_violation(const RunRecord& r) {
  return !r.ok() &&
         std::any_of(r.crashed.begin(), r.crashed.end(),
                     [](bool c) { return c; });
}

}  // namespace

std::string record_identity(const RunRecord& r) {
  std::ostringstream key;
  key << r.scenario << '|' << to_string(r.mode) << '|'
      << r.source.to_string() << "->" << r.target.to_string() << '|'
      << "hop" << r.hop_index << '|' << "seed" << r.seed << '|'
      << "lockstep|" << to_string(r.mem);
  return key.str();
}

ReportDiff diff_reports(const Report& a, const Report& b) {
  // Identity -> queue of not-yet-matched B records (in report order), so
  // duplicate identities pair up first-to-first.
  std::map<std::string, std::vector<const RunRecord*>> b_by_key;
  for (const RunRecord& rb : b.records) {
    b_by_key[record_identity(rb)].push_back(&rb);
  }
  std::map<std::string, std::size_t> b_consumed;

  ReportDiff diff;
  for (const RunRecord& ra : a.records) {
    const std::string key = record_identity(ra);
    auto it = b_by_key.find(key);
    std::size_t& used = b_consumed[key];
    if (it == b_by_key.end() || used >= it->second.size()) {
      diff.only_a.push_back(key);
      continue;
    }
    const RunRecord& rb = *it->second[used++];
    ++diff.matched;
    diff.wall_ms_a += ra.wall_ms;
    diff.wall_ms_b += rb.wall_ms;
    CellDelta d;
    d.key = key;
    d.steps_a = ra.steps;
    d.steps_b = rb.steps;
    d.ok_a = ra.ok();
    d.ok_b = rb.ok();
    d.races_checked_a = ra.races_checked;
    d.races_checked_b = rb.races_checked;
    d.races_a = static_cast<int>(ra.race_reports.size());
    d.races_b = static_cast<int>(rb.race_reports.size());
    d.crash_violation_a = crash_violation(ra);
    d.crash_violation_b = crash_violation(rb);
    d.wall_ms_a = ra.wall_ms;
    d.wall_ms_b = rb.wall_ms;
    if (d.step_regression()) ++diff.step_regressions;
    if (d.step_improvement()) ++diff.step_improvements;
    if (d.verdict_regression()) ++diff.verdict_regressions;
    if (d.verdict_fix()) ++diff.verdict_fixes;
    if (d.race_regression()) ++diff.race_regressions;
    if (d.race_fix()) ++diff.race_fixes;
    if (d.crash_regression()) ++diff.crash_regressions;
    if (d.crash_fix()) ++diff.crash_fixes;
    if (d.changed()) diff.changed.push_back(std::move(d));
  }
  for (const auto& [key, records] : b_by_key) {
    const auto it = b_consumed.find(key);
    const std::size_t used = it == b_consumed.end() ? 0 : it->second;
    for (std::size_t i = used; i < records.size(); ++i) {
      diff.only_b.push_back(key);
    }
  }
  return diff;
}

std::string ReportDiff::summary() const {
  std::ostringstream out;
  out << matched << " cells matched, " << only_a.size() << " only in A, "
      << only_b.size() << " only in B\n";
  for (const CellDelta& d : changed) {
    out << "  " << d.key << ": steps " << d.steps_a << " -> " << d.steps_b;
    if (d.step_regression()) out << " [STEP REGRESSION]";
    if (d.step_improvement()) out << " [improved]";
    if (d.ok_a != d.ok_b) {
      out << ", verdict " << (d.ok_a ? "ok" : "FAIL") << " -> "
          << (d.ok_b ? "ok" : "FAIL");
      if (d.verdict_regression()) out << " [VERDICT REGRESSION]";
    }
    if (d.race_regression() || d.race_fix()) {
      out << ", races " << d.races_a << " -> " << d.races_b;
      if (d.race_regression()) out << " [RACE REGRESSION]";
      if (d.race_fix()) out << " [race fixed]";
    }
    if (d.crash_regression() || d.crash_fix()) {
      out << ", crash violation "
          << (d.crash_violation_a ? "yes" : "no") << " -> "
          << (d.crash_violation_b ? "yes" : "no");
      if (d.crash_regression()) out << " [CRASH REGRESSION]";
      if (d.crash_fix()) out << " [crash fixed]";
    }
    out << "\n";
  }
  const bool improvements = step_improvements > 0 || verdict_fixes > 0 ||
                            race_fixes > 0 || crash_fixes > 0;
  std::ostringstream improved;
  if (improvements) {
    improved << " (" << step_improvements << " step improvement(s), "
             << verdict_fixes << " verdict fix(es)";
    if (race_fixes > 0) improved << ", " << race_fixes << " race fix(es)";
    if (crash_fixes > 0) {
      improved << ", " << crash_fixes << " crash fix(es)";
    }
    improved << ")";
  }
  if (has_regressions()) {
    out << step_regressions << " step regression(s), " << verdict_regressions
        << " verdict regression(s)";
    if (race_regressions > 0) {
      out << ", " << race_regressions << " race regression(s)";
    }
    if (crash_regressions > 0) {
      out << ", " << crash_regressions << " crash regression(s)";
    }
    out << improved.str();
  } else {
    out << "no regressions" << improved.str();
  }
  return out.str();
}

Json ReportDiff::to_json() const {
  Json j = Json::object();
  j.set("matched", matched)
      .set("step_regressions", step_regressions)
      .set("step_improvements", step_improvements)
      .set("verdict_regressions", verdict_regressions)
      .set("verdict_fixes", verdict_fixes)
      .set("race_regressions", race_regressions)
      .set("race_fixes", race_fixes)
      .set("crash_regressions", crash_regressions)
      .set("crash_fixes", crash_fixes)
      .set("wall_ms_a", wall_ms_a)
      .set("wall_ms_b", wall_ms_b)
      .set("has_regressions", has_regressions());
  Json changed_arr = Json::array();
  for (const CellDelta& d : changed) {
    Json c = Json::object();
    c.set("key", d.key)
        .set("steps_a", static_cast<std::int64_t>(d.steps_a))
        .set("steps_b", static_cast<std::int64_t>(d.steps_b))
        .set("ok_a", d.ok_a)
        .set("ok_b", d.ok_b)
        .set("wall_ms_a", d.wall_ms_a)
        .set("wall_ms_b", d.wall_ms_b);
    if (d.races_checked_a && d.races_checked_b) {
      c.set("races_a", d.races_a).set("races_b", d.races_b);
    }
    if (d.crash_regression() || d.crash_fix()) {
      c.set("crash_violation_a", d.crash_violation_a)
          .set("crash_violation_b", d.crash_violation_b);
    }
    changed_arr.push(std::move(c));
  }
  j.set("changed", std::move(changed_arr));
  Json oa = Json::array();
  for (const std::string& k : only_a) oa.push(Json(k));
  j.set("only_a", std::move(oa));
  Json ob = Json::array();
  for (const std::string& k : only_b) ob.push(Json(k));
  j.set("only_b", std::move(ob));
  return j;
}

}  // namespace mpcn
