#include "src/experiment/record.h"

#include <algorithm>
#include <set>

#include "src/common/errors.h"
#include "src/experiment/diff.h"

namespace mpcn {

const char* to_string(ExecutionMode mode) {
  switch (mode) {
    case ExecutionMode::kDirect:
      return "direct";
    case ExecutionMode::kSimulated:
      return "simulated";
    case ExecutionMode::kChain:
      return "chain";
    case ExecutionMode::kColored:
      return "colored";
  }
  return "?";
}

ExecutionMode execution_mode_from_string(const std::string& s) {
  if (s == "direct") return ExecutionMode::kDirect;
  if (s == "simulated") return ExecutionMode::kSimulated;
  if (s == "chain") return ExecutionMode::kChain;
  if (s == "colored") return ExecutionMode::kColored;
  throw ProtocolError("unknown ExecutionMode: " + s);
}

const char* to_string(MemKind mem) {
  return mem == MemKind::kAfek ? "afek" : "primitive";
}

MemKind mem_kind_from_string(const std::string& s) {
  if (s == "afek") return MemKind::kAfek;
  if (s == "primitive") return MemKind::kPrimitive;
  throw ProtocolError("unknown MemKind: " + s);
}

Json value_to_json(const Value& v) {
  if (v.is_nil()) return Json::null();
  if (v.is_int()) return Json(v.as_int());
  if (v.is_string()) return Json(v.as_string());
  Json arr = Json::array();
  for (const Value& item : v.as_list()) arr.push(value_to_json(item));
  return arr;
}

Value value_from_json(const Json& j) {
  switch (j.kind()) {
    case Json::Kind::kNull:
      return Value::nil();
    case Json::Kind::kInt:
      return Value(j.as_int());
    case Json::Kind::kString:
      return Value(j.as_string());
    case Json::Kind::kArray: {
      Value::List list;
      list.reserve(j.size());
      for (const Json& item : j.items()) list.push_back(value_from_json(item));
      return Value(std::move(list));
    }
    default:
      throw ProtocolError("Json value does not encode a Value: " + j.dump());
  }
}

Json model_spec_to_json(const ModelSpec& m) {
  Json j = Json::object();
  j.set("n", m.n).set("t", m.t).set("x", m.x);
  return j;
}

ModelSpec model_spec_from_json(const Json& j) {
  return ModelSpec{static_cast<int>(j.at("n").as_int()),
                   static_cast<int>(j.at("t").as_int()),
                   static_cast<int>(j.at("x").as_int())};
}

bool RunRecord::ok() const {
  if (!error.empty() || timed_out) return false;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const bool is_crashed = i < crashed.size() && crashed[i];
    if (!is_crashed && !decisions[i].has_value()) return false;
  }
  return !validated || valid;
}

Outcome RunRecord::outcome() const {
  Outcome out;
  out.decisions = decisions;
  out.crashed = crashed;
  out.timed_out = timed_out;
  out.steps = steps;
  return out;
}

Json RunRecord::to_json(bool include_timing) const {
  Json j = Json::object();
  j.set("scenario", scenario)
      .set("cell_index", cell_index)
      .set("mode", to_string(mode))
      .set("source", model_spec_to_json(source))
      .set("target", model_spec_to_json(target))
      .set("hop_index", hop_index)
      .set("seed", static_cast<std::int64_t>(seed))
      .set("scheduler", "lockstep")
      .set("mem", to_string(mem));
  Json in = Json::array();
  for (const Value& v : inputs) in.push(value_to_json(v));
  j.set("inputs", std::move(in));
  Json dec = Json::array();
  for (const auto& d : decisions) {
    dec.push(d ? value_to_json(*d) : Json::null());
  }
  j.set("decisions", std::move(dec));
  Json cr = Json::array();
  for (bool c : crashed) cr.push(Json(c));
  j.set("crashed", std::move(cr));
  j.set("timed_out", timed_out)
      .set("steps", static_cast<std::int64_t>(steps));
  if (include_timing) j.set("wall_ms", wall_ms);
  j.set("task", task)
      .set("validated", validated)
      .set("valid", valid)
      .set("why", why)
      .set("error", error);
  // Schedule identity only when recorded: default-path reports stay
  // byte-identical to pre-explorer builds.
  if (!schedule_digest.empty()) j.set("schedule_digest", schedule_digest);
  if (schedule_trace) j.set("schedule_trace", schedule_trace->to_json());
  // Crash adversary only when one ran: crash-free reports keep their
  // pre-crash bytes.
  if (!crash_plan.is_none()) j.set("crash_plan", crash_plan.to_json());
  if (!crash_points.empty()) {
    Json points = Json::array();
    for (const CrashPoint& cp : crash_points) {
      Json p = Json::object();
      p.set("pid", cp.pid).set("at_step", static_cast<std::int64_t>(cp.at_step));
      points.push(std::move(p));
    }
    j.set("crash_points", std::move(points));
  }
  // Race-oracle fields only when the cell asked for the analysis; the
  // empty-report array still serializes so "checked and clean" survives
  // the round trip.
  if (races_checked) {
    j.set("races_checked", true);
    Json races = Json::array();
    for (const RaceReport& r : race_reports) races.push(r.to_json());
    j.set("race_reports", std::move(races));
  }
  j.set("ok", ok());
  return j;
}

RunRecord RunRecord::from_json(const Json& j) {
  RunRecord r;
  r.scenario = j.at("scenario").as_string();
  // Reports written before grids were index-stamped lack the field.
  if (const Json* ci = j.find("cell_index")) {
    r.cell_index = static_cast<int>(ci->as_int());
  }
  r.mode = execution_mode_from_string(j.at("mode").as_string());
  r.source = model_spec_from_json(j.at("source"));
  r.target = model_spec_from_json(j.at("target"));
  r.hop_index = static_cast<int>(j.at("hop_index").as_int());
  r.seed = static_cast<std::uint64_t>(j.at("seed").as_int());
  // Every run is lock-step. A record of another scheduler (an old
  // free-mode report) describes a run this build cannot reproduce.
  const std::string& scheduler = j.at("scheduler").as_string();
  if (scheduler != "lockstep") {
    throw ProtocolError("unsupported scheduler: " + scheduler);
  }
  // Reports of the threaded runtime carry a "wait_strategy" label; it
  // names a handoff mechanism that no longer exists and is ignored.
  r.mem = mem_kind_from_string(j.at("mem").as_string());
  for (const Json& v : j.at("inputs").items()) {
    r.inputs.push_back(value_from_json(v));
  }
  for (const Json& d : j.at("decisions").items()) {
    if (d.is_null()) {
      r.decisions.emplace_back(std::nullopt);
    } else {
      r.decisions.emplace_back(value_from_json(d));
    }
  }
  // A decided-nil entry and an undecided entry both dump as null; the
  // library never decides ⊥, so null reads back as "undecided".
  for (const Json& c : j.at("crashed").items()) {
    r.crashed.push_back(c.as_bool());
  }
  r.timed_out = j.at("timed_out").as_bool();
  r.steps = static_cast<std::uint64_t>(j.at("steps").as_int());
  if (const Json* w = j.find("wall_ms")) r.wall_ms = w->as_double();
  r.task = j.at("task").as_string();
  r.validated = j.at("validated").as_bool();
  r.valid = j.at("valid").as_bool();
  r.why = j.at("why").as_string();
  r.error = j.at("error").as_string();
  if (const Json* d = j.find("schedule_digest")) {
    r.schedule_digest = d->as_string();
  }
  if (const Json* t = j.find("schedule_trace")) {
    r.schedule_trace =
        std::make_shared<const ScheduleTrace>(ScheduleTrace::from_json(*t));
  }
  if (const Json* cp = j.find("crash_plan")) {
    r.crash_plan = CrashPlan::from_json(*cp);
  }
  if (const Json* pts = j.find("crash_points")) {
    for (const Json& p : pts->items()) {
      r.crash_points.push_back(
          CrashPoint{static_cast<ProcessId>(p.at("pid").as_int()),
                     static_cast<std::uint64_t>(p.at("at_step").as_int())});
    }
  }
  if (const Json* rc = j.find("races_checked")) {
    r.races_checked = rc->as_bool();
  }
  if (const Json* rr = j.find("race_reports")) {
    for (const Json& race : rr->items()) {
      r.race_reports.push_back(RaceReport::from_json(race));
    }
  }
  return r;
}

int Report::ok_count() const {
  int c = 0;
  for (const RunRecord& r : records) c += r.ok() ? 1 : 0;
  return c;
}

int Report::failed_count() const {
  return static_cast<int>(records.size()) - ok_count();
}

bool Report::all_ok() const { return failed_count() == 0; }

std::uint64_t Report::total_steps() const {
  std::uint64_t s = 0;
  for (const RunRecord& r : records) s += r.steps;
  return s;
}

double Report::total_wall_ms() const {
  double s = 0;
  for (const RunRecord& r : records) s += r.wall_ms;
  return s;
}

Json Report::to_json(bool include_timing) const {
  Json j = Json::object();
  j.set("title", title)
      .set("cells", static_cast<std::int64_t>(records.size()))
      .set("ok", ok_count())
      .set("failed", failed_count())
      .set("total_steps", static_cast<std::int64_t>(total_steps()));
  if (include_timing) j.set("total_wall_ms", total_wall_ms());
  Json recs = Json::array();
  for (const RunRecord& r : records) recs.push(r.to_json(include_timing));
  j.set("records", std::move(recs));
  return j;
}

Report Report::from_json(const Json& j) {
  Report rep;
  rep.title = j.at("title").as_string();
  for (const Json& r : j.at("records").items()) {
    rep.records.push_back(RunRecord::from_json(r));
  }
  return rep;
}

Report Report::merge(const std::vector<Report>& parts) {
  Report out;
  // Pre-PR4 reports carry no cell_index stamp. Such records merge keyed
  // by their grid IDENTITY (record_identity, diff.h) instead: exact
  // duplicates (timing excluded) are dropped, anything else is kept in
  // part order AFTER the index-stamped records — identity is not a
  // guaranteed-unique key, so differing same-identity records cannot be
  // ruled conflicts the way duplicate indices can.
  std::vector<RunRecord> unindexed;
  for (const Report& part : parts) {
    if (out.title.empty()) out.title = part.title;
    for (const RunRecord& r : part.records) {
      if (r.cell_index < 0) {
        unindexed.push_back(r);
      } else {
        out.records.push_back(r);
      }
    }
  }
  std::stable_sort(out.records.begin(), out.records.end(),
                   [](const RunRecord& a, const RunRecord& b) {
                     return a.cell_index < b.cell_index;
                   });
  std::vector<RunRecord> merged;
  merged.reserve(out.records.size());
  for (RunRecord& r : out.records) {
    if (!merged.empty() && merged.back().cell_index == r.cell_index) {
      // A requeued cell that completed on two workers is deterministic,
      // so the duplicates must agree on everything but wall time.
      if (merged.back().to_json(false) != r.to_json(false)) {
        throw ProtocolError(
            "Report::merge: conflicting duplicate records for cell " +
            std::to_string(r.cell_index));
      }
      continue;
    }
    merged.push_back(std::move(r));
  }
  // Serialize each unindexed payload once; identity+payload equality
  // marks an exact duplicate.
  std::set<std::string> seen_unindexed;
  for (RunRecord& r : unindexed) {
    const std::string key =
        record_identity(r) + '\n' + r.to_json(false).dump();
    if (seen_unindexed.insert(key).second) merged.push_back(std::move(r));
  }
  out.records = std::move(merged);
  return out;
}

std::string Report::summary() const {
  return title + ": " + std::to_string(ok_count()) + "/" +
         std::to_string(records.size()) + " cells ok, " +
         std::to_string(total_steps()) + " steps";
}

}  // namespace mpcn
