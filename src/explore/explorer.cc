#include "src/explore/explorer.h"

#include <algorithm>

#include "src/common/errors.h"
#include "src/history/history.h"
#include "src/obs/events.h"
#include "src/obs/progress.h"
#include "src/obs/spans.h"

namespace mpcn {

const char* to_string(ExplorePolicy policy) {
  switch (policy) {
    case ExplorePolicy::kSeededRandom:
      return "random";
    case ExplorePolicy::kPct:
      return "pct";
    case ExplorePolicy::kBoundedDfs:
      return "dfs";
  }
  return "?";
}

ExplorePolicy explore_policy_from_string(const std::string& s) {
  if (s == "random") return ExplorePolicy::kSeededRandom;
  if (s == "pct") return ExplorePolicy::kPct;
  if (s == "dfs") return ExplorePolicy::kBoundedDfs;
  throw ProtocolError("unknown explore policy '" + s +
                      "' (want random|pct|dfs)");
}

namespace {

// Explorer telemetry (src/obs/metrics.h). Pure sidecar: counters mirror
// the result accounting but never feed back into it, so instrumented
// and uninstrumented searches produce byte-identical reports.
Counter& m_schedules() {
  static Counter& c = metrics_registry().counter("explore.schedules");
  return c;
}
Counter& m_steps() {
  static Counter& c = metrics_registry().counter("explore.steps");
  return c;
}
Counter& m_violations() {
  static Counter& c = metrics_registry().counter("explore.violations");
  return c;
}
Counter& m_races() {
  static Counter& c = metrics_registry().counter("explore.races");
  return c;
}
Counter& m_crash_violations() {
  static Counter& c = metrics_registry().counter("explore.crash_violations");
  return c;
}
Counter& m_shrink_replays() {
  static Counter& c = metrics_registry().counter("explore.shrink_replays");
  return c;
}
Counter& m_shrink_runs() {
  static Counter& c = metrics_registry().counter("explore.shrink_runs");
  return c;
}
Counter& m_early_stops() {
  static Counter& c = metrics_registry().counter("explore.early_stops");
  return c;
}
Counter& m_spec_skips() {
  static Counter& c = metrics_registry().counter("explore.spec_skips");
  return c;
}

bool any_crashed(const RunRecord& rec) {
  for (bool c : rec.crashed) {
    if (c) return true;
  }
  return false;
}

std::string race_why(const RunRecord& rec) {
  std::string why = "race: " + rec.race_reports.front().why;
  if (rec.race_reports.size() > 1) {
    why += " (+" + std::to_string(rec.race_reports.size() - 1) + " more)";
  }
  return why;
}

}  // namespace

OracleVerdict judge(const RunRecord& rec,
                    const std::shared_ptr<const SequentialSpec>& spec,
                    const std::shared_ptr<HistoryRecorder>& history) {
  OracleVerdict v;
  v.race = rec.raced();
  v.crashed = any_crashed(rec);
  if (!rec.ok()) {
    v.violated = true;
    if (!rec.error.empty()) {
      v.why = "error: " + rec.error;
    } else if (rec.timed_out) {
      v.why = "timed out (liveness)";
    } else if (rec.validated && !rec.valid) {
      v.why = "task violation: " + rec.why;
    } else {
      v.why = "undecided correct process (liveness)";
    }
    // The torn read that breaks a task often IS the race; say both.
    if (v.race) v.why += "; " + race_why(rec);
    return v;
  }
  if (v.race) {
    v.violated = true;
    v.why = race_why(rec);
    return v;
  }
  if (spec && history) {
    const std::vector<Event>& events = history->events();
    if (events.size() > kMaxLinearizableOps) {
      v.spec_skipped = true;
    } else if (!is_linearizable(events, *spec)) {
      v.violated = true;
      v.why = "history violates sequential spec (" +
              std::to_string(events.size()) + " events)";
    }
  }
  return v;
}

namespace {

// One search run: stamp the schedule, attach the observation hooks, run.
// A non-null `history` is the search's one recorder. It is emptied here,
// inside the schedule's span, so freeing the previous run's events is
// timed with the rest of the recording, not as the explorer's loop
// between spans; its buffer keeps its capacity across schedules.
RunRecord run_schedule(const ExperimentCell& base, int index,
                       const ScheduleSpec& schedule,
                       std::shared_ptr<SchedulePolicy> policy,
                       const std::shared_ptr<HistoryRecorder>& history) {
  ExperimentCell cell = base;
  cell.cell_index = index;
  cell.schedule = schedule;
  cell.options.schedule_policy = std::move(policy);
  cell.record_schedule = true;
  cell.history = history;
  ScopedSpan span("explore.schedule", "explore");
  if (history) history->reset();
  return run_cell(cell);
}

// Schedule 0 of a random/PCT search.
ScheduleSpec first_schedule(const ExploreOptions& opts,
                            std::uint64_t horizon) {
  ScheduleSpec s;
  s.seed = opts.seed;
  if (opts.policy == ExplorePolicy::kSeededRandom) {
    s.kind = SchedulePolicyKind::kSeededRandom;
  } else {
    s.kind = SchedulePolicyKind::kPct;
    s.pct_depth = opts.pct_depth;
    s.pct_horizon = horizon;
  }
  return s;
}

// Schedule `index` of the search whose schedule 0 is `first`: the one
// rule by which every engine, shard workers included, derives schedules.
ScheduleSpec nth_schedule(ScheduleSpec first, int index) {
  first.seed += static_cast<std::uint64_t>(index);
  return first;
}

}  // namespace

RangeResult run_schedule_range(const ExperimentCell& base, int first,
                               int count) {
  const auto history =
      base.check_races ? std::make_shared<HistoryRecorder>() : nullptr;
  RangeResult out;
  out.steps.reserve(static_cast<std::size_t>(count));
  for (int i = first; i < first + count; ++i) {
    RunRecord rec = run_schedule(base, i, nth_schedule(base.schedule, i),
                                 nullptr, history);
    out.steps.push_back(rec.steps);
    if (i == 0 || judge(rec, nullptr, history).violated) {
      out.records.push_back(std::move(rec));
    }
  }
  return out;
}

RunRecord replay_trace(const ExperimentCell& cell,
                       const ScheduleTrace& trace) {
  ExperimentCell replay = cell;
  ScheduleSpec s;
  s.kind = SchedulePolicyKind::kScripted;
  s.script = std::make_shared<const ScheduleTrace>(trace);
  replay.schedule = std::move(s);
  replay.options.schedule_policy = nullptr;
  replay.record_schedule = true;
  if (!trace.crashes.empty() && replay.options.crashes.is_none()) {
    // Crash marks need a director to land: attach an explored plan sized
    // to the recorded crashes so the trace replays from the report alone.
    replay.options.crashes = CrashPlan::explored(
        static_cast<int>(trace.crashes.size()));
  }
  return run_cell(replay);
}

namespace {

// Shrink works over (grant, crash-here) pairs so crash marks travel with
// their grants through every ddmin candidate.
using TraceEntry = std::pair<ThreadId, bool>;

std::vector<TraceEntry> to_entries(const ScheduleTrace& trace) {
  std::vector<TraceEntry> entries;
  entries.reserve(trace.grants.size());
  for (const ThreadId& t : trace.grants) entries.emplace_back(t, false);
  for (std::uint64_t c : trace.crashes) {
    entries[static_cast<std::size_t>(c)].second = true;
  }
  return entries;
}

ScheduleTrace to_trace(const std::vector<TraceEntry>& entries) {
  ScheduleTrace trace;
  trace.grants.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    trace.grants.push_back(entries[i].first);
    if (entries[i].second) {
      trace.crashes.push_back(static_cast<std::uint64_t>(i));
    }
  }
  return trace;
}

}  // namespace

ShrinkResult shrink(const ExperimentCell& cell, const ScheduleTrace& failing,
                    const ShrinkOptions& options) {
  ScopedSpan span("explore.shrink", "explore");
  ShrinkResult result;
  const bool want_history =
      options.spec && cell.mode == ExecutionMode::kDirect;

  auto fails = [&](const std::vector<TraceEntry>& entries,
                   bool force) -> bool {
    if (!force && result.replays >= options.max_replays) return false;
    ++result.replays;
    ExperimentCell candidate = cell;
    candidate.options.schedule_policy = nullptr;
    ScheduleSpec s;
    s.kind = SchedulePolicyKind::kScripted;
    auto script = std::make_shared<const ScheduleTrace>(to_trace(entries));
    const bool has_crashes = !script->crashes.empty();
    s.script = std::move(script);
    candidate.schedule = std::move(s);
    candidate.record_schedule = false;
    candidate.check_races = options.check_races;
    if (has_crashes && candidate.options.crashes.is_none()) {
      // Crash marks need a director to land (same rule as replay_trace).
      candidate.options.crashes = CrashPlan::explored(
          static_cast<int>(candidate.schedule.script->crashes.size()));
    }
    auto history =
        want_history ? std::make_shared<HistoryRecorder>() : nullptr;
    candidate.history = history;
    m_shrink_runs().add();
    const RunRecord rec = run_cell(candidate);
    const OracleVerdict verdict = judge(rec, options.spec, history);
    if (options.require_race && !verdict.race) return false;
    if (options.require_crash && !verdict.crashed) return false;
    return verdict.violated;
  };

  std::vector<TraceEntry> current = to_entries(failing);
  if (!fails(current, /*force=*/true)) {
    // Not reproducible through scripted replay: hand the trace back
    // unshrunk and say so.
    result.trace = failing;
    return result;
  }

  // ddmin (Zeller & Hildebrandt): remove chunks at doubling granularity
  // until no single-element removal preserves the failure.
  std::size_t n = 2;
  const auto at = [&current](std::size_t i) {
    return current.begin() + static_cast<long>(i);
  };
  while (current.size() >= 2 && result.replays < options.max_replays) {
    const std::size_t chunk = (current.size() + n - 1) / n;
    bool reduced = false;
    for (std::size_t start = 0; start < current.size(); start += chunk) {
      const std::size_t stop = std::min(start + chunk, current.size());
      // A full chunk equal to the one before it: removing it leaves the
      // candidate just judged in this pass, which did not fail (or the
      // pass would have ended). Same verdict, same budget charge.
      if (start > 0 && stop - start == chunk &&
          std::equal(at(start), at(stop), at(start - chunk))) {
        if (result.replays < options.max_replays) ++result.replays;
        continue;
      }
      std::vector<TraceEntry> candidate;
      candidate.reserve(current.size());
      candidate.insert(candidate.end(), current.begin(), at(start));
      candidate.insert(candidate.end(), at(stop), current.end());
      if (fails(candidate, /*force=*/false)) {
        current = std::move(candidate);
        n = std::max<std::size_t>(n - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (n >= current.size()) break;  // granularity 1: locally minimal
      n = std::min(n * 2, current.size());
    }
  }

  // Crash-point minimization: try clearing each surviving crash mark
  // individually (keeping its grant), so the counterexample carries only
  // the crashes the failure actually needs.
  for (std::size_t i = 0;
       i < current.size() && result.replays < options.max_replays; ++i) {
    if (!current[i].second) continue;
    current[i].second = false;
    if (!fails(current, /*force=*/false)) current[i].second = true;
  }

  result.trace = to_trace(current);
  // The shrinker's guarantee: the artifact it hands back has just been
  // seen failing, one final replay, budget-exempt.
  result.verified = fails(current, /*force=*/true);
  return result;
}

ExploreResult explore(const ExperimentCell& cell,
                      const ExploreOptions& options) {
  if (options.budget < 1) {
    throw ProtocolError("explore needs budget >= 1");
  }
  if (options.policy == ExplorePolicy::kPct && options.pct_depth < 1) {
    throw ProtocolError("explore needs pct-depth >= 1");
  }
  if (options.crash_budget < 0) {
    throw ProtocolError("explore needs crash-budget >= 0");
  }
  if (options.crash_budget > cell.target.t) {
    // A run with more than t crashes is outside the model: it owes no one
    // termination, so its timeouts are not violations.
    throw ProtocolError("explore needs crash-budget <= t = " +
                        std::to_string(cell.target.t) + " of " +
                        cell.target.to_string());
  }
  if (options.crash_budget > 0 &&
      (options.crash_rate < 0.0 || options.crash_rate > 1.0)) {
    throw ProtocolError("explore needs crash-rate in [0, 1]");
  }
  if (options.shards > 0) {
    if (options.policy == ExplorePolicy::kBoundedDfs) {
      throw ProtocolError(
          "bounded-DFS search carries its tree across runs and cannot "
          "shard; use --policy random|pct for distributed exploration");
    }
    if (options.spec) {
      throw ProtocolError(
          "the sequential-spec oracle observes in-process history and "
          "cannot shard");
    }
  }
  if (options.check_races && cell.mode != ExecutionMode::kDirect) {
    throw ProtocolError(
        "the race oracle observes direct-mode memory histories; use a "
        "direct cell (mpcn explore --mode direct)");
  }

  ExploreResult result;
  result.policy = options.policy;

  // Every search, probe, shard and shrink run flows from this cell, so
  // the race-oracle flag rides along everywhere uniformly.
  ExperimentCell base = cell;
  base.check_races = options.check_races;
  // The search picks every run's policy itself: a caller's policy object
  // would override each schedule and could not cross the shard wire.
  base.options.schedule_policy = nullptr;
  // Product search: every run gets the explored plan, so the schedule
  // policy decides crashes at each grant within this budget. The plan is
  // part of the cell, so it ships over the shard wire unchanged and the
  // sharded search stays byte-identical to the in-process one.
  if (options.crash_budget > 0) {
    base.options.crashes =
        CrashPlan::explored(options.crash_budget, options.crash_rate);
  }

  const bool want_history =
      options.spec != nullptr && cell.mode == ExecutionMode::kDirect;
  // The search's one recorder, attached to every run when the spec
  // oracle reads its events or the race oracle would otherwise allocate
  // a fresh recorder inside run_cell every schedule.
  const auto history = want_history || options.check_races
                           ? std::make_shared<HistoryRecorder>()
                           : nullptr;

  auto handle_violation = [&](int index, RunRecord rec,
                              const OracleVerdict& verdict) {
    ExploreViolation v;
    v.schedule_index = index;
    v.why = verdict.why;
    v.race = verdict.race;
    v.crashed = verdict.crashed;
    m_violations().add();
    if (v.race) m_races().add();
    if (v.crashed) m_crash_violations().add();
    // Flight recorder: violations are the events a post-mortem reader
    // scans for first. One event per oracle dimension that fired.
    log_event("violation_found",
              Json::object()
                  .set("schedule", static_cast<std::int64_t>(index))
                  .set("why", v.why));
    if (v.race) {
      log_event("race_found", Json::object().set(
                                  "schedule", static_cast<std::int64_t>(index)));
    }
    if (v.crashed) {
      log_event("crash_violation_found",
                Json::object().set("schedule",
                                   static_cast<std::int64_t>(index)));
    }
    if (rec.schedule_trace) v.trace = *rec.schedule_trace;
    v.record = std::move(rec);
    if (options.shrink_violations && !v.trace.empty()) {
      log_event("shrink_begin",
                Json::object()
                    .set("schedule", static_cast<std::int64_t>(index))
                    .set("trace_len",
                         static_cast<std::int64_t>(v.trace.size())));
      // shrink() is a pure function of (base, trace, options), and within
      // one search only the race and crashed flags vary its options: an
      // earlier violation with the same trace and flags has the result.
      const auto same = std::find_if(
          result.violations.begin(), result.violations.end(),
          [&v](const ExploreViolation& u) {
            return u.race == v.race && u.crashed == v.crashed &&
                   u.trace == v.trace;
          });
      if (same != result.violations.end()) {
        v.shrunk = same->shrunk;
        v.shrunk_verified = same->shrunk_verified;
        v.shrink_replays = same->shrink_replays;
      } else {
        ShrinkOptions so;
        so.max_replays = options.shrink_budget;
        so.spec = options.spec;
        so.check_races = options.check_races;
        so.require_race = v.race;
        so.require_crash = v.crashed;
        ShrinkResult sr = shrink(base, v.trace, so);
        v.shrunk = std::move(sr.trace);
        v.shrunk_verified = sr.verified;
        v.shrink_replays = sr.replays;
      }
      m_shrink_replays().add(static_cast<std::uint64_t>(v.shrink_replays));
      log_event("shrink_end",
                Json::object()
                    .set("schedule", static_cast<std::int64_t>(index))
                    .set("shrunk_len",
                         static_cast<std::int64_t>(v.shrunk.size()))
                    .set("replays",
                         static_cast<std::int64_t>(v.shrink_replays))
                    .set("verified", v.shrunk_verified));
    } else {
      v.shrunk = v.trace;
    }
    result.violations.push_back(std::move(v));
    const bool stop = options.max_violations > 0 &&
                      static_cast<int>(result.violations.size()) >=
                          options.max_violations;
    if (stop) m_early_stops().add();
    return stop;
  };

  // PCT horizon: probe the cell once under its own seed to learn a
  // realistic schedule length (the declared step limit is usually orders
  // of magnitude larger, which would starve the change points). The
  // probe is a real run: if the bug shows under the plain seeded
  // schedule at the base seed, that IS a violation (schedule_index -1),
  // not a measurement to discard.
  std::uint64_t horizon = options.pct_horizon;
  if (options.policy == ExplorePolicy::kPct && horizon == 0) {
    ScheduleSpec probe;
    probe.kind = SchedulePolicyKind::kSeededRandom;
    probe.seed = options.seed;
    RunRecord rec = run_schedule(base, -1, probe, nullptr, history);
    horizon = std::max<std::uint64_t>(rec.steps, 8);
    result.total_steps += rec.steps;
    m_steps().add(rec.steps);
    const OracleVerdict v = judge(rec, options.spec, history);
    if (v.spec_skipped) {
      ++result.skipped_spec_checks;
      m_spec_skips().add();
    }
    if (v.violated && handle_violation(-1, std::move(rec), v)) {
      result.pct_horizon = horizon;
      return result;
    }
  }
  result.pct_horizon = horizon;
  const ScheduleSpec schedule0 = first_schedule(options, horizon);

  if (options.shards == 0) {
    // In-process search, one schedule after another on this thread.
    // Bounded DFS shares one policy object across runs; random/PCT
    // rebuild a fresh policy per schedule. The sharded backend reports
    // progress from its coordinator instead (below).
    ProgressMeter heartbeat(options.progress, "explore", "schedules",
                            options.budget);
    std::shared_ptr<BoundedDfsPolicy> dfs;
    if (options.policy == ExplorePolicy::kBoundedDfs) {
      dfs = std::make_shared<BoundedDfsPolicy>(options.dfs_preemption_bound);
    }
    for (int i = 0; i < options.budget; ++i) {
      ScheduleSpec schedule;  // kDefault under DFS (the object wins)
      if (!dfs) schedule = nth_schedule(schedule0, i);
      if (dfs && i > 0 && !dfs->advance()) {
        result.exhausted = true;
        break;
      }
      RunRecord rec = run_schedule(base, i, schedule, dfs, history);
      ++result.schedules;
      m_schedules().add();
      heartbeat.tick();
      result.total_steps += rec.steps;
      m_steps().add(rec.steps);
      if (i == 0 && rec.schedule_trace) {
        result.first_trace = *rec.schedule_trace;
      }
      const OracleVerdict v = judge(rec, options.spec, history);
      if (v.spec_skipped) {
        ++result.skipped_spec_checks;
        m_spec_skips().add();
      }
      if (v.violated && handle_violation(i, std::move(rec), v)) {
        break;
      }
    }
    if (dfs) result.exhausted = result.exhausted || dfs->exhausted();
    return result;
  }

  // ---- sharded search -------------------------------------------------
  // Ranges of schedules over forked workers (src/dist/). Replies
  // land in per-index `slots`; the merge below walks them IN INDEX ORDER
  // and replays the serial loop's accounting decisions, so the final
  // report is byte-identical to the serial run (pinned by shard_test's
  // ShardSearch cases). A reply carries every schedule's step count and
  // the records of its violating schedules and of schedule 0; a schedule
  // without a record judged clean on the worker.
  //
  // Early stop: the serial loop breaks at the max_violations-th violated
  // index. The search keeps a conservative upper bound on that index —
  // `cutoff`, the m-th smallest violated index seen so far — and
  // dispatches no range past it. The bound only ever decreases and never
  // drops below the true stop index, so every index the merge will visit
  // is guaranteed to complete, while indices past the final cutoff are at
  // worst wasted work, never missing work. The coordinator calls both
  // callbacks on this thread, so neither needs a lock.
  struct Slot {
    std::uint64_t steps = 0;
    bool ran = false;
    OracleVerdict verdict;
    std::unique_ptr<RunRecord> rec;  // kept for violations and index 0
  };
  std::vector<Slot> slots(static_cast<std::size_t>(options.budget));
  int cutoff = options.budget - 1;
  std::vector<int> violated_indices;  // sorted ascending

  auto note_violation = [&](int index) {
    if (options.max_violations <= 0) return;  // collect-all: no early stop
    violated_indices.insert(
        std::upper_bound(violated_indices.begin(), violated_indices.end(),
                         index),
        index);
    if (static_cast<int>(violated_indices.size()) >= options.max_violations) {
      cutoff = std::min(cutoff, violated_indices[static_cast<std::size_t>(
                                    options.max_violations - 1)]);
    }
  };

  ExperimentCell first = base;
  first.schedule = schedule0;
  run_sharded_search(
      first, options.budget, ShardOptions(options),
      [&](int index) { return index <= cutoff; },
      [&](int index, RangeResult&& range) {
        for (std::uint64_t steps : range.steps) {
          Slot& slot = slots[static_cast<std::size_t>(index++)];
          slot.steps = steps;
          slot.ran = true;
        }
        for (RunRecord& rec : range.records) {
          const int i = rec.cell_index;
          Slot& slot = slots[static_cast<std::size_t>(i)];
          slot.verdict = judge(rec, nullptr, nullptr);
          slot.rec = std::make_unique<RunRecord>(std::move(rec));
          if (slot.verdict.violated) note_violation(i);
        }
      });

  // Deterministic merge: replay the serial accounting in index order.
  // Shrinking happens here, after the merge has decided which violations
  // the serial run would have accepted — shrink is a pure function of
  // (cell, trace, options), so deferring it cannot change a byte.
  for (int i = 0; i < options.budget; ++i) {
    Slot& s = slots[static_cast<std::size_t>(i)];
    if (!s.ran) break;  // only reachable past the serial stop index
    ++result.schedules;
    m_schedules().add();
    result.total_steps += s.steps;
    m_steps().add(s.steps);
    if (i == 0 && s.rec && s.rec->schedule_trace) {
      result.first_trace = *s.rec->schedule_trace;
    }
    if (s.verdict.violated &&
        handle_violation(i, std::move(*s.rec), s.verdict)) {
      break;
    }
  }
  return result;
}

bool ExploreResult::race_found() const {
  for (const ExploreViolation& v : violations) {
    if (v.race) return true;
  }
  return false;
}

int ExploreResult::race_reports() const {
  int n = 0;
  for (const ExploreViolation& v : violations) {
    n += static_cast<int>(v.record.race_reports.size());
  }
  return n;
}

bool ExploreResult::crash_found() const {
  for (const ExploreViolation& v : violations) {
    if (v.crashed) return true;
  }
  return false;
}

bool ExploreResult::crash_only() const {
  if (violations.empty()) return false;
  for (const ExploreViolation& v : violations) {
    if (!v.crashed) return false;
  }
  return true;
}

Json ExploreResult::to_json(bool include_traces) const {
  Json j = Json::object();
  j.set("policy", to_string(policy))
      .set("schedules", schedules)
      .set("exhausted", exhausted)
      .set("found", found())
      .set("violations", static_cast<std::int64_t>(violations.size()))
      .set("race_found", race_found())
      .set("race_reports", race_reports())
      .set("crash_found", crash_found())
      .set("crash_only", crash_only())
      .set("total_steps", static_cast<std::int64_t>(total_steps))
      .set("pct_horizon", static_cast<std::int64_t>(pct_horizon))
      .set("pruned_prefixes", static_cast<std::int64_t>(pruned_prefixes))
      .set("skipped_spec_checks", skipped_spec_checks);
  Json arr = Json::array();
  for (const ExploreViolation& v : violations) {
    Json vj = Json::object();
    vj.set("schedule_index", v.schedule_index)
        .set("why", v.why)
        .set("race", v.race)
        .set("crashed", v.crashed)
        .set("races", static_cast<std::int64_t>(v.record.race_reports.size()))
        .set("trace_len", static_cast<std::int64_t>(v.trace.size()))
        .set("trace_digest", v.trace.digest())
        .set("shrunk_len", static_cast<std::int64_t>(v.shrunk.size()))
        .set("shrunk_digest", v.shrunk.digest())
        .set("shrunk_verified", v.shrunk_verified)
        .set("shrink_replays", v.shrink_replays);
    if (include_traces) {
      vj.set("trace", v.trace.to_json())
          .set("shrunk_trace", v.shrunk.to_json());
    }
    vj.set("record", v.record.to_json(/*include_timing=*/false));
    arr.push(std::move(vj));
  }
  j.set("violation_details", std::move(arr));
  return j;
}

std::string ExploreResult::summary() const {
  std::string s = std::string(to_string(policy)) + ": " +
                  std::to_string(schedules) + " schedule(s)";
  if (exhausted) s += " (exhausted)";
  if (violations.empty()) {
    s += ", no violations";
  } else {
    s += ", " + std::to_string(violations.size()) + " violation(s)";
  }
  if (race_found()) {
    s += ", " + std::to_string(race_reports()) + " race report(s)";
  }
  if (crash_found()) {
    s += crash_only() ? ", all crash-dependent" : ", some crash-dependent";
  }
  // A clean verdict covers only the schedules the spec oracle judged.
  if (skipped_spec_checks > 0) {
    s += ", " + std::to_string(skipped_spec_checks) +
         " lin check(s) skipped (history over " +
         std::to_string(kMaxLinearizableOps) + " ops)";
  }
  if (violations.empty()) return s;
  const ExploreViolation& v = violations.front();
  s += "; first: " + v.why + ", trace " + std::to_string(v.trace.size()) +
       " -> " + std::to_string(v.shrunk.size()) + " grants" +
       (v.shrunk_verified ? " (verified)" : " (UNVERIFIED)");
  return s;
}

}  // namespace mpcn
