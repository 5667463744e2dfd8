// Unit tests: src/runtime — fibers, step controllers, crash plans,
// contexts, cooperative mutex, shared world, execution harness, and the
// allocation contract of starting threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "src/common/errors.h"
#include "src/obs/metrics.h"
#include "src/registers/atomic_register.h"
#include "src/runtime/cooperative_mutex.h"
#include "src/runtime/execution.h"
#include "src/runtime/fiber.h"

namespace mpcn {
namespace {

// Blocks handed out by the global operator new below, for the
// AllocationContract cases. No test here starts an OS thread.
std::size_t g_news = 0;

}  // namespace
}  // namespace mpcn

// Not inlined: inlined into gtest's `new TestClass`, GCC 12 reports
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++mpcn::g_news;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace mpcn {
namespace {

ExecutionOptions lockstep(std::uint64_t seed, std::uint64_t limit = 200000) {
  ExecutionOptions o;
  o.seed = seed;
  o.step_limit = limit;
  return o;
}

std::vector<Value> int_inputs(int n) {
  std::vector<Value> v;
  for (int i = 0; i < n; ++i) v.push_back(Value(i));
  return v;
}

// --- fibers ---

// Two fibers and the caller, switching in a ring. A fiber's entry never
// returns: both end parked and are destroyed that way.
struct FiberRing {
  std::string order;
  Fiber caller;
  std::unique_ptr<Fiber> a;
  std::unique_ptr<Fiber> b;
};

TEST(Fiber, SwitchToPingPongsBetweenTheCallerAndTwoFibers) {
  // Every round runs caller -> a -> b -> caller by switch_to alone. The
  // first round enters each fiber through its context, every later one
  // resumes where the fiber switched away; a switch onto a stack below
  // the caller's is what a fortified longjmp would refuse.
  constexpr int kRounds = 10000;
  FiberRing ring;
  ring.a = std::make_unique<Fiber>(
      [](void* arg) {
        FiberRing& r = *static_cast<FiberRing*>(arg);
        for (;;) {
          r.order += 'a';
          Fiber::switch_to(*r.a, *r.b);
        }
      },
      &ring);
  ring.b = std::make_unique<Fiber>(
      [](void* arg) {
        FiberRing& r = *static_cast<FiberRing*>(arg);
        for (;;) {
          r.order += 'b';
          Fiber::switch_to(*r.b, r.caller);
        }
      },
      &ring);
  for (int r = 0; r < kRounds; ++r) {
    Fiber::switch_to(ring.caller, *ring.a);
    ring.order += 'c';
  }
  std::string expected;
  for (int r = 0; r < kRounds; ++r) expected += "abc";
  EXPECT_EQ(ring.order, expected);
}

TEST(Fiber, FirstEntryThroughAnotherFibersSwitch) {
  // b is first entered by a's switch, never by the caller's. Repeated so
  // later fibers map their stacks where destroyed ones were.
  for (int round = 0; round < 3; ++round) {
    FiberRing ring;
    ring.b = std::make_unique<Fiber>(
        [](void* arg) {
          FiberRing& r = *static_cast<FiberRing*>(arg);
          r.order += 'b';
          for (;;) Fiber::switch_to(*r.b, r.caller);
        },
        &ring);
    ring.a = std::make_unique<Fiber>(
        [](void* arg) {
          FiberRing& r = *static_cast<FiberRing*>(arg);
          r.order += 'a';
          for (;;) Fiber::switch_to(*r.a, *r.b);
        },
        &ring);
    Fiber::switch_to(ring.caller, *ring.a);
    EXPECT_EQ(ring.order, "ab");
  }
}

TEST(Execution, SingleProcessDecides) {
  std::vector<Program> p{[](ProcessContext& ctx) { ctx.decide(Value(7)); }};
  Outcome out = run_execution(std::move(p), {Value(0)}, lockstep(1));
  ASSERT_TRUE(out.decisions[0].has_value());
  EXPECT_EQ(out.decisions[0]->as_int(), 7);
  EXPECT_FALSE(out.timed_out);
}

TEST(Execution, InputsAreDelivered) {
  std::vector<Program> p;
  for (int i = 0; i < 4; ++i) {
    p.push_back([](ProcessContext& ctx) { ctx.decide(ctx.input()); });
  }
  Outcome out = run_execution(std::move(p), int_inputs(4), lockstep(2));
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(out.decisions[i].has_value());
    EXPECT_EQ(out.decisions[i]->as_int(), i);
  }
}

TEST(Execution, RunIsSingleUse) {
  Execution e({[](ProcessContext& c) { c.decide(Value(1)); }}, {Value(0)},
              lockstep(1));
  e.run();
  EXPECT_THROW(e.run(), ProtocolError);
}

TEST(Execution, InputSizeMismatchThrows) {
  EXPECT_THROW(
      Execution({[](ProcessContext&) {}}, std::vector<Value>{}, lockstep(1)),
      ProtocolError);
}

TEST(Execution, ProtocolErrorsPropagate) {
  std::vector<Program> p{
      [](ProcessContext&) { throw ProtocolError("boom"); }};
  Execution e(std::move(p), {Value(0)}, lockstep(1));
  EXPECT_THROW(e.run(), ProtocolError);
}

TEST(Execution, StepLimitFlagsTimeout) {
  // A process that spins forever: the run must end, flagged timed_out.
  std::vector<Program> p{[](ProcessContext& ctx) {
    for (;;) ctx.yield();
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, lockstep(3, 500));
  EXPECT_TRUE(out.timed_out);
  EXPECT_FALSE(out.decisions[0].has_value());
}

TEST(Execution, StopsWhenAllCorrectDecided) {
  // One process decides, the other spins; once p0 decides and p1 is
  // crashed, the run stops without burning the step budget.
  ExecutionOptions o = lockstep(4, 1'000'000);
  o.crashes = CrashPlan::fixed({{1, 5}});
  std::vector<Program> p{
      [](ProcessContext& ctx) {
        for (int i = 0; i < 50; ++i) ctx.yield();
        ctx.decide(Value(1));
      },
      [](ProcessContext& ctx) {
        for (;;) ctx.yield();
      }};
  Outcome out = run_execution(std::move(p), int_inputs(2), o);
  EXPECT_FALSE(out.timed_out);
  EXPECT_TRUE(out.decisions[0].has_value());
  EXPECT_TRUE(out.crashed[1]);
  EXPECT_LT(out.steps, 10'000u);
}

// --- crash plans ---

TEST(CrashPlan, FixedCrashStopsProcessAtExactStep) {
  std::atomic<int> steps_taken{0};
  ExecutionOptions o = lockstep(5);
  o.crashes = CrashPlan::fixed({{0, 4}});  // crash at own step 4
  std::vector<Program> p{[&steps_taken](ProcessContext& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.yield();
      steps_taken.fetch_add(1);
    }
    ctx.decide(Value(0));
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, o);
  EXPECT_TRUE(out.crashed[0]);
  EXPECT_FALSE(out.decisions[0].has_value());
  // The 4th step throws before executing, so exactly 3 completed.
  EXPECT_EQ(steps_taken.load(), 3);
}

TEST(CrashPlan, NoneNeverCrashes) {
  CrashManager m(3, CrashPlan::none());
  for (int s = 0; s < 1000; ++s) {
    EXPECT_FALSE(m.on_step(ThreadId{s % 3, 0}));
  }
  EXPECT_EQ(m.crash_count(), 0);
}

TEST(CrashPlan, HazardRespectsBudget) {
  CrashManager m(8, CrashPlan::hazard(0.5, 3, 42));
  for (int s = 0; s < 10000; ++s) m.on_step(ThreadId{s % 8, 0});
  EXPECT_LE(m.crash_count(), 3);
  EXPECT_GT(m.crash_count(), 0);
}

TEST(CrashPlan, HazardEligibilityRestricts) {
  CrashManager m(4, CrashPlan::hazard(1.0, 4, 7, {2}));
  for (int s = 0; s < 100; ++s) m.on_step(ThreadId{s % 4, 0});
  EXPECT_TRUE(m.is_crashed(2));
  EXPECT_FALSE(m.is_crashed(0));
  EXPECT_FALSE(m.is_crashed(1));
  EXPECT_FALSE(m.is_crashed(3));
}

TEST(CrashPlan, CrashNowIsSticky) {
  CrashManager m(2, CrashPlan::none());
  m.crash_now(1);
  EXPECT_TRUE(m.is_crashed(1));
  EXPECT_TRUE(m.on_step(ThreadId{1, 0}));  // crashed processes stay crashed
  EXPECT_EQ(m.crash_count(), 1);
}

TEST(CrashPlan, BudgetReporting) {
  EXPECT_EQ(CrashPlan::none().budget(5), 0);
  EXPECT_EQ(CrashPlan::fixed({{0, 1}, {1, 1}}).budget(5), 2);
  EXPECT_EQ(CrashPlan::hazard(0.1, 3, 1).budget(5), 3);
  EXPECT_EQ(CrashPlan::hazard(0.1, 9, 1).budget(5), 5);
}

// --- determinism of the lock-step schedule ---

TEST(Lockstep, SameSeedSameInterleaving) {
  // Two processes append their ids to a shared register list; the final
  // list is a trace of the schedule. Same seed => same trace.
  auto run_trace = [](std::uint64_t seed) {
    auto reg = std::make_shared<AtomicRegister>(Value(Value::List{}));
    std::vector<Program> p;
    for (int i = 0; i < 3; ++i) {
      p.push_back([reg, i](ProcessContext& ctx) {
        for (int r = 0; r < 10; ++r) {
          Value cur = reg->read(ctx);
          Value::List l = cur.as_list();
          l.push_back(Value(i));
          reg->write(ctx, Value(std::move(l)));
        }
        ctx.decide(Value(0));
      });
    }
    Outcome out = run_execution(std::move(p), int_inputs(3), lockstep(seed));
    EXPECT_FALSE(out.timed_out);
    return reg->peek().to_string();
  };
  EXPECT_EQ(run_trace(11), run_trace(11));
  EXPECT_EQ(run_trace(12), run_trace(12));
  // Different seeds virtually always give different traces for 30 steps.
  EXPECT_NE(run_trace(11), run_trace(12));
}

TEST(Lockstep, StepsAreSerialized) {
  // Under lock-step, read-modify-write sequences of distinct processes
  // interleave but each *step* is exclusive; a per-step counter collision
  // detector must never fire.
  auto busy = std::make_shared<std::atomic<int>>(0);
  auto collisions = std::make_shared<std::atomic<int>>(0);
  std::vector<Program> p;
  for (int i = 0; i < 4; ++i) {
    p.push_back([busy, collisions](ProcessContext& ctx) {
      for (int r = 0; r < 25; ++r) {
        auto g = ctx.step();
        if (busy->fetch_add(1) != 0) collisions->fetch_add(1);
        busy->fetch_sub(1);
      }
      ctx.decide(Value(0));
    });
  }
  run_execution(std::move(p), int_inputs(4), lockstep(6));
  EXPECT_EQ(collisions->load(), 0);
}

std::vector<Program> spinners(int n) {
  std::vector<Program> p;
  for (int i = 0; i < n; ++i) {
    p.push_back([](ProcessContext& ctx) {
      for (;;) ctx.yield();
    });
  }
  return p;
}

TEST(Lockstep, StepLimitStopsEveryProcess) {
  // The process that took the last step unwinds first, without parking;
  // the parked ones follow, lowest ThreadId first.
  auto unwound = std::make_shared<std::vector<ProcessId>>();
  std::vector<Program> p;
  for (int i = 0; i < 4; ++i) {
    p.push_back([unwound](ProcessContext& ctx) {
      struct Log {
        std::vector<ProcessId>& to;
        ProcessId pid;
        ~Log() { to.push_back(pid); }
      } log{*unwound, ctx.pid()};
      for (;;) ctx.yield();
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(4), lockstep(7, 500));
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.steps, 500u);
  EXPECT_EQ(out.decided_count(), 0);
  ASSERT_EQ(unwound->size(), 4u);
  EXPECT_TRUE(std::is_sorted(unwound->begin() + 1, unwound->end()))
      << ::testing::PrintToString(*unwound);
}

TEST(Lockstep, WallLimitStopsEveryProcess) {
  // No step budget in reach: the deadline, checked at grant time, must
  // stop the run and unwind every parked process.
  ExecutionOptions o = lockstep(5, 100'000'000);
  o.wall_limit = std::chrono::milliseconds(100);
  Outcome out = run_execution(spinners(3), int_inputs(3), o);
  EXPECT_TRUE(out.timed_out);
  EXPECT_LT(out.steps, 100'000'000u);
  EXPECT_EQ(out.decided_count(), 0);
}

// Fiber switches `f` adds to the `runtime.switches` counter.
std::uint64_t switches_during(const std::function<void()>& f) {
  const Counter& switches = metrics_registry().counter("runtime.switches");
  const std::uint64_t before = switches.value();
  f();
  return switches.value() - before;
}

TEST(Lockstep, RegrantsToTheRunningFiberAddNoSwitch) {
  // A lone process is re-granted the token at every step: the only
  // switches are into its fiber and back out when its body returns.
  for (const int steps : {10, 1000}) {
    const std::uint64_t switches = switches_during([steps] {
      std::vector<Program> p{[steps](ProcessContext& ctx) {
        for (int i = 0; i < steps; ++i) ctx.yield();
        ctx.decide(Value(0));
      }};
      run_execution(std::move(p), {Value(0)}, lockstep(16));
    });
    EXPECT_EQ(switches, 2u) << steps << " steps";
  }
  // Two processes hand the token back and forth.
  const std::uint64_t switches = switches_during([] {
    std::vector<Program> p(2, [](ProcessContext& ctx) {
      for (int i = 0; i < 100; ++i) ctx.yield();
      ctx.decide(Value(0));
    });
    run_execution(std::move(p), int_inputs(2), lockstep(16));
  });
  EXPECT_GT(switches, 10u);
}

TEST(Lockstep, EveryProcessRunsOnTheCallersThread) {
  // Lock-step processes and their forked children are fibers on the
  // thread that calls Execution::run: no OS thread is created.
  const std::thread::id caller = std::this_thread::get_id();
  auto seen = std::make_shared<std::vector<std::thread::id>>();
  std::vector<Program> p;
  for (int i = 0; i < 3; ++i) {
    p.push_back([seen](ProcessContext& ctx) {
      seen->push_back(std::this_thread::get_id());
      ChildHandle h = ctx.fork([seen](ProcessContext& cctx) {
        seen->push_back(std::this_thread::get_id());
        cctx.yield();
      });
      ctx.yield();
      h.join();
      ctx.decide(Value(0));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(3), lockstep(14));
  EXPECT_EQ(out.decided_count(), 3);
  ASSERT_EQ(seen->size(), 6u);
  for (const std::thread::id& id : *seen) EXPECT_EQ(id, caller);
}

TEST(Lockstep, CrashWithLiveChildrenReplaysItsGrantTrace) {
  // A simulator crashes mid-run while holding live ChildHandles. Process
  // 1 has already decided, so the crash stops the run: the parent
  // unwinds through ~ChildHandle, which waits for each child while its
  // own exception is in flight, and the children throw and catch
  // SimulationHalted meanwhile. All of it shares one thread's exception
  // state, and the schedule must still replay exactly.
  struct Run {
    std::vector<ThreadId> trace;
    Outcome out;
    int halted_children = 0;
  };
  auto run_once = [] {
    auto halted = std::make_shared<std::atomic<int>>(0);
    std::vector<Program> p{
        [halted](ProcessContext& ctx) {
          auto child = [halted](ProcessContext& cctx) {
            try {
              for (;;) cctx.yield();
            } catch (const SimulationHalted&) {
              halted->fetch_add(1);
              throw;
            }
          };
          ChildHandle a = ctx.fork(child);
          ChildHandle b = ctx.fork(child);
          for (int i = 0; i < 10; ++i) ctx.yield();
          ctx.backend().crashes().crash_now(ctx.pid());
          for (;;) ctx.yield();
        },
        [](ProcessContext& ctx) { ctx.decide(Value(1)); }};
    Execution e(std::move(p), int_inputs(2), lockstep(15));
    e.controller().enable_grant_trace();
    Run r;
    r.out = e.run();
    r.trace = e.controller().grant_trace();
    r.halted_children = halted->load();
    return r;
  };
  const Run first = run_once();
  const Run second = run_once();
  EXPECT_TRUE(first.out.crashed[0]);
  EXPECT_TRUE(first.out.decisions[1].has_value());
  EXPECT_FALSE(first.out.timed_out);
  EXPECT_GE(first.halted_children, 1);
  EXPECT_GT(first.trace.size(), 10u);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.halted_children, second.halted_children);
  EXPECT_EQ(first.out.steps, second.out.steps);
}

// --- fork / cancel / crash domains ---

TEST(Fork, ChildSharesCrashDomain) {
  // Parent forks a child; the parent's pid crashes; both must stop.
  ExecutionOptions o = lockstep(7);
  o.crashes = CrashPlan::fixed({{0, 10}});
  auto child_stopped_cleanly = std::make_shared<std::atomic<bool>>(false);
  std::vector<Program> p{[&](ProcessContext& ctx) {
    ChildHandle h = ctx.fork([&](ProcessContext& cctx) {
      try {
        for (;;) cctx.yield();
      } catch (const ProcessCrashed&) {
        child_stopped_cleanly->store(true);
        throw;
      }
    });
    for (;;) ctx.yield();
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, o);
  EXPECT_TRUE(out.crashed[0]);
  EXPECT_TRUE(child_stopped_cleanly->load());
}

TEST(Fork, JoinReturnsAfterChildFinishes) {
  std::vector<Program> p{[](ProcessContext& ctx) {
    auto flag = std::make_shared<std::atomic<bool>>(false);
    ChildHandle h = ctx.fork([flag](ProcessContext& cctx) {
      for (int i = 0; i < 5; ++i) cctx.yield();
      flag->store(true);
    });
    h.join();
    EXPECT_TRUE(flag->load());
    ctx.decide(Value(1));
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, lockstep(8));
  EXPECT_TRUE(out.decisions[0].has_value());
}

TEST(Fork, CancelUnblocksSpinningChild) {
  std::vector<Program> p{[](ProcessContext& ctx) {
    ChildHandle h = ctx.fork([](ProcessContext& cctx) {
      for (;;) cctx.yield();  // spins until cancelled
    });
    for (int i = 0; i < 20; ++i) ctx.yield();
    h.cancel();
    h.join();
    ctx.decide(Value(1));
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, lockstep(9));
  EXPECT_TRUE(out.decisions[0].has_value());
  EXPECT_FALSE(out.timed_out);
}

TEST(Fork, DestructorCleansUpSpinningChild) {
  // Parent abandons a spinning child by returning; the handle destructor
  // must cancel and join it without deadlocking the lock-step schedule.
  std::vector<Program> p{[](ProcessContext& ctx) {
    ChildHandle h = ctx.fork([](ProcessContext& cctx) {
      for (;;) cctx.yield();
    });
    for (int i = 0; i < 10; ++i) ctx.yield();
    ctx.decide(Value(1));
  }};
  Outcome out = run_execution(std::move(p), {Value(0)}, lockstep(10));
  EXPECT_TRUE(out.decisions[0].has_value());
}

TEST(Fork, ChildErrorSurfacesThroughJoin) {
  std::vector<Program> p{[](ProcessContext& ctx) {
    ChildHandle h = ctx.fork(
        [](ProcessContext&) { throw ProtocolError("child bug"); });
    EXPECT_THROW(h.join(), ProtocolError);
    ctx.decide(Value(1));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(11));
}

TEST(Fork, ErrorAccessorReportsAfterDone) {
  std::vector<Program> p{[](ProcessContext& ctx) {
    ChildHandle h = ctx.fork(
        [](ProcessContext&) { throw ProtocolError("child bug"); });
    while (!h.done()) ctx.yield();
    EXPECT_NE(h.error(), nullptr);
    h.cancel();
    ctx.decide(Value(1));
  }};
  run_execution(std::move(p), {Value(0)}, lockstep(12));
}

// --- allocation contract ---

// Two processes, each forking `forks` children (at most 8) that take one
// step, then joining them.
std::size_t blocks_of_forking_run(int forks) {
  std::vector<Program> p(2, [forks](ProcessContext& ctx) {
    std::array<ChildHandle, 8> children;
    for (int c = 0; c < forks; ++c) {
      children[static_cast<std::size_t>(c)] =
          ctx.fork([](ProcessContext& cctx) { cctx.yield(); });
    }
    for (int c = 0; c < forks; ++c) {
      children[static_cast<std::size_t>(c)].join();
    }
    ctx.yield();
    ctx.decide(Value(0));
  });
  std::vector<Value> inputs = int_inputs(2);
  const std::size_t before = g_news;
  const Outcome out = run_execution(std::move(p), std::move(inputs),
                                    lockstep(21));
  const std::size_t blocks = g_news - before;
  EXPECT_EQ(out.decided_count(), 2);
  return blocks;
}

std::uint64_t fiber_contexts() {
  return metrics_registry().counter("runtime.fiber_contexts").value();
}

TEST(AllocationContract, ForkedThreadsAllocateNothingOnceThePoolIsWarm) {
  // The first run may make slots; after it, a thread is a pooled slot
  // and starting one allocates no block and makes no fiber context.
  blocks_of_forking_run(8);
  const std::uint64_t contexts = fiber_contexts();
  const std::size_t with_forks = blocks_of_forking_run(8);
  EXPECT_EQ(fiber_contexts(), contexts);
  EXPECT_EQ(with_forks, blocks_of_forking_run(0));
}

TEST(AllocationContract, ARunOfMoreThreadsThanThePoolHoldsMakesOnlyTheExcess) {
  // 2 processes and 100 children: the pool keeps 64 idle slots, so every
  // run after the first makes the other 38 afresh.
  const auto run = [] {
    std::vector<Program> p(2, [](ProcessContext& ctx) {
      std::vector<ChildHandle> children;
      for (int c = 0; c < 50; ++c) {
        children.push_back(ctx.fork([](ProcessContext& cctx) {
          cctx.yield();
        }));
      }
      for (ChildHandle& c : children) c.join();
      ctx.decide(Value(0));
    });
    EXPECT_EQ(run_execution(std::move(p), int_inputs(2), lockstep(22))
                  .decided_count(),
              2);
  };
  run();
  const std::uint64_t contexts = fiber_contexts();
  run();
  EXPECT_EQ(fiber_contexts() - contexts, 102u - 64u);
}

// --- cooperative mutex ---

TEST(CooperativeMutex, MutualExclusion) {
  auto m = std::make_shared<CooperativeMutex>();
  auto inside = std::make_shared<std::atomic<int>>(0);
  auto violations = std::make_shared<std::atomic<int>>(0);
  std::vector<Program> p;
  for (int i = 0; i < 4; ++i) {
    p.push_back([m, inside, violations](ProcessContext& ctx) {
      for (int r = 0; r < 10; ++r) {
        CoopLock lk(*m, ctx);
        if (inside->fetch_add(1) != 0) violations->fetch_add(1);
        ctx.yield();  // hold across a step to invite contention
        inside->fetch_sub(1);
      }
      ctx.decide(Value(0));
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(4), lockstep(13));
  EXPECT_FALSE(out.timed_out);
  EXPECT_EQ(violations->load(), 0);
}

// --- waiting off the schedule ---

// The grant trace of one run of `programs` under `seed`.
std::vector<ThreadId> grants_of(std::vector<Program> programs,
                                std::uint64_t seed) {
  const std::size_t n = programs.size();
  Execution e(std::move(programs), int_inputs(static_cast<int>(n)),
              lockstep(seed));
  e.controller().enable_grant_trace();
  e.run();
  return e.controller().grant_trace();
}

TEST(CooperativeMutex, AWaiterTakesNoStepUntilTheUnlockAndOneAfter) {
  // p0 takes the mutex first (it starts first) and holds it over five
  // steps; p1 finds it held, waits, and needs no step once it holds it.
  // Whatever the seed, p1's only grant is its retry after the unlock.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto m = std::make_shared<CooperativeMutex>();
    std::vector<Program> p{
        [m](ProcessContext& ctx) {
          {
            CoopLock lk(*m, ctx);
            for (int i = 0; i < 5; ++i) ctx.yield();
          }
          ctx.decide(Value(0));
        },
        [m](ProcessContext& ctx) {
          CoopLock lk(*m, ctx);
          ctx.decide(Value(1));
        }};
    const std::vector<ThreadId> q0(5, ThreadId{0, 0});
    std::vector<ThreadId> expected = q0;
    expected.push_back(ThreadId{1, 0});
    EXPECT_EQ(grants_of(std::move(p), seed), expected) << "seed " << seed;
  }
}

TEST(Fork, JoinTakesNoStep) {
  // The parent joins at once: every grant of the run is its child's.
  std::vector<Program> p{[](ProcessContext& ctx) {
    ChildHandle h = ctx.fork([](ProcessContext& cctx) {
      for (int i = 0; i < 5; ++i) cctx.yield();
    });
    h.join();
    ctx.decide(Value(0));
  }};
  EXPECT_EQ(grants_of(std::move(p), 3),
            std::vector<ThreadId>(5, ThreadId{0, 1}));
}

// Fiber contexts made by a run of 64 threads (the pool's size) that each
// take one step: 0 once the pool is full, 1 per slot a run before it
// failed to give back.
std::uint64_t contexts_of_a_full_pool_run() {
  const std::uint64_t before = fiber_contexts();
  std::vector<Program> p(2, [](ProcessContext& ctx) {
    std::vector<ChildHandle> children;
    for (int c = 0; c < 31; ++c) {
      children.push_back(ctx.fork([](ProcessContext& cctx) {
        cctx.yield();
      }));
    }
    for (ChildHandle& c : children) c.join();
    ctx.decide(Value(0));
  });
  run_execution(std::move(p), int_inputs(2), lockstep(23));
  return fiber_contexts() - before;
}

// Halt and crash unwinds `f` adds to the runtime counters.
std::pair<std::uint64_t, std::uint64_t> unwinds_during(
    const std::function<void()>& f) {
  const Counter& halts = metrics_registry().counter("runtime.halt_unwinds");
  const Counter& crashes =
      metrics_registry().counter("runtime.crash_unwinds");
  const std::uint64_t halts_before = halts.value();
  const std::uint64_t crashes_before = crashes.value();
  f();
  return {halts.value() - halts_before, crashes.value() - crashes_before};
}

TEST(WaitOffSchedule, ACancelReachesAWaitingChild) {
  // The parent holds the mutex for good (no unlock), so only the cancel
  // can end its child's wait: the child's next step halts it.
  contexts_of_a_full_pool_run();
  Outcome out;
  const auto unwinds = unwinds_during([&out] {
    std::vector<Program> p{[](ProcessContext& ctx) {
      auto m = std::make_shared<CooperativeMutex>();
      m->lock(ctx);
      ChildHandle h = ctx.fork([m](ProcessContext& cctx) {
        CoopLock lk(*m, cctx);
        ADD_FAILURE() << "the child took a mutex its parent holds";
      });
      for (int i = 0; i < 10; ++i) ctx.yield();
      h.cancel();
      h.join();
      ctx.decide(Value(0));
    }};
    out = run_execution(std::move(p), int_inputs(1), lockstep(24));
  });
  EXPECT_FALSE(out.timed_out);
  EXPECT_TRUE(out.decisions[0].has_value());
  EXPECT_EQ(unwinds, std::make_pair(std::uint64_t{1}, std::uint64_t{0}));
  EXPECT_EQ(contexts_of_a_full_pool_run(), 0u);
}

TEST(WaitOffSchedule, ACrashOfItsDomainReachesAWaitingThread) {
  // p1 holds the mutex for good and decides after 200 steps; p0's
  // thread waits for it while p0's child crashes p0 at p0's third step.
  // The crash, not the stop after p1's decision, ends the wait: p0's two
  // threads unwind crashed and only p1 halts.
  contexts_of_a_full_pool_run();
  Outcome out;
  const auto unwinds = unwinds_during([&out] {
    auto m = std::make_shared<CooperativeMutex>();
    ExecutionOptions o = lockstep(25);
    o.crashes = CrashPlan::fixed({{0, 3}});
    std::vector<Program> p{
        [m](ProcessContext& ctx) {
          // The child steps only once this thread is about to wait: p0's
          // first step is this thread's, its second and third the
          // child's.
          auto gate = std::make_shared<CooperativeMutex>();
          gate->lock(ctx);
          ChildHandle h = ctx.fork([gate](ProcessContext& cctx) {
            CoopLock open(*gate, cctx);
            for (;;) cctx.yield();
          });
          ctx.yield();
          gate->unlock();
          CoopLock lk(*m, ctx);
          ADD_FAILURE() << "p0 took a mutex p1 holds";
        },
        [m](ProcessContext& ctx) {
          m->lock(ctx);
          for (int i = 0; i < 200; ++i) ctx.yield();
          ctx.decide(Value(1));
          for (;;) ctx.yield();
        }};
    out = run_execution(std::move(p), int_inputs(2), o);
  });
  EXPECT_FALSE(out.timed_out);
  EXPECT_TRUE(out.crashed[0]);
  EXPECT_TRUE(out.decisions[1].has_value());
  EXPECT_EQ(unwinds, std::make_pair(std::uint64_t{1}, std::uint64_t{2}));
  EXPECT_EQ(contexts_of_a_full_pool_run(), 0u);
}

TEST(WaitOffSchedule, TheRunsStopReachesAWaitingThread) {
  // p0 holds the mutex for good and spins into the step limit; the stop
  // halts p0 and then p1, which waits for the mutex.
  contexts_of_a_full_pool_run();
  Outcome out;
  const auto unwinds = unwinds_during([&out] {
    auto m = std::make_shared<CooperativeMutex>();
    std::vector<Program> p{
        [m](ProcessContext& ctx) {
          m->lock(ctx);
          for (;;) ctx.yield();
        },
        [m](ProcessContext& ctx) {
          CoopLock lk(*m, ctx);
          ADD_FAILURE() << "p1 took a mutex p0 holds";
        }};
    out = run_execution(std::move(p), int_inputs(2), lockstep(26, 500));
  });
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.steps, 500u);
  EXPECT_EQ(unwinds, std::make_pair(std::uint64_t{2}, std::uint64_t{0}));
  EXPECT_EQ(contexts_of_a_full_pool_run(), 0u);
}

TEST(WaitOffSchedule, ARunWhoseThreadsAllWaitEndsTimedOutAtOnce) {
  // Two processes take two mutexes in opposite order, one step apart:
  // each ends up waiting for the other, so no thread is left to take a
  // step. The run ends timed out after those two steps, far below its
  // limit, and the stop halts both.
  contexts_of_a_full_pool_run();
  Outcome out;
  const auto unwinds = unwinds_during([&out] {
    auto a = std::make_shared<CooperativeMutex>();
    auto b = std::make_shared<CooperativeMutex>();
    const auto take = [](std::shared_ptr<CooperativeMutex> first,
                         std::shared_ptr<CooperativeMutex> second) {
      return [first, second](ProcessContext& ctx) {
        CoopLock one(*first, ctx);
        ctx.yield();
        CoopLock two(*second, ctx);
        ctx.decide(Value(0));
      };
    };
    std::vector<Program> p{take(a, b), take(b, a)};
    out = run_execution(std::move(p), int_inputs(2),
                        lockstep(27, 1'000'000));
  });
  EXPECT_TRUE(out.timed_out);
  EXPECT_EQ(out.steps, 2u);
  EXPECT_EQ(out.decided_count(), 0);
  EXPECT_EQ(unwinds, std::make_pair(std::uint64_t{2}, std::uint64_t{0}));
  EXPECT_EQ(contexts_of_a_full_pool_run(), 0u);
}

// --- many processes, seeded schedules ---

class ManyProcesses : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ManyProcesses, AllDecide) {
  std::vector<Program> p;
  for (int i = 0; i < 16; ++i) {
    p.push_back([](ProcessContext& ctx) {
      for (int r = 0; r < 100; ++r) ctx.yield();
      ctx.decide(ctx.input());
    });
  }
  Outcome out = run_execution(std::move(p), int_inputs(16),
                              lockstep(GetParam()));
  EXPECT_EQ(out.decided_count(), 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManyProcesses,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace mpcn
