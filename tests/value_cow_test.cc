// Tests pinning the copy-on-write Value representation (src/common/value.h):
// aliasing invisibility, structural equality/ordering/hash stability across
// shared vs detached payloads, JSON round-trip identity, the cheap builder
// paths, and thread-safety of concurrent reads of a shared payload (the
// shared_ptr contract Value keeps for callers that share one).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/json.h"
#include "src/common/value.h"
#include "src/experiment/record.h"

namespace mpcn {
namespace {

Value deep_sample() {
  return Value::list(
      {Value(7), Value("payload"), Value::nil(),
       Value::list({Value::pair(Value(1), Value("a")),
                    Value::list({Value("nested"), Value(42)})})});
}

// --- O(1) copies: copies alias the payload; detach replaces it ---------

TEST(ValueCow, CopySharesPayload) {
  const Value a = deep_sample();
  const Value b = a;  // O(1): refcount bump
  EXPECT_EQ(a.shared_list().get(), b.shared_list().get());
  const Value c = Value("some string");
  const Value d = c;
  EXPECT_EQ(&c.as_string(), &d.as_string());
}

TEST(ValueCow, MutatingACopyDetachesAndNeverAltersTheOriginal) {
  const Value original = deep_sample();
  Value copy = original;
  copy.as_list()[0] = Value(999);  // detach point
  EXPECT_NE(original.shared_list().get(), copy.shared_list().get());
  EXPECT_EQ(original.at(0).as_int(), 7);
  EXPECT_EQ(copy.at(0).as_int(), 999);
  // Untouched elements still alias the original's payloads (the detach
  // cloned one level, not the whole tree).
  EXPECT_EQ(original.at(3).shared_list().get(), copy.at(3).shared_list().get());
}

TEST(ValueCow, MutableAtDetaches) {
  const Value original = Value::list({Value(1), Value(2)});
  Value copy = original;
  copy.at(1) = Value("changed");
  EXPECT_EQ(original.at(1).as_int(), 2);
  EXPECT_EQ(copy.at(1).as_string(), "changed");
}

TEST(ValueCow, ChainedAliasesStayIndependent) {
  Value a = Value::list({Value(1)});
  Value b = a;
  Value c = b;
  b.as_list().push_back(Value(2));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_EQ(b.size(), 2u);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_EQ(a.shared_list().get(), c.shared_list().get());
}

TEST(ValueCow, UniquelyOwnedMutationDoesNotReallocate) {
  Value v = Value::list({Value(1), Value(2)});
  const Value::List* payload = &v.as_list();
  v.as_list()[0] = Value(5);  // still unique: no detach
  EXPECT_EQ(payload, &v.as_list());
}

// --- structural semantics are representation-independent ---------------

TEST(ValueCow, EqualityOrderingHashAcrossSharedAndDetachedReps) {
  const Value a = deep_sample();
  const Value shared_alias = a;
  Value detached = a;
  detached.as_list()[0] = Value(999);
  detached.as_list()[0] = Value(7);  // structurally equal again, new payload
  ASSERT_NE(a.shared_list().get(), detached.shared_list().get());

  for (const Value* v :
       std::initializer_list<const Value*>{&shared_alias, &detached}) {
    EXPECT_EQ(a, *v);
    EXPECT_FALSE(a < *v);
    EXPECT_FALSE(*v < a);
    EXPECT_EQ(a.hash(), v->hash());
    EXPECT_EQ(a.to_string(), v->to_string());
  }
}

TEST(ValueCow, OrderingAcrossKindsUnchanged) {
  // nil < int < string < list, pinned also for aliased operands.
  const Value l = Value::list({Value(1)});
  const Value alias = l;
  EXPECT_FALSE(l < alias);
  EXPECT_FALSE(alias < l);
  EXPECT_LT(Value::nil(), Value(0));
  EXPECT_LT(Value(5), Value("a"));
  EXPECT_LT(Value("z"), Value::list({}));
}

// --- builder paths ------------------------------------------------------

TEST(ValueCow, ListBuilderBuildsWithoutElementCopies) {
  Value::ListBuilder b(3);
  b.push_back(Value(1));
  b.push_back(Value("two"));
  b.push_back(Value::list({Value(3)}));
  EXPECT_EQ(b.size(), 3u);
  const Value v = b.build();
  EXPECT_EQ(v, Value::list({Value(1), Value("two"), Value::list({Value(3)})}));
  EXPECT_EQ(b.size(), 0u);  // builder is reusable after freeze
}

TEST(ValueCow, TakeListStealsWhenUniqueCopiesWhenShared) {
  Value unique = Value::list({Value(1), Value(2)});
  const void* storage = unique.as_list().data();
  Value::List stolen = unique.take_list();
  EXPECT_TRUE(unique.is_nil());  // moved-from
  EXPECT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen.data(), storage);  // same storage: stolen, not copied

  Value a = Value::list({Value(3)});
  const Value alias = a;
  Value::List copied = a.take_list();
  EXPECT_TRUE(a.is_nil());
  EXPECT_EQ(alias.size(), 1u);  // alias untouched
  EXPECT_EQ(copied[0].as_int(), 3);
}

TEST(ValueCow, WrongKindStillThrowsBadVariantAccess) {
  EXPECT_THROW(Value(1).as_string(), std::bad_variant_access);
  EXPECT_THROW(Value("s").as_int(), std::bad_variant_access);
  EXPECT_THROW(Value(2).take_list(), std::bad_variant_access);
  EXPECT_THROW(Value::nil().shared_list(), std::bad_variant_access);
  Value i(3);
  EXPECT_THROW(i.as_list(), std::bad_variant_access);
}

// --- JSON round-trip identity -------------------------------------------

TEST(ValueCow, JsonRoundTripSeedCorpus) {
  const std::vector<Value> corpus = {
      Value::nil(),
      Value(0),
      Value(-42),
      Value(std::int64_t{1} << 60),
      Value(""),
      Value("plain"),
      Value("esc \"quotes\" and \n newline \t tab"),
      Value::list({}),
      Value::list({Value::nil(), Value(1), Value("x")}),
      Value::pair(Value("v"), Value(17)),
      deep_sample(),
  };
  for (const Value& v : corpus) {
    const std::string dumped = value_to_json(v).dump();
    const Value back = value_from_json(Json::parse(dumped));
    EXPECT_EQ(v, back) << dumped;
    EXPECT_EQ(v.hash(), back.hash()) << dumped;
    // Shared vs detached representations must serialize byte-identically.
    Value detached = v;
    if (detached.is_list() && detached.size() > 0) {
      detached.as_list()[0] = v.at(0);  // force a detach, same structure
      ASSERT_NE(detached.shared_list().get(), v.shared_list().get());
    }
    EXPECT_EQ(value_to_json(detached).dump(), dumped);
  }
}

// --- concurrent reads of a shared payload are race-free ----------------

TEST(ValueCow, ConcurrentReadsOfSharedPayload) {
  const Value shared = deep_sample();
  std::atomic<bool> go{false};
  std::atomic<std::size_t> checks{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&shared, &go, &checks] {
      while (!go.load()) {
      }
      for (int i = 0; i < 500; ++i) {
        const Value copy = shared;  // concurrent refcount traffic
        if (copy == shared && copy.hash() == shared.hash() &&
            copy.at(0).as_int() == 7 && !copy.to_string().empty()) {
          checks.fetch_add(1, std::memory_order_relaxed);
        }
        // Detaching a thread-local copy must never touch the shared rep.
        Value local = copy;
        local.as_list()[0] = Value(i);
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(checks.load(), 4u * 500u);
  EXPECT_EQ(shared.at(0).as_int(), 7);
}

}  // namespace
}  // namespace mpcn
