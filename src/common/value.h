// Value: the universal datum flowing through every shared object in the
// library (registers, snapshots, consensus objects, task inputs/outputs).
//
// The paper's algorithms move opaque values between processes; a single
// concrete recursive value type keeps the whole stack template-free across
// module boundaries. A Value is one of:
//   - nil (the paper's bottom, written as ⊥ in Figures 1-6),
//   - a 64-bit integer,
//   - a string,
//   - a list of Values (used for snapshot views and (value, seq) pairs).
//
// Representation: nil and int are stored inline; strings and lists are
// immutable payloads behind shared_ptr, so COPYING A VALUE IS O(1) — a
// refcount bump — no matter how deep the structure. This matters because
// every model step moves a Value (a register read copies the cell, an
// Afek snapshot cell carries a width-n view list), so deep-copy payloads
// made one collect O(n^2) allocations.
//
// Mutation is copy-on-write: the non-const as_list()/at() accessors
// detach (clone the payload) iff it is shared, so aliases never observe
// each other's writes — Values stay immutable in spirit. Equality,
// ordering and hashing are structural; equality and ordering take a
// pointer-equality fast path for aliases.
//
// Thread safety matches std::shared_ptr: DISTINCT Value objects sharing a
// payload may be read, copied and destroyed concurrently; mutating or
// writing one Value object while another thread touches the SAME object
// is a data race (as for std::string). The shared payloads themselves are
// never mutated after construction — detach clones first.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace mpcn {

class Value {
 public:
  using List = std::vector<Value>;

  // Payload handles: const in the handle type so shared payloads are
  // immutable by construction; every payload is CREATED non-const (via
  // make_shared<T>) so a uniquely-owned one may be detached-in-place.
  using SharedString = std::shared_ptr<const std::string>;
  using SharedList = std::shared_ptr<const List>;

  // nil (⊥)
  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT: implicit nil from nullptr reads well
  Value(int v) : rep_(static_cast<std::int64_t>(v)) {}    // NOLINT
  Value(std::int64_t v) : rep_(v) {}                      // NOLINT
  Value(std::size_t v) : rep_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(const char* s) : rep_(intern_string(s)) {}        // NOLINT
  Value(std::string s) : rep_(intern_string(std::move(s))) {}  // NOLINT
  Value(List l) : rep_(intern_list(std::move(l))) {}      // NOLINT

  static Value nil() { return Value(); }

  static Value list(std::initializer_list<Value> items) {
    return Value(List(items));
  }
  // A (value, sequence-number) pair, as used by MEM entries (Fig 2/3).
  static Value pair(Value a, Value b) {
    List l;
    l.reserve(2);
    l.push_back(std::move(a));
    l.push_back(std::move(b));
    return Value(std::move(l));
  }

  // Incremental construction without intermediate Values: build the list
  // in place, then freeze it into a Value with one move (no element
  // copies). The construction path for Afek snapshot cells.
  class ListBuilder {
   public:
    ListBuilder() = default;
    explicit ListBuilder(std::size_t reserve_hint) {
      items_.reserve(reserve_hint);
    }
    void reserve(std::size_t n) { items_.reserve(n); }
    void push_back(Value v) { items_.push_back(std::move(v)); }
    Value& operator[](std::size_t i) { return items_[i]; }
    std::size_t size() const { return items_.size(); }
    // Freeze: moves the accumulated list into a Value. The builder is
    // left empty and reusable.
    Value build() { return Value(std::move(items_)); }

   private:
    List items_;
  };

  bool is_nil() const { return std::holds_alternative<std::monostate>(rep_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(rep_); }
  bool is_string() const {
    return std::holds_alternative<SharedString>(rep_);
  }
  bool is_list() const { return std::holds_alternative<SharedList>(rep_); }

  // Accessors check the active alternative and throw std::bad_variant_access
  // on misuse: algorithm bugs surface loudly rather than as garbage values.
  std::int64_t as_int() const { return std::get<std::int64_t>(rep_); }
  const std::string& as_string() const {
    return *std::get<SharedString>(rep_);
  }
  const List& as_list() const { return *std::get<SharedList>(rep_); }
  // Mutable access detaches: if the payload is shared, it is cloned first
  // (element copies are O(1) refcount bumps), so writes through the
  // returned reference are invisible to every EXISTING alias. Do not hold
  // the reference across a copy of this Value: a copy made afterwards
  // shares the payload, and writing through the stale reference would
  // mutate it in place (re-call as_list() after copying — it re-detaches).
  List& as_list() { return detach_list(); }

  // The shared payload itself (refcount bump, no copy). Lets hot paths
  // pass a whole snapshot view around by handle.
  SharedList shared_list() const { return std::get<SharedList>(rep_); }

  // Move the elements out: steals the payload when uniquely owned
  // (zero element copies), clones it otherwise (O(1) per element).
  // The Value is left nil.
  List take_list();

  // Convenience for list values: size / element access with bounds checks.
  std::size_t size() const { return as_list().size(); }
  const Value& at(std::size_t i) const { return as_list().at(i); }
  Value& at(std::size_t i) { return detach_list().at(i); }

  bool operator==(const Value& o) const;
  bool operator!=(const Value& o) const { return !(*this == o); }
  // Total order: nil < int < string < list; within a kind, natural order.
  bool operator<(const Value& o) const;

  std::size_t hash() const;
  std::string to_string() const;

 private:
  // Payload factories. Empty strings/lists share one static payload, so
  // Value(List()) never allocates; non-empty payloads are created via
  // make_shared<T> (non-const pointee) so detach_list may const_cast a
  // uniquely-owned payload back to mutable without UB.
  static SharedString intern_string(std::string s);
  static SharedList intern_list(List l);

  List& detach_list();

  std::variant<std::monostate, std::int64_t, SharedString, SharedList> rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

}  // namespace mpcn

template <>
struct std::hash<mpcn::Value> {
  std::size_t operator()(const mpcn::Value& v) const { return v.hash(); }
};
