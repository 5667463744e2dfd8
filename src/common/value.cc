#include "src/common/value.h"

#include <ostream>
#include <sstream>

namespace mpcn {

namespace {

int kind_rank(const Value& v) {
  if (v.is_nil()) return 0;
  if (v.is_int()) return 1;
  if (v.is_string()) return 2;
  return 3;
}

}  // namespace

Value::SharedString Value::intern_string(std::string s) {
  if (s.empty()) {
    static const SharedString kEmpty = std::make_shared<std::string>();
    return kEmpty;
  }
  return std::make_shared<std::string>(std::move(s));
}

Value::SharedList Value::intern_list(List l) {
  if (l.empty()) {
    static const SharedList kEmpty = std::make_shared<List>();
    return kEmpty;
  }
  return std::make_shared<List>(std::move(l));
}

Value::List& Value::detach_list() {
  SharedList& rep = std::get<SharedList>(rep_);
  // use_count() == 1 means this Value is the only owner; no other thread
  // can gain a reference without racing on this Value object itself,
  // which the contract already forbids. Shared (or static-empty) payloads
  // are cloned — element copies are refcount bumps.
  if (rep.use_count() != 1) rep = std::make_shared<List>(*rep);
  // Safe: every payload is created via make_shared<List> (non-const
  // pointee); constness was added by the handle type only.
  return const_cast<List&>(*rep);
}

Value::List Value::take_list() {
  SharedList rep = std::get<SharedList>(rep_);
  rep_ = std::monostate{};
  if (rep.use_count() == 1) {
    // Sole owner: steal the vector (payload created non-const, see
    // detach_list). No element is copied.
    return std::move(const_cast<List&>(*rep));
  }
  return *rep;  // shared: clone, each element an O(1) copy
}

bool Value::operator==(const Value& o) const {
  if (rep_.index() != o.rep_.index()) return false;
  switch (rep_.index()) {
    case 0:  // nil
      return true;
    case 1:
      return std::get<std::int64_t>(rep_) == std::get<std::int64_t>(o.rep_);
    case 2: {
      const SharedString& a = std::get<SharedString>(rep_);
      const SharedString& b = std::get<SharedString>(o.rep_);
      return a == b || *a == *b;  // pointer fast path, then structural
    }
    default: {
      const SharedList& a = std::get<SharedList>(rep_);
      const SharedList& b = std::get<SharedList>(o.rep_);
      return a == b || *a == *b;  // pointer fast path, then structural
    }
  }
}

bool Value::operator<(const Value& o) const {
  const int a = kind_rank(*this);
  const int b = kind_rank(o);
  if (a != b) return a < b;
  switch (a) {
    case 0:
      return false;  // nil == nil
    case 1:
      return as_int() < o.as_int();
    case 2:
      if (std::get<SharedString>(rep_) == std::get<SharedString>(o.rep_)) {
        return false;  // aliases are equal
      }
      return as_string() < o.as_string();
    default: {
      if (std::get<SharedList>(rep_) == std::get<SharedList>(o.rep_)) {
        return false;  // aliases are equal
      }
      const List& l = as_list();
      const List& r = o.as_list();
      return std::lexicographical_compare(l.begin(), l.end(), r.begin(),
                                          r.end());
    }
  }
}

std::size_t Value::hash() const {
  // FNV-style structural mix; quality is sufficient for container use.
  std::size_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::size_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::size_t>(kind_rank(*this)));
  if (is_int()) {
    mix(std::hash<std::int64_t>{}(as_int()));
  } else if (is_string()) {
    mix(std::hash<std::string>{}(as_string()));
  } else if (is_list()) {
    for (const Value& v : as_list()) mix(v.hash());
  }
  return h;
}

std::string Value::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  if (v.is_nil()) return os << "nil";
  if (v.is_int()) return os << v.as_int();
  if (v.is_string()) return os << '"' << v.as_string() << '"';
  os << '[';
  const Value::List& l = v.as_list();
  for (std::size_t i = 0; i < l.size(); ++i) {
    if (i) os << ", ";
    os << l[i];
  }
  return os << ']';
}

}  // namespace mpcn
