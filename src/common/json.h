// A small dependency-free JSON value: writer + parser.
//
// Exists so experiment Reports (src/experiment/record.h) and the bench
// binaries can emit machine-readable output without pulling an external
// JSON library into the build. Scope is deliberately minimal:
//
//   * the seven JSON kinds (null, bool, number split int/double, string,
//     array, object);
//   * OBJECTS PRESERVE INSERTION ORDER and dump() is byte-deterministic
//     for equal values — batch reports produced from the same seed grid
//     compare byte-identical, which the determinism tests rely on;
//   * parse() accepts exactly RFC 8259 JSON (no comments, no trailing
//     commas) and round-trips everything dump() emits.
//
// Numbers: integers are kept as int64 exactly; anything with a fraction
// or exponent becomes double (dumped with %.17g, enough to round-trip).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mpcn {

class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };
  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;  // insertion-ordered

  Json() = default;  // null
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}                 // NOLINT
  Json(int v) : kind_(Kind::kInt), int_(v) {}                    // NOLINT
  Json(std::int64_t v) : kind_(Kind::kInt), int_(v) {}           // NOLINT
  Json(std::uint64_t v)                                          // NOLINT
      : kind_(Kind::kInt), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::kDouble), double_(v) {}           // NOLINT
  Json(const char* s) : kind_(Kind::kString), string_(s) {}      // NOLINT
  Json(std::string s)                                            // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}

  static Json null() { return Json(); }
  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_int() const { return kind_ == Kind::kInt; }
  bool is_double() const { return kind_ == Kind::kDouble; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const {
    require(Kind::kBool);
    return bool_;
  }
  std::int64_t as_int() const {
    require(Kind::kInt);
    return int_;
  }
  double as_double() const {  // any number reads as double
    if (is_int()) return static_cast<double>(int_);
    require(Kind::kDouble);
    return double_;
  }
  const std::string& as_string() const {
    require(Kind::kString);
    return string_;
  }
  const Array& items() const {
    require(Kind::kArray);
    return array_;
  }
  const Object& members() const {
    require(Kind::kObject);
    return object_;
  }

  // Array building / access.
  Json& push(Json v) {
    require(Kind::kArray);
    array_.push_back(std::move(v));
    return *this;
  }
  std::size_t size() const {
    if (is_array()) return array_.size();
    if (is_object()) return object_.size();
    throw JsonError("Json::size on non-container");
  }
  const Json& at(std::size_t i) const {
    require(Kind::kArray);
    if (i >= array_.size()) throw JsonError("Json array index out of range");
    return array_[i];
  }

  // Object building / access. set() replaces an existing key in place
  // (keeping its position) so dumps stay deterministic under re-sets.
  Json& set(const std::string& key, Json v);
  const Json* find(const std::string& key) const;  // nullptr if absent
  const Json& at(const std::string& key) const;    // throws if absent

  bool operator==(const Json& o) const;
  bool operator!=(const Json& o) const { return !(*this == o); }

  // indent < 0: compact one-line form; indent >= 0: pretty-printed with
  // `indent` spaces per level. Both are byte-deterministic.
  std::string dump(int indent = -1) const;

  static Json parse(const std::string& text);  // throws JsonError

 private:
  void require(Kind k) const;
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace mpcn
