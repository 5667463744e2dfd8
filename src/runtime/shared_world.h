// SharedWorld: a named registry of shared objects.
//
// The simulations use unbounded arrays of agreement objects — e.g.
// SAFE_AG[1..n, 0..infinity) in Figure 3 — which we realize by lazy
// creation keyed by name ("SAFE_AG/3/17"). Object *creation* is
// a harness-level action, not a model step: the formal model assumes the
// whole (infinite) array exists up front; lazily materializing an entry
// the first time any simulator touches it is observationally equivalent
// because entries are created in a fixed initial state. A world belongs to
// one run, whose fibers take turns (step_controller.h), so it needs no
// lock.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <utility>

#include "src/common/errors.h"

namespace mpcn {

class SharedWorld {
 public:
  // Returns the object registered under `key`, creating it with `make`
  // if absent. All creators must pass equivalent factories
  // (guaranteed by construction in the engine: the factory depends only
  // on the key). Throws ProtocolError on a type mismatch.
  //
  // `make` is any callable returning std::shared_ptr<T>; lambdas bind
  // here directly, with no std::function wrapper allocated per call —
  // this sits on the lazy-creation hot path ("AG/<j>/<snapsn>" lookups,
  // one per simulated snapshot).
  template <typename T, typename Factory>
  std::shared_ptr<T> get_or_create(const std::string& key, Factory&& make) {
    static_assert(
        std::is_convertible_v<decltype(std::declval<Factory&>()()),
                              std::shared_ptr<T>>,
        "SharedWorld factory must return std::shared_ptr<T>");
    auto it = objects_.find(key);
    if (it == objects_.end()) {
      std::shared_ptr<T> obj = make();
      it = objects_.emplace(key, Entry{std::type_index(typeid(T)), obj}).first;
    } else if (it->second.type != std::type_index(typeid(T))) {
      throw ProtocolError("SharedWorld type mismatch for key " + key);
    }
    return std::static_pointer_cast<T>(it->second.ptr);
  }


  // Lookup without creation; returns nullptr if absent or wrong type.
  template <typename T>
  std::shared_ptr<T> find(const std::string& key) const {
    auto it = objects_.find(key);
    if (it == objects_.end() || it->second.type != std::type_index(typeid(T))) {
      return nullptr;
    }
    return std::static_pointer_cast<T>(it->second.ptr);
  }

  std::size_t size() const { return objects_.size(); }

 private:
  struct Entry {
    std::type_index type;
    std::shared_ptr<void> ptr;
  };
  std::unordered_map<std::string, Entry> objects_;
};

}  // namespace mpcn
