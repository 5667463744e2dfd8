// AfekSnapshot: wait-free single-writer atomic snapshot from registers.
//
// The construction of Afek, Attiya, Dolev, Gafni, Merritt & Shavit
// ("Atomic Snapshots of Shared Memory", JACM 1993), unbounded-sequence-
// number variant:
//
//   Each cell R[j] holds (value, seq, embedded_view), written only by j.
//   scan():    collect R repeatedly. If two successive collects agree on
//              every seq, the second collect is a valid snapshot (a
//              "direct" scan: nothing moved, so all reads could have
//              happened instantaneously between the collects).
//              Otherwise, a writer j observed to move *twice* performed a
//              complete embedded scan strictly inside our interval; its
//              stored view is returned (a "borrowed" scan).
//   update(v): view := scan(); R[i] := (v, seq+1, view).
//
// Wait-freedom: a scan finishes after at most n+1 collects, because each
// failed double-collect implicates at least one mover and no writer can
// move twice without being borrowed from.
//
// Every register read/write is one model step, so lock-step schedules
// exercise genuine interleavings inside scans; the tests check
// linearizability of recorded histories against the snapshot spec.
#pragma once

#include <cstdint>

#include "src/registers/atomic_register.h"
#include "src/snapshot/snapshot_object.h"

namespace mpcn {

class AfekSnapshot : public SnapshotObject {
 public:
  explicit AfekSnapshot(int width, bool check_ownership = true);

  void write(ProcessContext& ctx, int index, const Value& v) override;
  std::vector<Value> snapshot(ProcessContext& ctx) override;
  int width() const override { return width_; }

  // Statistics for the wait-freedom tests.
  std::uint64_t total_collects() const { return collects_; }
  std::uint64_t borrowed_scans() const { return borrowed_; }

 private:
  // Read every cell into `out` (width_ entries, overwritten in place):
  // one register read, so one model step, per cell.
  void collect(ProcessContext& ctx, std::vector<Value>& out);
  // The embedded scan used by both snapshot() and write(). It collects
  // into two buffers that take turns, so a scan allocates the same few
  // blocks however many collects it makes. Returns the snapshot as a list
  // Value: a clean double collect freezes the second collect's values; a
  // borrowed scan returns the mover's stored view with no per-element
  // work (refcount bump). write() embeds this Value into its cell as-is,
  // so helping never copies payloads.
  Value scan(ProcessContext& ctx);

  const int width_;
  const bool check_ownership_;
  RegisterArray cells_;
  std::uint64_t collects_ = 0;
  std::uint64_t borrowed_ = 0;
};

}  // namespace mpcn
