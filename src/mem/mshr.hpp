// Miss Status Holding Registers.
//
// Outstanding line misses are tracked so that secondary misses to a line
// already in flight merge onto the existing entry (they complete when the
// primary fill returns, without issuing a second memory access). The MSHR
// file is also the source of the "in-flight L1 data miss" events that the
// DWarn per-context counters observe.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dwarn {

/// One in-flight miss.
struct MshrEntry {
  Addr line = 0;
  Cycle ready_at = kNoCycle;  ///< cycle the fill data arrives
  std::uint32_t merged = 0;   ///< secondary misses coalesced onto this entry
  bool valid = false;
};

/// Fixed-capacity MSHR file for one cache level.
class MshrFile {
 public:
  explicit MshrFile(std::size_t capacity) : entries_(capacity) {}

  /// Find the in-flight entry covering `line`, if any.
  [[nodiscard]] std::optional<Cycle> lookup(Addr line) const {
    for (const auto& e : entries_) {
      if (e.valid && e.line == line) return e.ready_at;
    }
    return std::nullopt;
  }

  /// Record a merge onto an existing entry (stats only).
  void merge(Addr line) {
    for (auto& e : entries_) {
      if (e.valid && e.line == line) {
        ++e.merged;
        return;
      }
    }
  }

  /// Allocate an entry; returns false when the file is full (the access
  /// then simply pays the full latency unmerged — a conservative model
  /// that never blocks the pipeline on MSHR exhaustion).
  bool allocate(Addr line, Cycle ready_at) {
    for (auto& e : entries_) {
      if (!e.valid) {
        e = MshrEntry{line, ready_at, 0, true};
        if (ready_at < earliest_) earliest_ = ready_at;
        return true;
      }
    }
    return false;
  }

  /// Retire every entry whose fill has arrived by `now`. Called every
  /// cycle, so it returns at once while no fill can be due yet.
  void expire(Cycle now) {
    if (now < earliest_) return;
    earliest_ = kNoCycle;
    for (auto& e : entries_) {
      if (!e.valid) continue;
      if (e.ready_at <= now) {
        e.valid = false;
      } else if (e.ready_at < earliest_) {
        earliest_ = e.ready_at;
      }
    }
  }

  /// Number of currently in-flight entries.
  [[nodiscard]] std::size_t in_flight() const {
    std::size_t n = 0;
    for (const auto& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::size_t capacity() const { return entries_.size(); }

 private:
  std::vector<MshrEntry> entries_;
  Cycle earliest_ = kNoCycle;  ///< earliest ready_at among valid entries
};

}  // namespace dwarn
