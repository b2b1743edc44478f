// gshare conditional branch direction predictor.
//
// Paper Table 3: "2048 entries gshare". One pattern-history table of 2-bit
// saturating counters shared by all hardware contexts (as in a real SMT
// front end — cross-thread aliasing is part of the model), indexed by
// PC xor per-thread global history.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Two-bit-counter gshare predictor with per-thread global history.
class Gshare {
 public:
  /// `entries` must be a power of two.
  explicit Gshare(std::size_t entries = 2048)
      : table_(entries, kWeaklyTaken), mask_(entries - 1) {
    DWARN_CHECK(entries != 0 && (entries & (entries - 1)) == 0);
    history_.fill(0);
  }

  /// Predict the direction of the branch at `pc` for thread `tid`.
  [[nodiscard]] bool predict(ThreadId tid, Addr pc) const {
    return table_[index(tid, pc)] >= kWeaklyTaken;
  }

  /// Train with the resolved direction and shift it into `tid`'s history.
  void update(ThreadId tid, Addr pc, bool taken) {
    std::uint8_t& ctr = table_[index(tid, pc)];
    if (taken) {
      if (ctr < kStronglyTaken) ++ctr;
    } else {
      if (ctr > 0) --ctr;
    }
    history_[tid] = ((history_[tid] << 1) | (taken ? 1u : 0u)) & mask_;
  }

  /// Current global-history register of a thread (test hook).
  [[nodiscard]] std::uint64_t history(ThreadId tid) const { return history_[tid]; }

 private:
  static constexpr std::uint8_t kWeaklyTaken = 2;
  static constexpr std::uint8_t kStronglyTaken = 3;

  [[nodiscard]] std::size_t index(ThreadId tid, Addr pc) const {
    return static_cast<std::size_t>(((pc >> 2) ^ history_[tid]) & mask_);
  }

  std::vector<std::uint8_t> table_;
  std::array<std::uint64_t, kMaxThreads> history_{};
  std::uint64_t mask_;
};

}  // namespace dwarn
