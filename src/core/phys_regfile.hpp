// Shared physical register file (one per register class).
//
// This is one of the two shared resources whose monopolization the paper
// studies. Registers are allocated at rename and released either when a
// younger writer of the same architectural register commits, or when the
// allocating instruction is squashed. Readiness is a per-register
// timestamp: a consumer may issue once every source's `ready_at` has
// passed.
//
// The storage is sized once at construction and never resized, so the
// address of a register's ready cell (ready_cell) stays valid for the
// file's lifetime; issue-queue entries poll their sources through it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Free-list-managed physical register file with readiness tracking.
class PhysRegFile {
 public:
  explicit PhysRegFile(unsigned num_regs)
      : ready_at_(num_regs, 0) {
    free_list_.reserve(num_regs);
    // Populate the free list so low indices allocate first (determinism).
    for (unsigned r = num_regs; r-- > 0;) free_list_.push_back(static_cast<std::uint16_t>(r));
  }

  /// Allocate a register; kNoReg when exhausted (rename must stall).
  [[nodiscard]] std::uint16_t alloc() {
    if (free_list_.empty()) return kNoReg;
    const std::uint16_t r = free_list_.back();
    free_list_.pop_back();
    ready_at_[r] = kNoCycle;  // not ready until its producer completes
    return r;
  }

  /// Return a register to the free list.
  void release(std::uint16_t reg) {
    DWARN_CHECK(reg < ready_at_.size());
    free_list_.push_back(reg);
  }

  /// Producer completed: value readable from `cycle` on.
  void set_ready(std::uint16_t reg, Cycle cycle) {
    DWARN_CHECK(reg < ready_at_.size());
    ready_at_[reg] = cycle;
  }

  /// The cell holding `reg`'s ready cycle: kNoCycle from alloc until its
  /// producer issues, then the cycle its value becomes readable.
  [[nodiscard]] const Cycle* ready_cell(std::uint16_t reg) const {
    DWARN_CHECK(reg < ready_at_.size());
    return &ready_at_[reg];
  }

  [[nodiscard]] std::size_t num_free() const { return free_list_.size(); }
  [[nodiscard]] std::size_t size() const { return ready_at_.size(); }
  [[nodiscard]] std::size_t num_allocated() const { return size() - num_free(); }

 private:
  std::vector<Cycle> ready_at_;
  std::vector<std::uint16_t> free_list_;
};

}  // namespace dwarn
