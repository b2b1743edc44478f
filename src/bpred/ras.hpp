// Return address stack.
//
// Paper Table 3: 256 entries. One RAS per hardware context. Push on call,
// pop on return, both at fetch time (speculative); a checkpoint of the
// top-of-stack pointer and value is taken per branch so squashes restore
// the stack exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dwarn {

/// Circular return-address stack with checkpoint/restore.
class Ras {
 public:
  explicit Ras(std::size_t entries = 256) : stack_(entries, 0) {}

  /// Snapshot for squash recovery.
  struct Checkpoint {
    std::uint32_t tos = 0;
    Addr top_value = 0;
  };

  [[nodiscard]] Checkpoint checkpoint() const {
    return Checkpoint{tos_, stack_[tos_ % stack_.size()]};
  }

  void restore(const Checkpoint& cp) {
    tos_ = cp.tos;
    stack_[tos_ % stack_.size()] = cp.top_value;
  }

  /// Push a return address (on fetching a call).
  void push(Addr ret_addr) {
    tos_ = (tos_ + 1) % static_cast<std::uint32_t>(stack_.size());
    stack_[tos_] = ret_addr;
  }

  /// Pop the predicted return target (on fetching a return).
  Addr pop() {
    const Addr top = stack_[tos_];
    tos_ = (tos_ + static_cast<std::uint32_t>(stack_.size()) - 1) %
           static_cast<std::uint32_t>(stack_.size());
    return top;
  }

  /// Peek without popping (test hook).
  [[nodiscard]] Addr top() const { return stack_[tos_]; }

 private:
  std::vector<Addr> stack_;
  std::uint32_t tos_ = 0;
};

}  // namespace dwarn
