// Branch target buffer.
//
// Paper Table 3: 256-entry, 4-way associative. Tagged with the branch PC;
// shared across contexts. A predicted-taken branch can only redirect fetch
// when its target is present here.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Set-associative branch target buffer with true-LRU replacement.
class Btb {
 public:
  Btb(std::size_t entries = 256, std::uint32_t assoc = 4)
      : assoc_(assoc), sets_(entries / assoc), lines_(entries) {
    DWARN_CHECK(entries % assoc == 0);
    DWARN_CHECK(sets_ != 0 && (sets_ & (sets_ - 1)) == 0);
  }

  /// Target of the branch at `pc`, if cached.
  [[nodiscard]] std::optional<Addr> lookup(Addr pc) const {
    const Entry* base = &lines_[set_of(pc) * assoc_];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (base[w].valid && base[w].pc == pc) return base[w].target;
    }
    return std::nullopt;
  }

  /// Install / refresh the target of a taken branch.
  void update(Addr pc, Addr target) {
    Entry* base = &lines_[set_of(pc) * assoc_];
    ++clock_;
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (base[w].valid && base[w].pc == pc) {
        base[w].target = target;
        base[w].lru = clock_;
        return;
      }
    }
    Entry* victim = &base[0];
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    *victim = Entry{pc, target, clock_, true};
  }

 private:
  struct Entry {
    Addr pc = 0;
    Addr target = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  [[nodiscard]] std::size_t set_of(Addr pc) const {
    return static_cast<std::size_t>((pc >> 2) & (sets_ - 1));
  }

  std::uint32_t assoc_;
  std::size_t sets_;
  std::vector<Entry> lines_;
  std::uint64_t clock_ = 0;
};

}  // namespace dwarn
