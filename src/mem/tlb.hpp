// Per-context data TLB.
//
// The paper charges a 160-cycle penalty on a TLB miss and (for STALL and
// FLUSH) treats a data-TLB miss like an L2 miss trigger. We model a
// set-associative DTLB per hardware context over 8KB pages (Alpha 21264
// page size, matching the paper's compilation target).
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Geometry of a TLB.
struct TlbConfig {
  std::string name = "dtlb";
  std::uint32_t entries = 128;
  std::uint32_t assoc = 4;
  std::uint32_t page_bytes = 8192;
};

/// Set-associative translation buffer with true-LRU replacement.
/// Translation itself is identity (the simulator is virtually addressed);
/// the TLB exists purely for its timing behavior.
class Tlb {
 public:
  Tlb(TlbConfig cfg, StatSet& stats)
      : cfg_(cfg),
        lines_(cfg.entries),
        accesses_(stats.counter(cfg.name + ".accesses")),
        misses_(stats.counter(cfg.name + ".misses")) {
    DWARN_CHECK(cfg_.entries % cfg_.assoc == 0);
  }

  /// Probe-and-fill: returns true on hit; on miss the page is installed.
  bool access(Addr addr) {
    accesses_.add();
    const Addr page = addr / cfg_.page_bytes;
    const std::size_t sets = cfg_.entries / cfg_.assoc;
    const std::size_t set = static_cast<std::size_t>(page % sets);
    Entry* const base = &lines_[set * cfg_.assoc];
    ++clock_;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].page == page) {
        base[w].lru = clock_;
        return true;
      }
    }
    misses_.add();
    Entry* victim = &base[0];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    *victim = Entry{page, clock_, true};
    return false;
  }

  /// Hit check without side effects.
  [[nodiscard]] bool probe(Addr addr) const {
    const Addr page = addr / cfg_.page_bytes;
    const std::size_t sets = cfg_.entries / cfg_.assoc;
    const std::size_t set = static_cast<std::size_t>(page % sets);
    const Entry* const base = &lines_[set * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].page == page) return true;
    }
    return false;
  }

  [[nodiscard]] const TlbConfig& config() const { return cfg_; }

 private:
  struct Entry {
    Addr page = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  TlbConfig cfg_;
  std::vector<Entry> lines_;
  std::uint64_t clock_ = 0;
  Counter& accesses_;
  Counter& misses_;
};

}  // namespace dwarn
