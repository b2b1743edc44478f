// Per-context instruction TLB.
//
// The instruction side translates fetch PCs, not data addresses, and its
// miss handling differs from the DTLB's: an I-TLB miss blocks *fetch* for
// the walking thread (the front end cannot even form a cache access until
// the translation returns), so the walk penalty is charged on the fetch
// path and the stalled thread becomes invisible to the fetch policy until
// the walk completes. We model a small set-associative I-TLB per hardware
// context with true-LRU replacement and a fixed page-walk latency
// (`walk_cycles`), configurable separately from the DTLB's 160-cycle
// penalty because instruction pages are few and contiguous — real I-TLBs
// are an order of magnitude smaller than their data siblings.
//
// Only used by the modeled instruction-side subsystem (mem/icache.hpp);
// the legacy ideal-fetch path never constructs one, so default builds
// carry no I-TLB counters and stay byte-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Geometry and timing of an instruction TLB.
struct ITlbConfig {
  std::string name = "itlb";
  std::uint32_t entries = 64;
  std::uint32_t assoc = 4;
  std::uint32_t page_bytes = 8192;
  Cycle walk_cycles = 40;  ///< fetch-path penalty of a page walk
};

/// Set-associative instruction TLB with true-LRU replacement. Like the
/// DTLB, translation is identity (the simulator is virtually addressed);
/// the structure exists purely for its timing behavior on the fetch path.
class ITlb {
 public:
  ITlb(ITlbConfig cfg, StatSet& stats)
      : cfg_(std::move(cfg)),
        entries_(cfg_.entries),
        accesses_(stats.counter(cfg_.name + ".accesses")),
        misses_(stats.counter(cfg_.name + ".misses")) {
    DWARN_CHECK(cfg_.entries >= 1);
    DWARN_CHECK(cfg_.assoc >= 1);
    DWARN_CHECK(cfg_.entries % cfg_.assoc == 0);
    DWARN_CHECK(cfg_.page_bytes >= 64);
  }

  /// Probe-and-fill: returns the fetch-path penalty — 0 on a hit,
  /// `walk_cycles` on a miss (the page is installed behind the walk).
  [[nodiscard]] Cycle access(Addr pc) {
    accesses_.add();
    const Addr page = pc / cfg_.page_bytes;
    const std::size_t sets = cfg_.entries / cfg_.assoc;
    const std::size_t set = static_cast<std::size_t>(page % sets);
    Entry* const base = &entries_[set * cfg_.assoc];
    ++clock_;
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].page == page) {
        base[w].lru = clock_;
        return 0;
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
    return cfg_.walk_cycles;
  }

  /// Hit check without side effects (tests).
  [[nodiscard]] bool probe(Addr pc) const {
    const Addr page = pc / cfg_.page_bytes;
    const std::size_t sets = cfg_.entries / cfg_.assoc;
    const std::size_t set = static_cast<std::size_t>(page % sets);
    const Entry* const base = &entries_[set * cfg_.assoc];
    for (std::uint32_t w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].page == page) return true;
    }
    return false;
  }

  [[nodiscard]] const ITlbConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t miss_count() const { return misses_.value(); }

 private:
  struct Entry {
    Addr page = 0;
    std::uint64_t lru = 0;
    bool valid = false;
  };

  ITlbConfig cfg_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  Counter& accesses_;
  Counter& misses_;
};

}  // namespace dwarn
