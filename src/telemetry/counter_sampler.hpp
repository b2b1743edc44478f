// Per-run interval counter sampling for the SmtCore tick loop.
//
// A CounterSampler owns a preallocated ring of IntervalSample records;
// while one is attached to the core, every SMT_TELEM_INTERVAL cycles the
// tick loop copies its cumulative counters and instantaneous occupancies
// into the next slot. With SMT_TELEM unset none is attached, and the
// loop pays one null-pointer check per cycle.
//
// Samples store *cumulative* counter values (relative to the measurement-
// window reset), which makes the ring's overflow policy trivial: when the
// preallocated capacity fills, every second sample is dropped in place
// and the sampling interval doubles — bounded memory, still a valid
// (coarser) series, and deterministic because the decision depends only
// on simulated cycles, never on the host.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace dwarn::telem {

/// One interval snapshot. Counter fields are cumulative since the start
/// of the measurement window; `iq` and `window` are instantaneous
/// occupancies at the sample cycle.
struct IntervalSample {
  Cycle cycle = 0;
  std::uint64_t committed[kMaxThreads] = {};
  std::uint64_t fetched = 0;
  std::uint64_t dmiss = 0;           ///< committed-path L1 D-misses
  std::uint64_t l2miss = 0;          ///< committed-path L2 misses
  std::uint64_t flush_events = 0;
  std::uint64_t squashed_flush = 0;
  // Instruction side. istall accumulates on every run (the legacy L1I
  // stalls fetch too); imiss/itlbmiss stay 0 unless the modeled
  // instruction side (mem/icache.hpp) is enabled.
  std::uint64_t imiss = 0;     ///< demand L1 I-cache misses
  std::uint64_t itlbmiss = 0;  ///< I-TLB walks
  std::uint64_t istall = 0;    ///< fetch-stall cycles summed over threads
  std::uint32_t iq[kNumIssueClasses] = {};
  std::uint32_t window[kMaxThreads] = {};
  std::uint32_t num_threads = 0;
};

class CounterSampler {
 public:
  CounterSampler(std::uint64_t interval_cycles, std::size_t capacity);

  /// The next cycle at which the tick loop should sample.
  [[nodiscard]] Cycle next_at() const { return next_at_; }

  /// Claim the next slot (decimating first when full) and schedule the
  /// following sample. The caller fills the returned record.
  IntervalSample& begin_sample(Cycle now);

  /// Drop everything and re-arm at `now` with the base interval — called
  /// after the warm-up window's stats reset so the series covers exactly
  /// the measurement window.
  void restart(Cycle now);

  /// Current interval (>= the base after decimation doublings).
  [[nodiscard]] std::uint64_t interval() const { return interval_; }
  [[nodiscard]] std::uint64_t base_interval() const { return base_interval_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::vector<IntervalSample>& samples() const { return ring_; }

 private:
  void decimate();

  std::uint64_t base_interval_;
  std::uint64_t interval_;
  std::size_t capacity_;
  Cycle next_at_;
  std::vector<IntervalSample> ring_;
};

/// Identity of the run an interval series belongs to (mirrors the
/// RunRecord key fields without depending on the engine layer).
struct IntervalRunId {
  std::string machine;
  std::string workload;
  std::string policy;
  std::string tag;
  std::uint64_t seed = 1;
};

/// One JSONL record: run identity + the full sample series (cumulative
/// counters; the analyzer computes per-interval deltas). Schema in
/// docs/observability.md.
[[nodiscard]] std::string interval_json_line(const IntervalRunId& id,
                                             const CounterSampler& sampler);

}  // namespace dwarn::telem
