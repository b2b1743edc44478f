// DWarn — the paper's contribution.
//
// Detection moment: L1 (a per-context counter of in-flight L1 data misses,
// incremented when the front end learns of a miss and decremented when the
// fill occurs — the paper's only added hardware).
//
// Response action: REDUCE PRIORITY. Each cycle, threads with a zero
// counter form the Normal group, the rest the Dmiss group; fetch serves
// Normal threads first and Dmiss threads only with leftover bandwidth.
// Within each group, threads are ordered by ICOUNT. Threads are never
// fully stalled when three or more run.
//
// Hybrid (the paper's final mechanism, §3/§5): with fewer than three
// running threads, priority reduction alone cannot stop a Dmiss thread
// from trickling into the machine through unused fetch bandwidth (fetch
// fragmentation leaves slots free), so a load that *is* declared an L2
// miss additionally gates its thread until the data returns.
//
// Modes:
//   * Hybrid     — the paper's DWarn (gate on declared L2 miss iff <3 threads)
//   * Basic      — priority reduction only (ablation)
//   * GateAlways — gate on declared L2 miss at any thread count (ablation)
#pragma once

#include <array>

#include "common/check.hpp"
#include "policy/fetch_policy.hpp"

namespace dwarn {

/// Gating behavior of the DWarn variant.
enum class DWarnMode : std::uint8_t { Basic, Hybrid, GateAlways };

/// The DCache-Warn fetch policy.
class DWarnPolicy final : public FetchPolicy {
 public:
  explicit DWarnPolicy(PolicyHost& host, DWarnMode mode = DWarnMode::Hybrid,
                       std::size_t gate_thread_limit = 2)
      : FetchPolicy(host), mode_(mode), gate_thread_limit_(gate_thread_limit) {}

  [[nodiscard]] std::string_view name() const override {
    switch (mode_) {
      case DWarnMode::Basic: return "DWarn-basic";
      case DWarnMode::Hybrid: return "DWarn";
      case DWarnMode::GateAlways: return "DWarn-gate";
    }
    return "DWarn";
  }

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    const Cycle now = host_.now();
    normal_.clear();
    dmiss_.clear();
    for (const ThreadId t : candidates) {
      if (gating_active() && gate_until_[t] > now) continue;  // gated (hybrid)
      (dmiss_counter_[t] == 0 ? normal_ : dmiss_).push_back(t);
    }
    sort_by_icount(normal_);
    sort_by_icount(dmiss_);
    out.insert(out.end(), normal_.begin(), normal_.end());
    out.insert(out.end(), dmiss_.begin(), dmiss_.end());
    if (out.empty() && !candidates.empty()) {
      // Keep one thread running even when gating has removed everyone.
      ThreadId best = candidates[0];
      for (const ThreadId t : candidates) {
        if (host_.icount(t) < host_.icount(best)) best = t;
      }
      out.push_back(best);
    }
  }

  void on_l1_miss_detected(ThreadId tid, std::uint64_t /*dyn_id*/, Addr /*pc*/) override {
    ++dmiss_counter_[tid];
  }

  void on_fill(ThreadId tid) override {
    DWARN_CHECK(dmiss_counter_[tid] > 0);
    --dmiss_counter_[tid];
  }

  void on_long_latency(ThreadId tid, std::uint64_t /*dyn_id*/, Cycle fill_at) override {
    if (!gating_active()) return;
    if (host_.num_threads() <= 1) return;  // never stop the only thread
    const Cycle advance = host_.fill_advance_notice();
    const Cycle until = fill_at > advance ? fill_at - advance : 0;
    if (until > gate_until_[tid]) gate_until_[tid] = until;
  }

  /// In-flight L1 data-miss counter of a context (test hook).
  [[nodiscard]] unsigned dmiss_counter(ThreadId tid) const { return dmiss_counter_[tid]; }
  [[nodiscard]] DWarnMode mode() const { return mode_; }
  [[nodiscard]] Cycle gate_until(ThreadId tid) const { return gate_until_[tid]; }

 private:
  [[nodiscard]] bool gating_active() const {
    switch (mode_) {
      case DWarnMode::Basic: return false;
      case DWarnMode::GateAlways: return true;
      case DWarnMode::Hybrid: return host_.num_threads() <= gate_thread_limit_;
    }
    return false;
  }

  DWarnMode mode_;
  std::size_t gate_thread_limit_;
  std::array<unsigned, kMaxThreads> dmiss_counter_{};
  std::array<Cycle, kMaxThreads> gate_until_{};
  std::vector<ThreadId> normal_;
  std::vector<ThreadId> dmiss_;
};

}  // namespace dwarn
