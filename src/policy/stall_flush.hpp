// STALL and FLUSH (Tullsen & Brown, MICRO'01).
//
// Detection moment: "X cycles after load issue" — the core's LongLatency
// event, which fires when a load is declared an L2 miss (it has spent more
// than the declaration threshold in the hierarchy, 15 cycles in the
// baseline) or suffers a DTLB miss.
//
// Response actions (paper §2.1/§5):
//   * STALL gates the offending thread's fetch until the load returns,
//     resuming on the 2-cycle advance fill indication.
//   * FLUSH additionally squashes every instruction younger than the
//     load, freeing the shared resources it holds, at the cost of
//     re-fetching those instructions later.
// Both keep at least one thread running.
#pragma once

#include <array>

#include "policy/fetch_policy.hpp"

namespace dwarn {

/// Common machinery: per-thread gate deadlines + keep-one-running order.
class GatingPolicyBase : public FetchPolicy {
 public:
  using FetchPolicy::FetchPolicy;

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    const Cycle now = host_.now();
    for (const ThreadId t : candidates) {
      if (gate_until_[t] <= now) out.push_back(t);
    }
    sort_by_icount(out);
    if (out.empty() && !candidates.empty()) {
      // Keep one thread running: pick the gated candidate with the lowest
      // ICOUNT (paper §5: "this mechanism always keeps one thread
      // running").
      ThreadId best = candidates[0];
      for (const ThreadId t : candidates) {
        if (host_.icount(t) < host_.icount(best)) best = t;
      }
      out.push_back(best);
    }
  }

  /// Cycle until which `tid` is gated (test hook).
  [[nodiscard]] Cycle gate_until(ThreadId tid) const { return gate_until_[tid]; }

 protected:
  void gate(ThreadId tid, Cycle fill_at) {
    const Cycle advance = host_.fill_advance_notice();
    const Cycle until = fill_at > advance ? fill_at - advance : 0;
    if (until > gate_until_[tid]) gate_until_[tid] = until;
  }

  std::array<Cycle, kMaxThreads> gate_until_{};
};

/// STALL: gate on a declared long-latency load.
class StallPolicy final : public GatingPolicyBase {
 public:
  using GatingPolicyBase::GatingPolicyBase;

  [[nodiscard]] std::string_view name() const override { return "STALL"; }

  void on_long_latency(ThreadId tid, std::uint64_t /*dyn_id*/, Cycle fill_at) override {
    if (host_.num_threads() <= 1) return;  // never stop the only thread
    gate(tid, fill_at);
  }
};

/// FLUSH: squash past the declared load, then gate like STALL.
class FlushPolicy final : public GatingPolicyBase {
 public:
  using GatingPolicyBase::GatingPolicyBase;

  [[nodiscard]] std::string_view name() const override { return "FLUSH"; }

  void on_long_latency(ThreadId tid, std::uint64_t dyn_id, Cycle fill_at) override {
    if (host_.num_threads() <= 1) return;  // never flush the only thread
    host_.flush_after(tid, dyn_id);
    gate(tid, fill_at);
  }
};

}  // namespace dwarn
