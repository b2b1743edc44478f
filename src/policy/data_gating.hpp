// DG and PDG (El-Moursy & Albonesi, HPCA'03).
//
// DG ("data gating"): stall a thread's fetch while it has more than `n`
// outstanding L1 data-cache misses (L1 detection moment, GATE response
// action). The paper — and this reproduction — uses n = 0: a thread is
// gated on every outstanding miss. DG's weakness is exactly what DWarn
// fixes: fewer than half of L1 misses become L2 misses, so most of these
// stalls sacrifice a thread that would have continued usefully.
//
// PDG ("predictive data gating") moves the detection moment to FETCH with
// an L1-miss predictor: a thread is gated while (loads predicted to miss +
// loads predicted to hit that actually missed) exceeds `n`. It inherits
// DG's weakness and adds predictor mistakes and load serialization.
#pragma once

#include <array>
#include <unordered_set>

#include "common/check.hpp"
#include "policy/fetch_policy.hpp"
#include "policy/miss_predictor.hpp"

namespace dwarn {

/// DG: gate on outstanding L1 data misses.
class DataGatingPolicy final : public FetchPolicy {
 public:
  DataGatingPolicy(PolicyHost& host, unsigned threshold = 0)
      : FetchPolicy(host), threshold_(threshold) {}

  [[nodiscard]] std::string_view name() const override { return "DG"; }

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    for (const ThreadId t : candidates) {
      if (outstanding_[t] <= threshold_) out.push_back(t);
    }
    sort_by_icount(out);
  }

  void on_l1_miss_detected(ThreadId tid, std::uint64_t /*dyn_id*/, Addr /*pc*/) override {
    ++outstanding_[tid];
  }

  void on_fill(ThreadId tid) override {
    DWARN_CHECK(outstanding_[tid] > 0);
    --outstanding_[tid];
  }

  [[nodiscard]] unsigned outstanding(ThreadId tid) const { return outstanding_[tid]; }

 private:
  unsigned threshold_;
  std::array<unsigned, kMaxThreads> outstanding_{};
};

/// PDG: gate on predicted (plus mispredicted-actual) outstanding misses.
class PredictiveDataGatingPolicy final : public FetchPolicy {
 public:
  PredictiveDataGatingPolicy(PolicyHost& host, unsigned threshold = 0,
                             std::size_t predictor_entries = 4096)
      : FetchPolicy(host), threshold_(threshold), predictor_(predictor_entries) {}

  [[nodiscard]] std::string_view name() const override { return "PDG"; }

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    for (const ThreadId t : candidates) {
      if (pending_[t].size() <= threshold_) out.push_back(t);
    }
    sort_by_icount(out);
  }

  void on_fetch(ThreadId tid, std::uint64_t dyn_id, const TraceInst& ti) override {
    if (ti.is_load() && predictor_.predict_miss(ti.pc)) {
      pending_[tid].insert(dyn_id);  // predicted miss: counted from fetch
    }
  }

  void on_l1_miss_detected(ThreadId tid, std::uint64_t dyn_id, Addr /*pc*/) override {
    // A predicted-hit load that actually missed joins the count late.
    pending_[tid].insert(dyn_id);
  }

  void on_load_complete(ThreadId tid, std::uint64_t dyn_id, Addr pc, bool l1_missed,
                        bool /*l2_missed*/) override {
    predictor_.train(pc, l1_missed);
    pending_[tid].erase(dyn_id);
  }

  void on_inst_squashed(ThreadId tid, std::uint64_t dyn_id, const TraceInst& ti) override {
    if (ti.is_load()) pending_[tid].erase(dyn_id);
  }

  [[nodiscard]] std::size_t pending_count(ThreadId tid) const {
    return pending_[tid].size();
  }
  [[nodiscard]] const MissPredictor& predictor() const { return predictor_; }

 private:
  unsigned threshold_;
  MissPredictor predictor_;
  std::array<std::unordered_set<std::uint64_t>, kMaxThreads> pending_{};
};

}  // namespace dwarn
