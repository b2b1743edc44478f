// DC-PRED (Limousin et al., ICS'01), the LIMIT-RESOURCES cell of the
// paper's Table 1 taxonomy.
//
// Detection moment: FETCH, via an L2-miss predictor. Response action:
// while a predicted-L2-miss load of a thread is in flight, that thread may
// hold at most `limit` in-flight instructions (rename stalls beyond the
// cap). When the load resolves, the thread regains full resource access.
// The paper classifies but does not re-evaluate DC-PRED; we implement it
// as a comparator/extension, wired through FetchPolicy::max_in_flight.
#pragma once

#include <array>
#include <unordered_set>

#include "policy/fetch_policy.hpp"
#include "policy/miss_predictor.hpp"

namespace dwarn {

/// DC-PRED: predictive resource limiting on top of ICOUNT.
class DcPredPolicy final : public FetchPolicy {
 public:
  DcPredPolicy(PolicyHost& host, unsigned limit = 16,
               std::size_t predictor_entries = 4096)
      : FetchPolicy(host), limit_(limit), predictor_(predictor_entries) {}

  [[nodiscard]] std::string_view name() const override { return "DC-PRED"; }

  void order(std::span<const ThreadId> candidates,
             std::vector<ThreadId>& out) override {
    out.assign(candidates.begin(), candidates.end());
    sort_by_icount(out);
  }

  void on_fetch(ThreadId tid, std::uint64_t dyn_id, const TraceInst& ti) override {
    if (ti.is_load() && predictor_.predict_miss(ti.pc)) {
      predicted_[tid].insert(dyn_id);
    }
  }

  void on_load_complete(ThreadId tid, std::uint64_t dyn_id, Addr pc, bool /*l1*/,
                        bool l2_missed) override {
    predictor_.train(pc, l2_missed);
    predicted_[tid].erase(dyn_id);
  }

  void on_inst_squashed(ThreadId tid, std::uint64_t dyn_id, const TraceInst& ti) override {
    if (ti.is_load()) predicted_[tid].erase(dyn_id);
  }

  [[nodiscard]] unsigned max_in_flight(ThreadId tid) const override {
    return predicted_[tid].empty() ? std::numeric_limits<unsigned>::max() : limit_;
  }

  [[nodiscard]] std::size_t active_predictions(ThreadId tid) const {
    return predicted_[tid].size();
  }

 private:
  unsigned limit_;
  MissPredictor predictor_;
  std::array<std::unordered_set<std::uint64_t>, kMaxThreads> predicted_{};
};

}  // namespace dwarn
