// Combined front-end branch predictor: gshare + BTB + per-context RAS.
//
// The fetch unit asks for a predicted next PC for every branch it fetches;
// a wrong prediction sends fetch down the wrong path until the branch
// resolves at execute. Direction comes from gshare, targets from the BTB
// (taken direct branches) or the RAS (returns). RAS operations happen
// speculatively at fetch; each branch carries a checkpoint so squashes
// restore the stack.
#pragma once

#include <vector>

#include "bpred/btb.hpp"
#include "bpred/gshare.hpp"
#include "bpred/ras.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace dwarn {

/// Sizing of the front-end predictor structures (paper Table 3 defaults).
struct BpredConfig {
  std::size_t gshare_entries = 2048;
  std::size_t btb_entries = 256;
  std::uint32_t btb_assoc = 4;
  std::size_t ras_entries = 256;
};

/// A fetch-time branch prediction.
struct BranchPrediction {
  bool taken = false;       ///< predicted direction
  Addr next_pc = 0;         ///< predicted next fetch PC
  Ras::Checkpoint ras_cp{}; ///< RAS state *before* this branch's push/pop
};

/// Shared-table predictor with per-context history and RAS.
class FrontEndPredictor {
 public:
  FrontEndPredictor(const BpredConfig& cfg, std::size_t num_threads, StatSet& stats);

  FrontEndPredictor(const FrontEndPredictor&) = delete;
  FrontEndPredictor& operator=(const FrontEndPredictor&) = delete;

  /// Predict the next PC after the branch at `pc`.
  /// `fall_through` is the sequentially next instruction address.
  /// Speculatively updates the RAS for calls/returns.
  BranchPrediction predict(ThreadId tid, Addr pc, BranchKind kind, Addr fall_through);

  /// Train tables with the resolved branch (direction + taken target).
  void train(ThreadId tid, Addr pc, BranchKind kind, bool taken, Addr target);

  /// Restore a context's RAS to the checkpoint taken at `predict` time
  /// (called when the instructions younger than a branch are squashed).
  void restore_ras(ThreadId tid, const Ras::Checkpoint& cp);

  /// Record whether a resolved branch was mispredicted (statistics).
  void note_resolved(bool mispredicted);

  [[nodiscard]] const Gshare& gshare() const { return gshare_; }

 private:
  Gshare gshare_;
  Btb btb_;
  std::vector<Ras> ras_;  ///< one per hardware context
  Counter& lookups_;
  Counter& mispredicts_;
};

}  // namespace dwarn
