#include "bpred/frontend_predictor.hpp"

#include "common/check.hpp"

namespace dwarn {

FrontEndPredictor::FrontEndPredictor(const BpredConfig& cfg, std::size_t num_threads,
                                     StatSet& stats)
    : gshare_(cfg.gshare_entries),
      btb_(cfg.btb_entries, cfg.btb_assoc),
      lookups_(stats.counter("bpred.lookups")),
      mispredicts_(stats.counter("bpred.mispredicts")) {
  DWARN_CHECK(num_threads >= 1 && num_threads <= kMaxThreads);
  ras_.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) ras_.emplace_back(cfg.ras_entries);
}

BranchPrediction FrontEndPredictor::predict(ThreadId tid, Addr pc, BranchKind kind,
                                            Addr fall_through) {
  DWARN_CHECK(tid < ras_.size());
  lookups_.add();
  BranchPrediction p;
  p.ras_cp = ras_[tid].checkpoint();

  switch (kind) {
    case BranchKind::Cond: {
      p.taken = gshare_.predict(tid, pc);
      if (p.taken) {
        if (auto target = btb_.lookup(pc)) {
          p.next_pc = *target;
        } else {
          // Taken prediction without a cached target cannot redirect fetch.
          p.taken = false;
          p.next_pc = fall_through;
        }
      } else {
        p.next_pc = fall_through;
      }
      break;
    }
    case BranchKind::Uncond:
    case BranchKind::Call: {
      p.taken = true;
      if (auto target = btb_.lookup(pc)) {
        p.next_pc = *target;
      } else {
        p.taken = false;  // BTB cold: fetch falls through and mispredicts
        p.next_pc = fall_through;
      }
      if (kind == BranchKind::Call) ras_[tid].push(fall_through);
      break;
    }
    case BranchKind::Return: {
      p.taken = true;
      p.next_pc = ras_[tid].pop();
      break;
    }
    case BranchKind::None:
      p.taken = false;
      p.next_pc = fall_through;
      break;
  }
  return p;
}

void FrontEndPredictor::train(ThreadId tid, Addr pc, BranchKind kind, bool taken,
                              Addr target) {
  if (kind == BranchKind::Cond) gshare_.update(tid, pc, taken);
  if (taken && kind != BranchKind::Return) btb_.update(pc, target);
}

void FrontEndPredictor::restore_ras(ThreadId tid, const Ras::Checkpoint& cp) {
  DWARN_CHECK(tid < ras_.size());
  ras_[tid].restore(cp);
}

void FrontEndPredictor::note_resolved(bool mispredicted) {
  if (mispredicted) mispredicts_.add();
}

}  // namespace dwarn
