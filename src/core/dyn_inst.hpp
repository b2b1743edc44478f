// In-flight dynamic instruction state.
#pragma once

#include <cstdint>

#include "bpred/ras.hpp"
#include "common/types.hpp"
#include "trace/instruction.hpp"

namespace dwarn {

/// Pipeline position of a DynInst.
enum class InstState : std::uint8_t {
  FrontEnd,  ///< fetched, travelling through decode/rename stages
  InQueue,   ///< renamed and waiting in an issue queue
  Issued,    ///< executing (or waiting on the cache)
  Committed, ///< retired (transient; removed from the window immediately)
};

/// One in-flight instruction: the trace record plus rename/timing state.
/// DynInsts live in the owning thread's instruction window (ROB) ring;
/// issue queues and events reference them by (tid, dyn_id) plus the ring
/// position `wpos` for O(1) lookup.
struct DynInst {
  TraceInst ti;
  ThreadId tid = 0;
  std::uint64_t dyn_id = 0;   ///< per-thread monotonic id (wrong path included)
  std::uint64_t wpos = 0;     ///< stable window-ring position (set at fetch)
  InstSeq trace_seq = 0;      ///< correct-path sequence (wrong path: unused)
  bool wrong_path = false;

  InstState state = InstState::FrontEnd;

  // Rename state.
  std::uint16_t dest_phys = kNoReg;
  std::uint16_t old_phys = kNoReg;  ///< previous mapping of ti.dest_reg
  std::uint16_t src_phys0 = kNoReg;
  std::uint16_t src_phys1 = kNoReg;

  // Timing.
  Cycle fetch_cycle = 0;
  Cycle complete_at = kNoCycle;  ///< result availability (issued insts)

  // Branch state.
  bool mispredicted = false;
  Ras::Checkpoint ras_cp{};

  // Load outcome (filled at issue).
  bool l1_miss = false;
  bool l2_miss = false;

  [[nodiscard]] bool renamed() const { return state != InstState::FrontEnd; }
  [[nodiscard]] bool completed(Cycle now) const {
    return state == InstState::Issued && complete_at <= now;
  }
};

}  // namespace dwarn
