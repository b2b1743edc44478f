// The SMT out-of-order core.
//
// A cycle-level model of the paper's machine (Table 3): per-cycle stage
// order is events -> commit -> issue -> rename/dispatch -> fetch, giving a
// 9-stage pipe with the baseline `frontend_depth` of 4 (fetch + decode/
// rename/dispatch stages, issue earliest the following cycle, execute
// next: a load's L1 miss is known ~5 cycles after fetch, as in the paper).
//
// Shared resources (the paper's focus):
//   * physical registers — allocated at rename, freed at commit of the
//     next writer (classical map-based renaming with walk-back recovery);
//   * issue-queue entries — held from dispatch until issue (instructions
//     waiting on an L2-missing load's result hold them for the full
//     memory latency, which is exactly the clog DWarn prevents);
//   * fetch/issue/commit bandwidth and FU slots.
// Private resources: per-thread ROB (instruction window) and rename map.
//
// Fetch implements the X.Y mechanism (fetch_threads.fetch_width) with
// fragmentation: a thread's fetch ends at a predicted-taken branch, an
// I-cache line boundary, an I-cache miss, or a full front-end buffer.
// Wrong-path instructions are fetched, renamed, executed and squashed
// exactly like real ones.
//
// Hot-path layout (docs/core_perf.md): the event calendar is a flat
// bucket-ring EventWheel, and the instruction windows and the shared
// front-end queue are flat Rings with stable positions (O(1) instruction
// lookup from queue/event entries); fetch fills its window slot in place.
// Issue-queue entries carry their sources' register ready cells, so the
// per-cycle readiness poll reads two cycles per entry and looks up the
// window only for an instruction it issues. There is one tick loop; it
// calls the fetch policy through its FetchPolicy interface.
#pragma once

#include <cstdint>
#include <vector>

#include "bpred/frontend_predictor.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/core_config.hpp"
#include "core/dyn_inst.hpp"
#include "core/event_wheel.hpp"
#include "core/phys_regfile.hpp"
#include "core/rename_map.hpp"
#include "core/ring.hpp"
#include "mem/hierarchy.hpp"
#include "policy/fetch_policy.hpp"
#include "trace/code_layout.hpp"
#include "trace/inst_stream.hpp"
#include "trace/wrongpath.hpp"

namespace dwarn {

namespace telem {
class CounterSampler;
}

/// The instruction supply of one hardware context. The stream may be a
/// generating TraceStream or a shared-trace ReplayStream — the core cannot
/// tell (and must not be able to tell) the difference.
struct ThreadProgram {
  InstStream* stream = nullptr;           ///< correct-path instructions
  WrongPathSupplier* wrongpath = nullptr; ///< instructions beyond a mispredict
};

/// Cycle-level SMT core; implements PolicyHost for the fetch policy.
class SmtCore final : public PolicyHost {
 public:
  SmtCore(const CoreConfig& cfg, MemoryHierarchy& mem, FrontEndPredictor& bpred,
          std::vector<ThreadProgram> programs, StatSet& stats);
  // Issue-queue entries point into this core's register files, so a copy
  // would poll another core's registers.
  SmtCore(const SmtCore&) = delete;
  SmtCore& operator=(const SmtCore&) = delete;

  /// Install the fetch policy (must be set before the first tick()).
  void set_policy(FetchPolicy* policy);

  /// Attach an interval CounterSampler (telemetry); nullptr detaches.
  /// The tick loop samples only while one is attached.
  void attach_sampler(telem::CounterSampler* sampler) { sampler_ = sampler; }
  [[nodiscard]] telem::CounterSampler* sampler() const { return sampler_; }

  /// Record one interval sample into the attached sampler (out-of-line —
  /// only the cheap next_at comparison lives in the tick loop).
  void telem_sample();

  /// Advance the machine one cycle.
  void tick();

  // --- PolicyHost ----------------------------------------------------------
  [[nodiscard]] Cycle now() const override { return now_; }
  [[nodiscard]] std::size_t num_threads() const override { return threads_.size(); }
  [[nodiscard]] unsigned icount(ThreadId tid) const override;
  [[nodiscard]] unsigned in_flight(ThreadId tid) const override;
  std::size_t flush_after(ThreadId tid, std::uint64_t dyn_id) override;
  [[nodiscard]] Cycle fill_advance_notice() const override {
    return mem_.config().fill_advance_notice;
  }

  // --- queries -------------------------------------------------------------
  [[nodiscard]] const CoreConfig& config() const { return cfg_; }
  [[nodiscard]] std::uint64_t committed(ThreadId tid) const;
  [[nodiscard]] std::uint64_t total_committed() const;

  /// Per-class issue-queue occupancy (test hook).
  [[nodiscard]] std::size_t iq_occupancy(IssueClass c) const {
    return iqs_[static_cast<std::size_t>(c)].size();
  }
  /// Instruction-window size of a thread (test hook).
  [[nodiscard]] std::size_t window_size(ThreadId tid) const {
    return threads_[tid].window.size();
  }
  [[nodiscard]] std::size_t free_int_regs() const { return int_regs_.num_free(); }
  [[nodiscard]] std::size_t free_fp_regs() const { return fp_regs_.num_free(); }

  /// Verify structural invariants (register conservation, window ordering,
  /// front-end and issue-queue consistency, icount accounting). Aborts via
  /// DWARN_CHECK inside; returns true so tests can assert on it. The full
  /// walk runs in every build when called explicitly; tick() additionally
  /// calls it periodically under DWARN_EXPENSIVE_CHECKS (debug builds).
  bool check_invariants() const;

 private:
  struct QEntry {
    ThreadId tid;
    std::uint64_t dyn_id;
    std::uint64_t wpos;  ///< window-ring position of the instruction
  };

  /// Issue-queue entry: the instruction's handle plus the ready cells of
  /// its two sources, so the per-cycle readiness poll touches no window
  /// entry. An absent source points at kReadyCell. A cell read here is the
  /// same PhysRegFile cell the source's producer writes at issue, and it
  /// stays that register's until the entry leaves the queue: a source is
  /// freed only when its next writer (younger than the consumer) commits,
  /// or when a squash that also takes the consumer releases it.
  struct IqEntry {
    const Cycle* src_ready[2];
    QEntry inst;
  };
  static constexpr Cycle kReadyCell = 0;

  struct EventRec {
    enum class Kind : std::uint8_t {
      L1MissDetect,   ///< front end learns of an L1 D-miss (policy hook)
      Fill,           ///< the miss's fill arrived (policy hook)
      LoadComplete,   ///< any load finished (policy training hook)
      LongLatency,    ///< declared L2 miss / DTLB miss (policy hook)
      BranchResolve,  ///< branch executed: recover if mispredicted
    };
    Kind kind{};
    ThreadId tid{};
    std::uint64_t dyn_id{};
    std::uint64_t wpos{};  ///< window-ring position of the instruction
    Addr pc{};
    Cycle fill_at{};
    bool l1_missed{};
    bool l2_missed{};
  };

  struct ThreadCtx {
    InstStream* stream = nullptr;
    WrongPathSupplier* wrongpath = nullptr;
    Ring<DynInst> window;        ///< in-flight instructions, oldest first
    RenameMap rmap;
    std::size_t rename_idx = 0;  ///< next window index to rename
    unsigned icount = 0;         ///< pre-issue instructions (FrontEnd+InQueue)
    unsigned renamed_in_flight = 0;

    Addr fetch_pc = 0;
    InstSeq fetch_seq = 0;       ///< next correct-path sequence to fetch
    std::uint64_t next_dyn_id = 0;
    bool in_wrong_path = false;
    Cycle fetch_stall_until = 0;
    Addr cur_fetch_line = ~Addr{0};
  };

  // Stage helpers, in tick order.
  void process_events();
  void do_commit();
  void do_issue();
  void issue_one(DynInst& d);
  void do_rename();
  void do_fetch();
  void fetch_from_thread(ThreadId tid, unsigned& budget);
  void sample_occupancy();

  /// Remove every instruction of `tid` younger than `dyn_id` (branch
  /// recovery, and flush_after, which policies call mid-tick). `flush`
  /// selects the squash-accounting bucket (FLUSH policy vs branch).
  std::size_t squash_younger_than(ThreadId tid, std::uint64_t dyn_id, bool flush);

  void remove_from_iq(ThreadId tid, std::uint64_t dyn_id, IssueClass c);

  /// O(1) lookup through a stored window-ring position; nullptr when the
  /// instruction was squashed (position dead or re-occupied by a younger
  /// instruction with a different dyn_id).
  [[nodiscard]] DynInst* find_at(ThreadId tid, std::uint64_t dyn_id,
                                 std::uint64_t wpos) {
    Ring<DynInst>& w = threads_[tid].window;
    if (!w.live(wpos)) return nullptr;
    DynInst& d = w.at_pos(wpos);
    return d.dyn_id == dyn_id ? &d : nullptr;
  }
  /// Binary-search lookup for callers without a position (flush_after).
  [[nodiscard]] DynInst* find(ThreadId tid, std::uint64_t dyn_id);
  void schedule(Cycle at, const EventRec& ev) { events_.schedule(now_, at, ev); }
  [[nodiscard]] PhysRegFile& regfile(RegClass c) {
    return c == RegClass::Fp ? fp_regs_ : int_regs_;
  }
  [[nodiscard]] const PhysRegFile& regfile(RegClass c) const {
    return c == RegClass::Fp ? fp_regs_ : int_regs_;
  }
  /// The ready cell an issue-queue entry polls for one renamed source.
  [[nodiscard]] const Cycle* src_ready_cell(RegClass c, std::uint16_t phys) const {
    return phys == kNoReg ? &kReadyCell : regfile(c).ready_cell(phys);
  }
  [[nodiscard]] Addr iline_of(Addr pc) const {
    // Fetch fragments on the line granularity of whichever instruction
    // cache actually serves ifetch (modeled subsystem when enabled).
    return pc & ~static_cast<Addr>(mem_.ifetch_line_bytes() - 1);
  }

  CoreConfig cfg_;
  MemoryHierarchy& mem_;
  FrontEndPredictor& bpred_;
  FetchPolicy* policy_ = nullptr;
  telem::CounterSampler* sampler_ = nullptr;
  StatSet& stats_;

  std::vector<ThreadCtx> threads_;
  PhysRegFile int_regs_;
  PhysRegFile fp_regs_;
  std::array<std::vector<IqEntry>, kNumIssueClasses> iqs_;

  /// Shared in-order front end: fetched instructions of every context in
  /// fetch order. Rename consumes the head; a head that cannot get its
  /// resources blocks everyone behind it (head-of-line blocking). This is
  /// the coupling that makes the fetch policy the machine's resource
  /// allocator — the paper's premise. Squashed instructions leave stale
  /// entries that rename skips for free.
  Ring<QEntry> frontend_q_;
  std::size_t frontend_live_ = 0;  ///< live (non-squashed) entries

  EventWheel<EventRec> events_;
  std::vector<ThreadId> cands_;        ///< per-cycle scratch for fetch candidates
  std::vector<ThreadId> fetch_order_;  ///< per-cycle scratch for policy output
  Cycle now_ = 0;
  std::size_t commit_rr_ = 0;  ///< round-robin start for commit bandwidth

  // Statistics.
  Counter& cycles_;
  Counter& fetched_;
  Counter& fetched_wrongpath_;
  Counter& committed_total_;
  std::array<Counter*, kMaxThreads> committed_tid_{};
  Counter& squashed_branch_;
  Counter& squashed_flush_;
  Counter& flush_events_;
  Counter& rename_stall_regs_;
  Counter& rename_stall_iq_;
  Counter& icache_stall_cycles_;
  Counter& loads_issued_;
  Counter& cloads_;
  Counter& cload_l1_misses_;
  Counter& cload_l2_misses_;
  std::array<Histogram*, kNumIssueClasses> occ_iq_;
  Histogram& occ_int_regs_;
};

}  // namespace dwarn
