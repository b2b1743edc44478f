// Shared traces: generate each thread's instruction stream once per set of
// concurrent runs, and only as far as those runs read it.
//
// The policy and machine axes of an experiment grid never change the
// workload trace — only (BenchmarkProfile, tid, seed) does — so runs that
// need the same stream at the same time can share one generation.
// MaterializedTrace is an append-only buffer of that stream: the first
// reader that needs an instruction past the published prefix generates the
// next fixed-size chunk under the trace's own mutex, and every other reader
// indexes the published prefix lock-free. ReplayStream satisfies the
// InstStream contract over such a buffer; TraceCache hands out the live
// buffer for a key while anything holds it, and forgets it when the last
// holder lets go. ExperimentEngine holds each (workload, seed) group's
// traces across the group's runs, so they share one generation even on one
// worker (see docs/trace_cache.md).
//
// Determinism contract: a replayed run is bit-identical to a regenerated
// run. Generation is a pure function of (profile, tid, seed), the buffer
// records its output verbatim, and a run that reads past the buffer's
// capacity continues from a copy of the generator state right past the
// last buffered instruction — so the core observes the exact sequence
// TraceStream would have produced, and BENCH_*.json snapshots compare
// byte-for-byte with sharing on or off (enforced by ctest + CI).
//
// Environment knob (read per construction, so tests can toggle it):
//   SMT_TRACE_CACHE     1 (default) share traces; 0 regenerate per run
#pragma once

#include <atomic>
#include <compare>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/types.hpp"
#include "trace/benchmark_profile.hpp"
#include "trace/inst_stream.hpp"
#include "trace/trace_stream.hpp"

namespace dwarn {

/// Identity of a materialized stream. The machine, policy and run length
/// deliberately do not appear: they never influence generated instructions.
struct TraceKey {
  Benchmark bench{};
  ThreadId tid = 0;
  std::uint64_t seed = 0;

  auto operator<=>(const TraceKey&) const = default;
};

/// Append-only buffer of the first `capacity()` correct-path instructions
/// of one (profile, tid, seed) stream. The buffer is reserved up front but
/// filled on demand: `published()` entries are generated and immutable,
/// the rest are untouched memory. Thread-safe: any number of readers may
/// index the published prefix while one of them extends it.
class MaterializedTrace {
 public:
  /// Instructions generated per extension step. Readers wait on an
  /// extension for at most one chunk's generation, and a trace is never
  /// generated more than one chunk past the furthest read.
  static constexpr std::uint64_t kChunkInsts = 4096;

  /// Reserves `capacity` (>= 1) entries without generating any. When
  /// `materialized` is set, every generated chunk adds its length to it.
  MaterializedTrace(const BenchmarkProfile& prof, ThreadId tid, std::uint64_t seed,
                    std::uint64_t capacity,
                    std::shared_ptr<std::atomic<std::uint64_t>> materialized = nullptr);
  ~MaterializedTrace();

  MaterializedTrace(const MaterializedTrace&) = delete;
  MaterializedTrace& operator=(const MaterializedTrace&) = delete;

  [[nodiscard]] std::uint64_t capacity() const { return capacity_; }

  /// Length of the published prefix. Every entry below it is immutable and
  /// may be read without locking (this load is the acquire side of the
  /// extender's release).
  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Publishes through `seq` (capped at capacity()), generating whole
  /// chunks under the trace's mutex if no other reader got there first.
  /// Returns the published length, which exceeds `seq` when seq < capacity().
  std::uint64_t publish_through(InstSeq seq);

  /// Entry `seq`; requires seq < published().
  [[nodiscard]] const TraceInst& operator[](InstSeq seq) const {
    return buf_[static_cast<std::size_t>(seq)];
  }

  [[nodiscard]] const CodeLayout& layout() const { return tail_.layout(); }

  /// A private generator positioned at capacity(): the continuation for a
  /// replay that reads past the buffer. Publishes the whole buffer first.
  [[nodiscard]] TraceStream continuation();

  /// Resident bytes: the published entries plus the generator state.
  [[nodiscard]] std::size_t bytes() const;

 private:
  std::uint64_t capacity_;
  TraceInst* buf_;  ///< capacity_ slots; constructed below published_
  std::shared_ptr<std::atomic<std::uint64_t>> materialized_;
  std::mutex mu_;                          ///< serializes extension
  TraceStream tail_;                       ///< generator at published_ (guarded by mu_)
  std::atomic<std::uint64_t> published_{0};
};

/// InstStream over a shared MaterializedTrace. Reads of the published
/// prefix are lock-free; a read past it extends the trace; sequences past
/// the capacity fall back to a private continuation generator, so an
/// undersized trace costs speed, never correctness.
class ReplayStream final : public InstStream {
 public:
  explicit ReplayStream(std::shared_ptr<MaterializedTrace> trace)
      : trace_(std::move(trace)) {
    DWARN_CHECK(trace_ != nullptr);
  }

  const TraceInst& at(InstSeq seq) override {
    DWARN_CHECK(seq >= base_seq_);
    if (seq >= hi_seq_) hi_seq_ = seq + 1;
    if (seq < readable_) return (*trace_)[seq];
    if (seq < trace_->capacity()) {
      readable_ = trace_->publish_through(seq);
      return (*trace_)[seq];
    }
    if (!cont_) cont_.emplace(trace_->continuation());
    return cont_->at(seq);
  }

  void retire_below(InstSeq seq) override {
    if (seq > hi_seq_) seq = hi_seq_;
    if (seq > base_seq_) base_seq_ = seq;
    if (cont_) cont_->retire_below(seq);
  }

  [[nodiscard]] const CodeLayout& layout() const override { return trace_->layout(); }
  [[nodiscard]] InstSeq window_base() const override { return base_seq_; }
  [[nodiscard]] std::size_t window_size() const override {
    return static_cast<std::size_t>(hi_seq_ - base_seq_);
  }

  /// Whether this replay ran past the trace's capacity (test hook).
  [[nodiscard]] bool overflowed() const { return cont_.has_value(); }
  [[nodiscard]] const MaterializedTrace& trace() const { return *trace_; }

 private:
  std::shared_ptr<MaterializedTrace> trace_;
  std::uint64_t readable_ = 0;       ///< published length last observed
  std::optional<TraceStream> cont_;  ///< lazy continuation past the capacity
  InstSeq base_seq_ = 0;
  InstSeq hi_seq_ = 0;  ///< one past the highest sequence served
};

/// Counter snapshot of one TraceCache (all values since construction or
/// the last clear()).
struct TraceCacheStats {
  std::uint64_t hits = 0;       ///< acquire returned a live trace
  std::uint64_t misses = 0;     ///< acquire started a new trace
  std::uint64_t evictions = 0;  ///< always 0: a trace dies with its last holder
  std::uint64_t entries = 0;    ///< live traces
  std::uint64_t bytes = 0;      ///< resident bytes of live traces
  std::uint64_t materialized_insts = 0;  ///< instructions generated into traces
};

/// Thread-safe index of the live MaterializedTrace per TraceKey. It keeps
/// only weak references: a trace lives exactly as long as some run (or a
/// group pin) holds it, so memory is bounded by what is in use.
class TraceCache {
 public:
  /// The live trace for (prof, tid, seed) when its capacity covers
  /// `min_insts` (0 is treated as 1), else a new one of capacity
  /// `min_insts`, which replaces it for later acquires. Holders of a
  /// replaced trace keep theirs.
  [[nodiscard]] std::shared_ptr<MaterializedTrace> acquire(const BenchmarkProfile& prof,
                                                           ThreadId tid, std::uint64_t seed,
                                                           std::uint64_t min_insts);

  [[nodiscard]] TraceCacheStats stats() const;

  /// Forget every trace (holders keep theirs) and reset the counters.
  void clear();

  /// Process-wide cache.
  static TraceCache& shared();

 private:
  mutable std::mutex mu_;
  std::map<TraceKey, std::weak_ptr<MaterializedTrace>> live_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  /// Shared with every trace this cache created since the last clear().
  std::shared_ptr<std::atomic<std::uint64_t>> materialized_ =
      std::make_shared<std::atomic<std::uint64_t>>(0);
};

/// SMT_TRACE_CACHE: 1 (default) = engine/run_simulation share traces via
/// TraceCache::shared(); 0 = every run regenerates on demand.
[[nodiscard]] bool trace_cache_enabled();

/// One-word description of the effective mode, for CLI plan output:
/// "on" or "off".
[[nodiscard]] std::string trace_cache_mode_string();

/// Stats rendered as "trace_cache.*" meta entries for ResultStore. Only
/// attached when explicitly requested (SMT_TRACE_CACHE_STATS=1): stats
/// depend on scheduling, so unconditional emission would break the
/// byte-identity contract between cached and uncached snapshots.
[[nodiscard]] std::map<std::string, std::string> trace_cache_meta(
    const TraceCacheStats& s);

/// The shared cache's stats as "trace_cache.*" meta when
/// SMT_TRACE_CACHE_STATS=1, else empty — the one gate benches, smt_shard
/// and the orchestrator's workers all go through, so every writer applies
/// the same byte-identity reasoning. Sharded sweeps still merge: the
/// merge sums trace_cache.* values across fragments instead of requiring
/// them to agree (each worker's cache counts its own traffic).
[[nodiscard]] std::map<std::string, std::string> trace_cache_stats_meta_if_enabled();

}  // namespace dwarn
