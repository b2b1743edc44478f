#include "trace/trace_cache.hpp"

#include <algorithm>
#include <memory>
#include <type_traits>

#include "common/env.hpp"
#include "telemetry/phase_trace.hpp"

namespace dwarn {

// Slots past the published prefix are never constructed, and no slot is
// ever destroyed: the buffer is raw storage for trivially copied entries.
static_assert(std::is_trivially_copyable_v<TraceInst>);
static_assert(std::is_trivially_destructible_v<TraceInst>);

MaterializedTrace::MaterializedTrace(const BenchmarkProfile& prof, ThreadId tid,
                                     std::uint64_t seed, std::uint64_t capacity,
                                     std::shared_ptr<std::atomic<std::uint64_t>> materialized)
    : capacity_(capacity),
      // Allocation alone reserves address space; pages are first touched
      // when a chunk is generated into them.
      buf_(std::allocator<TraceInst>{}.allocate(static_cast<std::size_t>(capacity))),
      materialized_(std::move(materialized)),
      tail_(prof, tid, seed) {
  DWARN_CHECK(capacity_ >= 1);
}

MaterializedTrace::~MaterializedTrace() {
  std::allocator<TraceInst>{}.deallocate(buf_, static_cast<std::size_t>(capacity_));
}

std::uint64_t MaterializedTrace::publish_through(InstSeq seq) {
  const std::uint64_t want = std::min<std::uint64_t>(seq + 1, capacity_);
  std::uint64_t have = published();
  if (have >= want) return have;
  std::lock_guard lk(mu_);
  // Re-read under the lock: another reader may have extended meanwhile.
  have = published_.load(std::memory_order_relaxed);
  while (have < want) {
    const std::uint64_t end = std::min(have + kChunkInsts, capacity_);
    telem::PhaseSpan span("materialize", "{\"bench\":\"" + std::string(tail_.profile().name) +
                                             "\",\"insts\":" + std::to_string(end) + "}");
    // Generate through the tail stream itself, retiring as we copy, so
    // its window stays one instruction deep and, after the loop, tail_
    // *is* the generator state right past the published prefix.
    for (InstSeq i = have; i < end; ++i) {
      std::construct_at(buf_ + i, tail_.at(i));
      tail_.retire_below(i + 1);
    }
    if (materialized_) materialized_->fetch_add(end - have, std::memory_order_relaxed);
    published_.store(end, std::memory_order_release);
    have = end;
  }
  return have;
}

TraceStream MaterializedTrace::continuation() {
  publish_through(capacity_ - 1);
  std::lock_guard lk(mu_);
  return tail_;
}

std::size_t MaterializedTrace::bytes() const {
  // The generator tail (layout, address streams, small deques) is a few
  // hundred bytes; a fixed overhead keeps many tiny traces from
  // accounting as free.
  constexpr std::size_t kEntryOverhead = 4096;
  return static_cast<std::size_t>(published()) * sizeof(TraceInst) + kEntryOverhead;
}

std::shared_ptr<MaterializedTrace> TraceCache::acquire(const BenchmarkProfile& prof,
                                                       ThreadId tid, std::uint64_t seed,
                                                       std::uint64_t min_insts) {
  if (min_insts == 0) min_insts = 1;
  const TraceKey key{prof.id, tid, seed};
  std::lock_guard lk(mu_);
  if (const auto it = live_.find(key); it != live_.end()) {
    if (auto trace = it->second.lock(); trace && trace->capacity() >= min_insts) {
      ++hits_;
      return trace;
    }
  }
  // A new trace generates nothing yet, so building it under the lock is
  // cheap, and it makes concurrent acquires of one key share it.
  ++misses_;
  std::erase_if(live_, [](const auto& kv) { return kv.second.expired(); });
  auto trace = std::make_shared<MaterializedTrace>(prof, tid, seed, min_insts, materialized_);
  live_[key] = trace;
  return trace;
}

TraceCacheStats TraceCache::stats() const {
  std::lock_guard lk(mu_);
  TraceCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.materialized_insts = materialized_->load(std::memory_order_relaxed);
  for (const auto& [key, weak] : live_) {
    if (const auto trace = weak.lock()) {
      ++s.entries;
      s.bytes += trace->bytes();
    }
  }
  return s;
}

void TraceCache::clear() {
  std::lock_guard lk(mu_);
  live_.clear();
  hits_ = 0;
  misses_ = 0;
  materialized_ = std::make_shared<std::atomic<std::uint64_t>>(0);
}

TraceCache& TraceCache::shared() {
  static TraceCache cache;
  return cache;
}

bool trace_cache_enabled() {
  return env_u64("SMT_TRACE_CACHE", 0, 1).value_or(1) == 1;
}

std::string trace_cache_mode_string() { return trace_cache_enabled() ? "on" : "off"; }

std::map<std::string, std::string> trace_cache_meta(const TraceCacheStats& s) {
  return {
      {"trace_cache.hits", std::to_string(s.hits)},
      {"trace_cache.misses", std::to_string(s.misses)},
      {"trace_cache.evictions", std::to_string(s.evictions)},
      {"trace_cache.entries", std::to_string(s.entries)},
      {"trace_cache.bytes", std::to_string(s.bytes)},
      {"trace_cache.materialized_insts", std::to_string(s.materialized_insts)},
  };
}

std::map<std::string, std::string> trace_cache_stats_meta_if_enabled() {
  if (env_u64("SMT_TRACE_CACHE_STATS", 0, 1).value_or(0) != 1) return {};
  return trace_cache_meta(TraceCache::shared().stats());
}

}  // namespace dwarn
