// Shared trace tests: materialization fidelity, growth on demand, replay
// rewind/overflow semantics, concurrent readers, liveness + stats, the
// engine's group pins, and the engine-level byte-identity contract between
// SMT_TRACE_CACHE=1 and =0 (workers {1,4}, sharded and unsharded).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "sim/simulator.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_stream.hpp"

namespace dwarn {
namespace {

/// Scoped environment override, restored on destruction (tests in this
/// binary run sequentially, so no races).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

void expect_inst_eq(const TraceInst& a, const TraceInst& b, InstSeq seq) {
  EXPECT_EQ(a.pc, b.pc) << "seq " << seq;
  EXPECT_EQ(a.next_pc, b.next_pc) << "seq " << seq;
  EXPECT_EQ(a.mem_addr, b.mem_addr) << "seq " << seq;
  EXPECT_EQ(a.cls, b.cls) << "seq " << seq;
  EXPECT_EQ(a.branch, b.branch) << "seq " << seq;
  EXPECT_EQ(a.taken, b.taken) << "seq " << seq;
  EXPECT_EQ(a.dest_reg, b.dest_reg) << "seq " << seq;
  EXPECT_EQ(a.dest_class, b.dest_class) << "seq " << seq;
  EXPECT_EQ(a.src_regs, b.src_regs) << "seq " << seq;
  EXPECT_EQ(a.src_class, b.src_class) << "seq " << seq;
  EXPECT_EQ(a.exec_latency, b.exec_latency) << "seq " << seq;
}

// ---- materialization fidelity ----------------------------------------------

TEST(MaterializedTrace, RecordsTheGeneratedSequenceVerbatim) {
  const auto& prof = profile_of(Benchmark::twolf);
  constexpr std::uint64_t kN = 4000;
  MaterializedTrace mt(prof, /*tid=*/1, /*seed=*/7, kN);
  EXPECT_EQ(mt.published(), 0u);  // reserved, not generated
  ASSERT_EQ(mt.publish_through(kN - 1), kN);

  TraceStream ref(prof, 1, 7);
  for (InstSeq i = 0; i < kN; ++i) {
    expect_inst_eq(mt[i], ref.at(i), i);
    ref.retire_below(i + 1);
  }
  EXPECT_EQ(mt.layout().text_base(), ref.layout().text_base());
  EXPECT_GT(mt.bytes(), kN * sizeof(TraceInst));
}

TEST(MaterializedTrace, GrowsOnDemandOneChunkAtATime) {
  const auto& prof = profile_of(Benchmark::bzip2);
  constexpr std::uint64_t kChunk = MaterializedTrace::kChunkInsts;
  constexpr std::uint64_t kCapacity = 5 * kChunk + 123;
  auto materialized = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto trace = std::make_shared<MaterializedTrace>(prof, 0, 9, kCapacity, materialized);
  ReplayStream rep(trace);
  EXPECT_EQ(trace->published(), 0u);

  const auto round_up = [&](std::uint64_t n) {
    return std::min(kCapacity, (n + kChunk - 1) / kChunk * kChunk);
  };
  for (const InstSeq s : {InstSeq{0}, InstSeq{1}, kChunk - 1, kChunk, 3 * kChunk + 7,
                          3 * kChunk + 8, kCapacity - 1}) {
    (void)rep.at(s);
    EXPECT_GT(trace->published(), s) << "seq " << s;
    EXPECT_LE(trace->published(), round_up(s + 1)) << "seq " << s;
    EXPECT_EQ(materialized->load(), trace->published());
  }
  EXPECT_EQ(trace->published(), kCapacity);
  EXPECT_FALSE(rep.overflowed());
}

TEST(ReplayStream, MatchesGenerationAcrossRewindRetireAndOverflow) {
  // Drive a generating stream and a replayer (capacity deliberately
  // shorter than the walk) through the access pattern a core produces:
  // advance, squash back, re-read, retire — then run past the capacity so
  // the continuation generator takes over mid-walk.
  const auto& prof = profile_of(Benchmark::mcf);
  constexpr std::uint64_t kMaterialized = 1500;
  constexpr std::uint64_t kWalk = 3000;
  TraceStream ref(prof, 0, 3);
  ReplayStream rep(std::make_shared<MaterializedTrace>(prof, 0, 3, kMaterialized));

  InstSeq retired = 0;
  for (InstSeq i = 0; i < kWalk; ++i) {
    expect_inst_eq(rep.at(i), ref.at(i), i);
    if (i % 97 == 3 && i > retired + 8) {
      // Squash: re-read a window of older (unretired) sequences.
      for (InstSeq j = i - 8; j <= i; ++j) expect_inst_eq(rep.at(j), ref.at(j), j);
    }
    if (i % 61 == 0 && i > 16) {
      retired = i - 16;
      ref.retire_below(retired);
      rep.retire_below(retired);
      EXPECT_EQ(rep.window_base(), ref.window_base());
    }
  }
  EXPECT_TRUE(rep.overflowed());
  EXPECT_EQ(rep.trace().published(), kMaterialized);
}

TEST(ReplayStream, ExactBufferWalkNeverOverflows) {
  const auto& prof = profile_of(Benchmark::gzip);
  constexpr std::uint64_t kN = 2000;
  ReplayStream rep(std::make_shared<MaterializedTrace>(prof, 2, 11, kN));
  for (InstSeq i = 0; i < kN; ++i) {
    (void)rep.at(i);
    rep.retire_below(i + 1);
  }
  EXPECT_FALSE(rep.overflowed());
  EXPECT_EQ(rep.window_base(), kN);
}

TEST(ReplayStream, ConcurrentReadersOfOneTraceMatchGeneration) {
  // Readers at different speeds and squash patterns share one trace
  // acquired concurrently: whoever is ahead extends it, the rest read the
  // published prefix, and all of them run past the capacity.
  TraceCache cache;
  const auto& prof = profile_of(Benchmark::gcc);
  constexpr int kThreads = 6;
  constexpr std::uint64_t kCapacity = 3 * MaterializedTrace::kChunkInsts + 500;
  constexpr std::uint64_t kWalk = kCapacity + 2000;
  std::vector<std::shared_ptr<MaterializedTrace>> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        got[t] = cache.acquire(prof, 1, 5, kCapacity);
        ReplayStream rep(got[t]);
        TraceStream ref(prof, 1, 5);
        const InstSeq squash_every = 31 + 17 * static_cast<InstSeq>(t);
        const InstSeq retire_every = 50 + 13 * static_cast<InstSeq>(t);
        InstSeq retired = 0;
        for (InstSeq i = 0; i < kWalk; ++i) {
          expect_inst_eq(rep.at(i), ref.at(i), i);
          if (i % squash_every == 0 && i > retired + 8) {
            for (InstSeq j = i - 8; j <= i; ++j) expect_inst_eq(rep.at(j), ref.at(j), j);
          }
          if (i % retire_every == 0 && i > 16) {
            retired = i - 16;
            ref.retire_below(retired);
            rep.retire_below(retired);
          }
        }
        EXPECT_TRUE(rep.overflowed());
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[0].get(), got[t].get());
  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.materialized_insts, kCapacity);  // generated once, shared
}

// ---- cache behavior ---------------------------------------------------------

TEST(TraceCache, LiveTraceIsSharedAndReleasedTraceIsForgotten) {
  TraceCache cache;
  const auto& prof = profile_of(Benchmark::vpr);
  auto a = cache.acquire(prof, 0, 1, 500);
  EXPECT_EQ(a->capacity(), 500u);
  EXPECT_EQ(a->published(), 0u);
  auto b = cache.acquire(prof, 0, 1, 400);  // shorter demand: same trace
  EXPECT_EQ(a.get(), b.get());
  a.reset();
  EXPECT_EQ(cache.stats().entries, 1u);  // still held through b
  b.reset();
  EXPECT_EQ(cache.stats().entries, 0u);

  const auto c = cache.acquire(prof, 0, 1, 500);  // released: a fresh miss
  EXPECT_EQ(c->published(), 0u);
  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(TraceCache, ShortLiveTraceIsReplacedAndOldHoldersKeepTheirs) {
  TraceCache cache;
  const auto& prof = profile_of(Benchmark::parser);
  const auto a = cache.acquire(prof, 0, 1, 500);
  (void)a->publish_through(499);
  const auto c = cache.acquire(prof, 0, 1, 900);  // longer demand: a new trace
  EXPECT_NE(a.get(), c.get());
  EXPECT_GE(c->capacity(), 900u);
  EXPECT_EQ(a->published(), 500u);  // the old holder's trace is untouched

  // Later acquires get the replacement, and both traces hold one sequence.
  EXPECT_EQ(cache.acquire(prof, 0, 1, 400).get(), c.get());
  (void)c->publish_through(899);
  for (InstSeq i = 0; i < 500; ++i) expect_inst_eq((*a)[i], (*c)[i], i);
  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);  // only the replacement is indexed
  EXPECT_EQ(s.bytes, c->bytes());
  EXPECT_EQ(s.materialized_insts, 500u + 900u);
}

TEST(TraceCache, ClearForgetsTracesAndResetsCounters) {
  TraceCache cache;
  const auto& prof = profile_of(Benchmark::gap);
  const auto held = cache.acquire(prof, 0, 1, 100);
  (void)held->publish_through(99);
  cache.clear();
  const TraceCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.materialized_insts, 0u);
  EXPECT_NE(cache.acquire(prof, 0, 1, 100).get(), held.get());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(TraceCacheMeta, RendersEveryCounter) {
  TraceCacheStats s;
  s.hits = 3;
  s.bytes = 123;
  s.materialized_insts = 4567;
  const auto meta = trace_cache_meta(s);
  EXPECT_EQ(meta.at("trace_cache.hits"), "3");
  EXPECT_EQ(meta.at("trace_cache.bytes"), "123");
  EXPECT_EQ(meta.at("trace_cache.materialized_insts"), "4567");
  EXPECT_EQ(meta.size(), 6u);
}

// ---- engine-level byte identity --------------------------------------------

RunGrid identity_grid() {
  RunLength len;
  len.warmup_insts = 500;
  len.measure_insts = 2000;
  RunGrid grid;
  grid.machine(machine_spec("baseline"))
      .workload(workload_by_name("2-MIX"))
      .workload(workload_by_name("2-MEM"))
      .policy(PolicyKind::ICount)
      .policy(PolicyKind::DWarn)
      .seed_count(2)
      .length(len);
  return grid;
}

std::string snapshot_json(const ResultSet& rs) {
  ResultStore store;
  store.set_zero_wall(true);  // wall time is the one host-varying field
  store.add_all(rs);
  return store.to_json();
}

TEST(TraceCacheIdentity, GridSnapshotsAreByteIdenticalWithAndWithoutCache) {
  const RunGrid grid = identity_grid();

  std::string uncached;
  {
    ScopedEnv off("SMT_TRACE_CACHE", "0");
    uncached = snapshot_json(ExperimentEngine().run(grid));
  }

  ScopedEnv on("SMT_TRACE_CACHE", "1");
  TraceCache::shared().clear();
  ThreadPool one(1);
  ThreadPool four(4);
  const std::string serial = snapshot_json(ExperimentEngine(one).run(grid));
  const std::string parallel = snapshot_json(ExperimentEngine(four).run(grid));

  EXPECT_EQ(uncached, serial);
  EXPECT_EQ(uncached, parallel);
  // Replays actually happened: the serial + parallel passes shared buffers.
  EXPECT_GT(TraceCache::shared().stats().hits, 0u);
}

TEST(TraceCacheIdentity, ShardFragmentsAreByteIdenticalWithAndWithoutCache) {
  const std::vector<RunSpec> specs = named_grid("fixture").expand();
  const ShardPlan plan = ShardPlan::make(specs.size(), 2, ShardStrategy::Strided);

  for (std::size_t k = 1; k <= 2; ++k) {
    const std::vector<RunSpec> slice = slice_specs(specs, plan.indices(k));
    std::string uncached;
    std::string cached;
    {
      ScopedEnv off("SMT_TRACE_CACHE", "0");
      uncached = snapshot_json(ExperimentEngine().run(slice));
    }
    {
      ScopedEnv on("SMT_TRACE_CACHE", "1");
      TraceCache::shared().clear();
      cached = snapshot_json(ExperimentEngine().run(slice));
    }
    EXPECT_EQ(uncached, cached) << "shard " << k << "/2";
  }
}

TEST(GroupPins, OneWorkerEngineGeneratesEachKeyOfAGroupOnce) {
  // With one worker no two runs overlap, so only the engine's group pins
  // keep a group's traces live from one of its runs to the next.
  ScopedEnv on("SMT_TRACE_CACHE", "1");
  const std::vector<RunSpec> specs = identity_grid().expand();
  std::set<std::pair<std::string, std::uint64_t>> groups;
  std::uint64_t keys = 0;
  std::uint64_t thread_runs = 0;
  for (const RunSpec& s : specs) {
    if (groups.emplace(s.workload.name, s.seed).second) keys += s.workload.num_threads();
    thread_runs += s.workload.num_threads();
  }
  ASSERT_LT(keys, thread_runs);  // groups of several runs

  TraceCache::shared().clear();
  ThreadPool one(1);
  (void)ExperimentEngine(one).run(specs);
  const TraceCacheStats st = TraceCache::shared().stats();
  EXPECT_EQ(st.misses, keys);         // one pin per key of each group
  EXPECT_EQ(st.hits, thread_runs);    // every run replays a pinned trace
  EXPECT_EQ(st.entries, 0u);          // nothing outlives the engine run
  EXPECT_GT(st.materialized_insts, 0u);
  // Growth on demand: runs read well short of their whole window.
  EXPECT_LT(st.materialized_insts, keys * trace_window_insts(specs.front().len));
}

TEST(BatchOrder, GroupsByWorkloadAndSeedWithoutTouchingIndices) {
  ScopedEnv on("SMT_TRACE_CACHE", "1");
  const std::vector<RunSpec> specs = identity_grid().expand();
  const std::vector<std::size_t> order = ExperimentEngine::batch_order(specs);
  ASSERT_EQ(order.size(), specs.size());

  // A permutation of [0, n).
  std::vector<bool> seen(specs.size(), false);
  for (const std::size_t i : order) {
    ASSERT_LT(i, specs.size());
    EXPECT_FALSE(seen[i]);
    seen[i] = true;
  }
  // Each (workload, seed) group is contiguous in execution order.
  std::set<std::pair<std::string, std::uint64_t>> closed;
  std::pair<std::string, std::uint64_t> cur{"", 0};
  for (const std::size_t i : order) {
    const std::pair<std::string, std::uint64_t> g{specs[i].workload.name, specs[i].seed};
    if (g != cur) {
      EXPECT_TRUE(closed.insert(g).second) << "group reopened: " << g.first;
      cur = g;
    }
  }

  ScopedEnv off("SMT_TRACE_CACHE", "0");
  const std::vector<std::size_t> identity = ExperimentEngine::batch_order(specs);
  for (std::size_t i = 0; i < identity.size(); ++i) EXPECT_EQ(identity[i], i);
}

}  // namespace
}  // namespace dwarn
