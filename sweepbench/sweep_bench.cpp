// Sweep benchmark: one process runs one repetition of one workload through
// the public engine API and prints one JSON line of measurements. run.py
// starts a fresh process per repetition, so every repetition starts with a
// cold trace cache and its own peak-RSS high-water mark.
//
// Workloads (README.md says why each exists):
//   fig1          the registered fig1 grid at one seed (72 runs)
//   seeds_paired  DWarn and ICOUNT on 2-MIX/4-MEM/8-ILP/8-MEM x 4 seeds (32)
//   fig1_icache   the registered fig1_icache grid at one seed (72 runs)
//
// Modes:
//   untraced  ExperimentEngine::run on a ThreadPool with one worker per CPU
//             the process may use. Gives the end-to-end numbers.
//   --traced  the same runs, in ExperimentEngine::batch_order order on the
//             same pool, with a span around each call this file makes into
//             a layer, recorded by the shared telem::PhaseTracer. The spans
//             go to a Chrome-trace JSON file (loadable in Perfetto) when the
//             process ends.
//
// Usage:
//   sweep_bench --workload NAME --seed N --out DIR [--traced]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/seed_sweep.hpp"
#include "analysis/trajectory.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "rules.hpp"
#include "sim/simulator.hpp"
#include "sim/workload.hpp"
#include "telemetry/phase_trace.hpp"
#include "trace/trace_cache.hpp"

extern char** environ;

namespace {

using namespace dwarn;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSplitShards = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string out_dir;
  bool traced = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "sweep_bench: " << why
            << "\nusage: sweep_bench --workload fig1|seeds_paired|fig1_icache --seed N "
               "--out DIR [--traced]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--traced") {
      a.traced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const auto v = parse_decimal_size(value, 1'000'000'000);
      if (!v || *v < 1) usage("--seed must be an integer in [1, 1e9]");
      a.seed = *v;
    } else if (flag == "--out") {
      a.out_dir = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (a.workload.empty() || a.out_dir.empty()) usage("--workload and --out are required");
  return a;
}

/// One worker per CPU this process may run on.
std::size_t affinity_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Environment knobs that change the simulated program or the code path
/// it takes: run windows, the modeled instruction side, telemetry, the
/// dispatch path and the trace cache. The measured program is pinned, so
/// any of them being set is refused rather than silently measured.
std::vector<std::string> program_knobs_set() {
  constexpr std::string_view kExact[] = {"SMT_BENCH_WINDOWS", "SMT_SIM_INSTS",
                                         "SMT_WARMUP_INSTS", "SMT_DEVIRT"};
  constexpr std::string_view kPrefix[] = {"SMT_ICACHE", "SMT_ITLB", "SMT_TELEM",
                                          "SMT_TRACE_CACHE"};
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view entry = *e;
    const std::string_view name = entry.substr(0, entry.find('='));
    const bool exact = std::find(std::begin(kExact), std::end(kExact), name) != std::end(kExact);
    const bool prefixed = std::any_of(std::begin(kPrefix), std::end(kPrefix),
                                      [&](std::string_view p) { return name.starts_with(p); });
    if (exact || prefixed) found.emplace_back(name);
  }
  return found;
}

/// Both windows pinned: RunGrid's default length would read the window
/// knobs from the environment.
RunLength pinned_length() {
  RunLength len;
  len.warmup_insts = 100'000;
  len.measure_insts = 400'000;
  len.max_cycles = 20'000'000;
  return len;
}

std::optional<std::vector<RunSpec>> workload_specs(std::string_view name, std::uint64_t seed,
                                                   const RunLength& len) {
  if (name == "fig1" || name == "fig1_icache") {
    return named_grid(name).seeds({seed}).length(len).expand();
  }
  if (name == "seeds_paired") {
    GridOptions opt;
    for (const char* w : {"2-MIX", "4-MEM", "8-ILP", "8-MEM"}) {
      opt.workloads.push_back(workload_by_name(w));
    }
    opt.policies = {PolicyKind::DWarn, PolicyKind::ICount};
    return named_grid("fig1", opt)
        .seeds({seed, seed + 1, seed + 2, seed + 3})
        .length(len)
        .expand();
  }
  return std::nullopt;
}

double secs(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

/// Minimal JSON object writer: keys in insertion order, doubles with all
/// their digits.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& integer(std::string_view key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& boolean(std::string_view key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + json_escape(key) + "\": " + std::string(json);
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Runs `fn` as one span of the shared phase tracer (recording nothing
/// while the tracer is off) and returns its length in seconds.
template <class Fn>
double timed(const char* name, const std::string& args, Fn&& fn) {
  telem::PhaseTracer& tracer = telem::PhaseTracer::shared();
  const std::uint64_t ts_us = tracer.now_us();
  const Clock::time_point t0 = Clock::now();
  fn();
  const Clock::duration d = Clock::now() - t0;
  tracer.record(name, ts_us,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(d).count()),
                args);
  return secs(d);
}

/// Host seconds the traced mode spends in each layer call of one run
/// (keyed by grid index). The Simulator constructor acquires every thread's
/// trace from the shared cache, so its span holds the trace layer's work;
/// a second, cache-free construction of the same run (which acquires
/// nothing) isolates the construction work itself.
struct RunTrace {
  double task = 0.0;
  double construct = 0.0;         ///< Simulator built with no trace hint: no cache use
  double construct_traces = 0.0;  ///< the run's Simulator: construction + acquires
  double warmup = 0.0;
  double measure = 0.0;
  std::uint64_t cycles = 0;     ///< both windows
  std::uint64_t committed = 0;  ///< both windows
  bool warmup_guard_hit = false;
};

/// The record ExperimentEngine::run builds for a finished run.
RunRecord make_record(const RunSpec& s, SimResult result, double wall) {
  if (!s.machine.name.empty()) result.machine = s.machine.name;
  RunRecord rec;
  rec.machine = result.machine;
  rec.workload = s.workload;
  rec.policy = result.policy;
  rec.tag = s.tag;
  rec.seed = s.seed;
  rec.role = s.role;
  rec.result = std::move(result);
  rec.wall_seconds = wall;
  return rec;
}

std::uint64_t counter(const RunRecord& r, const std::string& name) {
  const auto it = r.result.counters.find(name);
  return it == r.result.counters.end() ? 0 : it->second;
}

/// The traced sweep: the engine's runs, one layer call at a time.
ResultSet traced_sweep(const std::vector<RunSpec>& specs, ThreadPool& pool,
                       std::vector<RunTrace>& traces) {
  const std::vector<std::size_t> order = ExperimentEngine::batch_order(specs);
  std::vector<RunRecord> records(specs.size());
  traces.assign(specs.size(), RunTrace{});
  pool.for_each(specs.size(), [&](std::size_t job) {
    const std::size_t i = order[job];
    const RunSpec& s = specs[i];
    RunTrace& tr = traces[i];
    const std::string args = JsonObject()
                                 .integer("run", i)
                                 .str("workload", s.workload.name)
                                 .str("policy", policy_name(s.policy))
                                 .integer("seed", s.seed)
                                 .done();
    tr.task = timed("run", args, [&] {
      // Acquiring the traces ahead of the constructor would make the
      // constructor acquire them a second time, and under eviction pressure
      // rebuild the ones evicted in between: work the untraced sweep never
      // does. So the trace layer is timed inside the constructor that the
      // engine calls too, and construction alone is timed on a throwaway
      // Simulator that generates on demand instead of touching the cache.
      const MachineConfig machine = s.machine.build(s.workload.num_threads());
      std::unique_ptr<Simulator> sim;
      tr.construct = timed("sim.construct", args, [&] {
        sim = std::make_unique<Simulator>(machine, s.workload, s.policy, s.params, s.seed,
                                          /*trace_insts_hint=*/0);
      });
      sim.reset();

      const auto wall0 = Clock::now();
      tr.construct_traces = timed("sim.construct+trace.acquire", args, [&] {
        sim = std::make_unique<Simulator>(machine, s.workload, s.policy, s.params, s.seed,
                                          trace_window_insts(s.len));
      });

      // Simulator::run's warm-up loop, driven from here; run() then finds
      // the window already committed and goes straight to reset + measure.
      tr.warmup = timed("core.warmup", args, [&] {
        std::uint64_t guard = 0;
        while (sim->core().total_committed() < s.len.warmup_insts &&
               guard++ < s.len.max_cycles) {
          sim->tick();
        }
      });
      tr.warmup_guard_hit = sim->core().total_committed() < s.len.warmup_insts;
      const std::uint64_t warm_committed = sim->core().total_committed();

      SimResult result;
      tr.measure = timed("core.measure", args, [&] { result = sim->run(s.len); });

      tr.cycles = sim->core().now();
      records[i] = make_record(s, std::move(result), secs(Clock::now() - wall0));
      tr.committed = warm_committed + counter(records[i], "core.committed");
    });
  });
  return ResultSet(std::move(records));
}

std::string fnv1a_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Ratio of two counter sums over every run; 0 when the denominator is 0.
double sum_ratio(const ResultSet& rs, const std::vector<std::string>& num,
                 const std::vector<std::string>& den, double scale = 1.0) {
  double n = 0.0;
  double d = 0.0;
  for (const RunRecord& r : rs.records()) {
    for (const auto& k : num) n += static_cast<double>(counter(r, k));
    for (const auto& k : den) d += static_cast<double>(counter(r, k));
  }
  return d > 0.0 ? scale * n / d : 0.0;
}

/// Simulated-machine statistics, pooled over every run of the sweep
/// (measurement windows only, as the snapshot counters are), plus the
/// model's distance from the paper.
std::string simulated_layers(const ResultSet& rs, double paper_gap_pp) {
  double iq_weighted = 0.0;
  double cycles = 0.0;
  double thread_cycles = 0.0;
  double icache_stalls = 0.0;
  std::uint64_t flush_events = 0;
  std::uint64_t prefetch_late = 0;
  std::uint64_t mshr_merges = 0;
  for (const RunRecord& r : rs.records()) {
    const double c = static_cast<double>(r.result.cycles);
    const double iq = static_cast<double>(counter(r, "core.occ.iq_int.mean_x100") +
                                          counter(r, "core.occ.iq_fp.mean_x100") +
                                          counter(r, "core.occ.iq_ls.mean_x100")) /
                      100.0;
    iq_weighted += iq * c;
    cycles += c;
    thread_cycles += c * static_cast<double>(r.workload.num_threads());
    icache_stalls += static_cast<double>(counter(r, "core.icache_stalls"));
    flush_events += counter(r, "core.flush_events");
    prefetch_late += counter(r, "imem.prefetch_late");
    mshr_merges += counter(r, "mem.load_mshr_merges");
  }
  const std::vector<std::string> committed = {"core.committed"};
  return JsonObject()
      .num("core.iq_occ_mean", cycles > 0.0 ? iq_weighted / cycles : 0.0)
      .num("core.wrongpath_frac", sum_ratio(rs, {"core.fetched_wrongpath"}, {"core.fetched"}))
      .num("core.flushed_frac", sum_ratio(rs, {"core.squashed_flush"}, {"core.fetched"}))
      .num("core.rename_stall_frac",
           sum_ratio(rs, {"core.rename_stall_regs", "core.rename_stall_iq"}, {"core.cycles"}))
      .num("core.icache_stall_frac", thread_cycles > 0.0 ? icache_stalls / thread_cycles : 0.0)
      .integer("core.flush_events", flush_events)
      .num("mem.l1d_miss_rate", sum_ratio(rs, {"l1d.misses"}, {"l1d.accesses"}))
      .num("mem.l2_miss_per_kinst", sum_ratio(rs, {"l2.misses"}, committed, 1000.0))
      .integer("mem.load_mshr_merges", mshr_merges)
      .num("mem.dtlb_miss_per_kinst", sum_ratio(rs, {"mem.load_tlb_misses"}, committed, 1000.0))
      // Demand I-side misses of whichever fetch model the machine runs:
      // the modeled I-cache (imem.*) or the legacy L1I (mem.ifetch_*).
      .num("imem.imiss_per_kinst",
           sum_ratio(rs, {"imem.demand_misses", "mem.ifetch_l1_misses"}, committed, 1000.0))
      .num("imem.itlb_miss_per_kinst", sum_ratio(rs, {"imem.itlb_misses"}, committed, 1000.0))
      .integer("imem.prefetch_late", prefetch_late)
      .num("bpred.mispredict_rate", sum_ratio(rs, {"bpred.mispredicts"}, {"bpred.lookups"}))
      .num("paper_gap_pp", paper_gap_pp)
      .done();
}

/// Host-time split of the traced sweep across the layers it called.
std::string host_layers(const std::vector<RunTrace>& traces) {
  double construct = 0.0, construct_traces = 0.0, warmup = 0.0, measure = 0.0, busy = 0.0;
  std::uint64_t cycles = 0, committed = 0;
  for (const RunTrace& t : traces) {
    construct += t.construct;
    construct_traces += t.construct_traces;
    warmup += t.warmup;
    measure += t.measure;
    busy += t.task;
    cycles += t.cycles;
    committed += t.committed;
  }
  const double ticks = warmup + measure;
  // The acquires' self time: the cache-using constructor minus the
  // construction work the cache-free one measures.
  const double acquire = construct_traces - construct;
  return JsonObject()
      .num("trace.acquire_s", acquire)
      .num("trace.acquire_frac", busy > 0.0 ? acquire / busy : 0.0)
      .num("sim.construct_s", construct)
      .num("core.warmup_s", warmup)
      .num("core.measure_s", measure)
      .num("core.tick_frac", busy > 0.0 ? ticks / busy : 0.0)
      .num("core.ns_per_cycle", cycles > 0 ? ticks * 1e9 / static_cast<double>(cycles) : 0.0)
      .num("core.ns_per_inst",
           committed > 0 ? ticks * 1e9 / static_cast<double>(committed) : 0.0)
      .num("layers.coverage_frac",
           busy > 0.0 ? (construct + construct_traces + warmup + measure) / busy : 0.0)
      .done();
}

/// The pool's schedule, from the per-run wall times the records carry
/// (ExperimentEngine::run times construction plus simulation).
std::string engine_layer(std::vector<double> walls, std::size_t workers, double batch_s,
                         const std::optional<sweepbench::TailPercentile>& tail) {
  double busy = 0.0;
  for (const double w : walls) busy += w;
  std::sort(walls.begin(), walls.end());
  const double capacity = static_cast<double>(workers) * batch_s;
  return JsonObject()
      .num("engine.busy_frac", capacity > 0.0 ? busy / capacity : 0.0)
      .num("engine.idle_worker_s", capacity - busy)
      .num("engine.run_p50_s", walls.empty() ? 0.0 : walls[(walls.size() - 1) / 2])
      .num("engine.run_tail_s", tail ? tail->value : 0.0)
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point t_main = Clock::now();
  const Args args = parse_args(argc, argv);
  if (const auto knobs = program_knobs_set(); !knobs.empty()) {
    std::cerr << "sweep_bench: refusing to run: these environment knobs change the measured "
                 "program:";
    for (const auto& k : knobs) std::cerr << ' ' << k;
    std::cerr << "\n";
    return 2;
  }
  const RunLength len = pinned_length();
  const auto maybe_specs = workload_specs(args.workload, args.seed, len);
  if (!maybe_specs) usage("unknown workload '" + args.workload + "'");
  const std::vector<RunSpec>& specs = *maybe_specs;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::filesystem::path out_dir(args.out_dir);
  const std::string tag = args.workload + (args.traced ? ".traced" : "");

  ThreadPool pool(affinity_workers());
  if (args.traced) {
    telem::PhaseTracer::shared().enable((out_dir / ("SPANS_" + tag + ".json")).string());
  }
  const Clock::time_point t_dispatch = Clock::now();
  const auto since = [t_dispatch] { return secs(Clock::now() - t_dispatch); };

  JsonObject out;
  out.str("workload", args.workload)
      .integer("seed_base", args.seed)
      .str("mode", args.traced ? "traced" : "untraced")
      .raw("settings", JsonObject()
                           .integer("workers", pool.worker_count())
                           .integer("warmup_insts", len.warmup_insts)
                           .integer("measure_insts", len.measure_insts)
                           .integer("max_cycles", len.max_cycles)
                           .str("trace_cache", trace_cache_mode_string())
                           .str("machine", specs.front().machine.name)
                           .done())
      .integer("runs", specs.size());

  std::vector<RunTrace> traces;
  ResultSet rs;
  try {
    rs = args.traced ? traced_sweep(specs, pool, traces) : ExperimentEngine(pool).run(specs);
  } catch (const std::exception& e) {
    // A throwing run aborts the engine's batch: every run counts as failed.
    std::cout << out.integer("failed", specs.size()).str("error", e.what()).done() << "\n";
    return 0;
  }
  const double batch_s = since();

  // Serialize: the zero-wall snapshot, and the same records re-split into
  // shard fragments.
  const std::string snap_path = (out_dir / ("BENCH_" + tag + ".json")).string();
  const std::string fingerprint = grid_fingerprint(specs);
  const ShardPlan plan = ShardPlan::make(specs.size(), kSplitShards);
  std::vector<std::string> fragment_paths;
  bool written = true;
  const double serialize_s = timed("store.serialize", "", [&] {
    ResultStore store;
    for (const auto& [k, v] : bench_meta(args.workload, len)) store.set_meta(k, v);
    store.set_zero_wall(true);
    store.add_all(rs);
    written = store.write_json(snap_path);
    for (std::size_t k = 1; k <= kSplitShards; ++k) {
      ResultStore frag;
      for (const auto& [key, v] : bench_meta(args.workload, len)) frag.set_meta(key, v);
      frag.set_shard(ShardHeader{k, kSplitShards, specs.size(), ShardStrategy::Contiguous,
                                 fingerprint, plan.indices(k)});
      frag.set_zero_wall(true);
      for (const std::size_t i : plan.indices(k)) frag.add(rs.records()[i]);
      fragment_paths.push_back(
          (out_dir / shard_fragment_filename(tag, k, kSplitShards)).string());
      written = frag.write_json(fragment_paths.back()) && written;
    }
  });
  const std::string snapshot = read_file(snap_path);

  // Check: the fragments load and merge back to the unsharded bytes.
  std::vector<analysis::Snapshot> fragments;
  bool split_ok = false;
  std::string split_error;
  double load_s = 0.0, merge_s = 0.0;
  try {
    load_s = timed("analysis.load", "", [&] {
      for (const auto& p : fragment_paths) fragments.push_back(analysis::load_snapshot(p));
    });
    merge_s = timed("analysis.merge", "", [&] {
      split_ok = analysis::to_result_store(analysis::merge_shards(fragments)).to_json() ==
                 snapshot;
    });
  } catch (const std::exception& e) {
    split_error = e.what();
  }

  // Analysis: DWarn's paired improvement over every other policy in the
  // grid, scored against the paper, plus the pooled DWarn-over-ICOUNT CI.
  std::vector<sweepbench::ImprovementSample> samples;
  analysis::SampleStats icount_ci;
  const double ci_s = timed("analysis.ci", "", [&] {
    std::vector<double> vs_icount;
    for (const PolicyKind p : kPaperPolicies) {
      if (p == PolicyKind::DWarn) continue;
      for (const analysis::PairedRow& row : analysis::paired_comparison(
               rs, "DWarn", policy_name(p), analysis::throughput_metric())) {
        const WorkloadType type = workload_by_name(row.workload).type;
        for (const double d : row.delta_pct) samples.push_back({policy_name(p), type, d});
        if (p == PolicyKind::ICount) {
          vs_icount.insert(vs_icount.end(), row.delta_pct.begin(), row.delta_pct.end());
        }
      }
    }
    icount_ci = analysis::summarize(vs_icount);
  });
  const double sweep_s = since();

  const auto scored = sweepbench::score_claims(samples);
  const auto gap = sweepbench::paper_gap_pp(scored);

  // Failed runs: a run that stopped on its max_cycles guard before
  // committing its measurement window (or, traced, its warm-up window).
  std::uint64_t failed = 0;
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const RunRecord& r = rs.records()[i];
    const std::uint64_t c = counter(r, "core.committed");
    committed += len.warmup_insts + c;
    const bool guard = c < len.measure_insts || (!traces.empty() && traces[i].warmup_guard_hit);
    if (guard || !std::isfinite(r.result.throughput) || r.result.throughput <= 0.0) ++failed;
  }

  // Every run of a workload shares one window, so each miss materializes
  // exactly trace_window_insts and no cached trace ever grows.
  const TraceCacheStats tc = TraceCache::shared().stats();
  const double materialized = static_cast<double>(tc.misses * trace_window_insts(len));
  JsonObject claims_json;
  for (const auto& s : scored) {
    std::string key(s.claim.opponent);
    key += "/";
    key += s.claim.type ? to_string(*s.claim.type) : "avg";
    claims_json.raw(key, JsonObject()
                             .num("measured", s.measured_pct)
                             .num("paper", s.claim.paper_pct)
                             .integer("samples", s.samples)
                             .done());
  }

  std::vector<double> walls;
  for (const RunRecord& r : rs.records()) walls.push_back(r.wall_seconds);
  const auto tail = sweepbench::tail_percentile(walls);

  out.integer("failed", failed)
      .raw("end_to_end",
           JsonObject()
               .num("setup_s", secs(t_dispatch - t_main))
               .num("sweep_s", sweep_s)
               .num("minsts_per_s", static_cast<double>(committed) / sweep_s / 1e6)
               .done())
      .str("digest", fnv1a_hex(snapshot))
      .boolean("written", written)
      .boolean("split_ok", split_ok)
      .str("split_error", split_error)
      .raw("claims", claims_json.done())
      .raw("paired_ci", JsonObject()
                            .num("mean", icount_ci.mean)
                            .num("lo", icount_ci.ci_lo)
                            .num("hi", icount_ci.ci_hi)
                            .integer("n", icount_ci.n)
                            .done())
      .raw("trace_cache", JsonObject()
                              .integer("trace.hits", tc.hits)
                              .integer("trace.misses", tc.misses)
                              .integer("trace.evictions", tc.evictions)
                              .num("trace.cached_mb", static_cast<double>(tc.bytes) / (1 << 20))
                              .num("trace.materialized_minsts", materialized / 1e6)
                              .num("trace.materialized_per_committed",
                                   committed > 0 ? materialized / static_cast<double>(committed)
                                                 : 0.0)
                              .done())
      .raw("phases", JsonObject()
                         .num("store.serialize_s", serialize_s)
                         .num("store.snapshot_kb", static_cast<double>(snapshot.size()) / 1024.0)
                         .num("analysis.load_s", load_s)
                         .num("analysis.merge_s", merge_s)
                         .num("analysis.ci_s", ci_s)
                         .done())
      .raw("simulated", simulated_layers(rs, gap.value_or(0.0)))
      .raw("engine", engine_layer(walls, pool.worker_count(), batch_s, tail))
      .raw("run_tail",
           JsonObject()
               .integer("percentile", tail ? static_cast<std::uint64_t>(tail->percentile) : 0)
               .integer("samples", walls.size())
               .done());
  if (args.traced) {
    out.raw("host", host_layers(traces))
        .boolean("spans_written", telem::PhaseTracer::shared().flush());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.raw("memory",
          JsonObject().num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0).done());
  std::cout << out.done() << "\n";
  return 0;
}
