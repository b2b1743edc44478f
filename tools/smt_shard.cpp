// smt_shard — split an experiment grid across processes and merge the
// pieces back, bitwise-verified.
//
//   plan   show how a named grid partitions into N shards (run counts,
//          index ranges, the grid fingerprint every fragment must carry)
//   run    execute one shard (--shard K/N) of a named grid and write the
//          BENCH_<name>.shard<K>of<N>.json fragment; without --shard,
//          run the whole grid and write the canonical BENCH_<name>.json
//   merge  reassemble fragment files into the canonical snapshot,
//          refusing overlapping, duplicate or missing indices and
//          mismatched grid fingerprints
//
// The contract (enforced by ctest + CI): merging the fragments of any
// shard count reproduces the single-process snapshot byte-for-byte.
// smt_shard therefore always serializes wall_seconds as 0 — wall time
// measures the host, and host-specific bytes would break the contract.
//
// Exit codes: 0 ok, 1 run/merge failure (incl. merge validation), 2
// usage or I/O error.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/trajectory.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "engine/shard.hpp"
#include "sim/report.hpp"
#include "telemetry/phase_trace.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_cache.hpp"

namespace {

using namespace dwarn;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "smt_shard: %s\n\n", error);
  std::string grids;
  for (const std::string& g : registered_grids()) {
    grids += grids.empty() ? g : "|" + g;
  }
  std::fprintf(stderr,
               "usage:\n"
               "  smt_shard plan  --bench <%s>\n"
               "      [--shards N] [--seeds S] [--strategy contiguous|strided] [--json]\n"
               "  smt_shard run   --bench <%s>\n"
               "      [--shard K/N] [--seeds S] [--strategy contiguous|strided] [--out DIR]\n"
               "  smt_shard merge <fragment.json|dir>... [--bench NAME] [--out PATH]\n"
               "\n"
               "run without --shard writes the canonical BENCH_<name>.json (the\n"
               "single-process reference). plan --json prints the machine-readable\n"
               "plan (fingerprint + per-shard indices) for external schedulers.\n"
               "merge writes BENCH_<name>.json in the working directory unless\n"
               "--out is given; a directory argument stands for every\n"
               "BENCH_<name>.shard*of*.json inside it (--bench selects when several\n"
               "benches left fragments there). merge exits 1 when fragments\n"
               "overlap, repeat, leave grid indices uncovered, or disagree on the\n"
               "grid fingerprint. wall_seconds is always serialized as 0 so a\n"
               "merged sharded run is byte-identical to the unsharded run.\n",
               grids.c_str(), grids.c_str());
  return 2;
}

struct Options {
  std::string bench;                     ///< merge: optional directory filter
  std::size_t shards = 2;                ///< plan only
  bool plan_json = false;                ///< plan only
  std::optional<ShardSpec> shard;        ///< run only
  std::size_t seeds = 1;
  ShardStrategy strategy = ShardStrategy::Contiguous;
  std::string out;
  std::vector<std::string> fragments;    ///< merge only (files or directories)
};

/// Compact "a-b, c, d-e" rendering of ascending indices.
std::string format_indices(const std::vector<std::size_t>& idx) {
  std::string out;
  for (std::size_t i = 0; i < idx.size();) {
    std::size_t j = i;
    while (j + 1 < idx.size() && idx[j + 1] == idx[j] + 1) ++j;
    if (!out.empty()) out += ", ";
    out += std::to_string(idx[i]);
    if (j > i) out += "-" + std::to_string(idx[j]);
    i = j + 1;
  }
  return out.empty() ? "(none)" : out;
}

int run_plan(const Options& opt) {
  const std::vector<RunSpec> specs =
      named_grid(opt.bench, GridOptions{.num_seeds = opt.seeds}).expand();
  const ShardPlan plan = ShardPlan::make(specs.size(), opt.shards, opt.strategy);
  if (opt.plan_json) {
    std::cout << shard_plan_json(opt.bench, grid_fingerprint(specs), plan, opt.seeds);
    return 0;
  }
  std::cout << "grid " << opt.bench << ": " << specs.size() << " runs, fingerprint "
            << grid_fingerprint(specs) << ", " << opt.shards << " "
            << to_string(opt.strategy) << " shard" << (opt.shards == 1 ? "" : "s")
            << "\ntrace cache: " << trace_cache_mode_string() << "\n";
  ReportTable table({"shard", "runs", "grid indices", "fragment"});
  for (std::size_t k = 1; k <= opt.shards; ++k) {
    table.add_row({std::to_string(k) + "/" + std::to_string(opt.shards),
                   std::to_string(plan.size(k)), format_indices(plan.indices(k)),
                   shard_fragment_filename(opt.bench, k, opt.shards)});
  }
  table.print(std::cout);
  return 0;
}

int run_run(const Options& opt) {
  const std::vector<RunSpec> specs =
      named_grid(opt.bench, GridOptions{.num_seeds = opt.seeds}).expand();
  std::string dir = opt.out;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "smt_shard: cannot create '%s': %s\n", dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
    if (dir.back() != '/') dir += '/';
  }
  // Fragment meta mirrors what the unsharded writer would record; the
  // grid's own RunLength (specs all share it) keeps pinned-length grids
  // like "fixture" honest about their windows.
  const auto meta = bench_meta(opt.bench, specs.empty() ? RunLength{} : specs.front().len);

  // Announce the plan before executing: which part of the grid runs here,
  // and whether its trace streams are shared across runs (replay mode
  // never changes result bytes, only wall clock, but an operator staring
  // at a slow shard wants to know which mode they are in).
  std::cout << "grid " << opt.bench << ": " << specs.size() << " runs, trace cache "
            << trace_cache_mode_string() << "\n";

  // SMT_TELEM=1: arm the phase tracer and the interval sink for this
  // worker. All of it is out-of-band — TELEM_*/PROGRESS_* files only,
  // never a byte of BENCH_*.json.
  const bool telem_on = telem::telemetry_enabled();
  const std::size_t sk = opt.shard ? opt.shard->index : 0;
  const std::size_t sn = opt.shard ? opt.shard->count : 0;
  if (telem_on) {
    telem::PhaseTracer::shared().enable(dir + telem::trace_filename(opt.bench, sk, sn));
    telem::IntervalSink::shared().open(dir +
                                       telem::intervals_filename(opt.bench, sk, sn));
  }
  const auto finish = [&](int rc) {
    if (telem_on) {
      telem::IntervalSink::shared().close();
      telem::PhaseTracer::shared().flush();
    }
    return rc;
  };

  if (opt.shard) {
    const std::string path =
        dir + shard_fragment_filename(opt.bench, opt.shard->index, opt.shard->count);
    return finish(run_shard_to_file(specs, *opt.shard, opt.strategy, meta, path,
                                    /*zero_wall=*/true)
                      ? 0
                      : 1);
  }

  const std::string path = dir + "BENCH_" + opt.bench + ".json";
  // Unsharded runs stream progress too (as shard 1/1, unqualified file
  // name) so `status --follow` works on single-process sweeps.
  telem::ProgressWriter progress;
  ExperimentEngine engine;
  std::uint64_t insts = 0;
  if (telem_on && progress.open(dir + telem::progress_filename(opt.bench))) {
    progress.event_start(1, 1, specs.size());
    engine.set_observer([&](std::size_t done, std::size_t total, const RunRecord& rec) {
      const auto it = rec.result.counters.find("core.committed");
      if (it != rec.result.counters.end()) insts += it->second;
      progress.event_run(done, total, insts);
    });
  }
  const ResultSet rs = engine.run(specs);
  ResultStore store;
  for (const auto& [k, v] : meta) store.set_meta(k, v);
  for (const auto& [k, v] : trace_cache_stats_meta_if_enabled()) store.set_meta(k, v);
  store.set_zero_wall(true);
  store.add_all(rs);
  {
    telem::PhaseSpan span("serialize", "{\"runs\":" + std::to_string(rs.size()) + "}");
    if (!store.write_json(path)) return finish(1);
  }
  progress.event_done(specs.size(), specs.size(), insts);
  std::cout << "[" << store.size() << " runs -> " << path << "]\n";
  return finish(0);
}

/// Expand a directory argument into the shard-fragment files inside it.
/// One bench's fragments only: when several benches left fragments there,
/// --bench must pick (guessing could merge the wrong sweep).
int expand_fragment_dir(const std::string& dir, const std::string& bench,
                        std::vector<std::string>& paths) {
  const analysis::TrajectoryStore store(dir);
  std::vector<std::string> benches;
  for (const std::string& b : store.list()) {
    if (!bench.empty() && b != bench) continue;
    if (!store.fragment_paths(b).empty()) benches.push_back(b);
  }
  if (benches.empty()) {
    std::fprintf(stderr, "smt_shard: no %sshard fragments in '%s'\n",
                 bench.empty() ? "" : ("BENCH_" + bench + " ").c_str(), dir.c_str());
    return 2;
  }
  if (benches.size() > 1) {
    std::string names;
    for (const std::string& b : benches) names += (names.empty() ? "" : ", ") + b;
    std::fprintf(stderr,
                 "smt_shard: '%s' holds fragments of several benches (%s); "
                 "pick one with --bench\n",
                 dir.c_str(), names.c_str());
    return 2;
  }
  for (std::string& p : store.fragment_paths(benches.front())) {
    paths.push_back(std::move(p));
  }
  return 0;
}

int run_merge(const Options& opt) {
  std::vector<std::string> paths;
  for (const std::string& arg : opt.fragments) {
    if (std::filesystem::is_directory(arg)) {
      if (const int rc = expand_fragment_dir(arg, opt.bench, paths)) return rc;
    } else {
      paths.push_back(arg);
    }
  }
  std::vector<analysis::Snapshot> parts;
  parts.reserve(paths.size());
  for (const std::string& path : paths) {
    parts.push_back(analysis::load_snapshot(path));
  }
  analysis::Snapshot merged;
  try {
    merged = analysis::merge_shards(parts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smt_shard: %s\n", e.what());
    return 1;
  }
  const auto bench = merged.meta.find("bench");
  std::string out = opt.out;
  if (out.empty()) {
    out = "BENCH_" + (bench == merged.meta.end() ? std::string("merged") : bench->second) +
          ".json";
  }
  if (!analysis::to_result_store(merged).write_json(out)) return 1;
  std::cout << "[" << parts.size() << " fragments, " << merged.runs.size() << " runs -> "
            << out << "]\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd != "plan" && cmd != "run" && cmd != "merge") {
    return usage(("unknown command '" + cmd + "'").c_str());
  }

  Options opt;
  try {
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto value = [&]() -> const std::string* {
        return i + 1 < args.size() ? &args[++i] : nullptr;
      };
      if (a == "--bench") {
        const auto* v = value();
        if (v == nullptr) return usage("--bench needs a value");
        opt.bench = *v;
      } else if (a == "--shards" && cmd == "plan") {
        const auto* v = value();
        const auto n = v ? parse_decimal_size(*v, kMaxShards) : std::nullopt;
        if (!n || *n < 1) {
          return usage(("--shards must be an integer in [1, " +
                        std::to_string(kMaxShards) + "]")
                           .c_str());
        }
        opt.shards = *n;
      } else if (a == "--json" && cmd == "plan") {
        opt.plan_json = true;
      } else if (a == "--shard" && cmd == "run") {
        const auto* v = value();
        const auto s = v ? parse_shard(*v) : std::nullopt;
        if (!s) return usage("--shard needs K/N with 1 <= K <= N");
        opt.shard = s;
      } else if (a == "--seeds" && cmd != "merge") {
        const auto* v = value();
        const auto n = v ? parse_decimal_size(*v, 64) : std::nullopt;
        if (!n || *n < 1) return usage("--seeds must be in [1, 64]");
        opt.seeds = *n;
      } else if (a == "--strategy" && cmd != "merge") {
        const auto* v = value();
        const auto s = v ? shard_strategy_from_name(*v) : std::nullopt;
        if (!s) return usage("--strategy must be contiguous or strided");
        opt.strategy = *s;
      } else if (a == "--out") {
        const auto* v = value();
        if (v == nullptr) return usage("--out needs a value");
        opt.out = *v;
      } else if (cmd == "merge" && !a.starts_with("--")) {
        opt.fragments.push_back(a);
      } else {
        return usage(("unknown option '" + a + "' for " + cmd).c_str());
      }
    }

    if (cmd == "merge") {
      if (opt.fragments.empty()) return usage("merge needs at least one fragment path");
      return run_merge(opt);
    }
    if (opt.bench.empty()) return usage((cmd + " needs --bench").c_str());
    if (!is_registered_grid(opt.bench)) {
      return usage(("unknown --bench '" + opt.bench + "'").c_str());
    }
    return cmd == "plan" ? run_plan(opt) : run_run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smt_shard: %s\n", e.what());
    return 2;
  }
}
