// Shared helpers for the paper-figure bench harnesses.
//
// Every bench is a thin driver over the ExperimentEngine: it declares a
// RunGrid, runs it once on the persistent ThreadPool, prints the paper's
// table shapes from the ResultSet, and snapshots every run into
// BENCH_<name>.json via ResultStore so perf trajectories are
// machine-readable. The two table printers cover the paper's two figure
// shapes: absolute metric per (workload, policy), and "DWarn improvement
// over policy X" grouped by workload type.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "analysis/sample_stats.hpp"
#include "analysis/seed_sweep.hpp"
#include "common/env.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "engine/shard.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/workload.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn::benchutil {

/// Metric extracted from one finished run (throughput, hmean, ...).
using Metric = std::function<double(const SimResult&, const WorkloadSpec&)>;

/// Metric: throughput (sum of IPCs).
inline Metric throughput_metric() {
  return [](const SimResult& r, const WorkloadSpec&) { return r.throughput; };
}

/// Metric: Hmean of relative IPCs against `solo` baselines.
inline Metric hmean_metric(const SoloIpcMap& solo) {
  return [&solo](const SimResult& r, const WorkloadSpec& w) {
    return hmean_relative(r, w, solo);
  };
}

/// Replication count for a bench grid: SMT_BENCH_SEEDS, defaulting to 1
/// (the paper's point-estimate mode).
inline std::size_t bench_seed_count() {
  return env_u64("SMT_BENCH_SEEDS", 1, 64).value_or(1);
}

/// The canonical seed list for bench_seed_count() replications.
inline std::vector<std::uint64_t> bench_seed_list() {
  return seed_list(bench_seed_count());
}

/// Output directory prefix ("" or "dir/"): SMT_BENCH_OUT_DIR, created on
/// demand, or the working dir.
inline std::string bench_output_dir() {
  std::string dir;
  if (const char* d = std::getenv("SMT_BENCH_OUT_DIR")) dir = d;
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::cerr << "[dwarn] error: cannot create SMT_BENCH_OUT_DIR '" << dir
                << "': " << ec.message() << "\n";
    }
    if (dir.back() != '/') dir += '/';
  }
  return dir;
}

/// Where BENCH_<name>.json lands.
inline std::string bench_output_path(const std::string& bench_name) {
  return bench_output_dir() + "BENCH_" + bench_name + ".json";
}

/// SMT_BENCH_ZERO_WALL=1: serialize wall_seconds as 0 so two executions
/// of the same grid produce byte-identical snapshots (the sharded-vs-
/// unsharded bitwise check in CI sets this on both sides).
inline bool bench_zero_wall() { return env_u64("SMT_BENCH_ZERO_WALL", 0, 1).value_or(0) == 1; }

/// SMT_TRACE_CACHE_STATS=1: attach the shared trace cache's counters as
/// "trace_cache.*" meta entries. Off by default — the counters depend on
/// scheduling and on whether the cache is enabled at all, so emitting them
/// unconditionally would break the byte-identity contract between
/// SMT_TRACE_CACHE=1 and =0 snapshots of the same grid.
inline void maybe_attach_trace_cache_stats(ResultStore& store) {
  for (const auto& [k, v] : trace_cache_stats_meta_if_enabled()) store.set_meta(k, v);
}

/// Snapshot every run of `rs` (counters included) to BENCH_<name>.json.
/// Returns false after a loud stderr message when the snapshot cannot be
/// written — benches exit nonzero on that, a lost trajectory file must
/// fail CI rather than silently drop a data point.
[[nodiscard]] inline bool write_bench_json(const std::string& bench_name,
                                           const ResultSet& rs,
                                           const RunLength& len = RunLength::from_env()) {
  ResultStore store;
  for (const auto& [k, v] : bench_meta(bench_name, len)) store.set_meta(k, v);
  maybe_attach_trace_cache_stats(store);
  store.set_zero_wall(bench_zero_wall());
  store.add_all(rs);
  const std::string path = bench_output_path(bench_name);
  if (!store.write_json(path)) {
    std::cerr << "[dwarn] error: bench snapshot '" << path
              << "' could not be written; failing the bench\n";
    return false;
  }
  std::cout << "\n[" << store.size() << " runs -> " << path << "]\n";
  return true;
}

/// SMT_BENCH_SHARD=K/N support: when set, run only shard K of the grid
/// and write the BENCH_<name>.shard<K>of<N>.json fragment instead of the
/// full snapshot — no tables, since a shard cannot fill them. Returns the
/// process exit code in that case; nullopt means "not sharded, run
/// normally". Usage, first thing after building the grid:
///
///   if (const auto rc = maybe_run_sharded("fig1_throughput", grid)) return *rc;
///
/// Fragments from all N processes are merged back into the canonical
/// snapshot by `smt_shard merge` (docs/sharding.md).
[[nodiscard]] inline std::optional<int> maybe_run_sharded(
    const std::string& bench_name, const RunGrid& grid,
    const RunLength& len = RunLength::from_env()) {
  const std::optional<ShardSpec> shard = shard_from_env();
  if (!shard) return std::nullopt;
  const ShardStrategy strategy = shard_strategy_from_env();
  const std::string path =
      bench_output_dir() + shard_fragment_filename(bench_name, shard->index, shard->count);
  if (!run_shard_to_file(grid.expand(), *shard, strategy, bench_meta(bench_name, len),
                         path, bench_zero_wall())) {
    std::cerr << "[dwarn] error: shard fragment '" << path
              << "' could not be written; failing the bench\n";
    return 1;
  }
  return 0;
}

/// Print a per-(workload, policy) absolute metric table (Figure 1(a) shape).
/// `key` narrows the lookup (machine/tag) for sweep benches.
inline void print_metric_table(std::ostream& os, const ResultSet& rs,
                               std::span<const WorkloadSpec> workloads,
                               std::span<const PolicyKind> policies,
                               const Metric& metric, const std::string& metric_name,
                               const RunKey& key = {}) {
  std::vector<std::string> headers{"workload"};
  for (const PolicyKind p : policies) headers.emplace_back(policy_name(p));
  ReportTable table(std::move(headers));
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (const PolicyKind p : policies) {
      RunKey k = key;
      k.workload = w.name;
      k.policy = policy_name(p);
      row.push_back(fmt(metric(rs.get(k), w), 2));
    }
    table.add_row(std::move(row));
  }
  os << metric_name << " per policy:\n";
  table.print(os);
}

/// Print DWarn's relative improvement over every other policy, one row per
/// workload plus per-type averages (Figure 1(b) / Figure 3 / Figure 4/5
/// shape). Returns the per-policy grand averages keyed by policy name.
inline std::map<std::string, double> print_improvement_table(
    std::ostream& os, const ResultSet& rs, std::span<const WorkloadSpec> workloads,
    std::span<const PolicyKind> policies, const Metric& metric,
    const std::string& metric_name, const RunKey& key = {}) {
  std::vector<PolicyKind> others;
  for (const PolicyKind p : policies) {
    if (p != PolicyKind::DWarn) others.push_back(p);
  }

  std::vector<std::string> headers{"workload"};
  for (const PolicyKind p : others) {
    headers.push_back("DWarn/" + std::string(policy_name(p)));
  }
  ReportTable table(std::move(headers));

  auto lookup = [&](const WorkloadSpec& w, PolicyKind p) -> const SimResult& {
    RunKey k = key;
    k.workload = w.name;
    k.policy = policy_name(p);
    return rs.get(k);
  };

  std::map<std::string, std::map<WorkloadType, std::vector<double>>> by_type;
  for (const auto& w : workloads) {
    const double ours = metric(lookup(w, PolicyKind::DWarn), w);
    std::vector<std::string> row{w.name};
    for (const PolicyKind p : others) {
      const double theirs = metric(lookup(w, p), w);
      const double imp = improvement_pct(ours, theirs);
      by_type[std::string(policy_name(p))][w.type].push_back(imp);
      row.push_back(fmt_signed_pct(imp));
    }
    table.add_row(std::move(row));
  }
  // Per-type and grand averages (the paper's "avg" cluster).
  std::map<std::string, double> grand;
  for (const WorkloadType t : {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
    std::vector<std::string> row{"avg-" + std::string(to_string(t))};
    for (const PolicyKind p : others) {
      const auto& v = by_type[std::string(policy_name(p))][t];
      row.push_back(fmt_signed_pct(amean(v)));
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"avg"};
    for (const PolicyKind p : others) {
      std::vector<double> all;
      for (auto& [t, v] : by_type[std::string(policy_name(p))]) {
        all.insert(all.end(), v.begin(), v.end());
      }
      const double g = amean(all);
      grand[std::string(policy_name(p))] = g;
      row.push_back(fmt_signed_pct(g));
    }
    table.add_row(std::move(row));
  }
  os << "DWarn " << metric_name << " improvement over each policy:\n";
  table.print(os);
  return grand;
}

/// Print a per-(workload, policy) "mean ± 95% CI" metric table: the CI
/// version of print_metric_table, aggregating across every seed in the
/// grid via the analysis subsystem. With a single seed the half-width
/// collapses to ±0.00 and the means match the point-estimate table.
inline void print_ci_metric_table(std::ostream& os, const ResultSet& rs,
                                  std::span<const WorkloadSpec> workloads,
                                  std::span<const PolicyKind> policies,
                                  const analysis::RecordMetric& metric,
                                  const std::string& metric_name,
                                  const RunKey& key = {},
                                  const analysis::BootstrapConfig& cfg = {}) {
  std::vector<std::string> headers{"workload"};
  for (const PolicyKind p : policies) headers.emplace_back(policy_name(p));
  ReportTable table(std::move(headers));
  std::size_t n = 0;
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (const PolicyKind p : policies) {
      RunKey k = key;
      k.workload = w.name;
      k.policy = policy_name(p);
      const analysis::SampleStats s =
          analysis::summarize(analysis::collect_values(rs, k, metric), cfg);
      n = std::max(n, s.n);
      row.push_back(analysis::fmt_mean_ci(s));
    }
    table.add_row(std::move(row));
  }
  os << metric_name << " per policy (mean ± 95% CI over " << n << " seed"
     << (n == 1 ? "" : "s") << "):\n";
  table.print(os);
}

/// Print DWarn's paired per-seed improvement over every other policy with
/// a 95% CI on the delta (the CI version of print_improvement_table).
/// The avg rows pool the per-seed deltas of all workloads of a type.
/// Returns the grand-average delta stats keyed by policy name.
inline std::map<std::string, analysis::SampleStats> print_ci_improvement_table(
    std::ostream& os, const ResultSet& rs, std::span<const WorkloadSpec> workloads,
    std::span<const PolicyKind> policies, const analysis::RecordMetric& metric,
    const std::string& metric_name, const RunKey& key = {},
    const analysis::BootstrapConfig& cfg = {}) {
  std::vector<PolicyKind> others;
  for (const PolicyKind p : policies) {
    if (p != PolicyKind::DWarn) others.push_back(p);
  }

  // One paired comparison per opponent; per-seed deltas pooled per
  // workload across every (machine, tag) the key filter admits, so a
  // multi-variant grid contributes all its replications to a cell rather
  // than just the first variant's.
  std::map<std::string, std::map<std::string, std::vector<double>>> by_policy;
  for (const PolicyKind p : others) {
    auto& per_workload = by_policy[std::string(policy_name(p))];
    for (const analysis::PairedRow& pr :
         analysis::paired_comparison(rs, "DWarn", policy_name(p), metric, cfg)) {
      if (!key.machine.empty() && pr.machine != key.machine) continue;
      if (!key.tag.empty() && pr.tag != key.tag) continue;
      auto& pooled = per_workload[pr.workload];
      pooled.insert(pooled.end(), pr.delta_pct.begin(), pr.delta_pct.end());
    }
  }

  std::vector<std::string> headers{"workload"};
  for (const PolicyKind p : others) {
    headers.push_back("DWarn/" + std::string(policy_name(p)));
  }
  ReportTable table(std::move(headers));

  std::map<std::string, std::map<WorkloadType, std::vector<double>>> by_type;
  for (const auto& w : workloads) {
    std::vector<std::string> row{w.name};
    for (const PolicyKind p : others) {
      const auto& per_workload = by_policy.at(std::string(policy_name(p)));
      const auto it = per_workload.find(w.name);
      if (it == per_workload.end() || it->second.empty()) {
        // No pairable runs survived the filter (e.g. a policy missing
        // from the grid); report it rather than aborting the table.
        row.push_back("n/a");
        continue;
      }
      auto& pooled = by_type[std::string(policy_name(p))][w.type];
      pooled.insert(pooled.end(), it->second.begin(), it->second.end());
      const analysis::SampleStats s = analysis::summarize(it->second, cfg);
      row.push_back(fmt_signed_pct(s.mean) + " ± " + fmt(s.ci_halfwidth(), 1));
    }
    table.add_row(std::move(row));
  }
  std::map<std::string, analysis::SampleStats> grand;
  for (const WorkloadType t : {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
    std::vector<std::string> row{"avg-" + std::string(to_string(t))};
    for (const PolicyKind p : others) {
      const analysis::SampleStats s =
          analysis::summarize(by_type[std::string(policy_name(p))][t], cfg);
      row.push_back(fmt_signed_pct(s.mean) + " ± " + fmt(s.ci_halfwidth(), 1));
    }
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"avg"};
    for (const PolicyKind p : others) {
      std::vector<double> all;
      for (auto& [t, v] : by_type[std::string(policy_name(p))]) {
        all.insert(all.end(), v.begin(), v.end());
      }
      const analysis::SampleStats s = analysis::summarize(all, cfg);
      grand[std::string(policy_name(p))] = s;
      row.push_back(fmt_signed_pct(s.mean) + " ± " + fmt(s.ci_halfwidth(), 1));
    }
    table.add_row(std::move(row));
  }
  os << "DWarn " << metric_name
     << " improvement over each policy (paired per-seed deltas, mean ± 95% CI):\n";
  table.print(os);
  return grand;
}

}  // namespace dwarn::benchutil
