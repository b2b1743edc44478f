// Dispatch planning for the sweep orchestrator.
//
// A DispatchPlan is the orchestrator's contract with its launchers: the
// full expansion of one registered grid, cut into per-shard WorkUnits by
// the same deterministic ShardPlan that `smt_shard run --shard K/N` will
// recompute inside each worker. Every unit carries the environment its
// worker must run under (SMT_SIM_WORKERS split across the job slots,
// SMT_BENCH_ZERO_WALL for bitwise-comparable fragments), so a launcher
// is a pure "run this unit" mechanism with no sweep knowledge of its own.
// The plan also records the grid fingerprint, which the MergeStage
// re-checks against every fragment — a worker that somehow ran a
// different grid is refused, never merged.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "engine/shard.hpp"

namespace dwarn::orch {

/// One dispatchable unit: shard K/N of a named grid. `env` holds the
/// per-worker environment overrides; the subprocess launcher applies them
/// on top of the inherited environment, the thread launcher (same
/// process, shared pool and cache) ignores them.
struct WorkUnit {
  std::string bench;
  ShardSpec shard;
  ShardStrategy strategy = ShardStrategy::Contiguous;
  std::size_t seeds = 1;
  std::string out_dir;  ///< "" or "dir/" — fragment destination prefix
  std::map<std::string, std::string> env;
  std::vector<std::size_t> indices;  ///< 0-based grid indices of this slice
  /// Injected-failure hook (SMT_ORCH_FAULT_KILL): the launcher must make
  /// this attempt die — SIGKILL for a subprocess, a refused start for a
  /// thread — so the retry path can be exercised deterministically.
  bool inject_fault = false;

  /// out_dir + BENCH_<bench>.shard<K>of<N>.json
  [[nodiscard]] std::string fragment_path() const;
};

/// What make_dispatch_plan needs to know about a sweep.
struct PlanRequest {
  std::string bench;
  std::size_t shards = 2;
  std::size_t jobs = 2;  ///< concurrent work units (worker split divisor)
  std::size_t seeds = 1;
  ShardStrategy strategy = ShardStrategy::Contiguous;
  std::string out_dir;  ///< "" = working directory
};

/// The full dispatch plan of one sweep: identity of the grid every worker
/// must expand, plus one WorkUnit per shard.
struct DispatchPlan {
  std::string bench;
  std::size_t grid_size = 0;
  std::string fingerprint;
  std::size_t shards = 1;
  std::size_t jobs = 1;
  std::size_t seeds = 1;
  ShardStrategy strategy = ShardStrategy::Contiguous;
  std::string out_dir;  ///< normalized: "" or ends in '/'
  std::vector<WorkUnit> units;  ///< units[k-1] is shard k

  /// out_dir + BENCH_<bench>.json — the MergeStage's output.
  [[nodiscard]] std::string merged_path() const;
};

/// Expand `req.bench` through the grid registry (aborts on an unknown
/// name — callers validate with is_registered_grid) and cut it into
/// shard WorkUnits. Deterministic for a given request + environment.
[[nodiscard]] DispatchPlan make_dispatch_plan(const PlanRequest& req);

/// The per-worker environment shared by every unit of a plan:
///   SMT_SIM_WORKERS     total worker threads (env or hardware) / jobs
///   SMT_BENCH_ZERO_WALL "1" — fragments must be bitwise-comparable
[[nodiscard]] std::map<std::string, std::string> worker_env(std::size_t jobs);

/// The exact `smt_shard run` command line for a unit — the single source
/// both the subprocess launcher execs and the --dry-run JSON prints, so
/// the plan a human inspects is the plan that runs.
[[nodiscard]] std::vector<std::string> smt_shard_argv(const WorkUnit& unit,
                                                      const std::string& binary);

/// The plan as JSON (`smt_orchestrate run --dry-run`): grid identity,
/// fingerprint, and one object per unit with its indices, fragment path
/// and environment. `argv` per unit is included when `smt_shard_binary`
/// is non-empty (the subprocess backend's exact command line).
[[nodiscard]] std::string dispatch_plan_json(const DispatchPlan& plan,
                                             const std::string& backend,
                                             const std::string& smt_shard_binary);

/// The plan as a GitHub Actions matrix (`smt_orchestrate matrix`): one
/// compact line `{"include": [...]}` ready for `fromJSON` fan-out. Each
/// include entry is flat strings/ints (matrix values must be scalars):
///   shard, shards   1-based index and total
///   name            "<bench>-shard<K>of<N>" — job display name
///   args            `smt_shard run ...` arguments after the binary,
///                   space-joined (no argument the planner emits needs
///                   shell quoting)
///   env             space-joined K=V assignments for the runner. The
///                   per-host split var (SMT_SIM_WORKERS) is dropped —
///                   every matrix leg owns a whole runner — while the
///                   bitwise-identity vars (SMT_BENCH_ZERO_WALL) are kept.
///   fragment        the fragment filename the leg must upload
///   fingerprint     grid fingerprint, so the merge job can assert every
///                   leg planned the same grid
[[nodiscard]] std::string matrix_json(const DispatchPlan& plan);

}  // namespace dwarn::orch
