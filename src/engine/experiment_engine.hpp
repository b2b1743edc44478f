// The experiment engine: declarative grids in, structured results out.
//
// ExperimentEngine expands a RunGrid into sharded jobs on the persistent
// ThreadPool and collects every run — full counter snapshot included —
// into a ResultSet whose record order equals the grid's expansion order
// regardless of worker count. This is the single execution path for all
// benches, examples and the legacy run_matrix/solo_baselines wrappers.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/run_spec.hpp"
#include "sim/metrics.hpp"

namespace dwarn {

/// One finished run: what was asked for, what came out, how long it took.
struct RunRecord {
  std::string machine;
  WorkloadSpec workload;
  std::string policy;
  std::string tag;
  std::uint64_t seed = 1;
  RunRole role = RunRole::Grid;
  SimResult result;
  double wall_seconds = 0.0;
};

/// Selector for ResultSet lookups. `workload` and `policy` are required;
/// empty `machine`/`tag` and unset `seed` act as wildcards (first match in
/// record order wins).
struct RunKey {
  std::string_view workload;
  std::string_view policy;
  std::string_view machine = {};
  std::string_view tag = {};
  std::optional<std::uint64_t> seed{};
};

/// The structured results of one engine invocation.
class ResultSet {
 public:
  ResultSet() = default;
  explicit ResultSet(std::vector<RunRecord> records) : records_(std::move(records)) {}

  [[nodiscard]] const std::vector<RunRecord>& records() const { return records_; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// First grid record matching `key`, or nullptr.
  [[nodiscard]] const RunRecord* find(const RunKey& key) const;

  /// Like find, but throws std::out_of_range naming the missing key and
  /// listing the available (machine, workload, policy, tag) keys.
  [[nodiscard]] const SimResult& get(const RunKey& key) const;
  [[nodiscard]] const SimResult& get(std::string_view workload,
                                     std::string_view policy) const {
    return get(RunKey{workload, policy});
  }

  /// Solo-baseline IPCs (relative-IPC denominators) keyed by benchmark,
  /// optionally restricted to one machine and/or one seed. Throws
  /// std::logic_error when solo runs from several machines match
  /// (denominators are machine-specific); with several seeds and no seed
  /// filter, the first grid-order run per benchmark wins.
  [[nodiscard]] SoloIpcMap solo_ipcs(std::string_view machine = {},
                                     std::optional<std::uint64_t> seed = {}) const;

 private:
  std::vector<RunRecord> records_;
};

/// Executes grids on a ThreadPool (default: the process-wide pool).
class ExperimentEngine {
 public:
  explicit ExperimentEngine(ThreadPool& pool = ThreadPool::shared(),
                            std::size_t max_workers = 0)
      : pool_(&pool), max_workers_(max_workers) {}

  [[nodiscard]] ResultSet run(const RunGrid& grid) const { return run(grid.expand()); }
  [[nodiscard]] ResultSet run(const std::vector<RunSpec>& specs) const;

  /// Completion observer: called once per finished run, serialized under
  /// an internal mutex, with (runs completed so far, total runs, the
  /// finished record). Completion order is worker-scheduling order —
  /// nondeterministic by nature, which is fine for its purpose (streaming
  /// progress events); the ResultSet stays in grid order regardless.
  using RunObserver =
      std::function<void(std::size_t done, std::size_t total, const RunRecord& rec)>;
  void set_observer(RunObserver observer) { observer_ = std::move(observer); }

  /// Execution order of `specs` (a permutation of grid indices). With
  /// shared traces on, runs are grouped by (workload, seed), and run()
  /// holds each group's traces from its first run's start to its last
  /// run's end, so every variant of a grid point replays one generation;
  /// result indices are unaffected. Exposed as a test hook.
  [[nodiscard]] static std::vector<std::size_t> batch_order(
      const std::vector<RunSpec>& specs);

 private:
  ThreadPool* pool_;
  std::size_t max_workers_;  ///< cap on in-flight runs (0 = pool width)
  RunObserver observer_;     ///< optional per-run completion callback
};

}  // namespace dwarn
