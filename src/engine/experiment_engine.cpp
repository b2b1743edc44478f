#include "engine/experiment_engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "telemetry/counter_sampler.hpp"
#include "telemetry/phase_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn {

const RunRecord* ResultSet::find(const RunKey& key) const {
  for (const RunRecord& r : records_) {
    if (r.role != RunRole::Grid) continue;
    if (r.workload.name != key.workload) continue;
    if (r.policy != key.policy) continue;
    if (!key.machine.empty() && r.machine != key.machine) continue;
    if (!key.tag.empty() && r.tag != key.tag) continue;
    if (key.seed && r.seed != *key.seed) continue;
    return &r;
  }
  return nullptr;
}

const SimResult& ResultSet::get(const RunKey& key) const {
  if (const RunRecord* r = find(key)) return r->result;
  std::ostringstream os;
  os << "ResultSet: no run for (workload=" << key.workload << ", policy=" << key.policy;
  if (!key.machine.empty()) os << ", machine=" << key.machine;
  if (!key.tag.empty()) os << ", tag=" << key.tag;
  if (key.seed) os << ", seed=" << *key.seed;
  os << "); available:";
  if (records_.empty()) os << " (none)";
  for (const RunRecord& r : records_) {
    os << "\n  (machine=" << r.machine << ", workload=" << r.workload.name
       << ", policy=" << r.policy;
    if (!r.tag.empty()) os << ", tag=" << r.tag;
    os << ", seed=" << r.seed << ", role=" << to_string(r.role) << ")";
  }
  throw std::out_of_range(os.str());
}

SoloIpcMap ResultSet::solo_ipcs(std::string_view machine,
                                std::optional<std::uint64_t> seed) const {
  // Baselines from different machines must never be mixed: relative-IPC
  // denominators are machine-specific, so an ambiguous selection is an
  // error rather than a silent first-match.
  std::set<std::string> machines;
  for (const RunRecord& r : records_) {
    if (r.role == RunRole::Solo && (machine.empty() || r.machine == machine)) {
      machines.insert(r.machine);
    }
  }
  if (machines.size() > 1) {
    std::ostringstream os;
    os << "ResultSet::solo_ipcs: solo baselines exist for multiple machines (";
    bool first = true;
    for (const auto& m : machines) {
      os << (first ? "" : ", ") << m;
      first = false;
    }
    os << "); pass the machine name to select one";
    throw std::logic_error(os.str());
  }

  SoloIpcMap solo;
  for (const RunRecord& r : records_) {
    if (r.role != RunRole::Solo) continue;
    if (!machine.empty() && r.machine != machine) continue;
    if (seed && r.seed != *seed) continue;
    if (r.workload.benchmarks.empty()) continue;
    // Multiple seeds, no filter: the first (lowest grid index) run wins.
    solo.emplace(r.workload.benchmarks.front(), r.result.throughput);
  }
  return solo;
}

namespace {

/// Holds each (workload, seed) group's shared traces from the start of the
/// group's first run to the end of its last, so every run of the group
/// replays one generation even when the runs do not overlap in time (one
/// worker, or more runs per group than workers). A trace only grows as far
/// as its furthest reader, so a pin costs the group's read prefix, not its
/// whole window.
class GroupPins {
 public:
  /// Groups are the maximal runs of `order` sharing (workload, seed), the
  /// units batch_order keeps contiguous. No groups when sharing is off.
  GroupPins(const std::vector<RunSpec>& specs, const std::vector<std::size_t>& order)
      : specs_(specs), group_of_(specs.size()) {
    if (!trace_cache_enabled()) return;
    for (const std::size_t i : order) {
      const RunSpec& s = specs[i];
      if (groups_.empty() || s.workload.name != specs[groups_.back()->first].workload.name ||
          s.seed != specs[groups_.back()->first].seed) {
        groups_.push_back(std::make_unique<Group>());
        groups_.back()->first = i;
      }
      Group& g = *groups_.back();
      g.insts = std::max(g.insts, trace_window_insts(s.len));
      ++g.unfinished;
      group_of_[i] = groups_.size() - 1;
    }
  }

  /// Run `i` is starting: the group's first run acquires its traces.
  void enter(std::size_t i) {
    if (groups_.empty()) return;
    Group& g = *groups_[group_of_[i]];
    std::lock_guard lk(g.mu);
    if (g.traces.empty()) {
      const RunSpec& first = specs_[g.first];
      g.traces = acquire_run_traces(first.workload, first.seed, g.insts);
    }
  }

  /// Run `i` has finished: the group's last run releases its traces.
  void leave(std::size_t i) {
    if (groups_.empty()) return;
    Group& g = *groups_[group_of_[i]];
    std::lock_guard lk(g.mu);
    if (--g.unfinished == 0) g.traces.clear();
  }

 private:
  struct Group {
    std::mutex mu;
    std::size_t first = 0;     ///< grid index of the group's first run
    std::uint64_t insts = 0;   ///< largest trace demand of the group's runs
    std::size_t unfinished = 0;
    std::vector<std::shared_ptr<MaterializedTrace>> traces;
  };

  const std::vector<RunSpec>& specs_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<std::size_t> group_of_;  ///< grid index -> group
};

}  // namespace

std::vector<std::size_t> ExperimentEngine::batch_order(const std::vector<RunSpec>& specs) {
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (specs.size() < 2 || !trace_cache_enabled()) return order;
  // Shared-trace batching: all policy/machine/tag variants of one
  // (workload, seed) grid point share the same per-thread trace keys, so
  // executing them back-to-back lets them share one generation — and keeps
  // the live traces one group wide instead of one grid wide. The stable
  // sort preserves expansion order inside a group; records are still
  // indexed by grid position, so the ResultSet (and every serialized byte)
  // is unchanged.
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const RunSpec& x = specs[a];
    const RunSpec& y = specs[b];
    if (x.workload.name != y.workload.name) return x.workload.name < y.workload.name;
    return x.seed < y.seed;
  });
  return order;
}

ResultSet ExperimentEngine::run(const std::vector<RunSpec>& specs) const {
  std::vector<RunRecord> records(specs.size());
  const std::vector<std::size_t> order = batch_order(specs);
  GroupPins pins(specs, order);
  std::mutex done_mu;
  std::size_t done = 0;
  pool_->for_each(
      specs.size(),
      [&](std::size_t job) {
        const std::size_t i = order[job];
        const RunSpec& s = specs[i];
        const auto t0 = std::chrono::steady_clock::now();
        pins.enter(i);
        struct Leave {
          GroupPins& pins;
          std::size_t i;
          ~Leave() { pins.leave(i); }
        } leave{pins, i};
        Simulator sim(s.machine.build(s.workload.num_threads()), s.workload, s.policy,
                      s.params, s.seed, trace_window_insts(s.len));
        SimResult result;
        {
          telem::PhaseSpan span("simulate",
                                "{\"workload\":\"" + telem::telem_json_escape(s.workload.name) +
                                    "\",\"seed\":" + std::to_string(s.seed) + "}");
          result = sim.run(s.len);
        }
        const auto t1 = std::chrono::steady_clock::now();
        if (!s.machine.name.empty()) result.machine = s.machine.name;
        RunRecord& rec = records[i];
        rec.machine = result.machine;
        rec.workload = s.workload;
        rec.policy = result.policy;
        rec.tag = s.tag;
        rec.seed = s.seed;
        rec.role = s.role;
        rec.result = std::move(result);
        rec.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
        // Interval series (telemetry): one JSONL record per run, carrying
        // the run identity so append order — worker-completion order,
        // nondeterministic — does not matter to the reader.
        if (sim.sampler() != nullptr && telem::IntervalSink::shared().is_open()) {
          telem::IntervalRunId id{rec.machine, rec.workload.name, rec.policy, rec.tag,
                                  rec.seed};
          telem::IntervalSink::shared().append(telem::interval_json_line(id, *sim.sampler()));
        }
        if (observer_) {
          std::lock_guard<std::mutex> lock(done_mu);
          observer_(++done, specs.size(), rec);
        }
      },
      max_workers_);
  return ResultSet(std::move(records));
}

}  // namespace dwarn
