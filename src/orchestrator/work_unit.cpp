#include "orchestrator/work_unit.hpp"

#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "common/env.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/run_spec.hpp"
#include "trace/trace_cache.hpp"

namespace dwarn::orch {

std::string WorkUnit::fragment_path() const {
  return out_dir + shard_fragment_filename(bench, shard.index, shard.count);
}

std::string DispatchPlan::merged_path() const {
  return out_dir + "BENCH_" + bench + ".json";
}

std::map<std::string, std::string> worker_env(std::size_t jobs) {
  DWARN_CHECK(jobs >= 1);
  const std::size_t total_workers = static_cast<std::size_t>(
      env_u64("SMT_SIM_WORKERS", 1, 4096)
          .value_or(std::max(1u, std::thread::hardware_concurrency())));
  return {
      {"SMT_SIM_WORKERS", std::to_string(std::max<std::size_t>(1, total_workers / jobs))},
      {"SMT_BENCH_ZERO_WALL", "1"},
  };
}

DispatchPlan make_dispatch_plan(const PlanRequest& req) {
  DWARN_CHECK(req.shards >= 1 && req.jobs >= 1);
  GridOptions grid_opt;
  grid_opt.num_seeds = req.seeds;
  const std::vector<RunSpec> specs = named_grid(req.bench, grid_opt).expand();
  const ShardPlan shard_plan = ShardPlan::make(specs.size(), req.shards, req.strategy);

  DispatchPlan plan;
  plan.bench = req.bench;
  plan.grid_size = specs.size();
  plan.fingerprint = grid_fingerprint(specs);
  plan.shards = req.shards;
  plan.jobs = req.jobs;
  plan.seeds = req.seeds;
  plan.strategy = req.strategy;
  plan.out_dir = req.out_dir;
  if (!plan.out_dir.empty() && plan.out_dir.back() != '/') plan.out_dir += '/';

  const std::map<std::string, std::string> env = worker_env(req.jobs);
  plan.units.reserve(req.shards);
  for (std::size_t k = 1; k <= req.shards; ++k) {
    WorkUnit unit;
    unit.bench = req.bench;
    unit.shard = ShardSpec{k, req.shards};
    unit.strategy = req.strategy;
    unit.seeds = req.seeds;
    unit.out_dir = plan.out_dir;
    unit.env = env;
    unit.indices = shard_plan.indices(k);
    plan.units.push_back(std::move(unit));
  }
  return plan;
}

std::vector<std::string> smt_shard_argv(const WorkUnit& unit,
                                        const std::string& binary) {
  std::vector<std::string> argv = {
      binary,
      "run",
      "--bench",
      unit.bench,
      "--shard",
      std::to_string(unit.shard.index) + "/" + std::to_string(unit.shard.count),
      "--seeds",
      std::to_string(unit.seeds),
      "--strategy",
      std::string(to_string(unit.strategy)),
  };
  if (!unit.out_dir.empty()) {
    argv.emplace_back("--out");
    argv.push_back(unit.out_dir);
  }
  return argv;
}

namespace {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  out += json_escape(s);
  out += '"';
  return out;
}

std::string json_index_array(const std::vector<std::size_t>& idx) {
  std::string out = "[";
  for (std::size_t i = 0; i < idx.size(); ++i) {
    out += (i == 0 ? "" : ", ") + std::to_string(idx[i]);
  }
  return out + "]";
}

}  // namespace

std::string dispatch_plan_json(const DispatchPlan& plan, const std::string& backend,
                               const std::string& smt_shard_binary) {
  std::ostringstream os;
  os << "{\n"
     << "  \"grid\": " << json_string(plan.bench) << ",\n"
     << "  \"grid_size\": " << plan.grid_size << ",\n"
     << "  \"fingerprint\": " << json_string(plan.fingerprint) << ",\n"
     << "  \"shards\": " << plan.shards << ",\n"
     << "  \"jobs\": " << plan.jobs << ",\n"
     << "  \"seeds\": " << plan.seeds << ",\n"
     << "  \"strategy\": " << json_string(to_string(plan.strategy)) << ",\n"
     << "  \"backend\": " << json_string(backend) << ",\n"
     << "  \"out_dir\": " << json_string(plan.out_dir) << ",\n"
     << "  \"merged\": " << json_string(plan.merged_path()) << ",\n"
     << "  \"trace_cache\": " << json_string(trace_cache_mode_string()) << ",\n"
     << "  \"units\": [";
  for (std::size_t i = 0; i < plan.units.size(); ++i) {
    const WorkUnit& u = plan.units[i];
    os << (i == 0 ? "" : ",") << "\n    {\"shard\": " << json_string(
           std::to_string(u.shard.index) + "/" + std::to_string(u.shard.count))
       << ", \"runs\": " << u.indices.size()
       << ", \"fragment\": " << json_string(u.fragment_path())
       << ",\n     \"indices\": " << json_index_array(u.indices)
       << ",\n     \"env\": {";
    bool first = true;
    for (const auto& [k, v] : u.env) {
      os << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
      first = false;
    }
    os << "}";
    if (!smt_shard_binary.empty()) {
      os << ",\n     \"argv\": [";
      const std::vector<std::string> argv = smt_shard_argv(u, smt_shard_binary);
      for (std::size_t a = 0; a < argv.size(); ++a) {
        os << (a == 0 ? "" : ", ") << json_string(argv[a]);
      }
      os << "]";
    }
    os << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string matrix_json(const DispatchPlan& plan) {
  std::ostringstream os;
  os << "{\"include\": [";
  for (std::size_t i = 0; i < plan.units.size(); ++i) {
    const WorkUnit& u = plan.units[i];
    const std::vector<std::string> argv = smt_shard_argv(u, "");
    std::string args;
    for (std::size_t a = 1; a < argv.size(); ++a) {  // [0] is the binary slot
      args += (a == 1 ? "" : " ") + argv[a];
    }
    std::string env;
    for (const auto& [k, v] : u.env) {
      if (k == "SMT_SIM_WORKERS") continue;
      env += (env.empty() ? "" : " ") + k + "=" + v;
    }
    os << (i == 0 ? "" : ", ")
       << "{\"shard\": " << u.shard.index
       << ", \"shards\": " << u.shard.count
       << ", \"name\": " << json_string(u.bench + "-shard" +
                                        std::to_string(u.shard.index) + "of" +
                                        std::to_string(u.shard.count))
       << ", \"args\": " << json_string(args)
       << ", \"env\": " << json_string(env)
       << ", \"fragment\": " << json_string(u.fragment_path())
       << ", \"fingerprint\": " << json_string(plan.fingerprint) << "}";
  }
  os << "]}\n";
  return os.str();
}

}  // namespace dwarn::orch
