// Micro-bench: simulated core throughput in Minsts/sec on fig1-shaped
// configs (baseline machine, paper workloads, paper policies).
//
// For each config the bench builds a Simulator, commits a warm-up window,
// then times the wall clock of a fixed committed-instruction measurement
// window and reports committed Minsts/sec (best of SMT_MICRO_REPS).
//
// The aggregate Minsts/sec is the tracked trajectory metric: CI uploads
// BENCH_micro_core.json and ctest gates the value against the committed
// ci/baselines/core_throughput.json (docs/core_perf.md).
//
// Environment:
//   SMT_MICRO_CORE_INSTS    committed insts per measurement (default 200000)
//   SMT_MICRO_CORE_WARMUP   warm-up insts (default INSTS/4)
//   SMT_MICRO_REPS          repetitions, best-of            (default 3)
//   SMT_MICRO_CORE_BASELINE path to a committed baseline JSON with an
//                           "aggregate_minsts_per_sec" field
//   SMT_MICRO_MIN_RATIO     e.g. "0.15": exit nonzero when the measured
//                           aggregate falls below ratio x baseline
//                           (default 0 = report only)
//   SMT_MICRO_MIN_MINSTS    absolute Minsts/sec floor (default 0 = off)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/json.hpp"
#include "bench_common.hpp"

namespace {

using namespace dwarn;
using Clock = std::chrono::steady_clock;

struct CoreBenchConfig {
  const char* workload;
  PolicyKind policy;
};

/// Representative fig1 grid points: baseline machine, 2/4/8 contexts,
/// low- and high-squash policies (FLUSH stresses the recovery path).
constexpr CoreBenchConfig kConfigs[] = {
    {"2-MIX", PolicyKind::ICount},
    {"4-MEM", PolicyKind::DWarn},
    {"4-MEM", PolicyKind::Flush},
    {"8-ILP", PolicyKind::ICount},
};

struct Pass {
  double secs = 0.0;
  std::uint64_t committed = 0;
};

/// Build a fresh Simulator for `cfg` and commit warmup + measure insts,
/// timing the measurement window only.
Pass run_pass(const CoreBenchConfig& cfg, std::uint64_t warmup, std::uint64_t measure) {
  const WorkloadSpec& w = workload_by_name(cfg.workload);
  Simulator sim(baseline_machine(w.num_threads()), w, cfg.policy);
  SmtCore& core = sim.core();
  constexpr std::uint64_t kMaxCycles = 400'000'000;
  std::uint64_t guard = 0;
  while (core.total_committed() < warmup && guard++ < kMaxCycles) sim.tick();
  const std::uint64_t start_committed = core.total_committed();
  const std::uint64_t target = start_committed + measure;
  const auto t0 = Clock::now();
  while (core.total_committed() < target && guard++ < kMaxCycles) sim.tick();
  const auto t1 = Clock::now();
  Pass p;
  p.secs = std::chrono::duration<double>(t1 - t0).count();
  p.committed = core.total_committed() - start_committed;
  return p;
}

double minsts(const Pass& p) {
  return p.secs > 0.0 ? static_cast<double>(p.committed) / p.secs / 1e6 : 0.0;
}

double parse_env_double(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(parsed > 0.0)) {
    std::cerr << "[dwarn] warning: " << name << "='" << v
              << "' is not a positive number; gate disabled\n";
    return 0.0;
  }
  return parsed;
}

/// Baseline aggregate from a committed core_throughput.json, or 0 when
/// the file is unreadable/malformed (after a loud warning: a broken
/// baseline must not silently disable the gate in CI, so callers that
/// set SMT_MICRO_MIN_RATIO treat 0 as an error).
double load_baseline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "[dwarn] error: cannot read baseline '" << path << "'\n";
    return 0.0;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    const json::Value doc = json::parse(ss.str());
    if (const json::Value* v = doc.find("aggregate_minsts_per_sec")) {
      return v->as_number();
    }
    std::cerr << "[dwarn] error: baseline '" << path
              << "' has no aggregate_minsts_per_sec field\n";
  } catch (const std::exception& e) {
    std::cerr << "[dwarn] error: baseline '" << path << "': " << e.what() << "\n";
  }
  return 0.0;
}

}  // namespace

int main() {
  using namespace dwarn::benchutil;

  const std::uint64_t measure =
      env_u64("SMT_MICRO_CORE_INSTS", 1000, 1'000'000'000).value_or(200'000);
  const std::uint64_t warmup =
      env_u64("SMT_MICRO_CORE_WARMUP", 0, 1'000'000'000).value_or(measure / 4);
  const std::uint64_t reps = env_u64("SMT_MICRO_REPS", 1, 100).value_or(3);

  print_banner(std::cout, "core micro-bench: simulated Minsts/sec (fig1-shaped configs)");
  std::cout << warmup << " warm-up + " << measure << " measured insts per config, best of "
            << reps << "\n\n";

  ReportTable table({"workload", "policy", "Minsts/sec"});
  double total_insts = 0.0;
  double total_secs = 0.0;
  std::vector<std::string> config_rows;
  for (const CoreBenchConfig& cfg : kConfigs) {
    Pass best = run_pass(cfg, warmup, measure);
    for (std::uint64_t r = 1; r < reps; ++r) {
      const Pass p = run_pass(cfg, warmup, measure);
      if (p.secs < best.secs) best = p;
    }
    const double mv = minsts(best);
    table.add_row({cfg.workload, std::string(policy_name(cfg.policy)), fmt(mv, 2)});
    total_insts += static_cast<double>(best.committed);
    total_secs += best.secs;
    std::ostringstream row;
    row << "    {\"workload\": \"" << json_escape(cfg.workload) << "\", \"policy\": \""
        << json_escape(policy_name(cfg.policy)) << "\", \"minsts_per_sec\": " << fmt(mv, 4)
        << "}";
    config_rows.push_back(row.str());
  }
  table.print(std::cout);

  const double aggregate = total_secs > 0.0 ? total_insts / total_secs / 1e6 : 0.0;
  std::cout << "\naggregate simulated throughput: " << fmt(aggregate, 2) << " Minsts/sec\n";

  // Trajectory snapshot for artifact upload / the committed baseline.
  const std::string path = bench_output_path("micro_core");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\n  \"bench\": \"micro_core\",\n"
        << "  \"measure_insts\": " << measure << ",\n  \"warmup_insts\": " << warmup
        << ",\n  \"reps\": " << reps << ",\n"
        << "  \"aggregate_minsts_per_sec\": " << fmt(aggregate, 4) << ",\n"
        << "  \"configs\": [\n";
    for (std::size_t i = 0; i < config_rows.size(); ++i) {
      out << config_rows[i] << (i + 1 < config_rows.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    if (!out) {
      std::cerr << "[dwarn] error: cannot write '" << path << "'; failing the bench\n";
      return 1;
    }
  }
  std::cout << "[throughput snapshot -> " << path << "]\n";

  // Gates: absolute floor and ratio against the committed baseline.
  if (const double floor = parse_env_double("SMT_MICRO_MIN_MINSTS");
      floor > 0.0 && aggregate < floor) {
    std::cerr << "[dwarn] error: aggregate " << fmt(aggregate, 2)
              << " Minsts/sec below required " << fmt(floor, 2) << "\n";
    return 1;
  }
  if (const double ratio = parse_env_double("SMT_MICRO_MIN_RATIO"); ratio > 0.0) {
    const char* bp = std::getenv("SMT_MICRO_CORE_BASELINE");
    if (bp == nullptr || *bp == '\0') {
      std::cerr << "[dwarn] error: SMT_MICRO_MIN_RATIO set without "
                   "SMT_MICRO_CORE_BASELINE\n";
      return 1;
    }
    const double baseline = load_baseline(bp);
    if (baseline <= 0.0) return 1;
    std::cout << "baseline aggregate: " << fmt(baseline, 2) << " Minsts/sec; ratio "
              << fmt(aggregate / baseline, 2) << " (required >= " << fmt(ratio, 2)
              << ")\n";
    if (aggregate < ratio * baseline) {
      std::cerr << "[dwarn] error: aggregate " << fmt(aggregate, 2)
                << " Minsts/sec below " << fmt(ratio, 2) << " x baseline "
                << fmt(baseline, 2) << "\n";
      return 1;
    }
  }
  return 0;
}
