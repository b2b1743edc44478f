// The two pure computations the sweep benchmark reports and its self-test
// pins: the paper-gap score behind `paper_gap_pp`, and the tail-percentile
// rule behind `engine.run_tail_s`.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/workload.hpp"

namespace sweepbench {

/// One DWarn-improvement average the paper reports for Figure 1(b):
/// DWarn's throughput gain over `opponent`, averaged over the workloads of
/// `type` (nullopt: over every workload), in percent.
struct PaperClaim {
  std::string_view opponent;
  std::optional<dwarn::WorkloadType> type;
  double paper_pct = 0.0;
};

using dwarn::WorkloadType;

/// The 13 averages the paper quotes (the same figures bench_fig1_throughput
/// prints as its "paper reference" line).
inline constexpr std::array<PaperClaim, 13> kFig1Claims = {{
    {"ICOUNT", std::nullopt, 18.0},
    {"STALL", WorkloadType::ILP, 2.0},
    {"STALL", WorkloadType::MIX, 6.0},
    {"STALL", WorkloadType::MEM, 7.0},
    {"DG", WorkloadType::ILP, 3.0},
    {"DG", WorkloadType::MIX, 8.0},
    {"DG", WorkloadType::MEM, 9.0},
    {"PDG", WorkloadType::ILP, 5.0},
    {"PDG", WorkloadType::MIX, 13.0},
    {"PDG", WorkloadType::MEM, 30.0},
    {"FLUSH", WorkloadType::ILP, 3.0},
    {"FLUSH", WorkloadType::MIX, 6.0},
    {"FLUSH", WorkloadType::MEM, -3.0},
}};

/// DWarn's improvement over `opponent` on one (workload, seed) pair.
struct ImprovementSample {
  std::string_view opponent;
  WorkloadType type = WorkloadType::ILP;
  double delta_pct = 0.0;
};

/// A claim as measured: the mean of every matching sample, pooled across
/// workloads and seeds as print_ci_improvement_table pools them.
struct ScoredClaim {
  PaperClaim claim;
  double measured_pct = 0.0;
  std::size_t samples = 0;
};

/// Score every claim that at least one sample covers; claims whose
/// opponent or workload type the grid lacks are left out.
[[nodiscard]] inline std::vector<ScoredClaim> score_claims(
    const std::vector<ImprovementSample>& samples) {
  std::vector<ScoredClaim> out;
  for (const PaperClaim& c : kFig1Claims) {
    double sum = 0.0;
    std::size_t n = 0;
    for (const ImprovementSample& s : samples) {
      if (s.opponent != c.opponent) continue;
      if (c.type && s.type != *c.type) continue;
      sum += s.delta_pct;
      ++n;
    }
    if (n > 0) out.push_back({c, sum / static_cast<double>(n), n});
  }
  return out;
}

/// Mean |measured - paper| over the scored claims, in percentage points;
/// nullopt when no claim is covered.
[[nodiscard]] inline std::optional<double> paper_gap_pp(
    const std::vector<ScoredClaim>& scored) {
  if (scored.empty()) return std::nullopt;
  double sum = 0.0;
  for (const ScoredClaim& s : scored) sum += std::fabs(s.measured_pct - s.claim.paper_pct);
  return sum / static_cast<double>(scored.size());
}

/// The highest whole percentile with at least `beyond` samples above it.
struct TailPercentile {
  int percentile = 0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentiles: percentile p is the ceil(p/100 * n)-th
/// smallest sample. Picks the largest p in [1, 99] that leaves at least
/// `beyond` samples strictly past its rank; nullopt when n <= beyond.
[[nodiscard]] inline std::optional<TailPercentile> tail_percentile(std::vector<double> xs,
                                                                   std::size_t beyond = 10) {
  const std::size_t n = xs.size();
  if (n <= beyond) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  for (int p = 99; p >= 1; --p) {
    // Integer ceil(p * n / 100); p * n cannot overflow for any real grid.
    const std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
    if (rank >= 1 && n - rank >= beyond) return TailPercentile{p, xs[rank - 1], n};
  }
  return std::nullopt;
}

}  // namespace sweepbench
