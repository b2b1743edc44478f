// Self-test of the sweep benchmark's pure computations (rules.hpp): the
// paper-gap score and the tail-percentile rule. run.py runs it after every
// build and refuses to measure when it fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "rules.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using sweepbench::ImprovementSample;
using dwarn::WorkloadType;

/// Four workloads per type, each sample offset from the paper's per-type
/// figure by +/-`spread`, so every claim's mean lands exactly on `shift`
/// past the paper.
std::vector<ImprovementSample> fig1_shaped(double shift, double spread) {
  std::vector<ImprovementSample> out;
  for (const auto& c : sweepbench::kFig1Claims) {
    if (!c.type) continue;
    for (int i = 0; i < 4; ++i) {
      const double off = (i % 2 == 0 ? spread : -spread);
      out.push_back({c.opponent, *c.type, c.paper_pct + shift + off});
    }
  }
  return out;
}

void test_paper_gap() {
  // No samples: no claim covered, no score.
  expect(!sweepbench::paper_gap_pp(sweepbench::score_claims({})), "empty gap is nullopt");

  // ICOUNT pools every workload type into its single "avg" claim; the
  // other opponents score per type.
  std::vector<ImprovementSample> s = fig1_shaped(/*shift=*/2.0, /*spread=*/5.0);
  for (const WorkloadType t : {WorkloadType::ILP, WorkloadType::MIX, WorkloadType::MEM}) {
    s.push_back({"ICOUNT", t, 10.0});
    s.push_back({"ICOUNT", t, 20.0});
  }
  const auto scored = sweepbench::score_claims(s);
  expect(scored.size() == 13, "all 13 claims covered");
  expect(near(scored.front().measured_pct, 15.0), "ICOUNT avg pools all types");
  expect(scored.front().samples == 6, "ICOUNT avg sample count");
  // ICOUNT: |15 - 18| = 3; the 12 per-type claims: |+2| each.
  expect(near(*sweepbench::paper_gap_pp(scored), (3.0 + 12 * 2.0) / 13.0), "gap value");

  // Signs do not cancel: a claim 4 below the paper costs as much as one 4
  // above it.
  const auto below = sweepbench::score_claims({{"FLUSH", WorkloadType::MEM, -7.0}});
  expect(below.size() == 1 && near(*sweepbench::paper_gap_pp(below), 4.0), "gap is absolute");

  // A grid with only DWarn and ICOUNT covers only the ICOUNT claim.
  const auto paired = sweepbench::score_claims(
      {{"ICOUNT", WorkloadType::MIX, 1.6}, {"ICOUNT", WorkloadType::MEM, 76.4}});
  expect(paired.size() == 1 && near(*sweepbench::paper_gap_pp(paired), 21.0),
         "paired grid scores one claim");

  // The fig1 per-type averages measured at seed 1 (ROADMAP fig1 table),
  // one sample per claim: the gap the benchmark prints for fig1.
  const std::vector<ImprovementSample> head = {
      {"ICOUNT", WorkloadType::ILP, 21.3}, {"STALL", WorkloadType::ILP, -1.2},
      {"STALL", WorkloadType::MIX, -2.5},  {"STALL", WorkloadType::MEM, 6.9},
      {"DG", WorkloadType::ILP, 1.5},      {"DG", WorkloadType::MIX, 9.6},
      {"DG", WorkloadType::MEM, 8.5},      {"PDG", WorkloadType::ILP, -0.2},
      {"PDG", WorkloadType::MIX, 1.3},     {"PDG", WorkloadType::MEM, 9.6},
      {"FLUSH", WorkloadType::ILP, 0.3},   {"FLUSH", WorkloadType::MIX, 1.6},
      {"FLUSH", WorkloadType::MEM, -5.5}};
  expect(near(*sweepbench::paper_gap_pp(sweepbench::score_claims(head)), 65.6 / 13.0),
         "fig1 seed-1 gap is about 5.0");
}

void test_tail_percentile() {
  std::vector<double> xs;
  for (int i = 1; i <= 72; ++i) xs.push_back(static_cast<double>(73 - i));  // unsorted
  const auto t72 = sweepbench::tail_percentile(xs);
  // p86: rank ceil(0.86 * 72) = 62, leaving exactly 10 samples above it;
  // p87 would leave 9.
  expect(t72 && t72->percentile == 86 && near(t72->value, 62.0) && t72->samples == 72,
         "72 samples -> p86");

  xs.resize(32);
  const auto t32 = sweepbench::tail_percentile(xs);
  expect(t32 && t32->percentile == 68 && t32->samples == 32, "32 samples -> p68");

  std::vector<double> big(1000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<double>(i);
  const auto t1000 = sweepbench::tail_percentile(big);
  expect(t1000 && t1000->percentile == 99 && near(t1000->value, 989.0), "1000 samples -> p99");

  expect(sweepbench::tail_percentile(std::vector<double>(11, 1.0))->percentile == 9,
         "11 samples -> p9");
  expect(!sweepbench::tail_percentile(std::vector<double>(10, 1.0)),
         "10 samples -> no percentile has 10 beyond it");
}

}  // namespace

int main() {
  test_paper_gap();
  test_tail_percentile();
  if (failures == 0) std::puts("sweep_bench selftest: ok");
  return failures == 0 ? 0 : 1;
}
