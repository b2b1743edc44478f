// Unit tests: the sweep orchestrator — dispatch planning (worker env
// split, fragment paths, dry-run JSON), the JobTracker retry state
// machine under synthetic time (backoff growth, timeout detection,
// attempt budgets), the Scheduler over the thread-backed launcher
// (happy path, injected-fault retry, retry exhaustion, timeouts via test
// doubles), and the MergeStage's hard failures (missing fragment, plan
// fingerprint mismatch). The orchestrated merged snapshot must be
// byte-identical to the single-process run — the same contract test_shard
// enforces for manual sharding, here surviving scheduling and retries.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/json.hpp"
#include "analysis/trajectory.hpp"
#include "engine/experiment_engine.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "orchestrator/job_tracker.hpp"
#include "orchestrator/launcher.hpp"
#include "orchestrator/merge_stage.hpp"
#include "orchestrator/scheduler.hpp"
#include "orchestrator/sweep_state.hpp"
#include "orchestrator/work_unit.hpp"

namespace dwarn {
namespace {

using namespace std::chrono_literals;

orch::PlanRequest fixture_request(std::size_t shards, std::size_t jobs,
                                  const std::string& out_dir) {
  orch::PlanRequest req;
  req.bench = "fixture";
  req.shards = shards;
  req.jobs = jobs;
  req.out_dir = out_dir;
  return req;
}

/// Quiet scheduler options tuned for tests: tiny backoff, fast polling.
orch::SchedulerOptions test_sched(std::size_t jobs, int retries) {
  orch::SchedulerOptions opt;
  opt.jobs = jobs;
  opt.retries = retries;
  opt.backoff_base = 1ms;
  opt.poll_interval = 1ms;
  opt.verbose = false;
  return opt;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The canonical single-process snapshot of the fixture grid, as
/// `smt_shard run --bench fixture` would serialize it.
std::string fixture_canonical_json() {
  const std::vector<RunSpec> specs = named_grid("fixture").expand();
  ResultStore store;
  for (const auto& [k, v] : bench_meta("fixture", specs.front().len)) {
    store.set_meta(k, v);
  }
  store.set_zero_wall(true);
  store.add_all(ExperimentEngine().run(specs));
  return store.to_json();
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_((std::filesystem::temp_directory_path() / name).string()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---- dispatch planning -------------------------------------------------------

TEST(DispatchPlan, UnitsCoverTheGridAndCarryWorkerEnv) {
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(3, 2, "out"));
  EXPECT_EQ(plan.grid_size, 4u);
  EXPECT_EQ(plan.fingerprint, grid_fingerprint(named_grid("fixture").expand()));
  ASSERT_EQ(plan.units.size(), 3u);
  EXPECT_EQ(plan.merged_path(), "out/BENCH_fixture.json");

  std::size_t covered = 0;
  for (std::size_t k = 1; k <= 3; ++k) {
    const orch::WorkUnit& u = plan.units[k - 1];
    EXPECT_EQ(u.shard, (ShardSpec{k, 3}));
    EXPECT_EQ(u.fragment_path(), "out/" + shard_fragment_filename("fixture", k, 3));
    EXPECT_EQ(u.env.at("SMT_BENCH_ZERO_WALL"), "1");
    EXPECT_TRUE(u.env.contains("SMT_SIM_WORKERS"));
    covered += u.indices.size();
  }
  EXPECT_EQ(covered, plan.grid_size);
}

TEST(DispatchPlan, WorkerEnvSplitsThreadsAcrossJobs) {
  ASSERT_EQ(setenv("SMT_SIM_WORKERS", "8", 1), 0);
  const auto env = orch::worker_env(4);
  EXPECT_EQ(env.at("SMT_SIM_WORKERS"), "2");
  // More jobs than threads: floors at 1, never 0.
  const auto narrow = orch::worker_env(16);
  EXPECT_EQ(narrow.at("SMT_SIM_WORKERS"), "1");
  ASSERT_EQ(unsetenv("SMT_SIM_WORKERS"), 0);
}

TEST(DispatchPlan, DryRunJsonIsParseableAndComplete) {
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 2, "out"));
  const json::Value doc =
      json::parse(orch::dispatch_plan_json(plan, "subprocess", "/x/smt_shard"));
  EXPECT_EQ(doc.at("grid").as_string(), "fixture");
  EXPECT_EQ(doc.at("fingerprint").as_string(), plan.fingerprint);
  EXPECT_EQ(static_cast<std::size_t>(doc.at("shards").as_number()), 2u);
  const auto& units = doc.at("units").as_array();
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].at("fragment").as_string(), "out/BENCH_fixture.shard1of2.json");
  EXPECT_EQ(units[0].at("env").as_object().at("SMT_BENCH_ZERO_WALL").as_string(), "1");
  // argv mirrors what the subprocess launcher would exec.
  const auto& argv = units[1].at("argv").as_array();
  ASSERT_GE(argv.size(), 6u);
  EXPECT_EQ(argv[0].as_string(), "/x/smt_shard");
  EXPECT_EQ(argv[1].as_string(), "run");
  const std::vector<std::string> expect_argv =
      orch::smt_shard_argv(plan.units[1], "/x/smt_shard");
  ASSERT_EQ(argv.size(), expect_argv.size());
  for (std::size_t i = 0; i < argv.size(); ++i) {
    EXPECT_EQ(argv[i].as_string(), expect_argv[i]) << i;
  }
}

TEST(SchedulerOptionsEnv, DriverKillHookParsesAndRejectsGarbage) {
  orch::SchedulerOptions opt;
  ASSERT_EQ(setenv("SMT_ORCH_FAULT_DRIVER_KILL", "2", 1), 0);
  opt.apply_env();
  EXPECT_EQ(opt.fault_driver_kill_after, 2u);

  orch::SchedulerOptions bad;
  ASSERT_EQ(setenv("SMT_ORCH_FAULT_DRIVER_KILL", "whenever", 1), 0);
  bad.apply_env();
  EXPECT_FALSE(bad.fault_driver_kill_after.has_value());
  ASSERT_EQ(unsetenv("SMT_ORCH_FAULT_DRIVER_KILL"), 0);
}

TEST(SchedulerOptionsEnv, FaultHookParsesAndRejectsGarbage) {
  orch::SchedulerOptions opt;
  ASSERT_EQ(setenv("SMT_ORCH_FAULT_KILL", "3", 1), 0);
  ASSERT_EQ(setenv("SMT_ORCH_FAULT_ATTEMPT", "2", 1), 0);
  opt.apply_env();
  EXPECT_EQ(opt.fault_kill_shard, 3u);
  EXPECT_EQ(opt.fault_kill_attempt, 2);

  orch::SchedulerOptions bad;
  ASSERT_EQ(setenv("SMT_ORCH_FAULT_KILL", "zero-day", 1), 0);
  ASSERT_EQ(unsetenv("SMT_ORCH_FAULT_ATTEMPT"), 0);
  bad.apply_env();
  EXPECT_FALSE(bad.fault_kill_shard.has_value());
  EXPECT_EQ(bad.fault_kill_attempt, 1);
  ASSERT_EQ(unsetenv("SMT_ORCH_FAULT_KILL"), 0);
}

// ---- JobTracker --------------------------------------------------------------

TEST(JobTracker, BackoffDoublesFromBaseUpToCap) {
  const orch::JobTracker t(1, 10, 100ms, 1500ms, 0ms);
  EXPECT_EQ(t.backoff_delay(1), 100ms);
  EXPECT_EQ(t.backoff_delay(2), 200ms);
  EXPECT_EQ(t.backoff_delay(3), 400ms);
  EXPECT_EQ(t.backoff_delay(4), 800ms);
  EXPECT_EQ(t.backoff_delay(5), 1500ms);  // capped
  EXPECT_EQ(t.backoff_delay(40), 1500ms); // deep failure counts stay capped
}

TEST(JobTracker, RetryStateMachineGatesOnBackoffAndExhaustsBudget) {
  orch::JobTracker t(2, /*max_retries=*/1, 100ms, 1000ms, 0ms);
  const auto t0 = orch::TrackerClock::time_point{};
  EXPECT_EQ(t.next_ready(t0), 1u);

  t.on_dispatched(1, 11, t0);
  EXPECT_EQ(t.next_ready(t0), 2u);
  t.on_dispatched(2, 12, t0);
  EXPECT_FALSE(t.next_ready(t0).has_value());
  EXPECT_EQ(t.running(), (std::vector<std::size_t>{1, 2}));

  // First failure: back to Pending, but gated 100ms into the future.
  EXPECT_TRUE(t.on_failed(1, "boom", t0));
  EXPECT_FALSE(t.next_ready(t0 + 99ms).has_value());
  EXPECT_EQ(t.next_ready(t0 + 100ms), 1u);
  EXPECT_EQ(t.retries_used(), 1u);

  // Second failure: budget (1 + 1 retry) spent → Abandoned.
  t.on_dispatched(1, 13, t0 + 100ms);
  EXPECT_FALSE(t.on_failed(1, "boom again", t0 + 100ms));
  EXPECT_EQ(t.progress(1).state, orch::ShardState::Abandoned);
  EXPECT_EQ(t.progress(1).attempts, 2);
  EXPECT_EQ(t.progress(1).last_error, "boom again");

  t.on_succeeded(2);
  EXPECT_FALSE(t.work_remaining());
  EXPECT_FALSE(t.all_done());
}

TEST(JobTracker, TimeoutDetectionRespectsDisabledAndRunningStates) {
  orch::JobTracker t(1, 0, 1ms, 1ms, /*timeout=*/50ms);
  const auto t0 = orch::TrackerClock::time_point{};
  EXPECT_FALSE(t.timed_out(1, t0 + 1h));  // Pending: nothing to time out
  t.on_dispatched(1, 1, t0);
  EXPECT_FALSE(t.timed_out(1, t0 + 50ms));
  EXPECT_TRUE(t.timed_out(1, t0 + 51ms));

  orch::JobTracker no_timeout(1, 0, 1ms, 1ms, 0ms);
  no_timeout.on_dispatched(1, 1, t0);
  EXPECT_FALSE(no_timeout.timed_out(1, t0 + 24h));
}

TEST(JobTracker, ResumeSeedingSkipsDoneShardsAndKeepsPriorAttemptsOffBudget) {
  orch::JobTracker t(3, /*max_retries=*/1, 1ms, 1ms, 0ms);
  t.seed_prior_attempts(2, 4);
  t.seed_done(2);  // either call order is legal
  t.seed_prior_attempts(3, 2);

  const auto t0 = orch::TrackerClock::time_point{};
  EXPECT_EQ(t.progress(2).state, orch::ShardState::Done);
  EXPECT_EQ(t.progress(2).prior_attempts, 4);
  EXPECT_EQ(t.next_ready(t0), 1u);

  // Shard 3's two past attempts do not count against the fresh budget:
  // this invocation still gets 1 try + 1 retry.
  t.on_dispatched(3, 1, t0);
  EXPECT_TRUE(t.on_failed(3, "boom", t0));
  t.on_dispatched(3, 2, t0 + 1ms);
  EXPECT_FALSE(t.on_failed(3, "boom", t0 + 1ms));
  EXPECT_EQ(t.progress(3).prior_attempts, 2);
  EXPECT_EQ(t.progress(3).attempts, 2);
}

// ---- Scheduler over the thread-backed launcher -------------------------------

TEST(SchedulerThreadBackend, SweepMergesByteIdenticalToSingleProcessRun) {
  const TempDir dir("dwarn_orch_happy");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(3, 2, dir.path()));
  orch::InProcessLauncher launcher;
  const orch::SweepOutcome sweep =
      orch::Scheduler(launcher, test_sched(2, 2)).run(plan);
  ASSERT_TRUE(sweep.ok);
  EXPECT_EQ(sweep.retries_used, 0u);

  const orch::MergeOutcome merged = orch::merge_sweep(plan);
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(merged.fragments, 3u);
  EXPECT_EQ(merged.runs, 4u);
  EXPECT_EQ(read_file(merged.merged_path), fixture_canonical_json());
}

TEST(SchedulerThreadBackend, InjectedFaultIsRetriedAndStillMergesBitwise) {
  const TempDir dir("dwarn_orch_fault");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(3, 2, dir.path()));
  orch::InProcessLauncher launcher;
  orch::SchedulerOptions opt = test_sched(2, 2);
  opt.fault_kill_shard = 2;
  const orch::SweepOutcome sweep = orch::Scheduler(launcher, opt).run(plan);
  ASSERT_TRUE(sweep.ok);
  EXPECT_EQ(sweep.retries_used, 1u);
  EXPECT_EQ(sweep.shards[1].attempts, 2);
  EXPECT_EQ(sweep.shards[0].attempts, 1);

  const orch::MergeOutcome merged = orch::merge_sweep(plan);
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(read_file(merged.merged_path), fixture_canonical_json());
}

/// Test double: every attempt of every unit fails instantly.
class AlwaysFailLauncher final : public orch::Launcher {
 public:
  std::optional<orch::JobId> start(const orch::WorkUnit&) override { return next_++; }
  orch::JobStatus poll(orch::JobId) override {
    return {orch::JobStatus::State::Failed, "synthetic failure"};
  }
  void kill(orch::JobId) override {}
  [[nodiscard]] std::string_view name() const override { return "alwaysfail"; }

 private:
  orch::JobId next_ = 1;
};

TEST(Scheduler, ExhaustedRetriesAbandonTheShardAndFailTheSweep) {
  const TempDir dir("dwarn_orch_exhaust");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 2, dir.path()));
  AlwaysFailLauncher launcher;
  const orch::SweepOutcome sweep =
      orch::Scheduler(launcher, test_sched(2, /*retries=*/1)).run(plan);
  EXPECT_FALSE(sweep.ok);
  bool any_abandoned = false;
  for (const orch::ShardOutcome& s : sweep.shards) {
    if (s.state == orch::ShardState::Abandoned) {
      any_abandoned = true;
      EXPECT_EQ(s.attempts, 2);  // 1 try + 1 retry
      EXPECT_EQ(s.error, "synthetic failure");
    }
  }
  EXPECT_TRUE(any_abandoned);
}

/// Test double: jobs never finish — the timeout path must reap them.
class StuckLauncher final : public orch::Launcher {
 public:
  std::optional<orch::JobId> start(const orch::WorkUnit&) override { return next_++; }
  orch::JobStatus poll(orch::JobId) override {
    return {orch::JobStatus::State::Running, {}};
  }
  void kill(orch::JobId) override { ++kills_; }
  [[nodiscard]] std::string_view name() const override { return "stuck"; }
  [[nodiscard]] int kills() const { return kills_; }

 private:
  orch::JobId next_ = 1;
  int kills_ = 0;
};

TEST(Scheduler, HungWorkersAreKilledOnTimeoutAndCountAsFailures) {
  const TempDir dir("dwarn_orch_stuck");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(1, 1, dir.path()));
  StuckLauncher launcher;
  orch::SchedulerOptions opt = test_sched(1, /*retries=*/1);
  opt.timeout = 5ms;
  const orch::SweepOutcome sweep = orch::Scheduler(launcher, opt).run(plan);
  EXPECT_FALSE(sweep.ok);
  EXPECT_EQ(sweep.shards[0].attempts, 2);
  EXPECT_EQ(sweep.shards[0].error, "timeout");
  EXPECT_GE(launcher.kills(), 2);
}

// ---- MergeStage hard failures ------------------------------------------------

TEST(MergeStage, MissingFragmentFailsNamingThePath) {
  const TempDir dir("dwarn_orch_missing");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 1, dir.path()));
  orch::InProcessLauncher launcher;
  orch::SchedulerOptions opt = test_sched(1, 0);
  ASSERT_TRUE(orch::Scheduler(launcher, opt).run(plan).ok);
  std::filesystem::remove(plan.units[1].fragment_path());

  const orch::MergeOutcome merged = orch::merge_sweep(plan);
  EXPECT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find(plan.units[1].fragment_path()), std::string::npos)
      << merged.error;
}

TEST(MergeStage, PlanFingerprintMismatchIsRefusedEvenWhenFragmentsAgree) {
  const TempDir dir("dwarn_orch_stalefp");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 1, dir.path()));
  orch::InProcessLauncher launcher;
  ASSERT_TRUE(orch::Scheduler(launcher, test_sched(1, 0)).run(plan).ok);

  // A plan for the same grid but a different seed count has a different
  // fingerprint: the on-disk fragments are mutually consistent, yet stale
  // for *this* sweep — the merge must refuse, not resurrect old bytes.
  orch::PlanRequest stale = fixture_request(2, 1, dir.path());
  stale.seeds = 2;
  const orch::MergeOutcome merged = orch::merge_sweep(orch::make_dispatch_plan(stale));
  EXPECT_FALSE(merged.ok);
  EXPECT_NE(merged.error.find("fingerprint"), std::string::npos) << merged.error;
}

// ---- sweep-state journal -----------------------------------------------------

TEST(SweepState, JsonRoundTripPreservesIdentityAndHistory) {
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(3, 2, "out"));
  orch::SweepState state = orch::make_initial_state(plan);
  ASSERT_EQ(state.history.size(), 3u);
  state.history[0] = {1, "done", 2, ""};
  state.history[1] = {2, "running", 1, ""};
  state.history[2] = {3, "pending", 3, "killed by signal 9"};

  const orch::SweepState back = orch::parse_sweep_state(orch::sweep_state_json(state));
  EXPECT_EQ(back, state);
  EXPECT_EQ(orch::sweep_state_filename("fixture"), "SWEEP_fixture.state.json");
}

TEST(SweepState, StrictParseRefusesCorruptAndTornDocuments) {
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 1, "out"));
  const std::string good = orch::sweep_state_json(orch::make_initial_state(plan));

  // Torn mid-write (no atomic rename would produce this, but a resume
  // must still refuse it rather than guess).
  EXPECT_THROW(orch::parse_sweep_state(good.substr(0, good.size() / 2)),
               std::runtime_error);
  EXPECT_THROW(orch::parse_sweep_state("{ torn"), std::runtime_error);
  EXPECT_THROW(orch::parse_sweep_state("{}"), std::runtime_error);

  // History that disagrees with the recorded shard count.
  std::string wrong = good;
  const auto pos = wrong.find("\"shards\": 2");
  ASSERT_NE(pos, std::string::npos);
  wrong.replace(pos, 11, "\"shards\": 3");
  EXPECT_THROW(orch::parse_sweep_state(wrong), std::runtime_error);

  // Unknown lifecycle state.
  std::string bad_state = good;
  const auto sp = bad_state.find("\"pending\"");
  ASSERT_NE(sp, std::string::npos);
  bad_state.replace(sp, 9, "\"paused!\"");
  EXPECT_THROW(orch::parse_sweep_state(bad_state), std::runtime_error);
}

TEST(SweepState, LoadDistinguishesMissingFromCorrupt) {
  const TempDir dir("dwarn_orch_state_load");
  const std::string path = dir.path() + "/SWEEP_fixture.state.json";
  std::string error;

  EXPECT_FALSE(orch::load_sweep_state(path, error).has_value());
  EXPECT_TRUE(error.empty());  // missing: nothing to resume, not a defect

  {
    std::ofstream out(path);
    out << "{ torn";
  }
  EXPECT_FALSE(orch::load_sweep_state(path, error).has_value());
  EXPECT_NE(error.find("invalid sweep state"), std::string::npos) << error;

  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 1, dir.path()));
  ASSERT_TRUE(orch::write_sweep_state(path, orch::make_initial_state(plan)));
  EXPECT_TRUE(orch::load_sweep_state(path, error).has_value());
  EXPECT_TRUE(error.empty());
}

TEST(SweepState, ValidationRefusesAPlanForADifferentSweep) {
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(3, 2, "out"));
  const orch::SweepState state = orch::make_initial_state(plan);
  EXPECT_EQ(orch::validate_sweep_state(state, plan), "");

  // Different seed count → different fingerprint (and seeds) — refused.
  orch::PlanRequest reseeded = fixture_request(3, 2, "out");
  reseeded.seeds = 2;
  EXPECT_NE(orch::validate_sweep_state(state, orch::make_dispatch_plan(reseeded)), "");

  // Different shard count — refused.
  EXPECT_NE(orch::validate_sweep_state(
                state, orch::make_dispatch_plan(fixture_request(2, 2, "out"))),
            "");

  // Different strategy — refused even though the fingerprint matches.
  orch::PlanRequest strided = fixture_request(3, 2, "out");
  strided.strategy = ShardStrategy::Strided;
  const std::string err =
      orch::validate_sweep_state(state, orch::make_dispatch_plan(strided));
  EXPECT_NE(err.find("strategy"), std::string::npos) << err;

  // --jobs is parallelism, not identity: resuming with more workers is fine.
  orch::SweepState wide = state;
  wide.jobs = 16;
  EXPECT_EQ(orch::validate_sweep_state(wide, plan), "");
}

TEST(SweepJournal, RecordsArePersistedAtomicallyAfterEveryEvent) {
  const TempDir dir("dwarn_orch_journal");
  const std::string path = dir.path() + "/" + orch::sweep_state_filename("fixture");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(2, 1, dir.path()));

  orch::SweepJournal journal(path, orch::make_initial_state(plan));
  journal.write();
  journal.record_dispatched(1, 1);
  journal.record_failed(1, 1, "killed by signal 9", /*abandoned=*/false);
  journal.record_dispatched(1, 2);
  journal.record_done(1);
  journal.record_dispatched(2, 1);

  // Every record rewrote the file; a fresh load sees the latest state.
  std::string error;
  const auto loaded = orch::load_sweep_state(path, error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->history[0], (orch::ShardJournalEntry{1, "done", 2, ""}));
  EXPECT_EQ(loaded->history[1], (orch::ShardJournalEntry{2, "running", 1, ""}));
  EXPECT_EQ(*loaded, journal.state());
}

// ---- fragment checks & resume scan -------------------------------------------

/// Run the fixture sweep to completion in-process so fragments exist.
orch::DispatchPlan completed_fixture_sweep(const std::string& out_dir,
                                           std::size_t shards) {
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(shards, 2, out_dir));
  orch::InProcessLauncher launcher;
  EXPECT_TRUE(orch::Scheduler(launcher, test_sched(2, 0)).run(plan).ok);
  return plan;
}

TEST(FragmentCheck, SharedValidationCoversMissingCorruptAndMismatched) {
  const TempDir dir("dwarn_orch_fragcheck");
  const orch::DispatchPlan plan = completed_fixture_sweep(dir.path(), 3);

  // All valid after a clean sweep.
  for (const orch::WorkUnit& unit : plan.units) {
    const orch::FragmentCheck check = orch::check_fragment_file(unit, plan.fingerprint);
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_GE(check.runs, 1u);
  }

  // Missing.
  std::filesystem::remove(plan.units[1].fragment_path());
  EXPECT_EQ(orch::check_fragment_file(plan.units[1], plan.fingerprint).error,
            "missing");

  // Corrupt/torn.
  {
    std::ofstream out(plan.units[0].fragment_path(), std::ios::trunc);
    out << "{ half a snapsho";
  }
  const orch::FragmentCheck torn =
      orch::check_fragment_file(plan.units[0], plan.fingerprint);
  EXPECT_FALSE(torn.ok);
  EXPECT_NE(torn.error.find("unreadable"), std::string::npos) << torn.error;

  // Fingerprint mismatch: same file checked against a reseeded plan.
  orch::PlanRequest reseeded = fixture_request(3, 2, dir.path());
  reseeded.seeds = 2;
  const orch::DispatchPlan other = orch::make_dispatch_plan(reseeded);
  const orch::FragmentCheck stale =
      orch::check_fragment_file(other.units[2], other.fingerprint);
  EXPECT_FALSE(stale.ok);
  EXPECT_NE(stale.error.find("fingerprint"), std::string::npos) << stale.error;
}

TEST(FragmentCheck, StrategyMismatchIsCaughtByIndicesNotFingerprint) {
  const TempDir dir("dwarn_orch_fragstrat");
  const orch::DispatchPlan plan = completed_fixture_sweep(dir.path(), 3);

  // A strided plan shares the fingerprint (it is strategy-independent)
  // but expects different grid indices in (most) fragments.
  orch::PlanRequest strided = fixture_request(3, 2, dir.path());
  strided.strategy = ShardStrategy::Strided;
  const orch::DispatchPlan other = orch::make_dispatch_plan(strided);
  ASSERT_EQ(other.fingerprint, plan.fingerprint);
  bool any_mismatch = false;
  for (const orch::WorkUnit& unit : other.units) {
    const orch::FragmentCheck check = orch::check_fragment_file(unit, other.fingerprint);
    if (!check.ok) {
      any_mismatch = true;
      EXPECT_NE(check.error.find("indices"), std::string::npos) << check.error;
    }
  }
  EXPECT_TRUE(any_mismatch);
}

TEST(ResumeScan, FindsValidFragmentsAndNotesTheRest) {
  const TempDir dir("dwarn_orch_scan");
  const orch::DispatchPlan plan = completed_fixture_sweep(dir.path(), 3);
  std::filesystem::remove(plan.units[1].fragment_path());

  const orch::ResumeScan scan = orch::scan_fragments(plan);
  EXPECT_EQ(scan.done_shards, (std::vector<std::size_t>{1, 3}));
  ASSERT_EQ(scan.notes.size(), 1u);
  EXPECT_NE(scan.notes[0].find("shard 2/3"), std::string::npos) << scan.notes[0];

  orch::SweepState state = orch::make_initial_state(plan);
  state.history[0] = {1, "done", 1, ""};
  state.history[1] = {2, "running", 2, ""};  // in flight when the driver died
  state.history[2] = {3, "done", 1, ""};
  const orch::ResumeSeed seed = orch::seed_resume(scan, state);
  EXPECT_EQ(seed.done_shards, (std::vector<std::size_t>{1, 3}));
  EXPECT_EQ(seed.prior_attempts, (std::vector<int>{1, 2, 1}));
  // The journal is re-grounded in what the scan proved: shard 2 goes
  // back to pending, the valid fragments stay done.
  EXPECT_EQ(state.history[1].state, "pending");
  EXPECT_EQ(state.history[0].state, "done");
}

/// Launcher decorator counting which shards actually start — resume must
/// dispatch only the missing ones.
class CountingLauncher final : public orch::Launcher {
 public:
  explicit CountingLauncher(orch::Launcher& inner) : inner_(&inner) {}
  std::optional<orch::JobId> start(const orch::WorkUnit& unit) override {
    started_.push_back(unit.shard.index);
    return inner_->start(unit);
  }
  orch::JobStatus poll(orch::JobId id) override { return inner_->poll(id); }
  void kill(orch::JobId id) override { inner_->kill(id); }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] const std::vector<std::size_t>& started() const { return started_; }

 private:
  orch::Launcher* inner_;
  std::vector<std::size_t> started_;
};

TEST(Resume, DispatchesOnlyMissingShardsAndMergesByteIdentical) {
  const TempDir dir("dwarn_orch_resume");
  const orch::DispatchPlan plan = completed_fixture_sweep(dir.path(), 3);
  // The "crash": shard 2 never landed.
  std::filesystem::remove(plan.units[1].fragment_path());

  orch::SweepState state = orch::make_initial_state(plan);
  state.history[0] = {1, "done", 1, ""};
  state.history[1] = {2, "running", 1, ""};
  state.history[2] = {3, "done", 1, ""};
  const orch::ResumeScan scan = orch::scan_fragments(plan);
  const orch::ResumeSeed seed = orch::seed_resume(scan, state);
  orch::SweepJournal journal(dir.path() + "/" + orch::sweep_state_filename("fixture"),
                             state);

  orch::InProcessLauncher inner;
  CountingLauncher launcher(inner);
  const orch::SweepOutcome sweep =
      orch::Scheduler(launcher, test_sched(2, 1)).run(plan, &seed, &journal);
  ASSERT_TRUE(sweep.ok);
  EXPECT_EQ(launcher.started(), (std::vector<std::size_t>{2}));
  // Cumulative attempt accounting: the resumed shard's prior attempt counts.
  EXPECT_EQ(sweep.shards[1].attempts, 2);
  EXPECT_EQ(sweep.shards[0].attempts, 1);

  const orch::MergeOutcome merged = orch::merge_sweep(plan);
  ASSERT_TRUE(merged.ok) << merged.error;
  EXPECT_EQ(read_file(merged.merged_path), fixture_canonical_json());

  std::string error;
  const auto final_state = orch::load_sweep_state(journal.path(), error);
  ASSERT_TRUE(final_state.has_value()) << error;
  for (const orch::ShardJournalEntry& e : final_state->history) {
    EXPECT_EQ(e.state, "done") << e.shard;
  }
  EXPECT_EQ(final_state->history[1].attempts, 2);
}

// ---- launcher lifecycle ------------------------------------------------------

TEST(InProcessLauncher, TerminalJobsAreErasedOnTheReportingPoll) {
  const TempDir dir("dwarn_orch_erase");
  const orch::DispatchPlan plan =
      orch::make_dispatch_plan(fixture_request(1, 1, dir.path()));
  orch::InProcessLauncher launcher;
  const auto id = launcher.start(plan.units[0]);
  ASSERT_TRUE(id.has_value());
  orch::JobStatus status;
  do {
    status = launcher.poll(*id);
  } while (status.state == orch::JobStatus::State::Running);
  EXPECT_EQ(status.state, orch::JobStatus::State::Succeeded);

  // The terminal poll erased the entry: a re-poll is a caller bug and
  // reports the unknown id instead of leaking a map entry per attempt.
  const orch::JobStatus again = launcher.poll(*id);
  EXPECT_EQ(again.state, orch::JobStatus::State::Failed);
  EXPECT_NE(again.detail.find("unknown job id"), std::string::npos) << again.detail;
}

TEST(SubprocessLauncher, DelayedFaultArmsInsteadOfSleepingInStart) {
  if (!orch::SubprocessLauncher::supported()) GTEST_SKIP();
  const TempDir dir("dwarn_orch_armed");
  orch::DispatchPlan plan = orch::make_dispatch_plan(fixture_request(1, 1, dir.path()));
  orch::WorkUnit unit = plan.units[0];
  unit.inject_fault = true;

  // A huge delay with a trivially fast binary: start() must return
  // immediately (it arms a deadline, it does not sleep), and the worker
  // finishes long before the armed kill could fire.
  orch::SubprocessLauncher launcher("/bin/true", /*fault_delay_ms=*/60'000);
  const auto t0 = std::chrono::steady_clock::now();
  const auto id = launcher.start(unit);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(id.has_value());
  EXPECT_LT(elapsed, 5s);  // generous vs the 60 s a sleeping start would take

  orch::JobStatus status;
  do {
    status = launcher.poll(*id);
  } while (status.state == orch::JobStatus::State::Running);
  EXPECT_EQ(status.state, orch::JobStatus::State::Succeeded) << status.detail;
  EXPECT_NE(launcher.poll(*id).detail.find("unknown job id"), std::string::npos);
}

TEST(SubprocessLauncher, ArmedFaultDeadlineFiresAtPollAndKillsTheWorker) {
  if (!orch::SubprocessLauncher::supported()) GTEST_SKIP();
  const TempDir dir("dwarn_orch_armfire");
  // A "worker" guaranteed to outlive the deadline, so the kill is what
  // ends it — deterministic, unlike racing a real shard against a delay.
  const std::string script = dir.path() + "/slow_worker.sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nsleep 30\n";
  }
  std::filesystem::permissions(script, std::filesystem::perms::owner_all);

  orch::DispatchPlan plan = orch::make_dispatch_plan(fixture_request(1, 1, dir.path()));
  orch::WorkUnit unit = plan.units[0];
  unit.inject_fault = true;

  orch::SubprocessLauncher launcher(script, /*fault_delay_ms=*/20);
  const auto id = launcher.start(unit);
  ASSERT_TRUE(id.has_value());
  orch::JobStatus status;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  do {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "armed kill never fired";
    std::this_thread::sleep_for(5ms);
    status = launcher.poll(*id);
  } while (status.state == orch::JobStatus::State::Running);
  EXPECT_EQ(status.state, orch::JobStatus::State::Failed);
  EXPECT_NE(status.detail.find("killed by signal"), std::string::npos) << status.detail;
}

}  // namespace
}  // namespace dwarn
