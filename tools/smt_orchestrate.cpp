// smt_orchestrate — fault-tolerant driver for sharded experiment sweeps.
//
//   run     expand a registered grid into a shard DispatchPlan, execute
//           every shard over a pool of workers (subprocess pool re-execing
//           `smt_shard run` by default; --backend thread for an
//           in-process pool; --backend remote to dispatch over a host
//           fleet from --hosts/SMT_ORCH_HOSTS via a pluggable exec
//           template — see docs/orchestrator.md), retry failed shards
//           with exponential
//           backoff, then merge the fragments into the canonical
//           BENCH_<grid>.json — refusing any fingerprint or partition
//           violation. --dry-run prints the dispatch plan as JSON and
//           exits without running anything. Every run journals its
//           identity and per-shard attempt history to
//           SWEEP_<grid>.state.json (atomic rewrites), so a driver
//           killed mid-sweep leaves a resumable record.
//   resume  (= run --resume) continue a sweep whose driver died: load and
//           validate the sweep-state journal against this invocation's
//           plan, re-validate every fragment on disk with the merge
//           stage's own checks, dispatch only the shards still missing,
//           and merge. Refuses — with a diagnostic and exit 1 — a journal
//           that is corrupt or records a different sweep (fingerprint,
//           shard count, seeds, strategy). The resumed merge is
//           byte-identical to an uninterrupted run's.
//   matrix  render the shard plan as a GitHub Actions matrix: one compact
//           `{"include": [...]}` line with shard index, `smt_shard run`
//           arguments, environment, fragment filename and grid
//           fingerprint per leg — the CI workflow fans out with
//           `fromJSON` instead of hand-written shard jobs.
//   status  inspect an out-dir against the plan: which fragments exist
//           and validate, which are missing or stale, whether the merged
//           snapshot is present — plus, when workers streamed progress
//           events (SMT_TELEM=1), each shard's live run count, attempt
//           number, throughput and ETA. --json emits the same status as
//           one JSON object; --follow re-renders the table every poll
//           interval until the sweep completes (or --timeout-sec). Exits
//           nonzero unless the sweep is fully complete, so it doubles as
//           a pipeline gate.
//
// The orchestrated result is bitwise-identical to the single-process
// `smt_shard run --bench <grid>` of the same grid and environment — the
// sharding contract (docs/sharding.md) survives scheduling, worker
// crashes and retries (docs/orchestrator.md).
//
// Fault-injection hooks for CI and tests (also via SMT_ORCH_FAULT_KILL /
// SMT_ORCH_FAULT_ATTEMPT / SMT_ORCH_FAULT_DRIVER_KILL): --fault-kill K
// kills shard K's first attempt mid-run, exercising the retry path;
// --fault-driver-kill N SIGKILLs this driver after N shards complete,
// exercising the resume path.
//
// Exit codes: 0 ok, 1 sweep or merge failure, 2 usage or I/O error.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trajectory.hpp"
#include "common/env.hpp"
#include "engine/grid_registry.hpp"
#include "engine/result_store.hpp"
#include "engine/shard.hpp"
#include "common/log.hpp"
#include "orchestrator/launcher.hpp"
#include "orchestrator/merge_stage.hpp"
#include "orchestrator/remote_launcher.hpp"
#include "orchestrator/scheduler.hpp"
#include "orchestrator/sweep_state.hpp"
#include "orchestrator/work_unit.hpp"
#include "sim/report.hpp"
#include "telemetry/phase_trace.hpp"
#include "telemetry/progress.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_cache.hpp"

namespace {

using namespace dwarn;

int usage(const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "smt_orchestrate: %s\n\n", error);
  std::string grids;
  for (const std::string& g : registered_grids()) {
    grids += grids.empty() ? g : "|" + g;
  }
  std::fprintf(stderr,
               "usage:\n"
               "  smt_orchestrate run    --grid <%s>\n"
               "      [--shards N] [--jobs J] [--retries R] [--seeds S]\n"
               "      [--strategy contiguous|strided] [--out-dir DIR]\n"
               "      [--backend subprocess|thread|remote] [--smt-shard PATH]\n"
               "      [--hosts H1[:S1],H2[:S2],...] [--exec-template T]\n"
               "      [--remote-shard PATH]\n"
               "      [--timeout-sec T] [--backoff-ms B] [--dry-run] [--resume]\n"
               "      [--fault-kill K] [--fault-attempt A] [--fault-driver-kill N]\n"
               "  smt_orchestrate resume --grid <%s> [same flags as run]\n"
               "  smt_orchestrate matrix --grid <%s>\n"
               "      [--shards N] [--seeds S] [--strategy contiguous|strided]\n"
               "      [--out-dir DIR]\n"
               "  smt_orchestrate status --grid <%s>\n"
               "      [--shards N] [--seeds S] [--strategy contiguous|strided]\n"
               "      [--out-dir DIR] [--json] [--follow] [--poll-ms P]\n"
               "      [--timeout-sec T]\n"
               "\n"
               "run drives every shard of the grid to a merged, validated\n"
               "BENCH_<grid>.json: J workers in flight, failed shards retried R\n"
               "times with exponential backoff, fragments merged only when they\n"
               "form a clean partition with the plan's grid fingerprint. Attempt\n"
               "history is journaled to SWEEP_<grid>.state.json as the sweep\n"
               "runs. resume (or run --resume) continues after a driver crash:\n"
               "shards whose fragment already validates are skipped, only the\n"
               "missing ones dispatch, and the merge is byte-identical to an\n"
               "uninterrupted run. A corrupt journal, or one recording a\n"
               "different sweep, is refused. --dry-run prints the dispatch plan\n"
               "as JSON. --backend remote dispatches shards to the hosts in\n"
               "--hosts (or SMT_ORCH_HOSTS) through --exec-template (default\n"
               "'%s'; SMT_ORCH_EXEC_TEMPLATE),\n"
               "running --remote-shard (default: the local smt_shard path;\n"
               "SMT_ORCH_REMOTE_SHARD) on each host and streaming fragments\n"
               "back over the connection. matrix prints the plan as a GitHub\n"
               "Actions `{\"include\": [...]}` object for fromJSON fan-out.\n"
               "status reports which fragments of the plan exist,\n"
               "validate, or are stale — with live per-shard progress when\n"
               "workers stream it (SMT_TELEM=1); it exits 0 only when every\n"
               "fragment is ok and the merged snapshot exists. --json prints\n"
               "the same status as JSON; --follow re-renders every --poll-ms\n"
               "(or SMT_ORCH_POLL_MS) until complete or --timeout-sec elapses.\n",
               grids.c_str(), grids.c_str(), grids.c_str(), grids.c_str(),
               std::string(orch::kDefaultExecTemplate).c_str());
  return 2;
}

struct Options {
  std::string grid;
  orch::PlanRequest plan;
  orch::SchedulerOptions sched;
  std::string backend = "subprocess";
  std::string smt_shard;  ///< worker binary; "" = next to this binary
  // Remote backend (--backend remote). Flags win over SMT_ORCH_HOSTS /
  // SMT_ORCH_EXEC_TEMPLATE / SMT_ORCH_REMOTE_SHARD.
  std::string hosts_text;          ///< "host[:slots],host[:slots],..."
  std::string exec_template_text;  ///< "" = kDefaultExecTemplate
  std::string remote_shard;        ///< smt_shard path on the hosts; "" = local path
  bool dry_run = false;
  bool resume = false;  ///< `resume` subcommand or run --resume
  bool status_json = false;    ///< status --json
  bool status_follow = false;  ///< status --follow
  std::chrono::seconds status_timeout{0};  ///< --follow cap; 0 = none
};

/// The smt_shard binary next to this executable — the layout every CMake
/// build produces. /proc/self/exe beats argv[0] (which may be bare).
std::string default_smt_shard_path(const char* argv0) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (ec) self = fs::path(argv0 == nullptr ? "" : argv0);
  fs::path candidate = self.parent_path() / "smt_shard";
  return candidate.string();
}

int run_sweep(const Options& opt, const char* argv0) {
  std::string smt_shard = opt.smt_shard;
  if (smt_shard.empty()) smt_shard = default_smt_shard_path(argv0);

  orch::PlanRequest plan_req = opt.plan;
  orch::SchedulerOptions sched = opt.sched;

  // The remote fleet is parsed before planning: its slot counts bound the
  // in-flight jobs, and the per-worker env split divides per *host* (a
  // host runs at most its own slots concurrently), not across the fleet.
  std::optional<orch::RemoteLauncher::Options> remote;
  if (opt.backend == "remote") {
    std::string err;
    const auto hosts = orch::parse_hosts(opt.hosts_text, err);
    if (!hosts) {
      std::fprintf(stderr, "smt_orchestrate: --hosts/SMT_ORCH_HOSTS: %s\n", err.c_str());
      return 2;
    }
    const std::string tmpl_text = opt.exec_template_text.empty()
                                      ? std::string(orch::kDefaultExecTemplate)
                                      : opt.exec_template_text;
    const auto tmpl = orch::parse_exec_template(tmpl_text, err);
    if (!tmpl) {
      std::fprintf(stderr, "smt_orchestrate: --exec-template/SMT_ORCH_EXEC_TEMPLATE: %s\n",
                   err.c_str());
      return 2;
    }
    remote.emplace();
    remote->hosts = *hosts;
    remote->exec = *tmpl;
    remote->remote_shard = opt.remote_shard.empty() ? smt_shard : opt.remote_shard;
    remote->fail_limit =
        static_cast<int>(env_u64("SMT_ORCH_HOST_FAIL_LIMIT", 1, 1000).value_or(2));

    std::size_t total_slots = 0;
    std::size_t widest_host = 1;
    for (const orch::HostSpec& h : remote->hosts) {
      total_slots += h.slots;
      widest_host = std::max(widest_host, h.slots);
    }
    sched.jobs = std::min(sched.jobs, total_slots);
    plan_req.jobs = std::min(plan_req.jobs, widest_host);
  }

  const orch::DispatchPlan plan = orch::make_dispatch_plan(plan_req);

  if (opt.dry_run) {
    std::cout << orch::dispatch_plan_json(
        plan, opt.backend, opt.backend == "subprocess" ? smt_shard : "");
    return 0;
  }

  if (!plan.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(plan.out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "smt_orchestrate: cannot create '%s': %s\n",
                   plan.out_dir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  // The sweep-state journal: identity check + attempt history, rewritten
  // atomically on every recorded event. The fragments on disk — not this
  // file — are the ground truth for which shards are done.
  const std::string state_path = plan.out_dir + orch::sweep_state_filename(plan.bench);
  orch::SweepState state;
  std::optional<orch::ResumeSeed> seed;
  if (opt.resume) {
    std::string load_error;
    std::optional<orch::SweepState> prior = orch::load_sweep_state(state_path, load_error);
    if (!prior) {
      if (load_error.empty()) {
        std::fprintf(stderr,
                     "smt_orchestrate: nothing to resume: no sweep state at '%s' "
                     "(run without --resume to start fresh)\n",
                     state_path.c_str());
      } else {
        std::fprintf(stderr, "smt_orchestrate: cannot resume: %s\n", load_error.c_str());
      }
      return 1;
    }
    const std::string mismatch = orch::validate_sweep_state(*prior, plan);
    if (!mismatch.empty()) {
      std::fprintf(stderr, "smt_orchestrate: cannot resume: %s\n", mismatch.c_str());
      return 1;
    }
    // Fragments are re-validated with the merge stage's own checks; the
    // journal's "done" claims are never trusted on their own.
    const orch::ResumeScan scan = orch::scan_fragments(plan);
    for (const std::string& note : scan.notes) log_info("orch", "%s", note.c_str());
    state = *prior;
    seed = orch::seed_resume(scan, state);
    log_info("orch", "resume: %zu/%zu shard fragment(s) already valid on disk",
             seed->done_shards.size(), plan.shards);
  } else {
    state = orch::make_initial_state(plan);
  }
  std::unique_ptr<orch::Launcher> launcher;
  if (opt.backend == "remote") {
    if (!orch::RemoteLauncher::supported()) {
      std::fprintf(stderr,
                   "smt_orchestrate: no fork/exec on this platform; "
                   "--backend remote is unavailable\n");
      return 2;
    }
    launcher = std::make_unique<orch::RemoteLauncher>(std::move(*remote));
  } else if (opt.backend == "subprocess") {
    if (!orch::SubprocessLauncher::supported()) {
      std::fprintf(stderr,
                   "smt_orchestrate: no fork/exec on this platform; "
                   "falling back to --backend thread\n");
      launcher = std::make_unique<orch::InProcessLauncher>();
    } else {
      std::error_code ec;
      if (!std::filesystem::exists(smt_shard, ec)) {
        std::fprintf(stderr,
                     "smt_orchestrate: worker binary '%s' not found "
                     "(build smt_shard or pass --smt-shard)\n",
                     smt_shard.c_str());
        return 2;
      }
      const std::size_t fault_delay =
          env_u64("SMT_ORCH_FAULT_DELAY_MS", 0, 60'000).value_or(0);
      launcher = std::make_unique<orch::SubprocessLauncher>(smt_shard, fault_delay);
    }
  } else {
    launcher = std::make_unique<orch::InProcessLauncher>();
  }

  // The journal records which backend drove the sweep — informational,
  // like jobs: resume may switch backends, and the latest invocation wins.
  state.backend = std::string(launcher->name());
  orch::SweepJournal journal(state_path, std::move(state));
  journal.write();

  std::cout << "grid " << plan.bench << ": " << plan.grid_size << " runs, fingerprint "
            << plan.fingerprint << ", " << plan.shards << " shard"
            << (plan.shards == 1 ? "" : "s") << " over " << sched.jobs << " "
            << launcher->name() << " worker" << (sched.jobs == 1 ? "" : "s")
            << ", trace cache " << trace_cache_mode_string() << "\n";

  // SMT_TELEM=1: the orchestrator records its own phase trace (dispatch,
  // merge; with --backend thread, the in-process workers' simulate and
  // serialize spans land here too). Subprocess workers always run with
  // --shard, so their trace files are shard-qualified and never collide
  // with this unqualified one.
  const bool telem_on = telem::telemetry_enabled();
  if (telem_on) {
    const std::filesystem::path dir(plan.out_dir);
    telem::PhaseTracer::shared().enable((dir / telem::trace_filename(plan.bench)).string());
    if (opt.backend == "thread") {
      telem::IntervalSink::shared().open(
          (dir / telem::intervals_filename(plan.bench)).string());
    }
  }
  const auto finish = [&](int rc) {
    if (telem_on) {
      telem::IntervalSink::shared().close();
      telem::PhaseTracer::shared().flush();
    }
    return rc;
  };

  orch::SweepOutcome sweep;
  {
    telem::PhaseSpan span("dispatch", "{\"shards\":" + std::to_string(plan.shards) + "}");
    sweep = orch::Scheduler(*launcher, sched)
                .run(plan, seed ? &*seed : nullptr, &journal);
  }
  if (!sweep.ok) {
    for (const orch::ShardOutcome& s : sweep.shards) {
      if (s.state != orch::ShardState::Done) {
        std::fprintf(stderr, "smt_orchestrate: shard %zu/%zu %s after %d attempt%s%s%s\n",
                     s.shard, plan.shards, std::string(to_string(s.state)).c_str(),
                     s.attempts, s.attempts == 1 ? "" : "s",
                     s.error.empty() ? "" : ": ", s.error.c_str());
      }
    }
    return finish(1);
  }

  const orch::MergeOutcome merged = orch::merge_sweep(plan);
  if (!merged.ok) {
    std::fprintf(stderr, "smt_orchestrate: merge failed: %s\n", merged.error.c_str());
    return finish(1);
  }
  std::cout << "[" << merged.fragments << " fragments, " << merged.runs << " runs, "
            << sweep.retries_used << " retr" << (sweep.retries_used == 1 ? "y" : "ies")
            << " -> " << merged.merged_path << "]\n";
  return finish(0);
}

// ---- status plane ------------------------------------------------------------

/// One shard's snapshot-of-the-moment: fragment validity plus whatever the
/// worker streamed into its progress file (absent unless SMT_TELEM=1).
struct ShardStatus {
  std::size_t index = 0;
  std::string fragment;
  std::string state;  ///< "missing" | "stale: ..." | "ok (N runs)"
  bool ok = false;
  bool has_progress = false;
  int attempts = 0;         ///< number of "start" events (append-mode file)
  int journal_attempts = 0; ///< cumulative attempts per the sweep-state journal
  /// Journaled host attribution: hosts[i] ran attributed attempt i+1
  /// (remote backend only; empty for local sweeps).
  std::vector<std::string> hosts;
  std::size_t done = 0;     ///< runs finished in the latest attempt
  std::size_t total = 0;
  std::uint64_t insts = 0;  ///< committed instructions so far
  double wall_ms = 0.0;     ///< latest event's wall clock
  bool worker_done = false; ///< latest attempt reached its "done" event
};

struct SweepStatus {
  std::string bench;
  std::size_t grid_size = 0;
  std::string fingerprint;
  std::vector<ShardStatus> shards;
  std::size_t complete = 0;
  std::string merged_path;
  bool merged_present = false;
  std::string state_path;
  bool state_present = false;  ///< a sweep-state journal loaded and matched
  std::string backend;         ///< journaled launcher backend ("" if unrecorded)

  [[nodiscard]] bool all_done() const {
    return complete == shards.size() && merged_present;
  }
};

/// Fold a shard's progress events into its status. Events replay in file
/// order; a retry's "start" resets the per-attempt fields.
void apply_progress(ShardStatus& s, const std::vector<telem::ProgressEvent>& events) {
  for (const telem::ProgressEvent& ev : events) {
    s.has_progress = true;
    if (ev.ev == "start") {
      ++s.attempts;
      s.done = 0;
      s.insts = 0;
      s.total = ev.total;
      s.worker_done = false;
    } else {
      s.done = ev.done;
      s.total = ev.total;
      s.insts = ev.insts;
      if (ev.ev == "done") s.worker_done = true;
    }
    s.wall_ms = ev.wall_ms;
  }
}

/// One pass over the out-dir: every renderer (table, --json, --follow)
/// reads the same collected struct, so they can never drift apart.
SweepStatus collect_status(const orch::DispatchPlan& plan) {
  SweepStatus sweep;
  sweep.bench = plan.bench;
  sweep.grid_size = plan.grid_size;
  sweep.fingerprint = plan.fingerprint;
  sweep.merged_path = plan.merged_path();
  sweep.state_path = plan.out_dir + orch::sweep_state_filename(plan.bench);
  // The journal is advisory here (attempt history for shards whose
  // workers never streamed progress); a journal for a *different* sweep
  // is ignored rather than reported as this plan's history.
  std::optional<orch::SweepState> journal;
  {
    std::string err;
    journal = orch::load_sweep_state(sweep.state_path, err);
    if (journal && !orch::validate_sweep_state(*journal, plan).empty()) journal.reset();
    sweep.state_present = journal.has_value();
    if (journal) sweep.backend = journal->backend;
  }
  const std::filesystem::path dir(plan.out_dir);
  for (const orch::WorkUnit& unit : plan.units) {
    ShardStatus s;
    s.index = unit.shard.index;
    s.fragment = unit.fragment_path();
    // The merge stage's own validation — status can never call a
    // fragment "ok" that the merge (or a resume) would refuse.
    const orch::FragmentCheck check = orch::check_fragment_file(unit, plan.fingerprint);
    if (check.ok) {
      s.state = "ok (" + std::to_string(check.runs) + " runs)";
      s.ok = true;
      ++sweep.complete;
    } else {
      s.state = check.error;
    }
    if (journal && unit.shard.index <= journal->history.size()) {
      s.journal_attempts = journal->history[unit.shard.index - 1].attempts;
      s.hosts = journal->history[unit.shard.index - 1].hosts;
    }
    apply_progress(s, telem::read_progress(
                          (dir / telem::progress_filename(plan.bench, unit.shard.index,
                                                          plan.shards))
                              .string()));
    sweep.shards.push_back(std::move(s));
  }
  sweep.merged_present = std::filesystem::exists(sweep.merged_path);
  return sweep;
}

/// "1.23 Mi/s" committed-instruction throughput of the current attempt.
std::string fmt_throughput(const ShardStatus& s) {
  if (!s.has_progress || s.wall_ms <= 0.0 || s.insts == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f Mi/s",
                static_cast<double>(s.insts) / (s.wall_ms * 1000.0));
  return buf;
}

/// Naive per-run extrapolation of the time left in the current attempt.
std::string fmt_eta(const ShardStatus& s) {
  if (!s.has_progress || s.worker_done || s.done == 0 || s.total <= s.done) {
    return s.has_progress && (s.worker_done || (s.total > 0 && s.done == s.total))
               ? "done"
               : "-";
  }
  const double per_run_ms = s.wall_ms / static_cast<double>(s.done);
  const double eta_s = per_run_ms * static_cast<double>(s.total - s.done) / 1000.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0fs", eta_s);
  return buf;
}

void render_status_table(const SweepStatus& sweep, std::ostream& os) {
  os << "grid " << sweep.bench << ": " << sweep.grid_size << " runs, fingerprint "
     << sweep.fingerprint
     << (sweep.backend.empty() ? "" : ", backend " + sweep.backend) << "\n";
  ReportTable table(
      {"shard", "fragment", "state", "progress", "attempt", "host", "rate", "eta"});
  for (const ShardStatus& s : sweep.shards) {
    table.add_row({std::to_string(s.index) + "/" + std::to_string(sweep.shards.size()),
                   s.fragment, s.state,
                   s.has_progress
                       ? std::to_string(s.done) + "/" + std::to_string(s.total)
                       : "-",
                   // Without streamed progress the sweep-state journal still
                   // knows how many attempts the shard has consumed.
                   s.has_progress         ? std::to_string(s.attempts)
                   : s.journal_attempts > 0 ? std::to_string(s.journal_attempts)
                                            : "-",
                   // The latest attributed host — the full per-attempt
                   // history lives in --json.
                   s.hosts.empty() ? "-" : s.hosts.back(),
                   fmt_throughput(s), fmt_eta(s)});
  }
  table.print(os);
  os << sweep.complete << "/" << sweep.shards.size()
     << " fragments complete; merged snapshot " << sweep.merged_path << " "
     << (sweep.merged_present ? "present" : "absent") << "\n";
}

std::string render_status_json(const SweepStatus& sweep) {
  std::string out = "{\n";
  out += "  \"grid\": \"" + json_escape(sweep.bench) + "\",\n";
  out += "  \"grid_size\": " + std::to_string(sweep.grid_size) + ",\n";
  out += "  \"fingerprint\": \"" + json_escape(sweep.fingerprint) + "\",\n";
  out += "  \"complete\": " + std::to_string(sweep.complete) + ",\n";
  out += "  \"merged\": {\"path\": \"" + json_escape(sweep.merged_path) +
         "\", \"present\": " + (sweep.merged_present ? "true" : "false") + "},\n";
  out += "  \"sweep_state\": {\"path\": \"" + json_escape(sweep.state_path) +
         "\", \"present\": " + (sweep.state_present ? "true" : "false") + "},\n";
  if (!sweep.backend.empty()) {
    out += "  \"backend\": \"" + json_escape(sweep.backend) + "\",\n";
  }
  out += "  \"shards\": [";
  for (std::size_t i = 0; i < sweep.shards.size(); ++i) {
    const ShardStatus& s = sweep.shards[i];
    out += i == 0 ? "" : ",";
    out += "\n    {\"index\": " + std::to_string(s.index) + ", \"fragment\": \"" +
           json_escape(s.fragment) + "\", \"state\": \"" + json_escape(s.state) +
           "\", \"ok\": " + (s.ok ? "true" : "false");
    if (s.journal_attempts > 0) {
      out += ", \"journaled_attempts\": " + std::to_string(s.journal_attempts);
    }
    if (!s.hosts.empty()) {
      out += ", \"hosts\": [";
      for (std::size_t h = 0; h < s.hosts.size(); ++h) {
        out += (h == 0 ? "" : ", ") + ("\"" + json_escape(s.hosts[h]) + "\"");
      }
      out += "]";
    }
    if (s.has_progress) {
      char wall[32];
      std::snprintf(wall, sizeof wall, "%.1f", s.wall_ms);
      out += ", \"attempts\": " + std::to_string(s.attempts) +
             ", \"done\": " + std::to_string(s.done) +
             ", \"total\": " + std::to_string(s.total) +
             ", \"insts\": " + std::to_string(s.insts) + ", \"wall_ms\": " + wall +
             std::string(", \"worker_done\": ") + (s.worker_done ? "true" : "false");
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

int run_status(const Options& opt) {
  const orch::DispatchPlan plan = orch::make_dispatch_plan(opt.plan);
  const auto deadline = std::chrono::steady_clock::now() + opt.status_timeout;
  for (;;) {
    const SweepStatus sweep = collect_status(plan);
    if (opt.status_json) {
      std::cout << render_status_json(sweep);
    } else {
      render_status_table(sweep, std::cout);
    }
    // Usable as a gate: nonzero unless the sweep is fully done, so a
    // missing fragment or absent merge fails a pipeline step instead of
    // only coloring a table a human may never read.
    if (!opt.status_follow || sweep.all_done()) return sweep.all_done() ? 0 : 1;
    if (opt.status_timeout.count() > 0 && std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "smt_orchestrate: --follow timed out before completion\n");
      return 1;
    }
    std::this_thread::sleep_for(opt.sched.poll_interval);
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& cmd = args[0];
  if (cmd != "run" && cmd != "resume" && cmd != "status" && cmd != "matrix") {
    return usage(("unknown command '" + cmd + "'").c_str());
  }
  // `resume` is `run --resume` under a clearer name; every run flag applies.
  const bool is_run = cmd == "run" || cmd == "resume";

  Options opt;
  opt.resume = cmd == "resume";
  opt.sched.apply_env();
  try {
    for (std::size_t i = 1; i < args.size(); ++i) {
      const std::string& a = args[i];
      const auto value = [&]() -> const std::string* {
        return i + 1 < args.size() ? &args[++i] : nullptr;
      };
      const auto size_value = [&](const char* flag, std::size_t min, std::size_t max)
          -> std::optional<std::size_t> {
        const auto* v = value();
        const auto n = v ? parse_decimal_size(*v, max) : std::nullopt;
        if (!n || *n < min) {
          std::fprintf(stderr, "smt_orchestrate: %s must be an integer in [%zu, %zu]\n",
                       flag, min, max);
          return std::nullopt;
        }
        return n;
      };
      if (a == "--grid" || a == "--bench") {
        const auto* v = value();
        if (v == nullptr) return usage("--grid needs a value");
        opt.grid = *v;
      } else if (a == "--shards") {
        const auto n = size_value("--shards", 1, kMaxShards);
        if (!n) return 2;
        opt.plan.shards = *n;
      } else if (a == "--jobs" && is_run) {
        const auto n = size_value("--jobs", 1, 4096);
        if (!n) return 2;
        opt.plan.jobs = *n;
        opt.sched.jobs = *n;
      } else if (a == "--retries" && is_run) {
        const auto n = size_value("--retries", 0, 100);
        if (!n) return 2;
        opt.sched.retries = static_cast<int>(*n);
      } else if (a == "--seeds") {
        const auto n = size_value("--seeds", 1, 64);
        if (!n) return 2;
        opt.plan.seeds = *n;
      } else if (a == "--strategy") {
        const auto* v = value();
        const auto s = v ? shard_strategy_from_name(*v) : std::nullopt;
        if (!s) return usage("--strategy must be contiguous or strided");
        opt.plan.strategy = *s;
      } else if (a == "--out-dir") {
        const auto* v = value();
        if (v == nullptr) return usage("--out-dir needs a value");
        opt.plan.out_dir = *v;
      } else if (a == "--backend" && is_run) {
        const auto* v = value();
        if (v == nullptr || (*v != "subprocess" && *v != "thread" && *v != "remote")) {
          return usage("--backend must be subprocess, thread or remote");
        }
        opt.backend = *v;
      } else if (a == "--hosts" && is_run) {
        const auto* v = value();
        if (v == nullptr) return usage("--hosts needs a value");
        opt.hosts_text = *v;
      } else if (a == "--exec-template" && is_run) {
        const auto* v = value();
        if (v == nullptr) return usage("--exec-template needs a value");
        opt.exec_template_text = *v;
      } else if (a == "--remote-shard" && is_run) {
        const auto* v = value();
        if (v == nullptr) return usage("--remote-shard needs a path");
        opt.remote_shard = *v;
      } else if (a == "--smt-shard" && is_run) {
        const auto* v = value();
        if (v == nullptr) return usage("--smt-shard needs a path");
        opt.smt_shard = *v;
      } else if (a == "--timeout-sec") {
        const auto n = size_value("--timeout-sec", 0, 86'400);
        if (!n) return 2;
        // run: per-attempt wall cap; status --follow: total follow cap.
        if (is_run) {
          opt.sched.timeout = std::chrono::seconds(*n);
        } else {
          opt.status_timeout = std::chrono::seconds(*n);
        }
      } else if (a == "--poll-ms") {
        const auto n = size_value("--poll-ms", 1, 60'000);
        if (!n) return 2;
        opt.sched.poll_interval = std::chrono::milliseconds(*n);
      } else if (a == "--json" && cmd == "status") {
        opt.status_json = true;
      } else if (a == "--follow" && cmd == "status") {
        opt.status_follow = true;
      } else if (a == "--backoff-ms" && is_run) {
        const auto n = size_value("--backoff-ms", 0, 600'000);
        if (!n) return 2;
        opt.sched.backoff_base = std::chrono::milliseconds(*n);
      } else if (a == "--dry-run" && is_run) {
        opt.dry_run = true;
      } else if (a == "--resume" && is_run) {
        opt.resume = true;
      } else if (a == "--fault-kill" && is_run) {
        const auto n = size_value("--fault-kill", 1, kMaxShards);
        if (!n) return 2;
        opt.sched.fault_kill_shard = *n;
      } else if (a == "--fault-attempt" && is_run) {
        const auto n = size_value("--fault-attempt", 1, 1000);
        if (!n) return 2;
        opt.sched.fault_kill_attempt = static_cast<int>(*n);
      } else if (a == "--fault-driver-kill" && is_run) {
        const auto n = size_value("--fault-driver-kill", 1, kMaxShards);
        if (!n) return 2;
        opt.sched.fault_driver_kill_after = *n;
      } else {
        return usage(("unknown option '" + a + "' for " + cmd).c_str());
      }
    }

    if (opt.grid.empty()) return usage((cmd + " needs --grid").c_str());
    if (!is_registered_grid(opt.grid)) {
      return usage(("unknown --grid '" + opt.grid + "'").c_str());
    }
    opt.plan.bench = opt.grid;
    if (cmd == "matrix") {
      std::cout << orch::matrix_json(orch::make_dispatch_plan(opt.plan));
      return 0;
    }
    // More job slots than shards would only shrink each worker's thread
    // split for slots that can never fill.
    if (opt.plan.shards < opt.plan.jobs) {
      opt.plan.jobs = opt.plan.shards;
      opt.sched.jobs = opt.plan.shards;
    }
    // Remote fleet configuration falls back to the environment so CI and
    // wrapper scripts can configure a fleet without rewriting command lines.
    if (opt.backend == "remote") {
      const auto env_fallback = [](std::string& target, const char* name) {
        if (!target.empty()) return;
        if (const char* v = std::getenv(name)) target = v;
      };
      env_fallback(opt.hosts_text, "SMT_ORCH_HOSTS");
      env_fallback(opt.exec_template_text, "SMT_ORCH_EXEC_TEMPLATE");
      env_fallback(opt.remote_shard, "SMT_ORCH_REMOTE_SHARD");
    }
    return is_run ? run_sweep(opt, argv[0]) : run_status(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smt_orchestrate: %s\n", e.what());
    return 2;
  }
}
