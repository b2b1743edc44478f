#include "sim/simulator.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/env.hpp"
#include "common/rng.hpp"
#include "core/policy_dispatch.hpp"
#include "telemetry/counter_sampler.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_cache.hpp"
#include "trace/trace_stream.hpp"

namespace dwarn {

namespace {

constexpr std::uint64_t kMaxInsts = 1'000'000'000'000ull;  // 1T, far past any run

/// Parse a decimal window count out of [begin, end); nullopt on anything
/// that is not a plain digit string in [min, kMaxInsts].
std::optional<std::uint64_t> parse_window(const char* begin, const char* end,
                                          std::uint64_t min) {
  if (begin == end || end - begin > 15) return std::nullopt;
  std::uint64_t v = 0;
  for (const char* p = begin; p != end; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  return v >= min && v <= kMaxInsts ? std::optional<std::uint64_t>(v) : std::nullopt;
}

/// SMT_BENCH_WINDOWS: "<warmup>:<measure>" or "<measure>" (warm-up =
/// measure / 4). One knob instead of the SMT_WARMUP_INSTS/SMT_SIM_INSTS
/// pair CI used to repeat per step; malformed values warn and are ignored.
void apply_bench_windows(RunLength& len) {
  const char* v = std::getenv("SMT_BENCH_WINDOWS");
  if (v == nullptr) return;
  const char* colon = v;
  while (*colon != '\0' && *colon != ':') ++colon;
  std::optional<std::uint64_t> warmup;
  std::optional<std::uint64_t> measure;
  if (*colon == ':') {
    warmup = parse_window(v, colon, /*min=*/0);  // "0:<measure>" skips warm-up
    measure = parse_window(colon + 1, colon + 1 + std::strlen(colon + 1), /*min=*/1);
  } else {
    measure = parse_window(v, colon, /*min=*/1);
    if (measure) warmup = *measure / 4;
  }
  if (!warmup || !measure) {
    std::fprintf(stderr,
                 "[dwarn] warning: SMT_BENCH_WINDOWS='%s' is not '<warmup>:<measure>' "
                 "or '<measure>'; using defaults\n",
                 v);
    return;
  }
  len.warmup_insts = *warmup;
  len.measure_insts = *measure;
}

}  // namespace

RunLength RunLength::from_env() {
  // Invalid or out-of-range values warn (inside env_u64 / the windows
  // parser) and keep the defaults: a typo in a sweep script must not wrap
  // to a garbage window. The combined knob applies first, the specific
  // variables override it field-by-field.
  RunLength len;
  apply_bench_windows(len);
  if (const auto v = env_u64("SMT_SIM_INSTS", 1, kMaxInsts)) {
    len.measure_insts = *v;
  }
  if (const auto v = env_u64("SMT_WARMUP_INSTS", 0, kMaxInsts)) {
    len.warmup_insts = *v;
  }
  return len;
}

std::uint64_t thread_stream_seed(const WorkloadSpec& workload, std::size_t t,
                                 std::uint64_t seed) {
  DWARN_CHECK(t < workload.num_threads());
  const Benchmark b = workload.benchmarks[t];
  std::size_t instance = 0;
  for (std::size_t u = 0; u < t; ++u) {
    if (workload.benchmarks[u] == b) ++instance;
  }
  return derive_seed(seed, static_cast<std::uint64_t>(b) + 1, instance + 1);
}

std::uint64_t trace_window_insts(const RunLength& len) {
  // Slack past the committed windows: the front end runs ahead of commit
  // by at most the ROB + front-end buffering, far below 8K on every
  // machine preset. Overshooting costs a ReplayStream continuation (still
  // bit-exact), never an error.
  constexpr std::uint64_t kSlackInsts = 8192;
  return len.warmup_insts + len.measure_insts + kSlackInsts;
}

std::vector<std::shared_ptr<MaterializedTrace>> acquire_run_traces(
    const WorkloadSpec& workload, std::uint64_t seed, std::uint64_t insts) {
  std::vector<std::shared_ptr<MaterializedTrace>> traces;
  traces.reserve(workload.num_threads());
  for (std::size_t t = 0; t < workload.num_threads(); ++t) {
    traces.push_back(TraceCache::shared().acquire(profile_of(workload.benchmarks[t]),
                                                  static_cast<ThreadId>(t),
                                                  thread_stream_seed(workload, t, seed),
                                                  insts));
  }
  return traces;
}

Simulator::Simulator(const MachineConfig& machine, const WorkloadSpec& workload,
                     PolicyKind policy, const PolicyParams& params, std::uint64_t seed,
                     std::uint64_t trace_insts_hint)
    : machine_(machine), workload_(workload) {
  DWARN_CHECK(workload_.num_threads() >= 1);
  machine_.core.num_threads = workload_.num_threads();

  mem_ = std::make_unique<MemoryHierarchy>(machine_.mem, workload_.num_threads(), stats_);
  bpred_ = std::make_unique<FrontEndPredictor>(machine_.bpred, workload_.num_threads(),
                                               stats_);

  // Shared traces: with a demand hint and SMT_TRACE_CACHE on, threads
  // replay shared MaterializedTrace buffers; the instruction sequences are
  // bit-identical to on-demand generation either way.
  std::vector<std::shared_ptr<MaterializedTrace>> traces;
  if (trace_insts_hint > 0 && trace_cache_enabled()) {
    traces = acquire_run_traces(workload_, seed, trace_insts_hint);
  }

  std::vector<ThreadProgram> programs;
  programs.reserve(workload_.num_threads());
  for (std::size_t t = 0; t < workload_.num_threads(); ++t) {
    const Benchmark b = workload_.benchmarks[t];
    const std::uint64_t tseed = thread_stream_seed(workload_, t, seed);
    const auto tid = static_cast<ThreadId>(t);
    if (!traces.empty()) {
      streams_.push_back(std::make_unique<ReplayStream>(std::move(traces[t])));
    } else {
      streams_.push_back(std::make_unique<TraceStream>(profile_of(b), tid, tseed));
    }
    wrongpaths_.push_back(
        std::make_unique<WrongPathSupplier>(profile_of(b), tid, tseed));
    programs.push_back(ThreadProgram{streams_.back().get(), wrongpaths_.back().get()});
  }

  core_ = std::make_unique<SmtCore>(machine_.core, *mem_, *bpred_, std::move(programs),
                                    stats_);
  // Telemetry: attach before policy binding so set_policy_typed selects
  // the tick-loop variant with the sampling hook compiled in.
  if (telem::telemetry_enabled()) {
    sampler_ = std::make_unique<telem::CounterSampler>(telem::telemetry_interval(),
                                                       telem::telemetry_ring_capacity());
    core_->attach_sampler(sampler_.get());
  }
  policy_ = make_policy(policy, *core_, params);
  DWARN_CHECK(policy_ != nullptr);
  // Default: tick loop instantiated for the concrete policy class (no
  // virtual dispatch per cycle). SMT_DEVIRT=0 forces the virtual fallback
  // — same machine, same bits, used as the differential reference.
  if (devirt_enabled()) {
    bind_policy_devirtualized(*core_, policy, policy_.get());
  } else {
    core_->set_policy(policy_.get());
  }
}

Simulator::~Simulator() = default;

void Simulator::tick(std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) core_->tick();
}

SimResult Simulator::run(const RunLength& len) {
  // Warm-up window: populate caches, TLBs and predictors.
  {
    std::uint64_t guard = 0;
    while (core_->total_committed() < len.warmup_insts && guard++ < len.max_cycles) {
      core_->tick();
    }
  }
  stats_.reset_all();
  // Interval series covers exactly the measurement window: drop warm-up
  // samples and re-arm at the (reset) counter origin.
  if (sampler_) sampler_->restart(core_->now());

  // Measurement window.
  {
    std::uint64_t guard = 0;
    while (core_->total_committed() < len.measure_insts && guard++ < len.max_cycles) {
      core_->tick();
    }
  }

  SimResult res;
  res.workload = workload_.name;
  res.policy = std::string(policy_->name());
  res.machine = machine_.name;
  res.cycles = stats_.value("core.cycles");
  const double cycles = res.cycles > 0 ? static_cast<double>(res.cycles) : 1.0;
  for (std::size_t t = 0; t < workload_.num_threads(); ++t) {
    const auto c = stats_.value("core.committed.t" + std::to_string(t));
    res.thread_ipc.push_back(static_cast<double>(c) / cycles);
    res.throughput += res.thread_ipc.back();
  }
  const auto fetched = stats_.value("core.fetched");
  res.flushed_frac = fetched == 0 ? 0.0
                                  : static_cast<double>(stats_.value("core.squashed_flush")) /
                                        static_cast<double>(fetched);
  res.counters = stats_.snapshot();
  // Derived occupancy means (x100 so they fit the integer counter map).
  for (const char* h : {"core.occ.iq_int", "core.occ.iq_fp", "core.occ.iq_ls",
                        "core.occ.int_regs"}) {
    res.counters[std::string(h) + ".mean_x100"] =
        static_cast<std::uint64_t>(stats_.histogram_mean(h) * 100.0);
  }
  // Instruction-delivery pressure. The stall fraction reads a counter the
  // legacy path also maintains; the per-kinst rates and the fixed-point
  // counter-map mirrors exist only when the modeled instruction side is
  // on, keeping default snapshots key-for-key identical to pre-subsystem
  // fixtures.
  res.fetch_stall_frac =
      static_cast<double>(stats_.value("core.icache_stalls")) / cycles;
  if (mem_->inst_memory() != nullptr) {
    const std::uint64_t committed = stats_.value("core.committed");
    const double kinst = committed > 0 ? static_cast<double>(committed) / 1000.0 : 1.0;
    res.imiss_per_kinst = static_cast<double>(stats_.value("imem.demand_misses")) / kinst;
    res.itlb_miss_per_kinst =
        static_cast<double>(stats_.value("imem.itlb_misses")) / kinst;
    res.counters["imem.imiss_per_kinst_x1000"] =
        static_cast<std::uint64_t>(res.imiss_per_kinst * 1000.0);
    res.counters["imem.itlb_miss_per_kinst_x1000"] =
        static_cast<std::uint64_t>(res.itlb_miss_per_kinst * 1000.0);
    res.counters["imem.fetch_stall_frac_x1000"] =
        static_cast<std::uint64_t>(res.fetch_stall_frac * 1000.0);
  }
  return res;
}

SimResult run_simulation(const MachineConfig& machine, const WorkloadSpec& workload,
                         PolicyKind policy, const RunLength& len,
                         const PolicyParams& params, std::uint64_t seed) {
  Simulator sim(machine, workload, policy, params, seed, trace_window_insts(len));
  return sim.run(len);
}

WorkloadSpec solo_workload(Benchmark b) {
  WorkloadSpec w;
  w.name = std::string(profile_of(b).name) + "-solo";
  w.type = profile_of(b).is_mem ? WorkloadType::MEM : WorkloadType::ILP;
  w.benchmarks = {b};
  return w;
}

}  // namespace dwarn
