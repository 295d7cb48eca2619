// Execution engine: interprets an AppSpec against the simulated machine
// under one placement condition, producing the run's figure of merit and
// every statistic the evaluation reports.
//
// Timing model (per phase, per rank): the simulated access stream is a
// sampled representation — each simulated access stands for
// `AppSpec::access_scale` real accesses. The phase duration is the roofline
// maximum of
//   * compute:   instructions / (effective cores * IPC * frequency),
//   * bandwidth: per-tier DRAM traffic / the rank's share of the tier's
//                achievable bandwidth,
//   * latency:   total miss latency / (effective cores * MLP),
// plus allocator and interposition costs, which are charged at face value
// (they are real per-call costs, not sampled). The profiler's monitoring
// cost is added the same way when profiling is enabled, which is what the
// Table I overhead column measures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <vector>

#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "apps/app.hpp"
#include "callstack/sitedb.hpp"
#include "engine/kernel/kernel.hpp"
#include "memsim/machine.hpp"
#include "pebs/sampler.hpp"
#include "runtime/auto_hbwmalloc.hpp"
#include "trace/event.hpp"

namespace hmem::engine {

enum class Condition {
  kDdr,        ///< everything in DDR (reference)
  kNumactl,    ///< numactl -p 1 (FCFS into MCDRAM, statics and stack too)
  kAutoHbw,    ///< autohbw library, 1 MiB threshold
  kCacheMode,  ///< MCDRAM as direct-mapped memory-side cache
  kFramework,  ///< the paper's framework (requires a Placement)
  kDynamic,    ///< phase-aware framework (requires a PlacementSchedule)
};

const char* condition_name(Condition condition);

struct RunOptions {
  Condition condition = Condition::kDdr;
  /// Placement from hmem_advisor; required when condition == kFramework.
  const advisor::Placement* placement = nullptr;
  /// Per-phase schedule from hmem_advise --per-phase; required when
  /// condition == kDynamic. Phase names must match the app's phase names
  /// (they come from the same app's trace). With a single-phase schedule
  /// the run is bit-identical to kFramework on the same placement.
  const advisor::PlacementSchedule* schedule = nullptr;
  /// Mid-stream advisor hook (dynamic condition only). Consulted at every
  /// schedule decision point — the iteration wrap-around and each phase
  /// entry — with the app phase about to run; returning a schedule adopts
  /// it from that boundary on (an IncrementalAdvisor's latest answer, say),
  /// nullptr keeps the current one. The engine detects a refresh by pointer
  /// OR PlacementSchedule::generation change, so returning the same object
  /// mutated in place is supported — but the mutator MUST bump `generation`
  /// whenever the contents change (IncrementalAdvisor::refresh does; the
  /// engine asserts on a shape change it was not told about). Lifetime: the
  /// engine keeps dereferencing the adopted schedule at every subsequent
  /// boundary, so it must stay alive — and, at an unchanged generation,
  /// unmodified — until a different schedule is adopted or run_app returns;
  /// returning nullptr keeps the previously returned schedule live and in
  /// use. With a hook set the schedule may omit app phases — the engine
  /// keeps the last applied placement for a phase the advisor has not seen
  /// yet instead of asserting — and the dynamic machinery stays armed even
  /// while the schedule has a single phase, so the run can react to phase
  /// shifts the initial answer never saw.
  std::function<const advisor::PlacementSchedule*(const std::string& phase,
                                                  std::uint64_t iteration)>
      advisor_hook;
  runtime::AutoHbwOptions runtime_options;

  /// Attach the profiler (stage-1 run): collect the trace, pay the cost.
  bool profile = false;
  pebs::SamplerConfig sampler;
  std::uint64_t min_alloc_bytes = 4096;
  /// Stream trace events into this sink (e.g. a format writer bound to a
  /// shard file) instead of buffering them; RunResult::trace stays null.
  /// Only meaningful with profile = true. Must outlive the run.
  trace::EventSink* trace_sink = nullptr;
  /// Intern allocation sites into this external database instead of a fresh
  /// one — required when trace_sink serializes against the same SiteDb, and
  /// useful to share one database across ranks. RunResult::sites aliases it
  /// (non-owning); it must outlive every use of the result.
  callstack::SiteDb* sites = nullptr;

  std::uint64_t seed = 42;
  /// Node-level machine; the engine derives the per-rank view (LLC share,
  /// tier capacity shares, bandwidth shares). Its memory mode is ignored:
  /// the condition decides.
  memsim::MachineConfig node = memsim::MachineConfig::knl7250(
      memsim::MemMode::kFlat);
  /// Outstanding misses per core for the latency roofline term (hardware
  /// prefetchers keep many line fills in flight on KNL).
  double mlp = 30.0;
  /// Compute/memory overlap imperfection: phase time is
  /// max(compute, memory) + overlap_beta * min(compute, memory). Zero means
  /// perfect overlap (pure roofline); one means fully serialised.
  double overlap_beta = 0.25;
  /// Cross-tier contention: tiers stream in parallel, but the shared
  /// mesh/controllers keep the combination short of perfect overlap:
  /// memory time is the dominant tier's time plus tier_mix_penalty times
  /// the sum of every other tier's.
  double tier_mix_penalty = 0.3;
  /// autohbw size threshold (paper: 1 MiB).
  std::uint64_t autohbw_threshold = 1ULL << 20;
  /// Which access-loop backend executes the inner simulation loop. All
  /// kernels are bit-identical on every RunResult field and, in profiled
  /// runs, every trace byte; the request is resolved through the fallback
  /// ladder in engine/kernel/kernel.hpp (cache mode -> interp, missing
  /// native support -> bytecode). kAuto consults HMEM_KERNEL, then picks
  /// native when its self-test passed, else bytecode.
  kernel::KernelKind kernel = kernel::KernelKind::kAuto;

  /// Memory resource backing the run's scratch state: the simulated tier
  /// allocators' bookkeeping maps, the profiled miss-record buffer, and the
  /// per-phase accumulator vectors. The sweep engine points this at a
  /// worker-local hmem::Arena reset between cells so steady-state sweeping
  /// does no global-allocator traffic. Null means the default resource.
  /// Every RunResult field is bit-identical regardless of the resource —
  /// allocator choice can move bytes, never change them.
  std::pmr::memory_resource* scratch = nullptr;
};

/// Real (scale-corrected) DRAM traffic one tier carried during a run.
struct TierTraffic {
  std::string name;            ///< tier name from the machine config
  std::uint64_t bytes = 0;     ///< per rank, migration traffic included
  /// Portion of `bytes` that is phase-boundary migration traffic (source
  /// tiers carry the read, destination tiers the write). Zero outside the
  /// dynamic condition.
  std::uint64_t migration_bytes = 0;
};

struct RunResult {
  std::string app;
  std::string condition;
  std::string fom_unit;
  double time_s = 0;
  double fom = 0;

  /// Fastest-tier high-water mark, per rank (Figure 4 middle column). For
  /// the framework this is auto-hbwmalloc's accounting; for numactl/autohbw
  /// it is the fast allocator's HWM. Zero under DDR / cache mode.
  std::uint64_t fast_hwm_bytes = 0;
  /// Per-rank resident high-water mark across all allocators (Table I).
  std::uint64_t total_hwm_bytes = 0;

  /// Per-tier real (scale-corrected) DRAM traffic, per rank, ordered
  /// fastest tier first (the machine's performance order).
  std::vector<TierTraffic> tier_traffic;
  double achieved_bw_gbs = 0;

  /// Traffic on the fastest / slowest tier ("MCDRAM" / "DDR" on KNL).
  std::uint64_t fast_bytes() const {
    return tier_traffic.empty() ? 0 : tier_traffic.front().bytes;
  }
  std::uint64_t slow_bytes() const {
    return tier_traffic.empty() ? 0 : tier_traffic.back().bytes;
  }
  std::uint64_t dram_bytes() const {
    std::uint64_t total = 0;
    for (const TierTraffic& t : tier_traffic) total += t.bytes;
    return total;
  }

  /// Dynamic-condition migration accounting (zero elsewhere), per rank:
  /// bytes moved across tiers at phase boundaries (counted once per move),
  /// the number of region moves, and the simulated seconds the moves cost
  /// (source-tier read + destination-tier write at the roofline bandwidths,
  /// plus allocator bookkeeping).
  std::uint64_t migration_bytes = 0;
  std::uint64_t migration_count = 0;
  double migration_cost_s = 0;

  std::uint64_t llc_misses = 0;  ///< real, per rank
  std::uint64_t samples = 0;     ///< PEBS samples captured (profiled runs)
  double monitoring_overhead = 0;  ///< fraction of run time
  std::uint64_t alloc_calls = 0;   ///< dynamic allocations, per rank
  double allocs_per_second = 0;
  double interposition_overhead_ns = 0;  ///< unwind+translate+allocator cost

  /// Stage-1 artefacts (profiled runs only). `trace` is null when the run
  /// streamed into RunOptions::trace_sink instead of buffering.
  std::shared_ptr<trace::TraceBuffer> trace;
  std::shared_ptr<callstack::SiteDb> sites;

  /// Framework-only: the interposer's statistics.
  std::optional<runtime::AutoHbwStats> autohbw;
};

/// True when a run under `options` may swap placements at phase
/// boundaries: a kDynamic run whose schedule has more than one phase, or
/// that has an advisor hook (the advisor may still grow the schedule
/// mid-run). Any other kDynamic run never transitions and is bit-identical
/// to kFramework on the schedule's first placement — the sweep's run memo
/// serves such runs as static runs on the strength of this one predicate.
bool schedule_transitions(const RunOptions& options);

/// Runs one application once under the given options. Throws
/// ResourceError when an object or the stack cannot be allocated in the
/// simulated machine (naming it and the tier), and ConfigError when a
/// dynamic run's schedule has no placement for one of the app's phases or
/// a condition other than kDdr meets a one-tier machine.
RunResult run_app(const apps::AppSpec& app, const RunOptions& options);

}  // namespace hmem::engine
