// Pipeline — the four-stage framework of Figure 2, end to end:
//
//   1. profile run (Extrae substitute): trace of allocations + PEBS samples;
//   2. aggregation (Paramedir substitute): per-object misses and sizes;
//   3. hmem_advisor: placement for a given memory spec and strategy;
//   4. production run with auto-hbwmalloc honouring the placement.
//
// The placement report round-trips through its text form between stages 3
// and 4 — the production run consumes exactly what a user would read —
// and the production run uses a different ASLR seed than the profiling run,
// so the symbolic matching is exercised the way the paper describes.
//
// With profile_ranks > 1 the pipeline models the paper's MPI reality: one
// profiled execution per simulated rank (each with its own ASLR image),
// each streaming its trace into a compact serialized shard as it runs
// (events are never materialized as in-memory event objects; the shards —
// ~12 bytes/event in format v2 — are held as byte strings by this
// in-process driver, where hmem_profile writes them to disk), and stage 2
// consuming the k-way timestamp merge of all shards as one ordered stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/aggregator.hpp"
#include "engine/execution.hpp"
#include "trace/format.hpp"

namespace hmem::engine {

/// Seed stride between simulated ranks: each rank gets its own ASLR image
/// and sampling phase, as distinct MPI processes would. Shared by
/// run_pipeline and the hmem_profile --ranks flow so both produce the same
/// per-rank executions.
inline constexpr std::uint64_t kRankSeedStride = 7919;

/// Builds the advisor's memory spec from a machine description: tiers in
/// descending performance, the fastest capped at `fast_budget_per_rank`
/// (Figure 4's x-axis), every other tier at its per-rank capacity share,
/// names lowercased to match the historical report format. The slowest tier
/// doubles as the advisor's unbounded fallback.
advisor::MemorySpec machine_memory_spec(const memsim::MachineConfig& node,
                                        std::uint64_t fast_budget_per_rank,
                                        int ranks);

/// Clamps a requested per-rank fast-tier budget to what the machine can
/// physically provide each of `ranks` ranks (an equal share of the fastest
/// tier's capacity). A budget above that would make the advisor select a
/// working set the runtime can never host — callers should warn the user
/// when `*clamped` comes back true.
std::uint64_t clamp_fast_budget(const memsim::MachineConfig& node,
                                std::uint64_t requested_bytes, int ranks,
                                bool* clamped = nullptr);

struct PipelineOptions {
  /// Per-rank fast-tier budget for the advisor (Figure 4's x-axis).
  std::uint64_t fast_budget_per_rank = 256ULL << 20;
  advisor::Options advisor;
  runtime::AutoHbwOptions runtime_options;
  pebs::SamplerConfig sampler;
  std::uint64_t min_alloc_bytes = 4096;
  std::uint64_t profile_seed = 42;
  std::uint64_t production_seed = 1042;  ///< different ASLR image
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  /// Stage-1 shard count. 1 profiles once into a buffer (the classic
  /// single-process flow); k > 1 profiles k simulated ranks, serializes one
  /// trace shard per rank and aggregates their k-way merge.
  int profile_ranks = 1;
  /// Worker threads for independent simulations (the per-rank profiled
  /// executions here; baseline/cell sweeps in Fig4Runner). Each rank owns
  /// its machine, allocators, RNG streams, SiteDb and shard buffer, and
  /// results land in per-rank slots — so any jobs value, 1 or N, produces
  /// bit-identical output.
  int jobs = 1;
  /// Serialization format of the per-rank shards.
  trace::TraceFormat shard_format = trace::TraceFormat::kBinary;
  /// Access-loop backend for every stage's runs (bit-identical results;
  /// see RunOptions::kernel for the fallback ladder).
  kernel::KernelKind kernel = kernel::KernelKind::kAuto;
  /// Phase-aware mode: additionally run the PhaseAdvisor over the folded
  /// per-phase profiles (stage 3) and a production run under the dynamic
  /// condition, filling PipelineResult::schedule / dynamic_run. The static
  /// placement and production run are always produced, so per_phase gives
  /// the static-vs-dynamic comparison in one call. A dynamic run that
  /// dynamic_run_is_framework_run() proves equal to the framework run is
  /// copied from it instead of simulated again.
  bool per_phase = false;
};

struct PipelineResult {
  RunResult profile_run;             ///< stage 1 (rank 0 when sharded)
  analysis::AggregateResult report;  ///< stage 2
  advisor::Placement placement;      ///< stage 3
  std::string placement_report_text;
  RunResult production_run;          ///< stage 4

  /// Phase-aware artefacts (per_phase only). The schedule round-trips
  /// through its text report exactly like the static placement does.
  advisor::PlacementSchedule schedule;
  std::string schedule_report_text;
  /// The dynamic production run: simulated, or — when
  /// dynamic_from_framework — production_run with the dynamic condition
  /// name, equal on every other field to what simulating it would give.
  RunResult dynamic_run;
  bool dynamic_from_framework = false;

  /// Multi-rank stage-1 artefacts (profile_ranks > 1 only).
  std::vector<RunResult> rank_profile_runs;  ///< one per rank
  /// The serialized per-rank shards themselves. They are alive for the
  /// stage-2 merge anyway; keeping them lets callers (and the determinism
  /// suite) compare parallel and serial profiling byte for byte.
  std::vector<std::string> shards;
  std::vector<std::size_t> shard_bytes;      ///< serialized shard sizes
  std::size_t merged_events = 0;  ///< events seen by the merged aggregation
};

/// True when a kDynamic run under `dynamic_opts` is the kFramework run on
/// `framework_placement`, every other run input being equal: its schedule
/// never transitions (schedule_transitions) and its one placement has the
/// same advisor::runtime_key, so the runtime reads the same placement.
/// run_pipeline copies its framework run instead of simulating such a run.
bool dynamic_run_is_framework_run(
    const RunOptions& dynamic_opts,
    const advisor::Placement& framework_placement);

/// Runs all four stages for one application.
PipelineResult run_pipeline(const apps::AppSpec& app,
                            const PipelineOptions& options);

}  // namespace hmem::engine
