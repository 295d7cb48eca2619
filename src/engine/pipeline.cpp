#include "engine/pipeline.hpp"

#include <memory>
#include <sstream>

#include "advisor/advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "common/assert.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "trace/merge.hpp"

namespace hmem::engine {

advisor::MemorySpec machine_memory_spec(const memsim::MachineConfig& node,
                                        std::uint64_t fast_budget_per_rank,
                                        int ranks) {
  HMEM_ASSERT(!node.tiers.empty());
  HMEM_ASSERT(ranks >= 1);
  std::vector<advisor::TierBudget> budgets;
  const auto perf = node.tiers_by_performance();
  for (std::size_t k = 0; k < perf.size(); ++k) {
    const memsim::TierSpec& tier = node.tiers[perf[k]];
    advisor::TierBudget budget;
    budget.name = to_lower(tier.name);
    budget.capacity_bytes =
        k == 0 ? fast_budget_per_rank
               : tier.capacity_bytes / static_cast<std::uint64_t>(ranks);
    budget.relative_performance = tier.relative_performance;
    budgets.push_back(std::move(budget));
  }
  return advisor::MemorySpec(std::move(budgets));
}

std::uint64_t clamp_fast_budget(const memsim::MachineConfig& node,
                                std::uint64_t requested_bytes, int ranks,
                                bool* clamped) {
  HMEM_ASSERT(!node.tiers.empty());
  HMEM_ASSERT(ranks >= 1);
  const std::uint64_t capacity =
      node.tiers[node.fastest_tier()].capacity_bytes /
      static_cast<std::uint64_t>(ranks);
  const bool over = requested_bytes > capacity;
  if (clamped != nullptr) *clamped = over;
  return over ? capacity : requested_bytes;
}

namespace {

RunOptions profile_options(const PipelineOptions& options) {
  RunOptions po;
  po.condition = Condition::kDdr;
  po.profile = true;
  po.sampler = options.sampler;
  po.min_alloc_bytes = options.min_alloc_bytes;
  po.seed = options.profile_seed;
  po.node = options.node;
  po.kernel = options.kernel;
  return po;
}

}  // namespace

bool dynamic_run_is_framework_run(
    const RunOptions& dynamic_opts,
    const advisor::Placement& framework_placement) {
  HMEM_ASSERT(dynamic_opts.condition == Condition::kDynamic &&
              dynamic_opts.schedule != nullptr &&
              !dynamic_opts.schedule->phases.empty());
  const advisor::Placement& dynamic_placement =
      dynamic_opts.schedule->phases.front().placement;
  return !schedule_transitions(dynamic_opts) &&
         advisor::runtime_key(dynamic_placement) ==
             advisor::runtime_key(framework_placement);
}

PipelineResult run_pipeline(const apps::AppSpec& app_in,
                            const PipelineOptions& options) {
  PipelineResult result;

  // Sharded profiling simulates exactly profile_ranks ranks: the per-rank
  // machine shares (LLC, capacity, bandwidth) must reflect that count for
  // every stage, matching the hmem_profile --ranks flow.
  apps::AppSpec app = app_in;
  if (options.profile_ranks > 1) app.ranks = options.profile_ranks;

  if (options.profile_ranks <= 1) {
    // Stage 1: profile the application in its default placement (DDR).
    result.profile_run = run_app(app, profile_options(options));
    HMEM_ASSERT(result.profile_run.trace != nullptr);

    // Stage 2: aggregate the trace into per-object statistics.
    result.report =
        analysis::aggregate_trace(*result.profile_run.trace,
                                  *result.profile_run.sites);
  } else {
    // Stage 1, sharded: one profiled execution per simulated rank, each
    // streaming its trace into a serialized shard as it runs (the run
    // itself never buffers events). The ranks are fully independent — each
    // owns its machine, allocators, profiler, RNG streams and (crucially) a
    // private SiteDb its shard serializes against, with site identity
    // re-merged symbolically in stage 2 — so they execute concurrently
    // under options.jobs workers. Every rank derives its seed from its rank
    // index and writes to its own slot: scheduling order cannot influence
    // any result, and parallel runs are bit-identical to serial ones.
    const int ranks = options.profile_ranks;
    std::vector<std::string>& shards = result.shards;
    shards.resize(static_cast<std::size_t>(ranks));
    result.rank_profile_runs.resize(static_cast<std::size_t>(ranks));
    parallel_for(options.jobs, static_cast<std::size_t>(ranks),
                 [&](std::size_t r) {
                   callstack::SiteDb rank_sites;
                   std::ostringstream shard;
                   const auto writer = trace::make_trace_writer(
                       shard, rank_sites, options.shard_format);
                   RunOptions po = profile_options(options);
                   po.seed = options.profile_seed +
                             static_cast<std::uint64_t>(r) * kRankSeedStride;
                   po.sites = &rank_sites;
                   po.trace_sink = writer.get();
                   RunResult run = run_app(app, po);
                   writer->finish();
                   run.sites.reset();  // rank_sites dies with this scope
                   shards[r] = std::move(shard).str();
                   result.rank_profile_runs[r] = std::move(run);
                 });
    for (const std::string& shard : shards) {
      result.shard_bytes.push_back(shard.size());
    }
    result.profile_run = result.rank_profile_runs.front();

    // Stage 2: k-way timestamp merge of the shards, aggregated in one
    // streaming pass against a shared (re-interned) site database. Each
    // shard is rebased into its own slice of the simulated address space —
    // ranks reuse the same physical layout, and the live-range map needs
    // disjoint ranges.
    callstack::SiteDb merged_sites;
    std::vector<std::unique_ptr<std::istringstream>> streams;
    std::vector<std::unique_ptr<trace::TraceReader>> readers;
    for (std::size_t r = 0; r < shards.size(); ++r) {
      streams.push_back(std::make_unique<std::istringstream>(shards[r]));
      readers.push_back(std::make_unique<trace::OffsetTraceReader>(
          trace::open_trace_reader(*streams.back(), merged_sites),
          static_cast<trace::Address>(r) * trace::kRankAddressStride));
    }
    trace::MergeTraceReader merged(std::move(readers));
    analysis::AggregateVisitor aggregate(merged_sites);
    result.merged_events = trace::pump(merged, aggregate);
    result.report = aggregate.finish();
  }

  // Stage 3: compute the placement for the requested budget. Every tier
  // below the fastest contributes its per-rank capacity share; the slowest
  // is the unbounded fallback.
  advisor::MemorySpec spec = machine_memory_spec(
      options.node, options.fast_budget_per_rank, app.ranks);
  advisor::HmemAdvisor adv(spec, options.advisor);
  result.placement = adv.advise(result.report.objects);
  result.placement_report_text =
      advisor::write_placement_report(result.placement);

  // Stage 4: production run, consuming the *parsed text report* under a
  // fresh ASLR image.
  const advisor::Placement parsed =
      advisor::read_placement_report(result.placement_report_text);
  RunOptions production_opts;
  production_opts.condition = Condition::kFramework;
  production_opts.placement = &parsed;
  production_opts.runtime_options = options.runtime_options;
  production_opts.seed = options.production_seed;
  production_opts.node = options.node;
  production_opts.kernel = options.kernel;
  result.production_run = run_app(app, production_opts);

  // Phase-aware stages: per-phase knapsacks over the folded profiles, then
  // a dynamic production run consuming the parsed schedule report (same
  // text round-trip and ASLR discipline as the static path). A schedule
  // that never leaves the static placement is the framework run already
  // simulated, so that run is served instead of repeated.
  if (options.per_phase) {
    advisor::PhaseAdvisor phase_adv(spec, options.advisor);
    result.schedule = phase_adv.advise(result.report.phases);
    result.schedule_report_text =
        advisor::write_schedule_report(result.schedule);
    const advisor::PlacementSchedule parsed_schedule =
        advisor::read_schedule_report(result.schedule_report_text);
    RunOptions dynamic_opts;
    dynamic_opts.condition = Condition::kDynamic;
    dynamic_opts.schedule = &parsed_schedule;
    dynamic_opts.runtime_options = options.runtime_options;
    dynamic_opts.seed = options.production_seed;
    dynamic_opts.node = options.node;
    dynamic_opts.kernel = options.kernel;
    result.dynamic_from_framework =
        dynamic_run_is_framework_run(dynamic_opts, parsed);
    if (result.dynamic_from_framework) {
      result.dynamic_run = result.production_run;
      result.dynamic_run.condition = condition_name(Condition::kDynamic);
    } else {
      result.dynamic_run = run_app(app, dynamic_opts);
    }
  }
  return result;
}

}  // namespace hmem::engine
