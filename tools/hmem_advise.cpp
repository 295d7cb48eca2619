// hmem_advise — stages 2+3 as a standalone tool (the Paramedir +
// hmem_advisor roles).
//
// Reads one or more trace shards produced by hmem_profile (text or binary;
// the format of each shard is sniffed independently), k-way merges them by
// timestamp into a single ordered stream, aggregates per-object statistics
// in one streaming pass, and writes the placement report for a given memory
// specification and strategy. The per-object CSV (Paramedir's view) goes to
// stderr or a file.
//
// The flags and their usage text live in tools/flags.hpp
// (HMEM_ADVISE_FLAGS). The last positional is the per-process fast-tier
// budget (e.g. 256M); every other one is a trace shard. With --machine the
// fastest tier gets the budget and every other tier its per-process
// capacity; a budget above the fastest tier's capacity is clamped, with a
// warning, to what the machine can physically provide.
//
// Exit codes: 0 success, 2 usage/config error, 3 data or I/O error
// (e.g. --strict hitting a damaged shard), 4 resource exhaustion.
#include <cstdio>
#include <iostream>
#include <optional>
#include <vector>

#include "advisor/advisor.hpp"
#include "advisor/incremental_advisor.hpp"
#include "advisor/phase_advisor.hpp"
#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "analysis/aggregator.hpp"
#include "analysis/incremental.hpp"
#include "common/units.hpp"
#include "engine/pipeline.hpp"
#include "flags.hpp"
#include "trace/replay.hpp"
#include "trace/salvage.hpp"

int main(int argc, char** argv) {
  using namespace hmem;

  const auto flags = tools::parse<tools::AdviseFlags>(argc, argv);
  tools::cli_faults(flags.faults);
  std::vector<std::string> positional = flags.positional;
  if (positional.size() < 2) tools::usage<tools::AdviseFlags>();
  if (flags.prefix && !flags.stream) {
    tools::cli_usage_error("--prefix", "requires --stream");
  }
  advisor::Options options;
  options.strategy = flags.strategy.value_or(options.strategy);
  options.threshold_pct = flags.threshold.value_or(options.threshold_pct);
  options.virtual_budget_bytes =
      flags.virtual_budget.value_or(options.virtual_budget_bytes);
  const std::uint64_t slow = flags.slow.value_or(parse_bytes("1.5G").value());
  const std::uint64_t refresh_every = flags.refresh_every.value_or(8192);
  std::optional<memsim::MachineConfig> machine;
  if (flags.machine) machine = tools::cli_machine(*flags.machine);

  auto budget = parse_bytes(positional.back());
  if (!budget) {
    tools::cli_bad_value("fast-budget", "a size such as 256M",
                         positional.back().c_str());
  }
  positional.pop_back();  // the rest are trace shards
  if (machine) {
    // A budget the machine cannot physically provide would make the advisor
    // select a working set the runtime can never host: clamp and say so.
    bool clamped = false;
    const std::uint64_t usable =
        engine::clamp_fast_budget(*machine, *budget, /*ranks=*/1, &clamped);
    if (clamped) {
      std::fprintf(stderr,
                   "warning: budget %s exceeds the %s tier's capacity %s; "
                   "clamping\n",
                   format_bytes(*budget).c_str(),
                   machine->tiers[machine->fastest_tier()].name.c_str(),
                   format_bytes(usable).c_str());
      budget = usable;
    }
  }

  const advisor::MemorySpec spec =
      machine ? engine::machine_memory_spec(*machine, *budget, /*ranks=*/1)
              : advisor::MemorySpec::two_tier(*budget, slow);
  // The advisor rejects options its knapsack cannot take (an exact solve
  // over a huge tier) as a configuration error; check before any work.
  std::optional<advisor::HmemAdvisor> adv;
  try {
    adv.emplace(spec, options);
  } catch (const std::exception& e) {
    return tools::cli_fail(e);
  }

  // ReplayReader owns the whole multi-shard front: one shared SiteDb every
  // shard's sites are re-interned into, per-shard address rebasing (ranks
  // reuse the same simulated physical layout) and the k-way timestamp
  // merge. hmem_run --replay reads recordings through the same front.
  analysis::AggregateResult report;
  trace::ReplayReaderOptions replay_options;
  replay_options.salvage = !flags.strict;
  std::optional<trace::ReplayReader> recording;
  try {
    recording.emplace(positional, replay_options);
  } catch (const std::exception& e) {
    return tools::cli_fail(e);
  }
  std::optional<advisor::IncrementalAdvisor> inc;
  if (flags.stream) {
    // Incremental path: feed the merged stream event by event, keeping the
    // advisor's answer fresh with amortized re-solves; the final converged
    // refresh makes the report byte-identical to the batch path below.
    analysis::IncrementalAggregator agg(recording->sites());
    inc.emplace(spec, options);
    std::uint64_t seen = 0;
    std::uint64_t refreshes = 0;
    try {
      trace::TraceReader& merged = recording->reader();
      trace::Event event;
      while ((!flags.prefix || seen < *flags.prefix) &&
             merged.next(event)) {
        trace::dispatch_event(event, agg);
        ++seen;
        if (refresh_every > 0 && seen % refresh_every == 0) {
          inc->refresh(agg);
          ++refreshes;
        }
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace parse error: %s\n", e.what());
      return exit_code_for(e);
    }
    inc->refresh(agg, /*finalize=*/true);
    ++refreshes;
    report = agg.snapshot();
    std::fprintf(
        stderr,
        "stream: %llu events%s, %llu refreshes, %llu knapsack solves\n",
        static_cast<unsigned long long>(seen),
        flags.prefix ? " (prefix)" : "",
        static_cast<unsigned long long>(refreshes),
        static_cast<unsigned long long>(inc->total_resolves()));
  } else {
    try {
      report = analysis::aggregate_stream(recording->reader(),
                                          recording->sites());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trace parse error: %s\n", e.what());
      return exit_code_for(e);
    }
  }
  const trace::SalvageReport& salvage = recording->salvage_report();
  if (!salvage.clean()) {
    std::fprintf(stderr, "warning: %s\n", salvage.summary().c_str());
  }

  if (flags.csv) {
    try {
      AtomicFile csv(*flags.csv);
      csv.stream() << analysis::objects_to_csv(report.objects);
      csv.commit();
    } catch (const std::exception& e) {
      return tools::cli_fail(e);
    }
  }
  std::fprintf(stderr,
               "aggregated %zu objects from %zu shard%s, %llu samples "
               "(%.1f%% unattributed)\n",
               report.objects.size(), positional.size(),
               positional.size() == 1 ? "" : "s",
               static_cast<unsigned long long>(report.total_samples),
               report.unattributed_fraction() * 100.0);

  if (flags.per_phase) {
    if (report.phases.empty()) {
      std::fprintf(stderr,
                   "--per-phase: the trace carries no phase events; "
                   "re-profile or drop the flag\n");
      return tools::kExitData;
    }
    advisor::PlacementSchedule batch_schedule;
    if (!flags.stream) {
      advisor::PhaseAdvisor adv(spec, options);
      batch_schedule = adv.advise(report.phases);
    }
    const advisor::PlacementSchedule& schedule =
        flags.stream ? inc->schedule() : batch_schedule;
    std::fprintf(stderr,
                 "schedule: %zu phase(s), %llu bytes migrated per cycle\n",
                 schedule.phases.size(),
                 static_cast<unsigned long long>(
                     schedule.migration_bytes_per_cycle()));
    std::cout << advisor::write_schedule_report(schedule);
    return tools::kExitOk;
  }
  if (flags.stream) {
    std::cout << advisor::write_placement_report(inc->placement());
    return tools::kExitOk;
  }
  std::cout << advisor::write_placement_report(adv->advise(report.objects));
  return tools::kExitOk;
}
