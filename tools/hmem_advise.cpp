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
//   usage: hmem_advise <trace> [trace...] <fast-budget> [options]
//                      > placement.txt
//     trace            trace file(s); pass every .rank<k> shard of a
//                      multi-rank profile to merge them
//     fast-budget      e.g. 256M, 16G (per process)
//     --strategy s     misses | density | exact      (default misses)
//     --threshold t    Misses(t%) threshold          (default 0)
//     --virtual b      virtual selection budget (e.g. 512M)
//     --slow b         fallback tier capacity        (default 1.5G)
//     --machine m      derive the tier list from a machine preset (knl,
//                      spr-hbm, ddr-cxl, hbm-ddr-pmem) or config file: the
//                      fastest tier gets <fast-budget>, every other tier
//                      its per-process capacity; overrides --slow. A budget
//                      above the fastest tier's capacity is clamped (with a
//                      warning) to what the machine can physically provide
//     --per-phase      emit a placement *schedule* instead: one knapsack
//                      per folded phase plus the migration diff between
//                      consecutive phases (consume with hmem_run
//                      --condition dynamic)
//     --stream         incremental mode: aggregate with the streaming
//                      IncrementalAggregator and keep an IncrementalAdvisor
//                      refreshed while events arrive (amortized re-solve;
//                      progress on stderr). The converged report is
//                      byte-identical to the batch path on the same input
//     --refresh-every n  (--stream) refresh the advisor every n events
//                      (default 8192; 0 = only the final converged refresh)
//     --prefix k       (--stream) answer from the first k events of the
//                      merged stream only — what a live client would have
//                      been told at that point of the run
//     --csv file       write the per-object CSV here (written atomically)
//     --strict         throw on the first malformed trace byte instead of
//                      the default chunk-level salvage (skip damaged
//                      chunks / dead shards with a warning and keep going)
//     --faults spec    fault-injection schedule (overrides HMEM_FAULTS)
//
// Exit codes: 0 success, 2 usage/config error, 3 data or I/O error
// (e.g. --strict hitting a damaged shard), 4 resource exhaustion.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
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
#include "cli.hpp"
#include "engine/pipeline.hpp"
#include "trace/replay.hpp"
#include "trace/salvage.hpp"

int main(int argc, char** argv) {
  using namespace hmem;

  tools::cli_init_faults();
  std::vector<std::string> positional;
  advisor::Options options;
  bool strict = false;
  std::uint64_t slow = parse_bytes("1.5G").value();
  std::optional<memsim::MachineConfig> machine;
  const char* csv_path = nullptr;
  bool per_phase = false;
  bool stream = false;
  std::uint64_t refresh_every = 8192;
  std::optional<std::uint64_t> prefix_events;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strategy") == 0) {
      const auto s = advisor::parse_strategy(
          tools::cli_value(argc, argv, i, "--strategy"));
      if (!s) {
        std::fprintf(stderr, "unknown strategy\n");
        return 2;
      }
      options.strategy = *s;
    } else if (std::strcmp(argv[i], "--threshold") == 0) {
      options.threshold_pct = tools::cli_real(
          tools::cli_value(argc, argv, i, "--threshold"), "--threshold");
    } else if (std::strcmp(argv[i], "--virtual") == 0) {
      const auto v =
          parse_bytes(tools::cli_value(argc, argv, i, "--virtual"));
      if (!v) {
        std::fprintf(stderr, "bad virtual budget\n");
        return 2;
      }
      options.virtual_budget_bytes = *v;
    } else if (std::strcmp(argv[i], "--slow") == 0) {
      const auto v = parse_bytes(tools::cli_value(argc, argv, i, "--slow"));
      if (!v) {
        std::fprintf(stderr, "bad slow capacity\n");
        return 2;
      }
      slow = *v;
    } else if (std::strcmp(argv[i], "--machine") == 0) {
      machine =
          tools::load_machine(tools::cli_value(argc, argv, i, "--machine"));
      if (!machine) return 2;
    } else if (std::strcmp(argv[i], "--per-phase") == 0) {
      per_phase = true;
    } else if (std::strcmp(argv[i], "--stream") == 0) {
      stream = true;
    } else if (std::strcmp(argv[i], "--refresh-every") == 0) {
      refresh_every = tools::cli_count(
          tools::cli_value(argc, argv, i, "--refresh-every"),
          "--refresh-every");
    } else if (std::strcmp(argv[i], "--prefix") == 0) {
      prefix_events = tools::cli_count(
          tools::cli_value(argc, argv, i, "--prefix"), "--prefix");
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      csv_path = tools::cli_value(argc, argv, i, "--csv");
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      tools::cli_configure_faults(tools::cli_value(argc, argv, i, "--faults"));
    } else if (tools::cli_is_flag(argv[i])) {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  if (positional.size() < 2) {
    std::fprintf(stderr,
                 "usage: %s <trace> [trace...] <fast-budget> [--strategy s] "
                 "[--threshold t] [--virtual b] [--slow b] "
                 "[--machine preset|config.ini] [--per-phase] [--csv file]\n"
                 "          [--stream] [--refresh-every n] [--prefix k] "
                 "[--strict] [--faults spec]\n"
                 "  machine presets: %s\n",
                 argv[0], tools::machine_preset_list().c_str());
    return 2;
  }
  auto budget = parse_bytes(positional.back());
  if (!budget) {
    std::fprintf(stderr, "bad budget: %s\n", positional.back().c_str());
    return 2;
  }
  positional.pop_back();  // the rest are trace shards
  if (machine) {
    // A budget the machine cannot physically provide would make the advisor
    // select a working set the runtime can never host: clamp and say so.
    bool clamped = false;
    const std::uint64_t usable =
        engine::clamp_fast_budget(*machine, *budget, &clamped);
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

  if (prefix_events && !stream) {
    std::fprintf(stderr, "--prefix requires --stream\n");
    return 2;
  }

  // ReplayReader owns the whole multi-shard front: one shared SiteDb every
  // shard's sites are re-interned into, per-shard address rebasing (ranks
  // reuse the same simulated physical layout) and the k-way timestamp
  // merge. hmem_run --replay reads recordings through the same front.
  analysis::AggregateResult report;
  trace::ReplayReaderOptions replay_options;
  replay_options.salvage = !strict;
  std::optional<trace::ReplayReader> recording;
  try {
    recording.emplace(positional, replay_options);
  } catch (const std::exception& e) {
    return tools::cli_fail(e);
  }
  const advisor::MemorySpec spec =
      machine ? engine::machine_memory_spec(*machine, *budget, /*ranks=*/1)
              : advisor::MemorySpec::two_tier(*budget, slow);
  std::optional<advisor::IncrementalAdvisor> inc;
  if (stream) {
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
      while ((!prefix_events || seen < *prefix_events) &&
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
        prefix_events ? " (prefix)" : "",
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

  if (csv_path != nullptr) {
    try {
      AtomicFile csv(csv_path);
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

  if (per_phase) {
    if (report.phases.empty()) {
      std::fprintf(stderr,
                   "--per-phase: the trace carries no phase events; "
                   "re-profile or drop the flag\n");
      return tools::kExitData;
    }
    advisor::PlacementSchedule batch_schedule;
    if (!stream) {
      advisor::PhaseAdvisor adv(spec, options);
      batch_schedule = adv.advise(report.phases);
    }
    const advisor::PlacementSchedule& schedule =
        stream ? inc->schedule() : batch_schedule;
    std::fprintf(stderr,
                 "schedule: %zu phase(s), %llu bytes migrated per cycle\n",
                 schedule.phases.size(),
                 static_cast<unsigned long long>(
                     schedule.migration_bytes_per_cycle()));
    std::cout << advisor::write_schedule_report(schedule);
    return tools::kExitOk;
  }
  if (stream) {
    std::cout << advisor::write_placement_report(inc->placement());
    return tools::kExitOk;
  }
  advisor::HmemAdvisor adv(spec, options);
  const auto placement = adv.advise(report.objects);
  std::cout << advisor::write_placement_report(placement);
  return tools::kExitOk;
}
