// Figure 4, dynamic row: static knapsack placement vs the phase-aware
// schedule, as a dFOM/MByte comparison across every bundled workload (the
// paper's eight plus the two phase-shifting stress apps) and every machine
// preset. The grid is a sweep-engine run: one DDR baseline cell plus one
// dynamic cell per (app, machine), sharing stage-1 profiles across cells and
// executing on the worker pool.
//
// The static pipeline structurally cannot beat dynamic on the phase-shift
// apps (churn, transient): their hot sets do not fit the budget *together*
// but do fit it *per phase*. On single-phase apps the two conditions are
// bit-identical by construction — the sweep doubles as a regression check
// for that (the `=` rows).
//
//   usage: bench_fig4_placement_dynamic [--jobs N]
//          [--machine preset|config.ini] [--kernel kind] [--smoke]
//          [--store cells.dat] [--resume] [--out results.json]
//     --jobs     sweep independent cells concurrently (bit-identical to
//                serial, like every other fig4 bench)
//     --machine  restrict the sweep to one machine (default: all four
//                presets)
//     --kernel   access-loop backend (auto/interp/bytecode/native)
//     --smoke    shrink every app for CI (structure preserved)
//     --resume   (requires --store) skip cells already in the store; the
//                final tables and JSON are byte-identical to an unkilled
//                run because stored doubles round-trip exactly (%.17g)
//     --store    append each finished cell to a checksummed result store;
//                a killed sweep loses at most the cells still in flight
//     --out      also write the results as JSON, atomically (temp+rename)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "bench_common.hpp"
#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "engine/experiment.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_store.hpp"

namespace {

using namespace hmem;

/// One presentation row of the sweep: the (app, machine) grid point with
/// its DDR anchor and the static/dynamic comparison.
struct Cell {
  std::string app;
  std::string machine;
  std::string fast_tier;
  std::uint64_t budget = 0;  ///< per rank
  double ddr_fom = 0;
  double static_fom = 0;
  double dynamic_fom = 0;
  double static_dfom = 0;
  double dynamic_dfom = 0;
  std::size_t phases = 0;
  std::uint64_t migration_bytes = 0;  ///< per rank
  double migration_cost_s = 0;
};

/// Per-rank fast-tier budget of a cell. The phase-shift apps are sized
/// against 96 MiB (one hot set fits, the union does not); the OpenMP-only
/// BT sweeps node-wide budgets in Figure 4, so it gets a node-wide 2 GiB;
/// everything else uses the paper's largest per-rank point.
std::uint64_t budget_for(const apps::AppSpec& app) {
  if (app.phases.size() > 1 && app.ranks == 8) return 96 * kMiB;
  if (app.ranks == 1) return 2ULL * kGiB;
  return 256 * kMiB;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions bench_options;
  bool smoke = false;
  bool resume = false;
  std::string store_path;
  std::string out_path;
  std::vector<memsim::MachineConfig> machines;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      bench_options.jobs = std::atoi(argv[++i]);
      if (bench_options.jobs < 1) bench_options.jobs = 1;
    } else if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      machines = {bench::parse_machine_value(argv[++i])};
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      bench_options.kernel = bench::parse_kernel_value(argv[++i]);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--store") == 0 && i + 1 < argc) {
      store_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--machine preset|config.ini] "
                   "[--kernel kind] [--smoke] [--store cells.dat] [--resume] "
                   "[--out results.json]\n",
                   argv[0]);
      return 2;
    }
  }
  if (resume && store_path.empty()) {
    std::fprintf(stderr, "--resume requires --store\n");
    return 2;
  }

  std::unique_ptr<engine::SweepStore> store;
  if (!store_path.empty()) {
    try {
      store = std::make_unique<engine::SweepStore>(store_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return exit_code_for(e);
    }
    if (store->dropped_records() > 0) {
      std::fprintf(stderr,
                   "warning: %s: dropped %zu damaged record(s) — the torn "
                   "tail of a killed run\n",
                   store->path().c_str(), store->dropped_records());
    }
  }
  if (machines.empty()) {
    for (const char* name : {"knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem"}) {
      machines.push_back(
          *memsim::MachineConfig::preset(name, memsim::MemMode::kFlat));
    }
  }

  std::vector<apps::AppSpec> apps = apps::all_apps();
  for (apps::AppSpec& app : apps::phase_shift_apps()) {
    apps.push_back(std::move(app));
  }
  if (smoke) {
    for (apps::AppSpec& app : apps) {
      app.iterations = std::min<std::uint64_t>(app.iterations, 4);
      app.accesses_per_iteration =
          std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
    }
  }

  // The grid as a sweep: for every (app, machine), a DDR baseline cell (the
  // dFOM anchor) followed by one dynamic cell at the app's budget point.
  // The engine shares the stage-1 profile between a grid point's static and
  // dynamic production runs, dedups compiled kernels across the whole grid,
  // resumes stored cells (%.17g round-trip — a resumed sweep's tables are
  // byte-identical to an unkilled run's) and keeps the store in enumeration
  // order regardless of --jobs.
  engine::SweepSpec sweep;
  sweep.apps = apps;
  sweep.machines = machines;
  sweep.baselines = {engine::Condition::kDdr};
  sweep.budgets_for = [](const apps::AppSpec& app) {
    return std::vector<std::uint64_t>{budget_for(app)};
  };
  sweep.dynamic_cells = true;
  sweep.base = bench::pipeline_options(bench_options);
  sweep.jobs = bench_options.jobs;
  engine::SweepEngine sweep_engine(std::move(sweep));

  std::vector<engine::SweepOutcome> outcomes;
  try {
    outcomes = sweep_engine.run(store.get(), resume);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code_for(e);
  }
  const engine::SweepStats& stats = sweep_engine.stats();
  if (store != nullptr && resume) {
    std::printf("resume: %zu of %zu sweep cell(s) loaded from %s\n",
                stats.cells_resumed, stats.cells_in_shard,
                store->path().c_str());
  }

  // Reshape: enumeration order is (app-major, machine-minor), and each grid
  // point contributes exactly [baseline ddr, dynamic] in that order.
  std::vector<Cell> cells(apps.size() * machines.size());
  for (const engine::SweepOutcome& outcome : outcomes) {
    const engine::SweepCell& sc = outcome.cell;
    Cell& cell = cells[sc.app * machines.size() + sc.machine];
    cell.app = apps[sc.app].name;
    cell.machine = machines[sc.machine].name;
    cell.fast_tier =
        machines[sc.machine].tiers[machines[sc.machine].fastest_tier()].name;
    if (sc.kind == engine::CellKind::kBaseline) {
      cell.ddr_fom = outcome.result.fom;
    } else {
      cell.budget = sc.budget_bytes;
      cell.static_fom = outcome.result.static_fom;
      cell.dynamic_fom = outcome.result.fom;
      cell.phases = outcome.result.phases;
      cell.migration_bytes = outcome.result.migration_bytes;
      cell.migration_cost_s = outcome.result.migration_cost_s;
    }
  }
  for (Cell& cell : cells) {
    cell.static_dfom =
        engine::dfom_per_mb(cell.static_fom, cell.ddr_fom, cell.budget);
    cell.dynamic_dfom =
        engine::dfom_per_mb(cell.dynamic_fom, cell.ddr_fom, cell.budget);
  }

  std::printf(
      "Figure 4, dynamic row — static knapsack vs phase-aware schedule\n"
      "(dFOM/MByte per the paper's metric; '>' = dynamic wins, '=' = "
      "bit-identical single-phase placement)\n\n");
  std::printf("%-10s %-13s %8s %3s %12s %12s %12s %2s %14s\n", "app",
              "machine", "budget", "ph", "ddr FOM", "static dFOM",
              "dyn dFOM", "", "migrated/rank");
  for (const Cell& cell : cells) {
    const char* verdict = cell.dynamic_dfom > cell.static_dfom   ? ">"
                          : cell.dynamic_dfom == cell.static_dfom ? "="
                                                                  : "<";
    std::printf("%-10s %-13s %8s %3zu %12.4g %12.4g %12.4g %2s %14s\n",
                cell.app.c_str(), cell.machine.c_str(),
                format_bytes(cell.budget).c_str(), cell.phases, cell.ddr_fom,
                cell.static_dfom, cell.dynamic_dfom, verdict,
                format_bytes(cell.migration_bytes).c_str());
  }
  std::printf(
      "\nsweep: %zu cell(s) in %.2fs (%.2f cells/s), profile reuse "
      "%.0f%%, peak cell scratch %s\n",
      stats.cells_computed, stats.wall_seconds, stats.cells_per_second,
      100.0 * stats.profile_hit_rate(),
      format_bytes(stats.arena_peak_cell_bytes).c_str());

  std::printf("\n--- CSV ---\n");
  std::printf(
      "app,machine,fast_tier,budget_mib,phases,ddr_fom,static_fom,"
      "dynamic_fom,static_dfom_per_mb,dynamic_dfom_per_mb,"
      "migration_mib_per_rank,migration_cost_s\n");
  for (const Cell& cell : cells) {
    std::printf("%s,%s,%s,%llu,%zu,%.6g,%.6g,%.6g,%.6g,%.6g,%.3f,%.4f\n",
                cell.app.c_str(), cell.machine.c_str(),
                cell.fast_tier.c_str(),
                static_cast<unsigned long long>(cell.budget / kMiB),
                cell.phases, cell.ddr_fom, cell.static_fom, cell.dynamic_fom,
                cell.static_dfom, cell.dynamic_dfom,
                static_cast<double>(cell.migration_bytes) /
                    static_cast<double>(kMiB),
                cell.migration_cost_s);
  }

  if (!out_path.empty()) {
    std::string json = "{\n  \"bench\": \"fig4_placement_dynamic\",\n"
                       "  \"cells\": [\n";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const Cell& cell = cells[c];
      char buf[768];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"app\": \"%s\", \"machine\": \"%s\", \"fast_tier\": \"%s\", "
          "\"budget_bytes\": %llu, \"phases\": %zu, \"ddr_fom\": %.17g, "
          "\"static_fom\": %.17g, \"dynamic_fom\": %.17g, "
          "\"static_dfom_per_mb\": %.17g, \"dynamic_dfom_per_mb\": %.17g, "
          "\"migration_bytes_per_rank\": %llu, \"migration_cost_s\": %.17g}%s\n",
          cell.app.c_str(), cell.machine.c_str(), cell.fast_tier.c_str(),
          static_cast<unsigned long long>(cell.budget), cell.phases,
          cell.ddr_fom, cell.static_fom, cell.dynamic_fom, cell.static_dfom,
          cell.dynamic_dfom,
          static_cast<unsigned long long>(cell.migration_bytes),
          cell.migration_cost_s, c + 1 < cells.size() ? "," : "");
      json += buf;
    }
    json += "  ]\n}\n";
    std::string error;
    if (!write_file_atomic(out_path, json, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                   error.c_str());
      return kExitData;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
