// hmem_sweep — fleet-scale evaluation sweeps over the (app x machine x
// budget x condition/strategy) grid, on top of the sweep engine
// (engine/sweep.hpp): shared stage-1 profiles, a memo of distinct static
// production runs, per-cell arena scratch, resumable checkpoint stores and
// deterministic multi-process sharding.
//
//   usage: hmem_sweep [options]
//     --apps a,b,...        workloads (default: the eight paper apps plus
//                           churn and transient)
//     --machines m1,m2,...  machine presets or config files (default: knl)
//     --budgets 64M,256M    fast-tier budget points, unit suffixes allowed
//                           (default: the paper ladder per app); clamped
//                           per machine to its fastest tier
//     --baselines c1,c2     baseline conditions: ddr, numactl, autohbw,
//                           cache (default: ddr)
//     --strategies s1,s2    advisor strategies: density, misses:<pct>, or
//                           the shorthand `paper` for the paper's four
//                           (default: none)
//     --dynamic             add one phase-aware (static-vs-dynamic) cell
//                           per (app, machine, budget)
//     --sweep-config f.ini  read the [sweep] section of an INI file for
//                           any of the above; explicit flags win
//     --jobs N              worker threads for independent cells
//     --shards I/N          run shard I of N (1-based): this process
//                           computes cells with (index % N) == I-1
//     --kernel kind         access-loop backend (auto/interp/bytecode/
//                           native; default auto = HMEM_KERNEL, then
//                           native, else bytecode)
//     --smoke               shrink every app for CI (structure preserved)
//     --store cells.dat     append finished cells to a checksummed store
//     --resume              (requires --store) skip cells already stored
//     --out results.csv     write the cell CSV to a file (atomic) instead
//                           of only stdout
//     --bench-out f.json    write sweep throughput metrics (cells/sec,
//                           per-cell peak scratch, profile and run-memo
//                           hit rates, peak RSS, the host context, the
//                           kernel --kernel resolved to) as JSON. Memo
//                           lookups count framework cells, dynamic static
//                           legs and one-phase dynamic runs
//     --faults spec         fault-injection schedule (overrides
//                           HMEM_FAULTS)
//     --merge out.dat --stores a.dat,b.dat,...
//                           no sweep: combine shard stores into one file
//                           byte-identical to an unsharded run's store
//
// Sharding contract: every shard must be launched with the same grid flags.
// Each shard writes its own store; `--merge` rewrites their union in cell
// order, so the merged file is byte-identical to the store of an unsharded
// run over the same grid.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "cli.hpp"
#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "common/host_context.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "engine/pipeline.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_store.hpp"

namespace {

using namespace hmem;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--apps a,b,...] [--machines m1,m2,...]\n"
      "       [--budgets 64M,256M,...] [--baselines ddr,numactl,...]\n"
      "       [--strategies density,misses:1,...|paper] [--dynamic]\n"
      "       [--sweep-config file.ini] [--jobs N] [--shards I/N]\n"
      "       [--kernel %s] [--smoke]\n"
      "       [--store cells.dat] [--resume] [--out results.csv]\n"
      "       [--bench-out bench.json] [--faults spec]\n"
      "       [--merge out.dat --stores a.dat,b.dat,...]\n"
      "machine presets: %s\n",
      argv0, engine::kernel::kernel_list().c_str(),
      tools::machine_preset_list().c_str());
  return tools::kExitUsage;
}

std::vector<apps::AppSpec> parse_apps(const std::string& csv) {
  std::vector<apps::AppSpec> result;
  for (const std::string& name : split(csv, ',')) {
    auto app = apps::find_app(trim(name));
    if (!app) {
      std::fprintf(stderr, "--apps: unknown workload '%s'\n",
                   trim(name).c_str());
      std::exit(tools::kExitUsage);
    }
    result.push_back(std::move(*app));
  }
  return result;
}

std::vector<memsim::MachineConfig> parse_machines(const std::string& csv) {
  std::vector<memsim::MachineConfig> result;
  for (const std::string& name : split(csv, ',')) {
    const auto machine = tools::load_machine(trim(name));
    if (!machine) std::exit(tools::kExitUsage);
    result.push_back(*machine);
  }
  return result;
}

std::vector<std::uint64_t> parse_budgets(const std::string& csv) {
  std::vector<std::uint64_t> result;
  for (const std::string& item : split(csv, ',')) {
    const auto bytes = parse_bytes(trim(item));
    if (!bytes || *bytes == 0) {
      std::fprintf(stderr, "--budgets: cannot parse '%s'\n",
                   trim(item).c_str());
      std::exit(tools::kExitUsage);
    }
    result.push_back(*bytes);
  }
  return result;
}

std::vector<engine::Condition> parse_baselines(const std::string& csv) {
  std::vector<engine::Condition> result;
  for (const std::string& item : split(csv, ',')) {
    const std::string name = to_lower(trim(item));
    if (name == "ddr") {
      result.push_back(engine::Condition::kDdr);
    } else if (name == "numactl") {
      result.push_back(engine::Condition::kNumactl);
    } else if (name == "autohbw") {
      result.push_back(engine::Condition::kAutoHbw);
    } else if (name == "cache") {
      result.push_back(engine::Condition::kCacheMode);
    } else {
      std::fprintf(stderr,
                   "--baselines: unknown condition '%s' (one of ddr, "
                   "numactl, autohbw, cache)\n",
                   name.c_str());
      std::exit(tools::kExitUsage);
    }
  }
  return result;
}

std::vector<engine::StrategyConfig> parse_strategies(const std::string& csv) {
  std::vector<engine::StrategyConfig> result;
  for (const std::string& item : split(csv, ',')) {
    const std::string name = to_lower(trim(item));
    if (name == "paper") {
      for (engine::StrategyConfig& s : engine::paper_strategies()) {
        result.push_back(std::move(s));
      }
    } else if (name == "density") {
      engine::StrategyConfig s;
      s.label = "Density";
      s.options.strategy = advisor::Strategy::kDensity;
      result.push_back(std::move(s));
    } else if (name.rfind("misses:", 0) == 0) {
      char* end = nullptr;
      const std::string pct = name.substr(7);
      const double threshold = std::strtod(pct.c_str(), &end);
      if (end != pct.c_str() + pct.size() || threshold < 0) {
        std::fprintf(stderr, "--strategies: bad threshold in '%s'\n",
                     name.c_str());
        std::exit(tools::kExitUsage);
      }
      engine::StrategyConfig s;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Misses(%g%%)", threshold);
      s.label = buf;
      s.options.strategy = advisor::Strategy::kMisses;
      s.options.threshold_pct = threshold;
      result.push_back(std::move(s));
    } else {
      std::fprintf(stderr,
                   "--strategies: unknown strategy '%s' (density, "
                   "misses:<pct>, or paper)\n",
                   name.c_str());
      std::exit(tools::kExitUsage);
    }
  }
  return result;
}

/// Process-wide peak resident set in bytes (ru_maxrss is KiB on Linux).
std::size_t peak_rss_bytes() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

int main(int argc, char** argv) {
  tools::cli_init_faults();

  // Grid selection, as raw strings so the INI file and explicit flags can
  // share one parsing path (flags win).
  std::string apps_csv;
  std::string machines_csv;
  std::string budgets_csv;
  std::string baselines_csv;
  std::string strategies_csv;
  bool dynamic_cells = false;
  bool dynamic_set = false;
  std::string sweep_config;
  int jobs = 1;
  int shard_index = 0;
  int shard_count = 1;
  engine::kernel::KernelKind kernel = engine::kernel::KernelKind::kAuto;
  bool smoke = false;
  std::string store_path;
  bool resume = false;
  std::string out_path;
  std::string bench_out;
  std::string merge_out;
  std::string merge_stores_csv;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--apps") == 0) {
      apps_csv = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--machines") == 0) {
      machines_csv = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--budgets") == 0) {
      budgets_csv = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--baselines") == 0) {
      baselines_csv = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--strategies") == 0) {
      strategies_csv = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--dynamic") == 0) {
      dynamic_cells = true;
      dynamic_set = true;
    } else if (std::strcmp(arg, "--sweep-config") == 0) {
      sweep_config = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--jobs") == 0) {
      // 0 means serial, like 1.
      jobs = std::max(tools::cli_int(tools::cli_value(argc, argv, i, arg),
                                     arg, 0),
                      1);
    } else if (std::strcmp(arg, "--shards") == 0) {
      const char* value = tools::cli_value(argc, argv, i, arg);
      int index = 0;
      int count = 0;
      if (std::sscanf(value, "%d/%d", &index, &count) != 2 || count < 1 ||
          index < 1 || index > count) {
        std::fprintf(stderr,
                     "--shards: expected I/N with 1 <= I <= N, got '%s'\n",
                     value);
        return tools::kExitUsage;
      }
      shard_index = index - 1;
      shard_count = count;
    } else if (std::strcmp(arg, "--kernel") == 0) {
      const char* value = tools::cli_value(argc, argv, i, arg);
      const auto kind = engine::kernel::parse_kernel(value);
      if (!kind) {
        std::fprintf(stderr, "--kernel: unknown kernel '%s' (one of %s)\n",
                     value, engine::kernel::kernel_list().c_str());
        return tools::kExitUsage;
      }
      kernel = *kind;
    } else if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(arg, "--store") == 0) {
      store_path = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(arg, "--out") == 0) {
      out_path = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--bench-out") == 0) {
      bench_out = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--faults") == 0) {
      tools::cli_configure_faults(tools::cli_value(argc, argv, i, arg));
    } else if (std::strcmp(arg, "--merge") == 0) {
      merge_out = tools::cli_value(argc, argv, i, arg);
    } else if (std::strcmp(arg, "--stores") == 0) {
      merge_stores_csv = tools::cli_value(argc, argv, i, arg);
    } else {
      return usage(argv[0]);
    }
  }

  // Merge mode: no sweep, just rewrite the union of the shard stores.
  if (!merge_out.empty() || !merge_stores_csv.empty()) {
    if (merge_out.empty() || merge_stores_csv.empty()) {
      std::fprintf(stderr, "--merge and --stores go together\n");
      return tools::kExitUsage;
    }
    std::vector<std::string> inputs;
    for (const std::string& path : split(merge_stores_csv, ',')) {
      inputs.push_back(trim(path));
    }
    try {
      engine::merge_sweep_stores(inputs, merge_out);
    } catch (const std::exception& e) {
      return tools::cli_fail(e);
    }
    const engine::SweepStore merged(merge_out);
    std::printf("merged %zu store(s) into %s (%zu cell(s))\n", inputs.size(),
                merge_out.c_str(), merged.size());
    return tools::kExitOk;
  }
  if (resume && store_path.empty()) {
    std::fprintf(stderr, "--resume requires --store\n");
    return tools::kExitUsage;
  }

  // INI sweep config fills whatever the flags left unset.
  if (!sweep_config.empty()) {
    std::ifstream in(sweep_config);
    if (!in) {
      std::fprintf(stderr, "--sweep-config: cannot read %s\n",
                   sweep_config.c_str());
      return tools::kExitData;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const Config config = Config::parse(text.str());
    if (apps_csv.empty()) apps_csv = config.get_string("sweep", "apps", "");
    if (machines_csv.empty()) {
      machines_csv = config.get_string("sweep", "machines", "");
    }
    if (budgets_csv.empty()) {
      budgets_csv = config.get_string("sweep", "budgets", "");
    }
    if (baselines_csv.empty()) {
      baselines_csv = config.get_string("sweep", "baselines", "");
    }
    if (strategies_csv.empty()) {
      strategies_csv = config.get_string("sweep", "strategies", "");
    }
    if (!dynamic_set) {
      dynamic_cells = config.get_bool("sweep", "dynamic", false);
    }
  }

  engine::SweepSpec spec;
  if (apps_csv.empty()) {
    spec.apps = apps::all_apps();
    for (apps::AppSpec& app : apps::phase_shift_apps()) {
      spec.apps.push_back(std::move(app));
    }
  } else {
    spec.apps = parse_apps(apps_csv);
  }
  spec.machines = machines_csv.empty()
                      ? std::vector<memsim::MachineConfig>{
                            memsim::MachineConfig::knl7250(
                                memsim::MemMode::kFlat)}
                      : parse_machines(machines_csv);
  spec.baselines = baselines_csv.empty()
                       ? std::vector<engine::Condition>{
                             engine::Condition::kDdr}
                       : parse_baselines(baselines_csv);
  if (!strategies_csv.empty()) {
    spec.strategies = parse_strategies(strategies_csv);
  }
  if (!budgets_csv.empty()) {
    const std::vector<std::uint64_t> budgets = parse_budgets(budgets_csv);
    spec.budgets_for = [budgets](const apps::AppSpec&) { return budgets; };
  }
  spec.dynamic_cells = dynamic_cells;
  spec.base.kernel = kernel;
  spec.jobs = jobs;
  spec.shard_index = shard_index;
  spec.shard_count = shard_count;
  if (smoke) {
    for (apps::AppSpec& app : spec.apps) {
      app.iterations = std::min<std::uint64_t>(app.iterations, 4);
      app.accesses_per_iteration =
          std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
    }
  }

  std::unique_ptr<engine::SweepStore> store;
  if (!store_path.empty()) {
    try {
      store = std::make_unique<engine::SweepStore>(store_path);
    } catch (const std::exception& e) {
      return tools::cli_fail(e);
    }
    if (store->dropped_records() > 0) {
      std::fprintf(stderr,
                   "warning: %s: dropped %zu damaged record(s) — the torn "
                   "tail of a killed run\n",
                   store->path().c_str(), store->dropped_records());
    }
  }

  engine::SweepEngine sweep_engine(std::move(spec));
  // Framework and dynamic cells advise a budget past the fast tier at the
  // tier's capacity, as hmem_advise does; say so once per machine and budget.
  std::set<std::pair<std::size_t, std::uint64_t>> clamp_warned;
  for (const engine::SweepCell& cell : sweep_engine.cells()) {
    if (cell.kind == engine::CellKind::kBaseline) continue;
    const memsim::MachineConfig& node =
        sweep_engine.spec().machines[cell.machine];
    bool clamped = false;
    const std::uint64_t usable =
        engine::clamp_fast_budget(node, cell.budget_bytes, &clamped);
    if (clamped &&
        clamp_warned.emplace(cell.machine, cell.budget_bytes).second) {
      std::fprintf(stderr,
                   "warning: budget %s exceeds %s's %s tier capacity %s; "
                   "clamping\n",
                   format_bytes(cell.budget_bytes).c_str(), node.name.c_str(),
                   node.tiers[node.fastest_tier()].name.c_str(),
                   format_bytes(usable).c_str());
    }
  }
  std::vector<engine::SweepOutcome> outcomes;
  try {
    outcomes = sweep_engine.run(store.get(), resume);
  } catch (const std::exception& e) {
    return tools::cli_fail(e);
  }
  const engine::SweepSpec& grid = sweep_engine.spec();
  const engine::SweepStats& stats = sweep_engine.stats();

  std::printf("sweep: %zu cell(s)", stats.cells_total);
  if (shard_count > 1) {
    std::printf(", shard %d/%d owns %zu", shard_index + 1, shard_count,
                stats.cells_in_shard);
  }
  std::printf(
      " — computed %zu, resumed %zu in %.2fs (%.2f cells/s)\n"
      "caches: profile %llu/%llu hits (%.0f%%), run memo %llu/%llu hits "
      "(%.0f%%)\n"
      "memory: peak cell scratch %s, arena reserved %s, peak RSS %s\n",
      stats.cells_computed, stats.cells_resumed, stats.wall_seconds,
      stats.cells_per_second,
      static_cast<unsigned long long>(stats.profile_hits),
      static_cast<unsigned long long>(stats.profile_hits +
                                      stats.profile_misses),
      100.0 * stats.profile_hit_rate(),
      static_cast<unsigned long long>(stats.run_memo_hits),
      static_cast<unsigned long long>(stats.run_memo_hits +
                                      stats.run_memo_misses),
      100.0 * stats.run_memo_hit_rate(),
      format_bytes(stats.arena_peak_cell_bytes).c_str(),
      format_bytes(stats.arena_reserved_bytes).c_str(),
      format_bytes(peak_rss_bytes()).c_str());

  // Cell results as CSV: one line per cell with a result (the whole grid
  // without sharding; this shard's slice plus resumed cells with it).
  std::string csv =
      "index,app,machine,kind,detail,budget_bytes,fom,fast_hwm_bytes,"
      "any_overflow,static_fom,phases,migration_bytes,migration_cost_s\n";
  for (const engine::SweepOutcome& outcome : outcomes) {
    if (!outcome.has_result()) continue;
    const engine::SweepCell& cell = outcome.cell;
    const engine::SweepCellResult& r = outcome.result;
    std::string detail;
    if (cell.kind == engine::CellKind::kBaseline) {
      detail = engine::condition_name(cell.baseline);
    } else if (cell.kind == engine::CellKind::kFramework) {
      detail = grid.strategies[cell.strategy].label;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%zu,%s,%s,%s,%s,%llu,%.17g,%llu,%d,%.17g,%zu,%llu,%.17g\n",
                  cell.index, grid.apps[cell.app].name.c_str(),
                  grid.machines[cell.machine].name.c_str(),
                  engine::cell_kind_name(cell.kind), detail.c_str(),
                  static_cast<unsigned long long>(cell.budget_bytes), r.fom,
                  static_cast<unsigned long long>(r.fast_hwm_bytes),
                  r.any_overflow ? 1 : 0, r.static_fom, r.phases,
                  static_cast<unsigned long long>(r.migration_bytes),
                  r.migration_cost_s);
    csv += buf;
  }
  if (out_path.empty()) {
    std::printf("\n--- CSV ---\n%s", csv.c_str());
  } else {
    std::string error;
    if (!write_file_atomic(out_path, csv, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                   error.c_str());
      return tools::kExitData;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!bench_out.empty()) {
    char buf[2048];
    std::snprintf(
        buf, sizeof(buf),
        "{\n"
        "  \"bench\": \"sweep\",\n"
        "  \"cells_total\": %zu,\n"
        "  \"cells_in_shard\": %zu,\n"
        "  \"cells_computed\": %zu,\n"
        "  \"cells_resumed\": %zu,\n"
        "  \"wall_seconds\": %.6f,\n"
        "  \"cells_per_second\": %.6f,\n"
        "  \"profile_hits\": %llu,\n"
        "  \"profile_misses\": %llu,\n"
        "  \"profile_hit_rate\": %.6f,\n"
        "  \"run_memo_hits\": %llu,\n"
        "  \"run_memo_misses\": %llu,\n"
        "  \"run_memo_hit_rate\": %.6f,\n"
        "  \"arena_peak_cell_bytes\": %zu,\n"
        "  \"arena_reserved_bytes\": %zu,\n"
        "  \"peak_rss_bytes\": %zu,\n"
        "  \"jobs\": %d,\n"
        "%s"
        "  \"kernel\": \"%s\",\n"
        "  \"smoke\": %s\n"
        "}\n",
        stats.cells_total, stats.cells_in_shard, stats.cells_computed,
        stats.cells_resumed, stats.wall_seconds, stats.cells_per_second,
        static_cast<unsigned long long>(stats.profile_hits),
        static_cast<unsigned long long>(stats.profile_misses),
        stats.profile_hit_rate(),
        static_cast<unsigned long long>(stats.run_memo_hits),
        static_cast<unsigned long long>(stats.run_memo_misses),
        stats.run_memo_hit_rate(), stats.arena_peak_cell_bytes,
        stats.arena_reserved_bytes, peak_rss_bytes(), jobs,
        host_context_json().c_str(),
        engine::kernel::kernel_name(
            engine::kernel::select_kernel(kernel, /*cache_mode=*/false)),
        smoke ? "true" : "false");
    std::string error;
    if (!write_file_atomic(bench_out, buf, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", bench_out.c_str(),
                   error.c_str());
      return tools::kExitData;
    }
    std::printf("wrote %s\n", bench_out.c_str());
  }
  return tools::kExitOk;
}
