// hmem_sweep — fleet-scale evaluation sweeps over the (app x machine x
// budget x condition/strategy) grid, on top of the sweep engine
// (engine/sweep.hpp): shared stage-1 profiles, a memo of distinct static
// production runs, per-cell arena scratch, resumable checkpoint stores and
// deterministic multi-process sharding.
//
// The flags and their usage text live in tools/flags.hpp
// (HMEM_SWEEP_FLAGS). The grid flags (--apps, --machines, --budgets,
// --baselines, --strategies, --dynamic) may also come from the [sweep]
// section of a --sweep-config INI file; explicit flags win. --jobs 0 means
// serial, like 1.
//
// Sharding contract: every shard must be launched with the same grid flags.
// Each shard writes its own store; `--merge` rewrites their union in cell
// order, so the merged file is byte-identical to the store of an unsharded
// run over the same grid.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "apps/workloads.hpp"
#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/host_context.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "engine/pipeline.hpp"
#include "engine/sweep.hpp"
#include "engine/sweep_store.hpp"
#include "flags.hpp"

namespace {

using namespace hmem;

std::vector<apps::AppSpec> parse_apps(const std::string& csv) {
  std::vector<apps::AppSpec> result;
  for (const std::string& name : split(csv, ',')) {
    auto app = apps::find_app(trim(name));
    if (!app) {
      tools::cli_bad_value("--apps", "a bundled app", trim(name).c_str());
    }
    result.push_back(std::move(*app));
  }
  return result;
}

std::vector<memsim::MachineConfig> parse_machines(const std::string& csv) {
  std::vector<memsim::MachineConfig> result;
  for (const std::string& name : split(csv, ',')) {
    result.push_back(tools::cli_machine(trim(name), "--machines"));
  }
  return result;
}

std::vector<std::uint64_t> parse_budgets(const std::string& csv) {
  std::vector<std::uint64_t> result;
  for (const std::string& item : split(csv, ',')) {
    const auto bytes = parse_bytes(trim(item));
    if (!bytes || *bytes == 0) {
      tools::cli_bad_value("--budgets", "non-zero sizes such as 256M",
                           trim(item).c_str());
    }
    result.push_back(*bytes);
  }
  return result;
}

std::vector<engine::Condition> parse_baselines(const std::string& csv) {
  std::vector<engine::Condition> result;
  for (const std::string& item : split(csv, ',')) {
    const std::string name = to_lower(trim(item));
    const auto c = engine::parse_condition(name);
    if (!c || *c == engine::Condition::kFramework ||
        *c == engine::Condition::kDynamic) {
      tools::cli_bad_value("--baselines", "ddr, numactl, autohbw or cache",
                           name.c_str());
    }
    result.push_back(*c);
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
      const double threshold = tools::cli_real(
          name.c_str() + 7, "--strategies misses:<pct>", 0, 100);
      engine::StrategyConfig s;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "Misses(%g%%)", threshold);
      s.label = buf;
      s.options.strategy = advisor::Strategy::kMisses;
      s.options.threshold_pct = threshold;
      result.push_back(std::move(s));
    } else {
      tools::cli_bad_value("--strategies", "density, misses:<pct> or paper",
                           name.c_str());
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
  const auto flags = tools::parse<tools::SweepFlags>(argc, argv);
  tools::cli_faults(flags.faults);
  if (!flags.positional.empty()) {
    std::fprintf(stderr, "unexpected argument %s\n",
                 flags.positional.front().c_str());
    tools::usage<tools::SweepFlags>();
  }
  // 0 means serial, like 1.
  const int jobs = std::max(flags.jobs.value_or(1), 1);
  int shard_index = 0;
  int shard_count = 1;
  if (flags.shards) {
    const std::vector<std::string> halves = split(*flags.shards, '/');
    if (halves.size() != 2) {
      tools::cli_bad_value("--shards", "I/N", flags.shards->c_str());
    }
    shard_count = static_cast<int>(tools::cli_count(
        halves[1].c_str(), "--shards", 1, std::numeric_limits<int>::max()));
    shard_index = static_cast<int>(tools::cli_count(
                      halves[0].c_str(), "--shards", 1, shard_count)) -
                  1;
  }
  // Grid selection, as raw strings so the INI file and explicit flags can
  // share one parsing path (flags win).
  std::string apps_csv = flags.apps.value_or("");
  std::string machines_csv = flags.machines.value_or("");
  std::string budgets_csv = flags.budgets.value_or("");
  std::string baselines_csv = flags.baselines.value_or("");
  std::string strategies_csv = flags.strategies.value_or("");
  bool dynamic_cells = flags.dynamic;

  // Merge mode: no sweep, just rewrite the union of the shard stores.
  const std::string merge_out = flags.merge.value_or("");
  const std::string merge_stores_csv = flags.stores.value_or("");
  if (!merge_out.empty() || !merge_stores_csv.empty()) {
    if (merge_out.empty() || merge_stores_csv.empty()) {
      tools::cli_usage_error("--merge", "goes together with --stores");
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
  if (flags.resume && !flags.store) {
    tools::cli_usage_error("--resume", "requires --store");
  }

  // INI sweep config fills whatever the flags left unset.
  if (flags.sweep_config) {
    std::ifstream in(*flags.sweep_config);
    if (!in) {
      std::fprintf(stderr, "--sweep-config: cannot read %s\n",
                   flags.sweep_config->c_str());
      return tools::kExitData;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const std::pair<std::string*, const char*> list_keys[] = {
        {&apps_csv, "apps"},           {&machines_csv, "machines"},
        {&budgets_csv, "budgets"},     {&baselines_csv, "baselines"},
        {&strategies_csv, "strategies"}};
    try {
      const Config config = Config::parse(text.str());
      for (const std::string& key : config.keys("sweep")) {
        const bool known =
            key == "dynamic" ||
            std::any_of(std::begin(list_keys), std::end(list_keys),
                        [&](const auto& entry) { return key == entry.second; });
        if (!known) throw ConfigError("[sweep] unknown key '" + key + "'");
      }
      for (const auto& [csv, key] : list_keys) {
        if (csv->empty()) *csv = config.get_string("sweep", key, "");
      }
      if (!flags.dynamic) {
        dynamic_cells = config.get_bool("sweep", "dynamic", false);
      }
    } catch (const ConfigError& e) {
      std::fprintf(stderr, "--sweep-config: %s: %s\n",
                   flags.sweep_config->c_str(), e.what());
      return tools::kExitUsage;
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
  spec.base.kernel = flags.kernel.value_or(engine::kernel::KernelKind::kAuto);
  spec.jobs = jobs;
  spec.shard_index = shard_index;
  spec.shard_count = shard_count;
  if (flags.smoke) {
    for (apps::AppSpec& app : spec.apps) {
      app.iterations = std::min<std::uint64_t>(app.iterations, 4);
      app.accesses_per_iteration =
          std::min<std::uint64_t>(app.accesses_per_iteration, 6000);
    }
  }

  std::unique_ptr<engine::SweepStore> store;
  if (flags.store) {
    try {
      store = std::make_unique<engine::SweepStore>(*flags.store);
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
  const engine::SweepSpec& grid = sweep_engine.spec();
  // Framework and dynamic cells advise a budget past a rank's share of the
  // fast tier at that share, as hmem_advise clamps to the tier's capacity;
  // say so once per machine, budget and rank count.
  std::set<std::tuple<std::size_t, std::uint64_t, int>> clamp_warned;
  for (const engine::SweepCell& cell : sweep_engine.cells()) {
    if (cell.kind == engine::CellKind::kBaseline) continue;
    const memsim::MachineConfig& node = grid.machines[cell.machine];
    const int ranks = grid.apps[cell.app].ranks;
    bool clamped = false;
    const std::uint64_t usable =
        engine::clamp_fast_budget(node, cell.budget_bytes, ranks, &clamped);
    if (clamped &&
        clamp_warned.emplace(cell.machine, cell.budget_bytes, ranks).second) {
      std::fprintf(stderr,
                   "warning: budget %s exceeds the %d-rank share %s of %s's "
                   "%s tier; clamping\n",
                   format_bytes(cell.budget_bytes).c_str(), ranks,
                   format_bytes(usable).c_str(), node.name.c_str(),
                   node.tiers[node.fastest_tier()].name.c_str());
    }
  }
  std::vector<engine::SweepOutcome> outcomes;
  try {
    outcomes = sweep_engine.run(store.get(), flags.resume);
  } catch (const std::exception& e) {
    return tools::cli_fail(e);
  }
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
  if (!flags.out) {
    std::printf("\n--- CSV ---\n%s", csv.c_str());
  } else {
    std::string error;
    if (!write_file_atomic(*flags.out, csv, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", flags.out->c_str(),
                   error.c_str());
      return tools::kExitData;
    }
    std::printf("wrote %s\n", flags.out->c_str());
  }

  if (flags.bench_out) {
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
            engine::kernel::select_kernel(grid.base.kernel,
                                          /*cache_mode=*/false)),
        flags.smoke ? "true" : "false");
    std::string error;
    if (!write_file_atomic(*flags.bench_out, buf, &error)) {
      std::fprintf(stderr, "cannot write %s: %s\n", flags.bench_out->c_str(),
                   error.c_str());
      return tools::kExitData;
    }
    std::printf("wrote %s\n", flags.bench_out->c_str());
  }
  return tools::kExitOk;
}
