// hmem_run — stage 4 (and the baselines) as a standalone tool.
//
// Runs one of the bundled applications under one or more placement
// conditions. With --placement, auto-hbwmalloc honours an hmem_advise
// report: a static placement runs the framework condition, a per-phase
// schedule (hmem_advise --per-phase; the file format is sniffed) runs the
// dynamic condition, re-placing objects at phase boundaries with migration
// traffic charged and reported. Baseline conditions apply otherwise.
// --condition takes a comma-separated list (e.g. ddr,numactl,cache), and
// --jobs N runs up to N conditions concurrently — each run is an
// independent simulation, so the reports are identical to serial runs and
// printed in the order given.
//
// Instead of a synthetic app, --replay drives the run from recorded trace
// shards (hmem_profile output): each recorded allocation is re-routed
// through the chosen condition's policy and each sample charges its weight
// to whichever tier now hosts the address. Replaying a shard under its
// source condition reproduces that run's tier traffic exactly (profile
// with --period 1); other conditions answer "where would this recorded
// traffic have been served?". Cache and dynamic cannot be replayed.
//
// The flags and their usage text live in tools/flags.hpp (HMEM_RUN_FLAGS).
// --condition and --placement may repeat; their conditions accumulate in
// the order given.
//
// Exit codes: 0 success, 2 usage/config error (including a schedule with
// no placement for one of the app's phases), 3 data or I/O error, 4 resource
// exhaustion (an object or the recorded allocation stream exceeding the
// simulated machine's per-rank tier capacities).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "common/error.hpp"
#include "engine/execution.hpp"
#include "engine/replay.hpp"
#include "trace/replay.hpp"
#include "trace/salvage.hpp"
#include "flags.hpp"

namespace {

std::string report_text(const hmem::engine::RunResult& run) {
  using hmem::format_bytes;
  std::ostringstream os;
  char buf[256];
  os << "app         : " << run.app << '\n';
  os << "condition   : " << run.condition << '\n';
  std::snprintf(buf, sizeof(buf), "FOM         : %.4f %s\n", run.fom,
                run.fom_unit.c_str());
  os << buf;
  std::snprintf(buf, sizeof(buf), "time        : %.3f s (simulated)\n",
                run.time_s);
  os << buf;
  const std::string fast_name =
      run.tier_traffic.empty() ? "fast" : run.tier_traffic.front().name;
  std::snprintf(buf, sizeof(buf), "%-12s: ", (fast_name + " HWM").c_str());
  os << buf << format_bytes(run.fast_hwm_bytes) << "/rank\n";
  os << "DRAM traffic: ";
  for (std::size_t t = run.tier_traffic.size(); t-- > 0;) {
    // Slowest tier first, mirroring the historical "DDR + MCDRAM" order.
    os << format_bytes(run.tier_traffic[t].bytes) << ' '
       << run.tier_traffic[t].name;
    if (t != 0) os << " + ";
  }
  os << " per rank\n";
  if (run.migration_count > 0) {
    std::snprintf(buf, sizeof(buf),
                  "migration   : %llu moves, %s moved, %.3f s charged (",
                  static_cast<unsigned long long>(run.migration_count),
                  format_bytes(run.migration_bytes).c_str(),
                  run.migration_cost_s);
    os << buf;
    for (std::size_t t = run.tier_traffic.size(); t-- > 0;) {
      os << format_bytes(run.tier_traffic[t].migration_bytes) << ' '
         << run.tier_traffic[t].name;
      if (t != 0) os << " + ";
    }
    os << ")\n";
  }
  if (run.autohbw.has_value()) {
    std::snprintf(buf, sizeof(buf),
                  "interposer  : %llu intercepted, %llu promoted, "
                  "%llu budget rejections%s\n",
                  static_cast<unsigned long long>(
                      run.autohbw->intercepted_allocs),
                  static_cast<unsigned long long>(run.autohbw->promoted),
                  static_cast<unsigned long long>(
                      run.autohbw->budget_rejections),
                  run.autohbw->any_overflow ? " (overflow!)" : "");
    os << buf;
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmem;
  const auto flags = tools::parse<tools::RunFlags>(argc, argv);
  tools::cli_faults(flags.faults);
  std::vector<engine::Condition> conditions;
  advisor::Placement placement;
  advisor::PlacementSchedule schedule;
  // The file each report came from; empty until one is read.
  std::string placement_path;
  std::string schedule_path;
  bool dynamic_requested = false;
  for (const std::string& list : flags.condition) {
    for (const std::string& name : split(list, ',')) {
      const auto c = engine::parse_condition(name);
      if (!c || *c == engine::Condition::kFramework) {
        tools::cli_bad_value("--condition",
                             "ddr, numactl, autohbw, cache or dynamic",
                             name.c_str());
      }
      // dynamic is queued once the schedule is known: after the baselines,
      // like the framework condition.
      if (*c == engine::Condition::kDynamic) {
        dynamic_requested = true;
      } else {
        conditions.push_back(*c);
      }
    }
  }
  for (const std::string& path : flags.placement) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open placement report\n");
      return tools::kExitData;
    }
    std::ostringstream text;
    text << in.rdbuf();
    // One report of each kind at most: a second would silently replace
    // the first.
    const bool is_schedule = advisor::is_schedule_report(text.str());
    std::string& seen = is_schedule ? schedule_path : placement_path;
    if (!seen.empty()) {
      tools::cli_usage_error(
          "--placement",
          std::string(is_schedule ? "two schedules" : "two placement reports") +
              ", '" + seen + "' and '" + path +
              "' (give at most one of each)");
    }
    seen = path;
    try {
      if (is_schedule) {
        schedule = advisor::read_schedule_report(text.str());
      } else {
        placement = advisor::read_placement_report(text.str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "placement parse error: %s\n", e.what());
      return exit_code_for(e);
    }
  }
  const memsim::MachineConfig node =
      flags.machine ? tools::cli_machine(*flags.machine)
                    : memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  const int ranks = flags.ranks.value_or(0);  // 0: the app's or shards' own
  const bool use_placement = !placement_path.empty();
  const bool use_schedule = !schedule_path.empty();
  if (dynamic_requested && !use_schedule) {
    tools::cli_usage_error("--condition dynamic",
                           "needs a --placement schedule (hmem_advise "
                           "--per-phase)");
  }
  if (use_placement) {
    // A placement implies the framework condition; it runs alongside any
    // baselines listed via --condition.
    conditions.push_back(engine::Condition::kFramework);
  }
  if (use_schedule) {
    // A schedule implies the dynamic condition (an explicit
    // `--condition dynamic` is accepted but redundant).
    conditions.push_back(engine::Condition::kDynamic);
  }
  if (conditions.empty()) {
    // No explicit condition: honour the machine's own mode — a config
    // file declaring `mode = cache` means "run this machine in cache
    // mode", not the DDR reference.
    conditions.push_back(node.mode == memsim::MemMode::kCache
                             ? engine::Condition::kCacheMode
                             : engine::Condition::kDdr);
  }

  // ---- Replay mode ------------------------------------------------------
  const std::vector<std::string>& replay_shards = flags.replay;
  if (!replay_shards.empty()) {
    if (flags.app_config || !flags.positional.empty()) {
      tools::cli_usage_error("--replay", "replaces the app argument");
    }
    for (const engine::Condition c : conditions) {
      if (c == engine::Condition::kCacheMode ||
          c == engine::Condition::kDynamic) {
        std::fprintf(stderr,
                     "--replay cannot run the %s condition (it needs the "
                     "live object stream, not recorded samples)\n",
                     engine::condition_name(c));
        return 2;
      }
    }
    // Serial: the shard readers are single-pass, so each condition
    // re-opens the recording.
    for (std::size_t c = 0; c < conditions.size(); ++c) {
      engine::ReplayOptions opts;
      opts.condition = conditions[c];
      opts.node = node;
      opts.shards = static_cast<int>(replay_shards.size());
      opts.ranks = ranks > 0 ? ranks : opts.shards;
      if (conditions[c] == engine::Condition::kFramework) {
        opts.placement = &placement;
      }
      try {
        trace::ReplayReaderOptions replay_options;
        replay_options.salvage = !flags.strict;
        trace::ReplayReader recording(replay_shards, replay_options);
        const engine::RunResult result = engine::replay_run(
            recording.reader(), recording.sites(), opts);
        const trace::SalvageReport& salvage = recording.salvage_report();
        if (!salvage.clean()) {
          std::fprintf(stderr, "warning: %s\n", salvage.summary().c_str());
        }
        if (c > 0) std::printf("\n");
        std::printf("%s", report_text(result).c_str());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "replay: %s\n", e.what());
        return exit_code_for(e);
      }
    }
    return tools::kExitOk;
  }

  // ---- App mode ---------------------------------------------------------
  if (flags.positional.size() > 1 ||
      (flags.positional.empty() && !flags.app_config)) {
    std::fprintf(stderr, "expected exactly one app (name, config file, "
                         "--app-config or --replay)\n");
    tools::usage<tools::RunFlags>();
  }
  apps::AppSpec app = tools::cli_app(flags.app_config, flags.positional);
  if (ranks > 0) app.ranks = ranks;

  std::vector<std::string> reports(conditions.size());
  std::vector<std::string> errors(conditions.size());
  std::vector<int> codes(conditions.size(), 0);
  const int jobs = flags.jobs.value_or(1);
  parallel_for(jobs, conditions.size(), [&](std::size_t c) {
    engine::RunOptions opts;
    opts.condition = conditions[c];
    opts.node = node;
    opts.kernel = flags.kernel.value_or(engine::kernel::KernelKind::kAuto);
    if (conditions[c] == engine::Condition::kFramework) {
      opts.placement = &placement;
    }
    if (conditions[c] == engine::Condition::kDynamic) {
      opts.schedule = &schedule;
    }
    try {
      reports[c] = report_text(engine::run_app(app, opts));
    } catch (const std::exception& e) {
      errors[c] = e.what();
      codes[c] = exit_code_for(e);
    }
  });
  for (std::size_t c = 0; c < conditions.size(); ++c) {
    if (!errors[c].empty()) {
      std::fprintf(stderr, "error: %s\n", errors[c].c_str());
      return codes[c] != 0 ? codes[c] : tools::kExitData;
    }
    if (c > 0) std::printf("\n");
    std::printf("%s", reports[c].c_str());
  }
  return tools::kExitOk;
}
