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
//   usage: hmem_run <app> [--condition c[,c...]] [--placement report.txt]
//                   [--machine preset|config.ini] [--ranks N] [--jobs J]
//                   [--kernel k] [--app-config app.ini] [--replay shard ...]
//     app         bundled app name or an app config file; replaced by
//                 --app-config (explicit file) or --replay (no app at all)
//     condition   ddr | numactl | autohbw | cache | dynamic (default ddr;
//                 dynamic needs a --placement schedule)
//     placement   hmem_advise output: a placement report (framework
//                 condition) or a placement schedule (dynamic condition)
//     machine     machine preset (knl, spr-hbm, ddr-cxl, hbm-ddr-pmem) or
//                 a machine config file                (default knl)
//     ranks       override the app's simulated rank count (scaling studies:
//                 per-rank LLC, capacity and bandwidth shares shrink as N
//                 grows, exactly as in the profiled multi-rank pipeline);
//                 with --replay, the rank count the shards represent
//                 (default: the number of shards)
//     jobs        run conditions concurrently (default 1)
//     kernel      access-loop backend: interp | bytecode | native | auto
//                 (default auto, which honours HMEM_KERNEL then picks
//                 native, or bytecode where native is unavailable). All
//                 kernels produce bit-identical reports; unavailable
//                 choices fall back down the ladder (cache
//                 condition -> interp, no native support -> bytecode).
//     replay      recorded trace shard(s); pass every .rank<k> shard of a
//                 multi-rank profile
//     --strict    replay only: throw on the first malformed trace byte
//                 instead of the default chunk-level salvage
//     --faults s  fault-injection schedule (overrides HMEM_FAULTS)
//
// Exit codes: 0 success, 2 usage/config error (including a schedule with
// no placement for one of the app's phases), 3 data or I/O error, 4 resource
// exhaustion (an object or the recorded allocation stream exceeding the
// simulated machine's per-rank tier capacities).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "apps/app_config.hpp"
#include "apps/workloads.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "common/error.hpp"
#include "engine/execution.hpp"
#include "engine/replay.hpp"
#include "trace/replay.hpp"
#include "trace/salvage.hpp"
#include "cli.hpp"

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
  tools::cli_init_faults();
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <app> [--condition ddr|numactl|autohbw|cache"
                 "|dynamic[,...]] [--placement report.txt] "
                 "[--machine preset|config.ini] [--ranks N] [--jobs J] "
                 "[--kernel interp|bytecode|native|auto] "
                 "[--app-config app.ini] [--replay shard ...] "
                 "[--strict] [--faults spec]\n"
                 "  machine presets: %s\n",
                 argv[0], tools::machine_preset_list().c_str());
    return 2;
  }

  std::vector<std::string> positional;
  std::vector<std::string> replay_shards;
  std::optional<std::string> app_config;
  std::vector<engine::Condition> conditions;
  advisor::Placement placement;
  advisor::PlacementSchedule schedule;
  bool use_placement = false;
  bool use_schedule = false;
  bool dynamic_requested = false;
  int ranks = 0;
  int jobs = 1;
  bool strict = false;
  engine::kernel::KernelKind kern = engine::kernel::KernelKind::kAuto;
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--condition") == 0) {
      const std::string list = tools::cli_value(argc, argv, i, "--condition");
      for (const std::string& c : split(list, ',')) {
        if (c == "ddr") {
          conditions.push_back(engine::Condition::kDdr);
        } else if (c == "numactl") {
          conditions.push_back(engine::Condition::kNumactl);
        } else if (c == "autohbw") {
          conditions.push_back(engine::Condition::kAutoHbw);
        } else if (c == "cache") {
          conditions.push_back(engine::Condition::kCacheMode);
        } else if (c == "dynamic") {
          // Queued once the schedule is known; order is preserved below by
          // appending it after the baselines, like the framework condition.
          dynamic_requested = true;
        } else {
          std::fprintf(stderr, "unknown condition %s\n", c.c_str());
          return 2;
        }
      }
    } else if (std::strcmp(argv[i], "--placement") == 0) {
      std::ifstream in(tools::cli_value(argc, argv, i, "--placement"));
      if (!in) {
        std::fprintf(stderr, "cannot open placement report\n");
        return tools::kExitData;
      }
      std::ostringstream text;
      text << in.rdbuf();
      try {
        if (advisor::is_schedule_report(text.str())) {
          schedule = advisor::read_schedule_report(text.str());
          use_schedule = true;
        } else {
          placement = advisor::read_placement_report(text.str());
          use_placement = true;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "placement parse error: %s\n", e.what());
        return exit_code_for(e);
      }
    } else if (std::strcmp(argv[i], "--machine") == 0) {
      const auto machine =
          tools::load_machine(tools::cli_value(argc, argv, i, "--machine"));
      if (!machine) return 2;
      node = *machine;
    } else if (std::strcmp(argv[i], "--ranks") == 0) {
      ranks = tools::cli_int(tools::cli_value(argc, argv, i, "--ranks"),
                             "--ranks", 1);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = tools::cli_int(tools::cli_value(argc, argv, i, "--jobs"),
                            "--jobs", 1);
    } else if (std::strcmp(argv[i], "--kernel") == 0) {
      const auto k = engine::kernel::parse_kernel(
          tools::cli_value(argc, argv, i, "--kernel"));
      if (!k) {
        std::fprintf(stderr, "--kernel: expected one of %s\n",
                     engine::kernel::kernel_list().c_str());
        return 2;
      }
      kern = *k;
    } else if (std::strcmp(argv[i], "--app-config") == 0) {
      app_config = tools::cli_value(argc, argv, i, "--app-config");
    } else if (std::strcmp(argv[i], "--replay") == 0) {
      replay_shards.emplace_back(
          tools::cli_value(argc, argv, i, "--replay"));
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
  if (dynamic_requested && !use_schedule) {
    std::fprintf(stderr,
                 "--condition dynamic needs a placement *schedule* "
                 "(hmem_advise --per-phase) via --placement\n");
    return 2;
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
  if (!replay_shards.empty()) {
    if (app_config || !positional.empty()) {
      std::fprintf(stderr, "--replay replaces the app argument\n");
      return 2;
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
        replay_options.salvage = !strict;
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
  if (positional.size() > 1 ||
      (positional.empty() && !app_config)) {
    std::fprintf(stderr, "expected exactly one app (name, config file, "
                         "--app-config or --replay)\n");
    return 2;
  }
  std::string app_error;
  auto app = app_config ? apps::load_app_file(*app_config, &app_error)
                        : apps::load_app(positional[0], &app_error);
  if (!app) {
    std::fprintf(stderr, "%s\n", app_error.c_str());
    return tools::kExitUsage;
  }
  if (ranks > 0) app->ranks = ranks;

  std::vector<std::string> reports(conditions.size());
  std::vector<std::string> errors(conditions.size());
  std::vector<int> codes(conditions.size(), 0);
  parallel_for(jobs, conditions.size(), [&](std::size_t c) {
    engine::RunOptions opts;
    opts.condition = conditions[c];
    opts.node = node;
    opts.kernel = kern;
    if (conditions[c] == engine::Condition::kFramework) {
      opts.placement = &placement;
    }
    if (conditions[c] == engine::Condition::kDynamic) {
      opts.schedule = &schedule;
    }
    try {
      reports[c] = report_text(engine::run_app(*app, opts));
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
