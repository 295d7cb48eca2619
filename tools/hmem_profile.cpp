// hmem_profile — stage 1 as a standalone tool (the Extrae role).
//
// Profiles one of the bundled applications and writes the trace that
// hmem_advise consumes. The trace is streamed to disk as the run executes
// (the profiler pushes into the format writer; nothing is buffered), in
// either the line-oriented text format or the compact binary format v2.
//
// With --ranks N the tool simulates an N-rank job: one profiled execution
// per rank, each with its own ASLR image and sampling phase, writing one
// shard per rank as <trace-out>.rank<k>. Feed all shards to hmem_advise,
// which k-way merges them by timestamp. Ranks are independent simulations;
// --jobs N runs up to N of them concurrently with bit-identical shards
// (each rank's seed derives from its index, each shard is private).
//
//   usage: hmem_profile <app> <trace-out> [period] [min-alloc-bytes]
//                       [--format text|binary] [--ranks N] [--jobs J]
//                       [--machine preset|config.ini]
//                       [--period P] [--min-alloc B]
//                       [--kernel k] [--app-config app.ini]
//                       [--checksums] [--faults spec]
//     app              hpcg | lulesh | bt | minife | cgpop | snap |
//                      maxw-dgtd | gtc-p | churn | transient — or the path
//                      of an app config file (INI workload DSL); with
//                      --app-config the app argument is dropped entirely
//     trace-out        output trace path (suffix .rank<k> when --ranks > 1)
//     --format f       trace encoding (default text)
//     --ranks N        simulated ranks -> N shards (default: app default)
//     --jobs J         profile up to J ranks concurrently (default 1)
//     --machine m      machine preset (knl, spr-hbm, ddr-cxl,
//                      hbm-ddr-pmem) or a machine config file (default knl)
//     --kernel k       access-loop backend: interp | bytecode | native |
//                      auto (default auto = HMEM_KERNEL, then native,
//                      else bytecode);
//                      traces are bit-identical across kernels
//     --checksums      binary format only: guard every event chunk with a
//                      CRC-32 so later salvage can drop exactly the
//                      damaged chunks (off by default; adds 5 bytes per
//                      4096 events)
//     --faults spec    fault-injection schedule (overrides HMEM_FAULTS),
//                      e.g. "io_write:nth=3" or "alloc:p=0.01,seed=7"
//     period           PEBS sampling period, >= 1 (default 37589)
//     min-alloc-bytes  allocation monitoring threshold (default 4096)
//
// Shards are written atomically (temp file + fsync + rename): a crashed or
// faulted run never leaves a torn shard at the output path.
//
// Exit codes: 0 success, 2 usage/config error, 3 data or I/O error,
// 4 resource exhaustion.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "apps/app_config.hpp"
#include "apps/workloads.hpp"
#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
#include "cli.hpp"
#include "trace/format.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <app> <trace-out> [period] [min-alloc-bytes]\n"
               "          [--format text|binary] [--ranks N] [--jobs J]\n"
               "          [--machine preset|config.ini] [--period P] "
               "[--min-alloc B]\n"
               "          [--kernel interp|bytecode|native|auto] "
               "[--app-config app.ini]\n"
               "          [--checksums] [--faults spec]\n"
               "  app: a bundled app name or an app config file; with\n"
               "  --app-config the <app> argument is dropped\n"
               "  machine presets: %s\n",
               argv0, hmem::tools::machine_preset_list().c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hmem;

  tools::cli_init_faults();
  std::vector<std::string> positional;
  trace::TraceFormat format = trace::TraceFormat::kText;
  trace::WriterOptions writer_options;
  int ranks = 0;  // 0 = single run with the app's default rank count
  int jobs = 1;
  memsim::MachineConfig node =
      memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  std::optional<std::uint64_t> period;     // >= 1: every period-th miss
  std::optional<std::uint64_t> min_alloc;  // 0 tracks every allocation
  std::optional<std::string> app_config;
  engine::kernel::KernelKind kern = engine::kernel::KernelKind::kAuto;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--format") == 0) {
      const auto f = trace::parse_trace_format(
          tools::cli_value(argc, argv, i, "--format"));
      if (!f) {
        std::fprintf(stderr, "unknown format (expected text or binary)\n");
        return 2;
      }
      format = *f;
    } else if (std::strcmp(argv[i], "--ranks") == 0) {
      ranks = tools::cli_int(tools::cli_value(argc, argv, i, "--ranks"),
                             "--ranks", 1);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      jobs = tools::cli_int(tools::cli_value(argc, argv, i, "--jobs"),
                            "--jobs", 1);
    } else if (std::strcmp(argv[i], "--machine") == 0) {
      const auto machine =
          tools::load_machine(tools::cli_value(argc, argv, i, "--machine"));
      if (!machine) return 2;
      node = *machine;
    } else if (std::strcmp(argv[i], "--period") == 0) {
      period = tools::cli_count(tools::cli_value(argc, argv, i, "--period"),
                                "--period", 1);
    } else if (std::strcmp(argv[i], "--min-alloc") == 0) {
      min_alloc = tools::cli_count(
          tools::cli_value(argc, argv, i, "--min-alloc"), "--min-alloc");
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
    } else if (std::strcmp(argv[i], "--checksums") == 0) {
      writer_options.checksums = true;
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      tools::cli_configure_faults(tools::cli_value(argc, argv, i, "--faults"));
    } else if (tools::cli_is_flag(argv[i])) {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return 2;
    } else {
      positional.emplace_back(argv[i]);
    }
  }
  // With --app-config the <app> positional disappears; trace-out shifts
  // into its slot.
  const std::size_t skip = app_config ? 0 : 1;
  if (positional.size() < skip + 1 || positional.size() > skip + 3)
    usage(argv[0]);
  // Positional period/min-alloc keep the original CLI working; an explicit
  // flag wins over a positional given on the same command line.
  if (positional.size() > skip + 1 && !period)
    period = tools::cli_count(positional[skip + 1].c_str(), "period", 1);
  if (positional.size() > skip + 2 && !min_alloc)
    min_alloc = tools::cli_count(positional[skip + 2].c_str(), "min-alloc");
  const std::string trace_out = positional[skip];

  std::string app_error;
  auto app = app_config ? apps::load_app_file(*app_config, &app_error)
                        : apps::load_app(positional[0], &app_error);
  if (!app) {
    std::fprintf(stderr, "%s\n", app_error.c_str());
    return tools::kExitUsage;
  }
  if (ranks > 0) app->ranks = ranks;
  const int shard_count = ranks > 0 ? ranks : 1;

  engine::RunOptions base;
  base.profile = true;
  base.node = node;
  base.kernel = kern;
  if (period) base.sampler.period = *period;
  if (min_alloc) base.min_alloc_bytes = *min_alloc;

  // Each rank is an independent simulation writing its own shard file, so
  // up to --jobs of them run concurrently; per-rank status lines are
  // buffered and printed in rank order once all ranks finished. A failed
  // rank flips the abort flag: ranks not yet started return immediately
  // instead of burning minutes of simulation the error already doomed.
  std::vector<std::string> status(static_cast<std::size_t>(shard_count));
  std::vector<std::string> errors(static_cast<std::size_t>(shard_count));
  std::vector<int> codes(static_cast<std::size_t>(shard_count), 0);
  std::atomic<bool> abort_remaining{false};
  parallel_for(jobs, static_cast<std::size_t>(shard_count),
               [&](std::size_t r) {
    if (abort_remaining.load(std::memory_order_relaxed)) return;
    const std::string path =
        shard_count == 1 ? trace_out
                         : trace_out + ".rank" + std::to_string(r);
    try {
      // Atomic shard output: the destination path only ever holds a
      // complete shard; a crash or fault mid-run leaves no torn file.
      AtomicFile out(path);
      callstack::SiteDb sites;
      const auto writer =
          trace::make_trace_writer(out.stream(), sites, format,
                                   writer_options);
      engine::RunOptions opts = base;
      opts.seed += static_cast<std::uint64_t>(r) * engine::kRankSeedStride;
      opts.sites = &sites;
      opts.trace_sink = writer.get();
      const auto run = engine::run_app(*app, opts);
      writer->finish();
      out.commit();
      char line[512];
      std::snprintf(line, sizeof(line),
                    "profiled %s rank %zu/%d: %zu trace events (%s), "
                    "%llu samples, %.2f%% monitoring overhead -> %s",
                    app->name.c_str(), r, shard_count,
                    writer->events_written(),
                    trace::trace_format_name(format),
                    static_cast<unsigned long long>(run.samples),
                    run.monitoring_overhead * 100.0, path.c_str());
      status[r] = line;
    } catch (const std::exception& e) {
      errors[r] = path + ": " + e.what();
      codes[r] = exit_code_for(e);
      abort_remaining.store(true, std::memory_order_relaxed);
    }
  });
  for (int r = 0; r < shard_count; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (!errors[idx].empty()) {
      std::fprintf(stderr, "error: %s\n", errors[idx].c_str());
      return codes[idx] != 0 ? codes[idx] : tools::kExitData;
    }
    // Ranks skipped by the abort flag have neither status nor error.
    if (!status[idx].empty()) {
      std::fprintf(stderr, "%s\n", status[idx].c_str());
    }
  }
  return tools::kExitOk;
}
