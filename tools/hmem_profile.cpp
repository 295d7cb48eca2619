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
// The flags and their usage text live in tools/flags.hpp
// (HMEM_PROFILE_FLAGS). The positional [period] [min-alloc-bytes] form
// predates --period/--min-alloc; a flag wins over its positional.
//
// Shards are written atomically (temp file + fsync + rename): a crashed or
// faulted run never leaves a torn shard at the output path.
//
// Exit codes: 0 success, 2 usage/config error, 3 data or I/O error,
// 4 resource exhaustion.
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
#include "flags.hpp"
#include "trace/format.hpp"

int main(int argc, char** argv) {
  using namespace hmem;

  const auto flags = tools::parse<tools::ProfileFlags>(argc, argv);
  tools::cli_faults(flags.faults);
  // With --app-config the <app> positional disappears; trace-out shifts
  // into its slot.
  const std::vector<std::string>& positional = flags.positional;
  const std::size_t skip = flags.app_config ? 0 : 1;
  if (positional.size() < skip + 1 || positional.size() > skip + 3)
    tools::usage<tools::ProfileFlags>();
  std::optional<std::uint64_t> period = flags.period;
  std::optional<std::uint64_t> min_alloc = flags.min_alloc;
  if (positional.size() > skip + 1 && !period)
    period = tools::cli_count(positional[skip + 1].c_str(), "period", 1);
  if (positional.size() > skip + 2 && !min_alloc)
    min_alloc = tools::cli_count(positional[skip + 2].c_str(), "min-alloc");
  const std::string trace_out = positional[skip];

  const trace::TraceFormat format =
      flags.format.value_or(trace::TraceFormat::kText);
  trace::WriterOptions writer_options;
  writer_options.checksums = flags.checksums;

  apps::AppSpec app = tools::cli_app(flags.app_config, positional);
  // Without --ranks: a single run with the app's default rank count.
  if (flags.ranks) app.ranks = *flags.ranks;
  const int shard_count = flags.ranks.value_or(1);

  engine::RunOptions base;
  base.profile = true;
  base.node = flags.machine
                  ? tools::cli_machine(*flags.machine)
                  : memsim::MachineConfig::knl7250(memsim::MemMode::kFlat);
  base.kernel = flags.kernel.value_or(engine::kernel::KernelKind::kAuto);
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
  parallel_for(flags.jobs.value_or(1),
               static_cast<std::size_t>(shard_count), [&](std::size_t r) {
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
      const auto run = engine::run_app(app, opts);
      writer->finish();
      out.commit();
      char line[512];
      std::snprintf(line, sizeof(line),
                    "profiled %s rank %zu/%d: %zu trace events (%s), "
                    "%llu samples, %.2f%% monitoring overhead -> %s",
                    app.name.c_str(), r, shard_count,
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
