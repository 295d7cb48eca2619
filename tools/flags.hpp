// The flag tables of hmem_profile, hmem_advise, hmem_run and hmem_sweep:
// one X(field, "--name", kind, "help") row per flag (see cli.hpp). The
// tools parse through these tables, their usage text is printed from them,
// tools/check_docs.sh checks docs/TOOLS.md against them and test_cli feeds
// malformed values to every row.
#pragma once

#include "advisor/advisor.hpp"
#include "cli.hpp"
#include "engine/kernel/kernel.hpp"
#include "trace/format.hpp"

// ---- Rows several tools share ---------------------------------------------

#define HMEM_FLAG_MACHINE(X, help) \
  X(machine, "--machine", text("preset|config.ini"), help)
#define HMEM_FLAG_KERNEL(X)                                              \
  X(kernel, "--kernel",                                                  \
    choice(engine::kernel::parse_kernel, "interp|bytecode|native|auto"), \
    "access-loop backend (default auto: HMEM_KERNEL, then native, "      \
    "else bytecode)")
/// `min` is the tool's smallest valid job count (hmem_sweep takes 0 as 1).
#define HMEM_FLAG_JOBS(X, min) \
  X(jobs, "--jobs", count<int>("J", min), \
    "independent simulations run at once (default 1)")
#define HMEM_FLAG_RANKS(X) \
  X(ranks, "--ranks", count<int>("N", 1), \
    "simulated rank count (default: the app's)")
#define HMEM_FLAG_FAULTS(X) \
  X(faults, "--faults", text("spec"), \
    "fault-injection schedule (overrides HMEM_FAULTS)")
#define HMEM_FLAG_STRICT(X) \
  X(strict, "--strict", flag(), \
    "fail on the first malformed trace byte instead of salvaging")
#define HMEM_FLAG_APP_CONFIG(X) \
  X(app_config, "--app-config", path("app.ini"), \
    "app config file, replacing the <app> argument")

// ---- hmem_profile ---------------------------------------------------------

#define HMEM_PROFILE_FLAGS(X)                                                \
  X(format, "--format",                                                      \
    choice(trace::parse_trace_format, "text|binary"),                        \
    "trace encoding (default text)")                                         \
  HMEM_FLAG_RANKS(X)                                                         \
  HMEM_FLAG_JOBS(X, 1)                                                       \
  HMEM_FLAG_MACHINE(X, "machine to simulate (default knl)")                  \
  X(period, "--period", count("P", 1),                                       \
    "PEBS sampling period (default 37589)")                                  \
  X(min_alloc, "--min-alloc", count("B"),                                    \
    "allocation monitoring threshold in bytes (default 4096)")               \
  HMEM_FLAG_KERNEL(X)                                                        \
  HMEM_FLAG_APP_CONFIG(X)                                                    \
  X(checksums, "--checksums", flag(),                                        \
    "binary format: guard every event chunk with a CRC-32")                  \
  HMEM_FLAG_FAULTS(X)

// ---- hmem_advise ----------------------------------------------------------

#define HMEM_ADVISE_FLAGS(X)                                                 \
  X(strategy, "--strategy",                                                  \
    choice(advisor::parse_strategy, "misses|density|exact"),                 \
    "knapsack strategy (default misses)")                                    \
  X(threshold, "--threshold", real("t", 0, 100),                             \
    "Misses(t%): skip objects below t% of all misses (default 0)")          \
  X(virtual_budget, "--virtual", size("b"),                                  \
    "select against this budget, enforce the real one")                      \
  X(slow, "--slow", size("b"), "fallback tier capacity (default 1.5G)")      \
  HMEM_FLAG_MACHINE(X, "derive the tier list from a machine (no --slow)")   \
  X(per_phase, "--per-phase", flag(),                                        \
    "emit a per-phase placement schedule")                                   \
  X(stream, "--stream", flag(),                                              \
    "aggregate and advise incrementally (same converged report)")            \
  X(refresh_every, "--refresh-every", count("n"),                            \
    "with --stream: refresh every n events (default 8192; 0 = at the end)")  \
  X(prefix, "--prefix", count("k"),                                          \
    "with --stream: answer from the first k events only")                    \
  X(csv, "--csv", path("file"), "write the per-object CSV here")             \
  HMEM_FLAG_STRICT(X)                                                        \
  HMEM_FLAG_FAULTS(X)

// ---- hmem_run -------------------------------------------------------------

#define HMEM_RUN_FLAGS(X)                                                    \
  X(condition, "--condition", texts("c[,c...]"),                             \
    "ddr|numactl|autohbw|cache|dynamic (default ddr)")                       \
  X(placement, "--placement", paths("report.txt"),                           \
    "hmem_advise placement report or per-phase schedule")                    \
  HMEM_FLAG_MACHINE(X, "machine to simulate (default knl)")                  \
  HMEM_FLAG_RANKS(X)                                                         \
  HMEM_FLAG_JOBS(X, 1)                                                       \
  HMEM_FLAG_KERNEL(X)                                                        \
  HMEM_FLAG_APP_CONFIG(X)                                                    \
  X(replay, "--replay", paths("shard"),                                      \
    "replay recorded trace shard(s) instead of running an app")              \
  HMEM_FLAG_STRICT(X)                                                        \
  HMEM_FLAG_FAULTS(X)

// ---- hmem_sweep -----------------------------------------------------------

#define HMEM_SWEEP_FLAGS(X)                                                  \
  X(apps, "--apps", text("a,b,..."),                                         \
    "workloads (default: the paper apps plus churn and transient)")          \
  X(machines, "--machines", text("m1,m2,..."),                               \
    "machine presets or config files (default knl)")                         \
  X(budgets, "--budgets", text("64M,256M,..."),                              \
    "fast-tier budgets (default: the paper ladder per app)")                 \
  X(baselines, "--baselines", text("c1,c2,..."),                             \
    "baseline conditions: ddr, numactl, autohbw, cache (default ddr)")       \
  X(strategies, "--strategies", text("s1,s2,..."),                           \
    "density, misses:<pct> or paper (default none)")                         \
  X(dynamic, "--dynamic", flag(),                                            \
    "add one phase-aware cell per (app, machine, budget)")                   \
  X(sweep_config, "--sweep-config", path("file.ini"),                        \
    "[sweep] section filling the grid flags left unset")                     \
  HMEM_FLAG_JOBS(X, 0)                                                       \
  X(shards, "--shards", text("I/N"), "run shard I of N (1-based)")           \
  HMEM_FLAG_KERNEL(X)                                                        \
  X(smoke, "--smoke", flag(), "shrink every app for CI")                     \
  X(store, "--store", path("cells.dat"),                                     \
    "append finished cells to a checksummed store")                          \
  X(resume, "--resume", flag(), "with --store: skip cells already stored")   \
  X(out, "--out", path("results.csv"), "write the cell CSV here")            \
  X(bench_out, "--bench-out", path("bench.json"),                            \
    "write sweep throughput metrics as JSON")                                \
  HMEM_FLAG_FAULTS(X)                                                        \
  X(merge, "--merge", path("out.dat"),                                       \
    "no sweep: merge the --stores files into out.dat")                       \
  X(stores, "--stores", text("a.dat,b.dat,..."), "shard stores to merge")

namespace hmem::tools {

HMEM_CLI_FLAGS(ProfileFlags, HMEM_PROFILE_FLAGS,
               "hmem_profile <app> <trace-out> [period] [min-alloc-bytes] "
               "[flags]\n"
               "  <app> is a bundled app name or an app config file; with "
               "--app-config it is dropped");
HMEM_CLI_FLAGS(AdviseFlags, HMEM_ADVISE_FLAGS,
               "hmem_advise <trace> [trace...] <fast-budget> [flags] "
               "> placement.txt");
HMEM_CLI_FLAGS(RunFlags, HMEM_RUN_FLAGS,
               "hmem_run <app> [flags]\n"
               "  <app> is a bundled app name or an app config file; "
               "--app-config or --replay replaces it");
HMEM_CLI_FLAGS(SweepFlags, HMEM_SWEEP_FLAGS,
               "hmem_sweep [flags]\n"
               "       hmem_sweep --merge out.dat --stores a.dat,b.dat,...");

}  // namespace hmem::tools
