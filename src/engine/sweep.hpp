// Fleet-scale sweep engine.
//
// The paper's evaluation is a grid — apps × machines × budgets ×
// conditions/strategies — and every cell is an independent simulation. This
// engine enumerates the grid deterministically and executes it on the
// work-queue thread pool with four layers the per-row Fig4Runner lacked:
//
//  1. Shared immutable state. App specs and machine presets live in the
//     SweepSpec; each (app, machine) pair's stage-1 profile is computed at
//     most once (std::call_once) and reused by every budget/strategy cell.
//     Each cell compiles its own kernel programs: compilation is ~1.5% of a
//     run, too little for a cross-cell program cache to pay.
//  2. A run memo per (app, machine). Many strategy/budget cells advise the
//     same placement; a static production run is a pure function of what
//     auto-hbwmalloc reads of it (advisor::runtime_key), so each distinct
//     key is simulated once (std::call_once) and every framework cell and
//     dynamic static leg with that key reuses its (fom, fast_hwm,
//     overflow). A dynamic cell whose schedule never transitions (one
//     phase; engine::schedule_transitions) is a static run on that phase's
//     placement and is served the same way. Multi-phase schedules are
//     simulated directly: every transition clears auto-hbwmalloc's
//     raw-stack cache, so even phases sharing one key do not make a static
//     run. Bypassed while a fault schedule is armed.
//  3. Per-cell arenas. Each worker owns a bump Arena (common/arena.hpp)
//     threaded into RunOptions::scratch and reset between cells, so
//     steady-state sweeping does no global-allocator traffic for the
//     engine's scratch state. Cells are bit-identical to the non-arena
//     path (tests/test_sweep.cpp asserts it on every bundled workload).
//  4. Multi-process sharding. shard_index/shard_count partition the cell
//     space by index modulo; each process appends its shard's results to
//     its own SweepStore, and merge_sweep_stores combines the shard stores
//     into one file byte-identical to an unsharded run's store.
//
// Determinism contract: cells(), sweep_cell_key() and the store record
// order depend only on the SweepSpec, never on --jobs, scheduling, or which
// shard computed a cell. Store appends are committed in enumeration order
// (a completed cell waits for its predecessors before flushing), so a clean
// unsharded store is always sorted by cell index — which is what makes the
// k-way merge's sorted rewrite byte-identical to it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "engine/kernel/kernel.hpp"
#include "engine/sweep_store.hpp"

namespace hmem {
class Arena;
}

namespace hmem::engine {

enum class CellKind {
  kBaseline,   ///< one execution condition, no advisor (ddr/numactl/...)
  kFramework,  ///< profile -> advise(strategy, budget) -> framework run
  kDynamic,    ///< profile -> static + per-phase schedule -> both runs
};

const char* cell_kind_name(CellKind kind);

/// One grid coordinate, fully determined by the SweepSpec and its index.
struct SweepCell {
  std::size_t index = 0;    ///< position in enumeration order
  std::size_t app = 0;      ///< index into SweepSpec::apps
  std::size_t machine = 0;  ///< index into SweepSpec::machines
  CellKind kind = CellKind::kBaseline;
  Condition baseline = Condition::kDdr;  ///< kBaseline only
  std::size_t strategy = 0;              ///< kFramework only
  std::uint64_t budget_bytes = 0;        ///< per rank; framework/dynamic
};

/// Everything a cell persists. One schema for all kinds: baseline and
/// framework cells leave the dynamic-only fields zero.
struct SweepCellResult {
  double fom = 0;
  std::uint64_t fast_hwm_bytes = 0;
  bool any_overflow = false;
  // kDynamic extras: `fom` is the dynamic run's, `static_fom` the static
  // placement's on the same profile.
  double static_fom = 0;
  std::size_t phases = 0;
  std::uint64_t migration_bytes = 0;  ///< per rank
  double migration_cost_s = 0;
};

struct SweepOutcome {
  SweepCell cell;
  SweepCellResult result;
  bool computed = false;  ///< simulated by this process
  bool resumed = false;   ///< loaded from the store
  bool has_result() const { return computed || resumed; }
};

struct SweepSpec {
  std::vector<apps::AppSpec> apps;
  std::vector<memsim::MachineConfig> machines;
  /// Baseline conditions per (app, machine); kFramework/kDynamic rejected.
  std::vector<Condition> baselines;
  /// Advisor strategies; one framework cell per strategy × budget.
  std::vector<StrategyConfig> strategies;
  /// Per-rank budget points for an app's framework/dynamic cells. Null
  /// means the paper ladder (default_budgets). Must be a pure function of
  /// the app — it is re-evaluated during enumeration, resume and merge.
  std::function<std::vector<std::uint64_t>(const apps::AppSpec&)> budgets_for;
  /// Add one kDynamic cell per (app, machine, budget).
  bool dynamic_cells = false;
  /// Seeds, sampler, advisor pass-through, runtime options and kernel for
  /// every cell. `node` is ignored — `machines` drives the per-cell
  /// machine. profile_ranks must stay 1 (profiles are shared per cell
  /// grid point, not sharded).
  PipelineOptions base;
  int jobs = 1;
  /// This process computes cells with index % shard_count == shard_index.
  int shard_index = 0;
  int shard_count = 1;
};

/// The paper's budget ladder for one app: the node-wide OpenMP sweep when
/// ranks == 1, the per-rank MPI sweep otherwise.
std::vector<std::uint64_t> default_budgets(const apps::AppSpec& app);

struct SweepStats {
  std::size_t cells_total = 0;     ///< full grid
  std::size_t cells_in_shard = 0;  ///< owned by this process
  std::size_t cells_computed = 0;
  std::size_t cells_resumed = 0;
  /// Stage-1 profile reuse: a miss computes the (app, machine) profile, a
  /// hit reuses it. Counted once per framework/dynamic cell.
  std::uint64_t profile_hits = 0;
  std::uint64_t profile_misses = 0;
  /// Static production runs: a miss simulates a distinct runtime input, a
  /// hit reuses the memoised result. Counted once per framework cell and
  /// dynamic static leg, and once more per dynamic cell whose schedule has
  /// one phase; nothing is counted while a fault schedule bypasses the
  /// memo.
  std::uint64_t run_memo_hits = 0;
  std::uint64_t run_memo_misses = 0;
  /// Always zero (there is no program cache); kept for existing readers.
  std::uint64_t program_hits = 0;
  std::uint64_t program_misses = 0;
  /// Largest per-cell scratch high-water mark across all cells, and the
  /// largest arena reservation any worker ended up holding.
  std::size_t arena_peak_cell_bytes = 0;
  std::size_t arena_reserved_bytes = 0;
  double wall_seconds = 0;
  double cells_per_second = 0;  ///< computed cells / wall_seconds

  double profile_hit_rate() const {
    return hit_rate(profile_hits, profile_misses);
  }
  double run_memo_hit_rate() const {
    return hit_rate(run_memo_hits, run_memo_misses);
  }

 private:
  static double hit_rate(std::uint64_t hits, std::uint64_t misses) {
    const double total =
        static_cast<double>(hits) + static_cast<double>(misses);
    return total > 0 ? static_cast<double>(hits) / total : 0.0;
  }
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepSpec spec);
  ~SweepEngine();

  SweepEngine(const SweepEngine&) = delete;
  SweepEngine& operator=(const SweepEngine&) = delete;

  const SweepSpec& spec() const { return spec_; }
  /// The full deterministic cell enumeration (all shards).
  const std::vector<SweepCell>& cells() const { return cells_; }

  /// Executes this shard's cells under spec().jobs workers. With a store,
  /// every computed cell is durably appended in enumeration order; with
  /// resume, cells already in the store are loaded instead of re-run.
  /// Outcomes cover the full grid; cells outside this shard (and not
  /// resumed) come back empty. Shared stage-1 profiles and the run memo
  /// survive across run() calls, so a second run on the same engine reuses
  /// them all.
  std::vector<SweepOutcome> run(SweepStore* store = nullptr,
                                bool resume = false);

  const SweepStats& stats() const { return stats_; }

  /// The shared stage-2 report of one grid point (computed on demand).
  const analysis::AggregateResult& profile_report(std::size_t app,
                                                  std::size_t machine);

 private:
  struct ProfileEntry;
  struct RunMemo;
  /// What a cell keeps of a static framework run. Plain values only: the
  /// memo outlives the worker arena the run allocated from.
  struct StaticRun {
    double fom = 0;
    std::uint64_t fast_hwm_bytes = 0;
    bool any_overflow = false;
  };

  const analysis::AggregateResult& profile_for(std::size_t app,
                                               std::size_t machine,
                                               bool count_reuse);
  /// The kFramework production run of `placement` on the cell's (app,
  /// machine), served from the run memo when its runtime key repeats.
  /// Framework cells, dynamic static legs and one-phase dynamic runs (a
  /// kDynamic run that never transitions is this run, bit for bit) all
  /// come through here. While a fault schedule is armed it simulates
  /// every call, making the same allocation calls in the same order as
  /// the run it stands for.
  StaticRun static_run(const SweepCell& cell,
                       const advisor::Placement& placement, Arena* arena);
  SweepCellResult run_cell(const SweepCell& cell, Arena* arena);

  SweepSpec spec_;
  std::vector<SweepCell> cells_;
  std::vector<std::unique_ptr<ProfileEntry>> profiles_;
  std::vector<std::unique_ptr<RunMemo>> run_memos_;  ///< parallel to profiles_
  std::atomic<std::uint64_t> profile_hits_{0};
  std::atomic<std::uint64_t> profile_misses_{0};
  std::atomic<std::uint64_t> run_memo_hits_{0};
  std::atomic<std::uint64_t> run_memo_misses_{0};
  SweepStats stats_;
};

/// Store key of a cell: a zero-padded global index (which makes
/// lexicographic key order equal enumeration order — the merge relies on
/// it) followed by the human-readable coordinates.
std::string sweep_cell_key(const SweepSpec& spec, const SweepCell& cell);

/// %.17g value serialization: a resumed or merged sweep reproduces the
/// original outcomes bit for bit.
std::string serialize_sweep_result(const SweepCellResult& result);
bool parse_sweep_result(const std::string& value, SweepCellResult& result);

/// Combines shard stores into `out_path` (replaced if present), rewriting
/// the union of records in key order. Because keys embed the enumeration
/// index and a clean unsharded run commits in enumeration order, the merged
/// file is byte-identical to that unsharded store — even when a shard's
/// input store was torn and resumed out of order. Later inputs win on
/// duplicate keys (shards are disjoint, so duplicates only arise from
/// re-merges). Throws IoError on unreadable inputs or unwritable output.
void merge_sweep_stores(const std::vector<std::string>& inputs,
                        const std::string& out_path);

}  // namespace hmem::engine
