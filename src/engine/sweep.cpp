#include "engine/sweep.hpp"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <unordered_map>

#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "common/arena.hpp"
#include "common/assert.hpp"
#include "common/fault.hpp"
#include "common/parallel.hpp"

namespace hmem::engine {

const char* cell_kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kBaseline:
      return "baseline";
    case CellKind::kFramework:
      return "framework";
    case CellKind::kDynamic:
      return "dynamic";
  }
  return "?";
}

std::vector<std::uint64_t> default_budgets(const apps::AppSpec& app) {
  return app.ranks == 1 ? paper_budgets_openmp() : paper_budgets_mpi();
}

namespace {

std::vector<std::uint64_t> budgets_of(const SweepSpec& spec,
                                      const apps::AppSpec& app) {
  return spec.budgets_for ? spec.budgets_for(app) : default_budgets(app);
}

// Whole-field store value parsers: trailing text means a damaged record.
bool parse_real(const std::string& field, double& out) {
  if (field.empty() || std::isspace(static_cast<unsigned char>(field[0]))) {
    return false;
  }
  char* end = nullptr;
  out = std::strtod(field.c_str(), &end);
  return *end == '\0';
}

bool parse_count(const std::string& field, std::uint64_t& out) {
  if (field.empty() || field[0] < '0' || field[0] > '9') return false;
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(field.c_str(), &end, 10);
  return errno == 0 && *end == '\0';
}

}  // namespace

struct SweepEngine::ProfileEntry {
  std::once_flag once;
  analysis::AggregateResult report;
};

// Keyed by advisor::runtime_key. The rest of a static run's input — app,
// machine, production seed, runtime options and kernel — is fixed per
// engine and per (app, machine), which is this memo's scope.
struct SweepEngine::RunMemo {
  struct Entry {
    std::once_flag once;
    StaticRun run;
  };
  std::mutex mutex;  ///< guards the map only; runs happen outside it
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries;
};

SweepEngine::SweepEngine(SweepSpec spec) : spec_(std::move(spec)) {
  HMEM_ASSERT_MSG(!spec_.apps.empty(), "sweep needs at least one app");
  HMEM_ASSERT_MSG(!spec_.machines.empty(),
                  "sweep needs at least one machine");
  HMEM_ASSERT_MSG(spec_.shard_count >= 1 && spec_.shard_index >= 0 &&
                      spec_.shard_index < spec_.shard_count,
                  "shard index out of range");
  HMEM_ASSERT_MSG(spec_.base.profile_ranks <= 1,
                  "sweep profiles are shared per cell, not rank-sharded");
  for (const Condition condition : spec_.baselines) {
    HMEM_ASSERT_MSG(condition != Condition::kFramework &&
                        condition != Condition::kDynamic,
                    "advisor-driven conditions are cells, not baselines");
  }

  // Deterministic enumeration: app-major, machine, then baselines in
  // listed order, framework cells strategy-major budget-minor, and the
  // dynamic cells last. Everything downstream (shard partition, store
  // keys, the merge) leans on this order.
  std::size_t index = 0;
  for (std::size_t a = 0; a < spec_.apps.size(); ++a) {
    const std::vector<std::uint64_t> budgets =
        budgets_of(spec_, spec_.apps[a]);
    for (std::size_t m = 0; m < spec_.machines.size(); ++m) {
      for (const Condition condition : spec_.baselines) {
        SweepCell cell;
        cell.index = index++;
        cell.app = a;
        cell.machine = m;
        cell.kind = CellKind::kBaseline;
        cell.baseline = condition;
        cells_.push_back(cell);
      }
      for (std::size_t s = 0; s < spec_.strategies.size(); ++s) {
        for (const std::uint64_t budget : budgets) {
          SweepCell cell;
          cell.index = index++;
          cell.app = a;
          cell.machine = m;
          cell.kind = CellKind::kFramework;
          cell.strategy = s;
          cell.budget_bytes = budget;
          cells_.push_back(cell);
        }
      }
      if (spec_.dynamic_cells) {
        for (const std::uint64_t budget : budgets) {
          SweepCell cell;
          cell.index = index++;
          cell.app = a;
          cell.machine = m;
          cell.kind = CellKind::kDynamic;
          cell.budget_bytes = budget;
          cells_.push_back(cell);
        }
      }
    }
  }

  profiles_.resize(spec_.apps.size() * spec_.machines.size());
  for (auto& entry : profiles_) entry = std::make_unique<ProfileEntry>();
  run_memos_.resize(profiles_.size());
  for (auto& memo : run_memos_) memo = std::make_unique<RunMemo>();
}

SweepEngine::~SweepEngine() = default;

const analysis::AggregateResult& SweepEngine::profile_report(
    std::size_t app, std::size_t machine) {
  return profile_for(app, machine, /*count_reuse=*/false);
}

const analysis::AggregateResult& SweepEngine::profile_for(std::size_t app,
                                                          std::size_t machine,
                                                          bool count_reuse) {
  ProfileEntry& entry = *profiles_[app * spec_.machines.size() + machine];
  bool computed_here = false;
  std::call_once(entry.once, [&] {
    // Stage 1 + 2, identical to Fig4Runner's historical flow: profile the
    // app in its default (DDR) placement, aggregate the trace. The profile
    // deliberately runs on the default memory resource — its artefacts
    // (trace, sites, report) outlive the cell that happened to compute it,
    // so they must not live in a worker's reset-between-cells arena.
    RunOptions po;
    po.condition = Condition::kDdr;
    po.profile = true;
    po.sampler = spec_.base.sampler;
    po.min_alloc_bytes = spec_.base.min_alloc_bytes;
    po.seed = spec_.base.profile_seed;
    po.node = spec_.machines[machine];
    po.kernel = spec_.base.kernel;
    const RunResult profile = run_app(spec_.apps[app], po);
    HMEM_ASSERT(profile.trace != nullptr);
    entry.report = analysis::aggregate_trace(*profile.trace, *profile.sites);
    computed_here = true;
  });
  if (count_reuse) {
    // Waiters blocked on the call_once count as hits too: they reused a
    // profile another cell was computing.
    (computed_here ? profile_misses_ : profile_hits_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  return entry.report;
}

SweepEngine::StaticRun SweepEngine::static_run(
    const SweepCell& cell, const advisor::Placement& placement, Arena* arena) {
  const auto simulate = [&] {
    RunOptions opts;
    opts.condition = Condition::kFramework;
    opts.placement = &placement;
    opts.runtime_options = spec_.base.runtime_options;
    opts.seed = spec_.base.production_seed;
    opts.node = spec_.machines[cell.machine];
    opts.kernel = spec_.base.kernel;
    opts.scratch = arena;
    const RunResult r = run_app(spec_.apps[cell.app], opts);
    return StaticRun{r.fom, r.fast_hwm_bytes,
                     r.autohbw.has_value() && r.autohbw->any_overflow};
  };
  // An armed alloc schedule makes a run depend on the global fault hit
  // index, so a faulted result belongs to its cell alone.
  if (fault::armed()) return simulate();

  RunMemo& memo = *run_memos_[cell.app * spec_.machines.size() + cell.machine];
  std::string key = advisor::runtime_key(placement);
  RunMemo::Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(memo.mutex);
    std::unique_ptr<RunMemo::Entry>& slot = memo.entries[std::move(key)];
    if (!slot) slot = std::make_unique<RunMemo::Entry>();
    entry = slot.get();
  }
  // A throwing run leaves the flag unset: the next cell with this key
  // simulates (and throws) again, exactly as without the memo.
  bool computed_here = false;
  std::call_once(entry->once, [&] {
    entry->run = simulate();
    computed_here = true;
  });
  (computed_here ? run_memo_misses_ : run_memo_hits_)
      .fetch_add(1, std::memory_order_relaxed);
  return entry->run;
}

SweepCellResult SweepEngine::run_cell(const SweepCell& cell, Arena* arena) {
  const apps::AppSpec& app = spec_.apps[cell.app];
  const memsim::MachineConfig& node = spec_.machines[cell.machine];
  SweepCellResult result;

  switch (cell.kind) {
    case CellKind::kBaseline: {
      RunOptions opts;
      opts.condition = cell.baseline;
      opts.seed = spec_.base.production_seed;
      opts.node = node;
      opts.kernel = spec_.base.kernel;
      opts.scratch = arena;
      const RunResult r = run_app(app, opts);
      result.fom = r.fom;
      result.fast_hwm_bytes = r.fast_hwm_bytes;
      break;
    }
    case CellKind::kFramework: {
      const analysis::AggregateResult& report =
          profile_for(cell.app, cell.machine, /*count_reuse=*/true);
      const advisor::MemorySpec spec =
          machine_memory_spec(node, cell.budget_bytes, app.ranks);
      advisor::Options adv_options =
          spec_.strategies[cell.strategy].options;
      if (spec_.base.advisor.virtual_budget_bytes > 0) {
        adv_options.virtual_budget_bytes =
            spec_.base.advisor.virtual_budget_bytes;
      }
      advisor::HmemAdvisor adv(spec, adv_options);
      const advisor::Placement placement = adv.advise(report.objects);
      const std::string text = advisor::write_placement_report(placement);
      const advisor::Placement parsed = advisor::read_placement_report(text);
      const StaticRun r = static_run(cell, parsed, arena);
      result.fom = r.fom;
      result.fast_hwm_bytes = r.fast_hwm_bytes;
      result.any_overflow = r.any_overflow;
      break;
    }
    case CellKind::kDynamic: {
      // The full static-vs-dynamic comparison on the shared profile: the
      // same stages run_pipeline(per_phase=true) performs, minus its
      // private profile run.
      const analysis::AggregateResult& report =
          profile_for(cell.app, cell.machine, /*count_reuse=*/true);
      const advisor::MemorySpec spec =
          machine_memory_spec(node, cell.budget_bytes, app.ranks);
      advisor::HmemAdvisor adv(spec, spec_.base.advisor);
      const advisor::Placement placement = adv.advise(report.objects);
      const std::string text = advisor::write_placement_report(placement);
      const advisor::Placement parsed = advisor::read_placement_report(text);
      const double static_fom = static_run(cell, parsed, arena).fom;

      advisor::PhaseAdvisor phase_adv(spec, spec_.base.advisor);
      const advisor::PlacementSchedule schedule =
          phase_adv.advise(report.phases);
      const std::string sched_text =
          advisor::write_schedule_report(schedule);
      const advisor::PlacementSchedule parsed_schedule =
          advisor::read_schedule_report(sched_text);

      RunOptions dynamic_opts;
      dynamic_opts.condition = Condition::kDynamic;
      dynamic_opts.schedule = &parsed_schedule;
      dynamic_opts.runtime_options = spec_.base.runtime_options;
      dynamic_opts.seed = spec_.base.production_seed;
      dynamic_opts.node = node;
      dynamic_opts.kernel = spec_.base.kernel;
      dynamic_opts.scratch = arena;
      if (schedule_transitions(dynamic_opts)) {
        const RunResult dynamic_run = run_app(app, dynamic_opts);
        result.fom = dynamic_run.fom;
        result.fast_hwm_bytes = dynamic_run.fast_hwm_bytes;
        result.migration_bytes = dynamic_run.migration_bytes;
        result.migration_cost_s = dynamic_run.migration_cost_s;
      } else {
        // A schedule that never transitions is a static run on its one
        // placement, bit for bit: the run memo serves it (and, on every
        // paper cell, already holds it from the static leg). It migrates
        // nothing, so the migration fields stay zero.
        const StaticRun r = static_run(
            cell, parsed_schedule.phases.front().placement, arena);
        result.fom = r.fom;
        result.fast_hwm_bytes = r.fast_hwm_bytes;
      }
      result.static_fom = static_fom;
      result.phases = schedule.phases.size();
      break;
    }
  }
  return result;
}

std::vector<SweepOutcome> SweepEngine::run(SweepStore* store, bool resume) {
  const auto t0 = std::chrono::steady_clock::now();
  HMEM_ASSERT_MSG(!resume || store != nullptr, "resume requires a store");

  std::vector<SweepOutcome> outcomes(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) outcomes[i].cell = cells_[i];

  // This shard's slice, in enumeration order.
  std::vector<std::size_t> shard_cells;
  for (const SweepCell& cell : cells_) {
    if (cell.index % static_cast<std::size_t>(spec_.shard_count) ==
        static_cast<std::size_t>(spec_.shard_index)) {
      shard_cells.push_back(cell.index);
    }
  }

  std::size_t resumed = 0;
  if (store != nullptr && resume) {
    for (const std::size_t idx : shard_cells) {
      const auto value = store->find(sweep_cell_key(spec_, cells_[idx]));
      if (!value.has_value()) continue;
      SweepCellResult r;
      if (!parse_sweep_result(*value, r)) continue;  // damaged: recompute
      outcomes[idx].result = r;
      outcomes[idx].resumed = true;
      ++resumed;
    }
  }

  std::vector<std::size_t> work;
  work.reserve(shard_cells.size());
  for (const std::size_t idx : shard_cells) {
    if (!outcomes[idx].resumed) work.push_back(idx);
  }

  // Ordered commit: a finished cell's record is appended only once every
  // earlier shard cell has finished (resumed cells count as flushed).
  // Store order is therefore pure enumeration order regardless of --jobs,
  // at the cost of buffering at most the in-flight window of values.
  std::mutex commit_mutex;
  std::size_t commit_pos = 0;
  std::vector<std::string> values(cells_.size());
  std::vector<char> finished(cells_.size(), 0);
  for (const std::size_t idx : shard_cells) {
    if (outcomes[idx].resumed) finished[idx] = 1;
  }
  std::size_t arena_peak_cell = 0;
  std::size_t arena_reserved = 0;

  parallel_for(spec_.jobs, work.size(), [&](std::size_t w) {
    const std::size_t idx = work[w];
    // One arena per worker thread, reset between cells: every chunk the
    // biggest cell so far forced is reused by all later cells.
    thread_local Arena arena;
    arena.reset();
    outcomes[idx].result = run_cell(cells_[idx], &arena);
    outcomes[idx].computed = true;
    std::string value = serialize_sweep_result(outcomes[idx].result);

    std::lock_guard<std::mutex> lock(commit_mutex);
    arena_peak_cell = std::max(arena_peak_cell, arena.peak_since_reset());
    arena_reserved = std::max(arena_reserved, arena.reserved_bytes());
    values[idx] = std::move(value);
    finished[idx] = 1;
    if (store != nullptr) {
      while (commit_pos < shard_cells.size() &&
             finished[shard_cells[commit_pos]] != 0) {
        const std::size_t c = shard_cells[commit_pos];
        if (!outcomes[c].resumed) {
          store->put(sweep_cell_key(spec_, cells_[c]), values[c]);
        }
        ++commit_pos;
      }
    }
  });

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_.cells_total = cells_.size();
  stats_.cells_in_shard = shard_cells.size();
  stats_.cells_computed = work.size();
  stats_.cells_resumed = resumed;
  stats_.profile_hits = profile_hits_.load(std::memory_order_relaxed);
  stats_.profile_misses = profile_misses_.load(std::memory_order_relaxed);
  stats_.run_memo_hits = run_memo_hits_.load(std::memory_order_relaxed);
  stats_.run_memo_misses = run_memo_misses_.load(std::memory_order_relaxed);
  stats_.arena_peak_cell_bytes =
      std::max(stats_.arena_peak_cell_bytes, arena_peak_cell);
  stats_.arena_reserved_bytes =
      std::max(stats_.arena_reserved_bytes, arena_reserved);
  stats_.wall_seconds = wall;
  stats_.cells_per_second =
      wall > 0 ? static_cast<double>(work.size()) / wall : 0.0;
  return outcomes;
}

std::string sweep_cell_key(const SweepSpec& spec, const SweepCell& cell) {
  char head[16];
  std::snprintf(head, sizeof(head), "%06zu", cell.index);
  std::string key = head;
  key += '|';
  key += spec.apps[cell.app].name;
  key += '|';
  key += spec.machines[cell.machine].name;
  key += '|';
  key += cell_kind_name(cell.kind);
  switch (cell.kind) {
    case CellKind::kBaseline:
      key += '|';
      key += condition_name(cell.baseline);
      break;
    case CellKind::kFramework:
      key += '|';
      key += spec.strategies[cell.strategy].label;
      key += '|';
      key += std::to_string(cell.budget_bytes);
      break;
    case CellKind::kDynamic:
      key += '|';
      key += std::to_string(cell.budget_bytes);
      break;
  }
  return key;
}

std::string serialize_sweep_result(const SweepCellResult& result) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%.17g|%llu|%d|%.17g|%zu|%llu|%.17g",
                result.fom,
                static_cast<unsigned long long>(result.fast_hwm_bytes),
                result.any_overflow ? 1 : 0, result.static_fom, result.phases,
                static_cast<unsigned long long>(result.migration_bytes),
                result.migration_cost_s);
  return buf;
}

bool parse_sweep_result(const std::string& value, SweepCellResult& result) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    if (i == value.size() || value[i] == '|') {
      parts.push_back(value.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 7) return false;
  if (parts[2] != "0" && parts[2] != "1") return false;
  SweepCellResult r;
  r.any_overflow = parts[2] == "1";
  std::uint64_t phases = 0;
  if (!parse_real(parts[0], r.fom) ||
      !parse_count(parts[1], r.fast_hwm_bytes) ||
      !parse_real(parts[3], r.static_fom) || !parse_count(parts[4], phases) ||
      !parse_count(parts[5], r.migration_bytes) ||
      !parse_real(parts[6], r.migration_cost_s)) {
    return false;
  }
  r.phases = static_cast<std::size_t>(phases);
  result = r;
  return true;
}

void merge_sweep_stores(const std::vector<std::string>& inputs,
                        const std::string& out_path) {
  std::map<std::string, std::string> merged;
  for (const std::string& path : inputs) {
    const SweepStore in(path);
    for (auto& [key, value] : in.snapshot()) {
      merged[key] = value;  // later inputs win
    }
  }
  std::remove(out_path.c_str());
  SweepStore out(out_path);
  for (const auto& [key, value] : merged) out.put(key, value);
}

}  // namespace hmem::engine
