#include "engine/execution.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <memory_resource>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/allocators.hpp"
#include "apps/generator.hpp"
#include "callstack/modulemap.hpp"
#include "callstack/unwind.hpp"
#include "common/alias.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "common/units.hpp"
#include "engine/kernel/ir.hpp"
#include "engine/kernel/native.hpp"
#include "profiler/profiler.hpp"
#include "runtime/policy.hpp"

namespace hmem::engine {

namespace {

using apps::AppSpec;
using apps::ObjectSpec;
using memsim::Address;

std::uint64_t floor_pow2(std::uint64_t v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

/// Per-object live state during a run.
struct ObjectState {
  std::vector<Address> instances;  ///< live instance base addresses
  /// Policy tier currently hosting each instance (parallel to instances);
  /// only maintained — and only needed — under the dynamic condition.
  std::vector<std::size_t> tiers;
  std::unique_ptr<apps::AccessGenerator> generator;
};

// LLC-miss records share the kernel layer's type so every backend writes
// the same buffer.
using MissRecord = kernel::MissRecord;

/// One phase's miss records, written by index by whichever backend runs the
/// burst. Uninitialized storage from the run's scratch resource: pages are
/// touched only as misses land, like a reserved-but-unfilled vector.
class MissBuffer {
 public:
  MissBuffer(std::pmr::memory_resource* resource, std::size_t capacity)
      : alloc_(resource),
        capacity_(capacity),
        data_(capacity == 0 ? nullptr : alloc_.allocate(capacity)) {}
  ~MissBuffer() {
    if (data_ != nullptr) alloc_.deallocate(data_, capacity_);
  }
  MissBuffer(const MissBuffer&) = delete;
  MissBuffer& operator=(const MissBuffer&) = delete;

  MissRecord* data() const { return data_; }

 private:
  std::pmr::polymorphic_allocator<MissRecord> alloc_;
  std::size_t capacity_;
  MissRecord* data_;
};

/// Compiled form of one phase plus the epochs it was compiled against. The
/// program bakes live-instance addresses, so it is stale the moment the
/// live set changes (live_epoch) OR a dynamic-schedule migration moves an
/// instance without any alloc/free (addr_epoch — the case live_epoch alone
/// cannot see).
struct PhaseKernel {
  kernel::Program program;
  kernel::NativeKernel native;
  bool use_native = false;
  std::uint64_t live_epoch = ~0ULL;
  std::uint64_t addr_epoch = ~0ULL;
};

// ---- Per-access randomness ------------------------------------------------
// Every access consumes exactly ONE 64-bit generator draw, split into three
// documented fields (the alias method leaves the high bits free; see
// common/alias.hpp):
//   bits [0,32)  target column   (multiply-shift over the phase's slots)
//   bits [32,53) alias coin      (21-bit fixed point vs the slot threshold)
//   bits [53,64) write/read coin (11-bit fixed point vs write_fraction)
// Address-level draws (instance pick, stack line) still draw separately when
// needed, and per-object offset generators keep their own streams. The
// quantization this packing introduces — 2^-21 on the target distribution,
// 2^-11 on the write fraction — is orders of magnitude below the sampling
// noise of the simulated stream, and the stream stays deterministic: the
// draw sequence is a pure function of the seed.
constexpr int kAliasCoinBits = 21;
constexpr int kWriteCoinBits = 11;
constexpr int kWriteCoinShift = 64 - kWriteCoinBits;

/// Access-target sampling table for one phase, cached across iterations.
/// Valid for a given live-set epoch: it only depends on which objects are
/// live (weights are static per phase), so it is rebuilt exactly when an
/// object transitions between live and dead — not once per iteration.
struct PhaseTable {
  std::vector<std::size_t> target;  ///< slot -> object index; SIZE_MAX = stack
  AliasTable alias;                 ///< O(1) sampler over the slots
  std::uint64_t write_threshold = 0;  ///< write_fraction in 2^11 units
  std::uint64_t epoch = ~0ULL;        ///< live-set epoch at build time
};

void rebuild_phase_table(PhaseTable& table, const apps::PhaseSpec& phase,
                         const std::vector<ObjectState>& state,
                         std::uint64_t live_epoch) {
  table.target.clear();
  std::vector<double> weights;
  for (std::size_t i = 0; i < phase.object_weights.size(); ++i) {
    const double w = phase.object_weights[i];
    if (w <= 0 || state[i].instances.empty()) continue;
    weights.push_back(w);
    table.target.push_back(i);
  }
  if (phase.stack_weight > 0) {
    weights.push_back(phase.stack_weight);
    table.target.push_back(SIZE_MAX);
  }
  HMEM_ASSERT_MSG(!weights.empty(), "phase with no live access targets");
  table.alias = AliasTable(weights, kAliasCoinBits);
  table.write_threshold = std::min<std::uint64_t>(
      1ULL << kWriteCoinBits,
      static_cast<std::uint64_t>(std::llround(
          phase.write_fraction * static_cast<double>(1ULL << kWriteCoinBits))));
  table.epoch = live_epoch;
}

/// Analytic MCDRAM-as-cache model. Residency is built up by miss traffic
/// (the steady state of an LRU-like replacement at memory-side granularity);
/// the hit probability of a target is its resident fraction, derated by a
/// direct-mapped conflict factor once demand exceeds capacity. Operating on
/// *real* footprints keeps the capacity behaviour faithful even though the
/// simulated stream is a scaled-down sample.
class CacheModeModel {
 public:
  CacheModeModel(double capacity_bytes, std::vector<double> footprints,
                 double chunk_bytes, double conflict_k)
      : capacity_(capacity_bytes),
        footprints_(std::move(footprints)),
        resident_(footprints_.size(), 0.0),
        chunk_(chunk_bytes) {
    double demand = 0;
    for (double f : footprints_) demand += f;
    const double pressure =
        std::max(0.0, demand / std::max(1.0, capacity_) - 1.0);
    conflict_factor_ = 1.0 / (1.0 + conflict_k * pressure);
  }

  double hit_probability(std::size_t target) const {
    const double f = footprints_[target];
    if (f <= 0) return 0;
    double p = std::min(1.0, resident_[target] / f);
    if (total_ >= capacity_ * 0.999) p *= conflict_factor_;
    return p;
  }

  void on_miss(std::size_t target) {
    const double gain =
        std::min(chunk_, footprints_[target] - resident_[target]);
    if (gain <= 0) return;
    resident_[target] += gain;
    total_ += gain;
    if (total_ > capacity_) {
      const double shrink = capacity_ / total_;
      for (double& r : resident_) r *= shrink;
      total_ = capacity_;
    }
  }

  double resident_bytes(std::size_t target) const {
    return resident_[target];
  }

 private:
  double capacity_;
  std::vector<double> footprints_;
  std::vector<double> resident_;
  double total_ = 0;
  double chunk_;
  double conflict_factor_;
};

}  // namespace

const char* condition_name(Condition condition) {
  switch (condition) {
    case Condition::kDdr:
      return "ddr";
    case Condition::kNumactl:
      return "numactl";
    case Condition::kAutoHbw:
      return "autohbw";
    case Condition::kCacheMode:
      return "cache";
    case Condition::kFramework:
      return "framework";
    case Condition::kDynamic:
      return "dynamic";
  }
  return "?";
}

bool schedule_transitions(const RunOptions& options) {
  return options.condition == Condition::kDynamic &&
         (static_cast<bool>(options.advisor_hook) ||
          options.schedule->phases.size() > 1);
}

RunResult run_app(const AppSpec& app, const RunOptions& options) {
  const std::string problem = apps::validate(app);
  HMEM_ASSERT_MSG(problem.empty(), problem.c_str());

  const int ranks = app.ranks;
  const bool cache_mode = options.condition == Condition::kCacheMode;

  // ---- Per-rank machine view -------------------------------------------
  // The Machine routes flat: the engine models cache mode with an analytic
  // residency model (below) because the sampled access stream's touched
  // footprint is a scaled-down image of the real working set — a literal
  // tag simulation at line granularity would see a working set
  // `access_scale` times too small and overestimate the hit rate.
  memsim::MachineConfig cfg = options.node;
  HMEM_ASSERT_MSG(!cfg.tiers.empty(), "node config has no memory tiers");
  // Every condition but the DDR reference needs a second tier: a faster
  // one to place data in or, in cache mode, a front for the backing tier.
  if (options.condition != Condition::kDdr && cfg.tiers.size() < 2) {
    throw ConfigError(std::string("condition '") +
                      condition_name(options.condition) +
                      "' needs at least two memory tiers; machine '" +
                      cfg.name + "' has " + std::to_string(cfg.tiers.size()));
  }
  // Each rank gets a power-of-two share of the LLC's sets, at least 16 KiB
  // worth (and at least one set), so the geometry stays valid for any
  // associativity the config allows.
  const std::uint64_t set_bytes =
      static_cast<std::uint64_t>(cfg.llc.line_bytes) * cfg.llc.ways;
  const std::uint64_t rank_sets = floor_pow2(
      cfg.llc.size_bytes / set_bytes / static_cast<std::uint64_t>(ranks));
  cfg.llc.size_bytes =
      set_bytes *
      std::max<std::uint64_t>({1, 16 * 1024 / set_bytes, rank_sets});
  for (memsim::TierSpec& tier : cfg.tiers) {
    tier.capacity_bytes /= static_cast<std::uint64_t>(ranks);
  }
  // Hand-built configs may come in with unassigned (zero) bases; lay the
  // tiers out *here* so the allocators below and the Machine (which would
  // otherwise assign bases only on its private copy) agree on the map.
  memsim::assign_tier_bases(cfg.tiers);
  memsim::Machine machine(cfg);

  const std::size_t n_tiers = cfg.tiers.size();
  // Machine-tier indices in descending performance: perf[0] is the fastest
  // tier, perf.back() the slowest (the unbounded default).
  const std::vector<memsim::TierIndex> perf = cfg.tiers_by_performance();
  const memsim::TierIndex slowest = perf.back();
  // Cache mode fronts the slowest tier with the fastest. On a tie for
  // slowest, slowest_tier() is the first tied tier, perf.back() the last.
  const memsim::TierIndex cache_front = cfg.fastest_tier();
  const memsim::TierIndex cache_backing = cfg.slowest_tier();

  // Scratch resource for run-local state (allocator bookkeeping, miss
  // records, per-phase accumulators). Everything allocated from it is a
  // local of this function, so a sweep worker may reset its arena the
  // moment run_app returns.
  std::pmr::memory_resource* const scratch =
      options.scratch != nullptr ? options.scratch
                                 : std::pmr::get_default_resource();

  // ---- Allocators, modules, policy -------------------------------------
  // One allocator per tier: the slowest (or, in cache mode, the backing)
  // tier gets the glibc-malloc stand-in; every faster tier a memkind-style
  // one. Cache mode addresses only the backing tier.
  std::vector<std::unique_ptr<alloc::Allocator>> tier_allocs(n_tiers);
  auto make_alloc = [&](memsim::TierIndex t) {
    const memsim::TierSpec& tier = cfg.tiers[t];
    if (t == slowest || (cache_mode && t == cache_backing)) {
      tier_allocs[t] = std::make_unique<alloc::PosixAllocator>(
          tier.base, tier.capacity_bytes, scratch);
    } else {
      tier_allocs[t] = std::make_unique<alloc::MemkindAllocator>(
          tier.base, tier.capacity_bytes, scratch);
    }
  };
  if (cache_mode) {
    make_alloc(cache_backing);
  } else {
    for (memsim::TierIndex t = 0; t < n_tiers; ++t) make_alloc(t);
  }
  // Policy view: allocators fastest first, default last.
  std::vector<alloc::Allocator*> policy_tiers;
  if (cache_mode) {
    policy_tiers.push_back(tier_allocs[cache_backing].get());
  } else {
    for (const memsim::TierIndex t : perf) {
      policy_tiers.push_back(tier_allocs[t].get());
    }
  }

  callstack::ModuleMap modules;
  modules.add_module(app.name + ".x", 0x400000, 1ULL << 20);
  modules.randomize_slides(options.seed * 0x9e3779b97f4a7c15ULL + 1);
  callstack::Unwinder unwinder(modules);
  callstack::Translator translator(modules);

  std::unique_ptr<runtime::PlacementPolicy> policy;
  runtime::AutoHbwMalloc* framework = nullptr;
  switch (options.condition) {
    case Condition::kDdr:
    case Condition::kCacheMode:
      policy = std::make_unique<runtime::DdrPolicy>(*policy_tiers.back());
      break;
    case Condition::kNumactl:
      policy = std::make_unique<runtime::NumactlPolicy>(policy_tiers);
      break;
    case Condition::kAutoHbw:
      policy = std::make_unique<runtime::AutoHbwLibPolicy>(
          policy_tiers, options.autohbw_threshold);
      break;
    case Condition::kFramework: {
      HMEM_ASSERT_MSG(options.placement != nullptr,
                      "framework condition requires a Placement");
      auto fw = std::make_unique<runtime::AutoHbwMalloc>(
          *options.placement, policy_tiers, unwinder, translator,
          options.runtime_options);
      framework = fw.get();
      policy = std::move(fw);
      break;
    }
    case Condition::kDynamic: {
      HMEM_ASSERT_MSG(
          options.schedule != nullptr && !options.schedule->phases.empty(),
          "dynamic condition requires a PlacementSchedule");
      auto fw = std::make_unique<runtime::AutoHbwMalloc>(
          options.schedule->phases.front().placement, policy_tiers, unwinder,
          translator, options.runtime_options);
      framework = fw.get();
      policy = std::move(fw);
      break;
    }
  }

  // ---- Feasibility -------------------------------------------------------
  // An allocation lives inside one tier, so an instance (or the stack)
  // larger than every tier this condition may place it in can never be
  // allocated: reject the input before simulating anything, naming the
  // object and the tier. Exhaustion that only builds up over the run (many
  // objects filling the fallback tier) is caught at the failing allocation.
  const memsim::TierIndex fallback = cache_mode ? cache_backing : slowest;
  memsim::TierIndex roomiest = fallback;
  if (options.condition != Condition::kDdr && !cache_mode) {
    for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
      if (cfg.tiers[t].capacity_bytes > cfg.tiers[roomiest].capacity_bytes) {
        roomiest = t;
      }
    }
  }
  const auto out_of_memory = [&](const std::string& what,
                                 std::uint64_t bytes, memsim::TierIndex tier,
                                 bool tier_full) {
    return ResourceError(
        "simulated out of memory: " + what + " (" + format_bytes(bytes) +
        ") " + (tier_full ? "found no room left in" : "does not fit") +
        " the " + cfg.tiers[tier].name + " tier (" +
        format_bytes(cfg.tiers[tier].capacity_bytes) + " per rank at " +
        std::to_string(ranks) + " ranks)");
  };
  const std::uint64_t room = cfg.tiers[roomiest].capacity_bytes;
  if (app.stack_bytes > room) {
    throw out_of_memory("the stack of app '" + app.name + "'",
                        app.stack_bytes, roomiest, false);
  }
  for (const ObjectSpec& obj : app.objects) {
    if (obj.size_bytes > room) {
      throw out_of_memory("object '" + obj.name + "'", obj.size_bytes,
                          roomiest, false);
    }
  }

  // ---- Profiler & site database -----------------------------------------
  // An external SiteDb (streamed-shard runs, shared multi-rank databases)
  // is aliased without ownership; otherwise the run owns a fresh one.
  auto sites = options.sites != nullptr
                   ? std::shared_ptr<callstack::SiteDb>(
                         options.sites, [](callstack::SiteDb*) {})
                   : std::make_shared<callstack::SiteDb>();
  std::optional<profiler::Profiler> prof;
  if (options.profile) {
    profiler::ProfilerConfig pcfg;
    pcfg.min_alloc_bytes = options.min_alloc_bytes;
    pcfg.sampler = options.sampler;
    pcfg.sampler.seed ^= options.seed;
    prof.emplace(pcfg, options.trace_sink);
  }

  const std::size_t n_objects = app.objects.size();
  std::vector<callstack::SiteId> site_ids(n_objects);
  std::vector<callstack::SymbolicCallStack> stacks(n_objects);
  for (std::size_t i = 0; i < n_objects; ++i) {
    const ObjectSpec& obj = app.objects[i];
    if (obj.is_static) {
      callstack::SymbolicCallStack st;
      st.frames.push_back(callstack::CodeLocation{
          app.name + ".x", "static_" + obj.name,
          static_cast<std::uint32_t>(1000 + i)});
      stacks[i] = st;
      site_ids[i] = sites->intern(obj.name, st, /*is_dynamic=*/false);
    } else {
      stacks[i] = app.alloc_stack(i);
      site_ids[i] = sites->intern(obj.name, stacks[i], /*is_dynamic=*/true);
    }
  }

  std::vector<ObjectState> state(n_objects);
  for (std::size_t i = 0; i < n_objects; ++i) {
    state[i].generator = std::make_unique<apps::AccessGenerator>(
        app.objects[i], options.seed ^ (0x51ed2700ULL + i * 0x9e3779b9ULL));
  }

  Xoshiro256 rng(options.seed ^ 0xace5500dULL);

  double now_ns = 0;
  double interpose_ns = 0;
  std::uint64_t alloc_calls = 0;

  // Live-set epoch: bumped whenever any object transitions between live and
  // dead. The per-phase sampling tables are valid for one epoch — steady
  // iterations (no churn, no transients) never rebuild them.
  std::uint64_t live_epoch = 0;
  // Address epoch: bumped when a migration moves a live instance without
  // touching the live set (dynamic-condition phase transitions). Compiled
  // kernels bake instance addresses, so they key on BOTH epochs.
  std::uint64_t addr_epoch = 0;

  auto do_alloc = [&](std::size_t i) {
    const ObjectSpec& obj = app.objects[i];
    if (state[i].instances.empty()) ++live_epoch;
    for (int inst = 0; inst < obj.instances; ++inst) {
      runtime::AllocOutcome out =
          obj.is_static ? policy->allocate_static(obj.size_bytes)
                        : policy->allocate(obj.size_bytes, stacks[i]);
      if (out.addr == 0) {
        throw out_of_memory("object '" + obj.name + "' (instance " +
                                std::to_string(inst + 1) + " of " +
                                std::to_string(obj.instances) + ")",
                            obj.size_bytes, fallback, true);
      }
      state[i].instances.push_back(out.addr);
      state[i].tiers.push_back(out.tier);
      now_ns += out.cost_ns;
      interpose_ns += out.cost_ns;
      if (!obj.is_static) ++alloc_calls;
      if (prof) prof->on_alloc(now_ns, site_ids[i], out.addr, obj.size_bytes);
    }
  };
  auto do_free = [&](std::size_t i) {
    if (!state[i].instances.empty()) ++live_epoch;
    for (Address addr : state[i].instances) {
      if (prof) prof->on_free(now_ns, addr);
      const double cost = policy->deallocate(addr);
      now_ns += cost;
      interpose_ns += cost;
    }
    state[i].instances.clear();
    state[i].tiers.clear();
  };

  // ---- Process image: stack first, then statics, then persistent heap.
  // The stack is *not* registered with the profiler: references to automatic
  // variables stay unattributed, exactly as in the paper.
  const runtime::AllocOutcome stack_region =
      policy->allocate_static(app.stack_bytes);
  if (stack_region.addr == 0) {
    throw out_of_memory("the stack of app '" + app.name + "'",
                        app.stack_bytes, fallback, true);
  }
  now_ns += stack_region.cost_ns;

  for (std::size_t i = 0; i < n_objects; ++i) {
    if (app.objects[i].is_static) do_alloc(i);
  }
  for (std::size_t i = 0; i < n_objects; ++i) {
    const ObjectSpec& obj = app.objects[i];
    if (!obj.is_static && !obj.churn && obj.transient_phase < 0) do_alloc(i);
  }

  // ---- Derived rates -----------------------------------------------------
  const double eff_cores =
      std::min(static_cast<double>(app.threads_per_rank),
               static_cast<double>(options.node.cores) / ranks);
  const double freq_hz = cfg.freq_ghz * 1e9;
  const double instr_rate = eff_cores * cfg.ipc * freq_hz;  // instr/s
  auto rank_bw_gbs = [&](const memsim::TierSpec& tier) {
    return std::min(static_cast<double>(app.threads_per_rank) *
                        tier.per_core_bw_gbs,
                    tier.peak_bw_gbs / ranks);
  };
  // Per-rank achievable bandwidth of every tier; cache mode derates the
  // front tier (tag/fill/writeback traffic rides on the memory side).
  std::vector<double> tier_bw(n_tiers);
  for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
    tier_bw[t] = rank_bw_gbs(options.node.tiers[t]) *
                 (cache_mode && t == cache_front
                      ? options.node.cache_mode_bw_derate
                      : 1.0);
  }
  const double scale = app.access_scale;

  std::unique_ptr<CacheModeModel> mc_model;
  if (cache_mode) {
    std::vector<double> footprints(n_objects + 1, 0.0);
    for (std::size_t i = 0; i < n_objects; ++i) {
      footprints[i] = static_cast<double>(app.objects[i].total_bytes());
    }
    footprints[n_objects] = static_cast<double>(app.stack_bytes);
    mc_model = std::make_unique<CacheModeModel>(
        static_cast<double>(cfg.tiers[cache_front].capacity_bytes),
        std::move(footprints),
        static_cast<double>(memsim::kCacheLineBytes) * scale,
        options.node.cache_mode_conflict_k);
  }

  // ---- Phase-aware schedule (dynamic condition) --------------------------
  // With more than one schedule phase, every phase boundary swaps the
  // runtime's placement and migrates live objects whose tier assignment
  // changed. Migration is charged through the memory model: each moved
  // region costs its live size as a source-tier read plus a destination-tier
  // write at the per-rank roofline bandwidths, serialized at the boundary
  // (a real migration stalls the ranks the same way). A single-phase
  // schedule never transitions (see schedule_transitions), making the run
  // bit-identical to kFramework on the same placement.
  const advisor::PlacementSchedule* schedule = options.schedule;
  const bool has_hook = static_cast<bool>(options.advisor_hook);
  const bool dynamic_on = schedule_transitions(options);
  const std::size_t slow_policy_tier = policy_tiers.size() - 1;
  std::vector<std::size_t> sched_of_phase;          // app phase -> schedule
  std::vector<std::vector<std::size_t>> desired_tier;  // [sched][object]
  std::pmr::vector<std::uint64_t> migration_real(n_tiers, 0,
                                                 scratch);  // real bytes/tier
  std::pmr::vector<std::uint64_t> mig_scratch(n_tiers, 0, scratch);
  std::uint64_t migration_bytes_total = 0;
  std::uint64_t migration_moves = 0;
  double migration_cost_ns = 0;
  // The placement currently applied to the runtime. Identity (not index)
  // so a hook swapping in a refreshed schedule mid-run forces the next
  // transition to re-apply; nullptr marks exactly that state. Compared,
  // never dereferenced — and reset whenever the schedule is re-adopted, so
  // it never outlives the storage it points into.
  const advisor::Placement* applied =
      dynamic_on ? &schedule->phases.front().placement : nullptr;
  // Content version of the adopted schedule. A hook may mutate one schedule
  // object in place (IncrementalAdvisor::refresh does) and return the same
  // pointer, so pointer inequality alone cannot detect a refresh.
  std::uint64_t adopted_generation = dynamic_on ? schedule->generation : 0;
  // Per schedule phase, the policy tier every object belongs in — matched
  // by allocation call-stack, the same identity auto-hbwmalloc uses.
  // Rebuilt whenever the hook swaps or refreshes the schedule.
  auto build_desired = [&](const advisor::PlacementSchedule& sched) {
    const std::size_t promotable =
        std::min(sched.phases.front().placement.tiers.size() - 1,
                 slow_policy_tier);
    desired_tier.assign(
        sched.phases.size(),
        std::vector<std::size_t>(n_objects, slow_policy_tier));
    for (std::size_t sp = 0; sp < sched.phases.size(); ++sp) {
      const advisor::Placement& pl = sched.phases[sp].placement;
      std::unordered_map<callstack::SymbolicCallStack, std::size_t> tier_of;
      for (std::size_t t = 0; t + 1 < pl.tiers.size(); ++t) {
        for (const auto& obj : pl.tiers[t].objects) {
          tier_of.emplace(obj.stack, t);
        }
      }
      for (std::size_t i = 0; i < n_objects; ++i) {
        if (app.objects[i].is_static) continue;
        const auto it = tier_of.find(stacks[i]);
        if (it != tier_of.end() && it->second < promotable) {
          desired_tier[sp][i] = it->second;
        }
      }
    }
  };
  if (dynamic_on) {
    if (!has_hook) {
      // Static schedule: resolve every app phase upfront and insist on
      // full coverage. With a hook, coverage is allowed to grow mid-run
      // and phases are resolved by name at each boundary instead.
      sched_of_phase.resize(app.phases.size());
      for (std::size_t p = 0; p < app.phases.size(); ++p) {
        std::size_t found = schedule->phases.size();
        for (std::size_t sp = 0; sp < schedule->phases.size(); ++sp) {
          if (schedule->phases[sp].phase == app.phases[p].name) {
            found = sp;
            break;
          }
        }
        if (found == schedule->phases.size()) {
          throw ConfigError("placement schedule has no phase '" +
                            app.phases[p].name + "' of app '" + app.name +
                            "' (was it advised from another app's trace?)");
        }
        sched_of_phase[p] = found;
      }
    }
    build_desired(*schedule);
  }
  auto schedule_transition = [&](std::size_t sp) {
    // Fail fast if the adopted schedule changed shape without the engine
    // noticing (a hook mutating in place without bumping `generation`):
    // desired_tier is rebuilt on every adoption, so a mismatch here means
    // the contract was violated and indexing would read out of bounds.
    HMEM_ASSERT_MSG(
        desired_tier.size() == schedule->phases.size() &&
            sp < desired_tier.size(),
        "schedule mutated in place without a generation bump (see "
        "RunOptions::advisor_hook contract)");
    if (&schedule->phases[sp].placement == applied) return;
    applied = &schedule->phases[sp].placement;
    framework->set_placement(schedule->phases[sp].placement);
    std::fill(mig_scratch.begin(), mig_scratch.end(), 0);
    double alloc_ns = 0;
    // Demotions first so the fast tiers drain before they refill; the
    // policy cascades FCFS toward slower tiers when a target is full.
    for (const bool demotion_pass : {true, false}) {
      for (std::size_t i = 0; i < n_objects; ++i) {
        if (app.objects[i].is_static) continue;
        const std::size_t desired = desired_tier[sp][i];
        ObjectState& os = state[i];
        for (std::size_t j = 0; j < os.instances.size(); ++j) {
          const std::size_t cur = os.tiers[j];
          if (cur == desired) continue;
          if ((desired > cur) != demotion_pass) continue;
          const runtime::AllocOutcome out =
              policy->retarget(os.instances[j], desired);
          if (out.addr == 0 || out.addr == os.instances[j]) continue;
          const std::uint64_t moved = app.objects[i].size_bytes;
          mig_scratch[perf[cur]] += moved;       // source-tier read
          mig_scratch[perf[out.tier]] += moved;  // destination-tier write
          migration_bytes_total += moved;
          ++migration_moves;
          alloc_ns += out.cost_ns;
          os.instances[j] = out.addr;
          os.tiers[j] = out.tier;
          ++addr_epoch;
        }
      }
    }
    double mig_s = 0;
    for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
      migration_real[t] += mig_scratch[t];
      mig_s += static_cast<double>(mig_scratch[t]) / (tier_bw[t] * 1e9);
    }
    const double mig_ns = mig_s * 1e9 + alloc_ns;
    now_ns += mig_ns;
    interpose_ns += alloc_ns;
    migration_cost_ns += mig_ns;
  };
  // One schedule decision: consult the hook (which may swap in a refreshed
  // schedule), then transition to this app phase's placement. A phase the
  // schedule does not name yet keeps the last applied placement — the
  // advisor simply has not seen it; the next refresh will. A refresh is
  // detected by pointer OR generation change: an IncrementalAdvisor mutates
  // its one schedule object in place and bumps `generation`, so the hook
  // returns the same pointer for every answer.
  auto consult_schedule = [&](std::size_t p, std::uint64_t iteration) {
    if (has_hook) {
      const advisor::PlacementSchedule* next =
          options.advisor_hook(app.phases[p].name, iteration);
      if (next != nullptr &&
          (next != schedule || next->generation != adopted_generation)) {
        HMEM_ASSERT_MSG(!next->phases.empty(),
                        "advisor hook returned an empty schedule");
        schedule = next;
        adopted_generation = next->generation;
        build_desired(*schedule);
        applied = nullptr;  // force re-apply from the refreshed schedule
      }
      std::size_t found = schedule->phases.size();
      for (std::size_t sp = 0; sp < schedule->phases.size(); ++sp) {
        if (schedule->phases[sp].phase == app.phases[p].name) {
          found = sp;
          break;
        }
      }
      if (found < schedule->phases.size()) schedule_transition(found);
      return;
    }
    schedule_transition(sched_of_phase[p]);
  };

  // ---- Main loop ---------------------------------------------------------
  std::pmr::vector<std::uint64_t> total_tier_sim(n_tiers, 0, scratch);
  std::uint64_t total_misses_sim = 0;
  double cumulative_instructions = 0;
  // Sized for the worst case: every access of the longest phase misses.
  std::uint64_t max_accesses = 0;
  if (prof) {
    for (const auto& phase : app.phases) {
      max_accesses = std::max(
          max_accesses, static_cast<std::uint64_t>(std::llround(
                            static_cast<double>(app.accesses_per_iteration) *
                            phase.access_share)));
    }
  }
  const MissBuffer miss_records(scratch, max_accesses);
  std::vector<PhaseTable> tables(app.phases.size());

  // ---- Kernel selection ---------------------------------------------------
  // The interpreter loop below is the oracle; the compiled kernels
  // (engine/kernel) execute the identical per-access semantics from a
  // flattened program — profiled or not — and are bit-identical on every
  // result field and trace byte. The request resolves through the fallback
  // ladder (cache mode -> interp, no native support -> bytecode).
  const kernel::KernelKind kern =
      kernel::resolve_kernel(options.kernel, cache_mode);
  const bool use_kernel = kern != kernel::KernelKind::kInterp;
  std::vector<std::unique_ptr<PhaseKernel>> kprograms;
  if (use_kernel) kprograms.resize(app.phases.size());

  const std::uint64_t miss_count_per_sim =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(scale)));
  // Hoisted per-phase scratch (re-zeroed each phase, never reallocated).
  std::pmr::vector<std::uint64_t> phase_tier_sim(n_tiers, 0, scratch);
  std::pmr::vector<double> tier_seconds(n_tiers, 0.0, scratch);

  for (std::uint64_t iter = 0; iter < app.iterations; ++iter) {
    // The wrap-around transition happens before the churn reallocations so
    // churned objects are born under the placement of the phase about to
    // run instead of being migrated right after allocation.
    if (dynamic_on) consult_schedule(0, iter);
    for (std::size_t i = 0; i < n_objects; ++i) {
      if (app.objects[i].churn) {
        if (!state[i].instances.empty()) do_free(i);
        do_alloc(i);
      }
    }

    for (std::size_t p = 0; p < app.phases.size(); ++p) {
      const apps::PhaseSpec& phase = app.phases[p];
      if (dynamic_on) consult_schedule(p, iter);
      for (std::size_t i = 0; i < n_objects; ++i) {
        if (app.objects[i].transient_phase == static_cast<int>(p))
          do_alloc(i);
      }
      if (prof) prof->on_phase(now_ns, phase.name, /*begin=*/true);

      // O(1) target sampling table, reused across iterations until an
      // alloc/free changes the live set.
      PhaseTable& table = tables[p];
      if (table.epoch != live_epoch) {
        rebuild_phase_table(table, phase, state, live_epoch);
      }

      // Compiled-kernel program for this phase, regenerated exactly when
      // the live-set or address epoch moves (steady phases reuse it).
      if (use_kernel) {
        if (!kprograms[p]) kprograms[p] = std::make_unique<PhaseKernel>();
        PhaseKernel& kp = *kprograms[p];
        if (kp.live_epoch != live_epoch || kp.addr_epoch != addr_epoch) {
          std::vector<kernel::SlotTarget> targets;
          targets.reserve(table.target.size());
          for (const std::size_t obj : table.target) {
            kernel::SlotTarget t;
            if (obj == SIZE_MAX) {
              t.is_stack = true;
              t.stack_base = stack_region.addr;
              t.stack_lines = app.stack_bytes / memsim::kCacheLineBytes;
            } else {
              t.instances = &state[obj].instances;
              t.gen = state[obj].generator.get();
              t.size_bytes = app.objects[obj].size_bytes;
            }
            targets.push_back(t);
          }
          kp.program =
              kernel::compile_program(table.alias, table.write_threshold,
                                      kWriteCoinShift, targets, machine);
          kp.live_epoch = live_epoch;
          kp.addr_epoch = addr_epoch;
          kp.use_native = false;
          if (kern == kernel::KernelKind::kNative) {
            const memsim::Cache::Tables llc = machine.llc().tables();
            // An injected compile fault behaves exactly like compile()
            // returning false: this phase runs on bytecode instead.
            kp.use_native =
                !fault::inject(fault::Site::kKernelCompile) &&
                kp.native.compile(kp.program, llc.ways, llc.line_shift,
                                  llc.set_mask, prof.has_value());
          }
        }
      }

      const auto n_accesses = static_cast<std::uint64_t>(std::llround(
          static_cast<double>(app.accesses_per_iteration) *
          phase.access_share));
      std::fill(phase_tier_sim.begin(), phase_tier_sim.end(), 0);
      double phase_latency_ns = 0;
      std::uint64_t n_records = 0;

      if (use_kernel) {
        // Compiled path: hand the burst to the kernel. The frame aliases
        // the live LLC way state (the kernel mutates tags/recency in place,
        // exactly as Cache::access would) and the phase accumulators.
        PhaseKernel& kp = *kprograms[p];
        const memsim::Cache::Tables llc = machine.llc().tables();
        kernel::Frame frame;
        frame.tags = llc.tags;
        frame.order = llc.order;
        frame.ways = llc.ways;
        frame.line_shift = llc.line_shift;
        frame.set_mask = llc.set_mask;
        frame.n_accesses = n_accesses;
        frame.tier_sim = phase_tier_sim.data();
        if (prof) frame.miss_out = miss_records.data();
        if (kp.use_native) {
          rng.save_state(frame.rng_state);
          kp.native.run(frame);
          rng.restore_state(frame.rng_state);
        } else {
          kernel::run_bytecode(kp.program, frame, rng);
        }
        phase_latency_ns = frame.latency_ns;
        total_misses_sim += frame.misses;
        if (prof) n_records = frame.misses;
      } else {
        // Interpreter (oracle) path: semantics mirrored insn-for-insn by
        // the compiled kernels above.
        for (std::uint64_t k = 0; k < n_accesses; ++k) {
          // One structured draw per access: target column + alias coin +
          // write coin (field layout documented at kAliasCoinBits above).
          const std::uint64_t draw = rng.next();
          const std::size_t idx = table.target[table.alias.sample(draw)];
          const bool is_write =
              (draw >> kWriteCoinShift) < table.write_threshold;

          Address addr = 0;
          if (idx == SIZE_MAX) {
            const std::uint64_t lines =
                app.stack_bytes / memsim::kCacheLineBytes;
            addr = stack_region.addr + rng.below(lines) *
                                           memsim::kCacheLineBytes;
          } else {
            const ObjectState& os = state[idx];
            const Address base =
                os.instances.size() == 1
                    ? os.instances[0]
                    : os.instances[rng.below(os.instances.size())];
            std::uint64_t offset = os.generator->next_offset();
            if (offset >= app.objects[idx].size_bytes) offset = 0;
            addr = base + offset;
          }
          const memsim::AccessResult res = machine.access(addr);
          double latency_ns = res.latency_ns;
          memsim::TierIndex serve_tier = res.tier;
          std::uint64_t serve_bytes = res.tier_bytes;
          std::uint64_t fill_bytes = 0;
          if (!res.llc_hit && cache_mode) {
            // Analytic memory-side cache decision (see CacheModeModel). The
            // flat-mode routing above served the backing tier; rewrite it.
            const std::size_t mc_target = idx == SIZE_MAX ? n_objects : idx;
            if (rng.uniform() < mc_model->hit_probability(mc_target)) {
              latency_ns = options.node.tiers[cache_front].latency_ns +
                           options.node.mem_cache_tag_ns;
              serve_tier = cache_front;
              serve_bytes = memsim::kCacheLineBytes;
            } else {
              mc_model->on_miss(mc_target);
              latency_ns = options.node.tiers[cache_backing].latency_ns +
                           options.node.mem_cache_tag_ns;
              serve_tier = cache_backing;
              serve_bytes = memsim::kCacheLineBytes;
              fill_bytes = memsim::kCacheLineBytes;  // memory-side fill
            }
          }
          phase_latency_ns += latency_ns;
          phase_tier_sim[serve_tier] += serve_bytes;
          if (fill_bytes != 0) phase_tier_sim[cache_front] += fill_bytes;
          if (!res.llc_hit) {
            ++total_misses_sim;
            if (prof) miss_records.data()[n_records++] = {k, addr, is_write};
          }
        }
      }

      // Roofline phase duration (seconds).
      const double real_instr = static_cast<double>(n_accesses) * scale *
                                phase.insts_per_access;
      const double compute_s = real_instr / instr_rate;
      // Tiers stream in parallel, but the shared mesh/controllers keep the
      // combination short of perfect overlap: the slowest tier dominates
      // and every other tier's time is charged at tier_mix_penalty.
      double dominant_s = 0;
      std::size_t dominant_tier = 0;
      for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
        tier_seconds[t] = static_cast<double>(phase_tier_sim[t]) * scale /
                          (tier_bw[t] * 1e9);
        if (tier_seconds[t] > dominant_s) {
          dominant_s = tier_seconds[t];
          dominant_tier = t;
        }
      }
      double overlapped_s = 0;
      for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
        if (t != dominant_tier) overlapped_s += tier_seconds[t];
      }
      const double latency_s =
          phase_latency_ns * scale * 1e-9 / (eff_cores * options.mlp);
      const double tier_s =
          dominant_s + options.tier_mix_penalty * overlapped_s;
      const double memory_s = std::max(latency_s, tier_s);
      const double phase_s =
          std::max(compute_s, memory_s) +
          options.overlap_beta * std::min(compute_s, memory_s);
      const double phase_ns = phase_s * 1e9;

      if (prof) {
        // Every record stands for the same miss count, so the sampler can
        // skip the records that cannot fire in O(1); only firing records
        // take the per-miss path (same events, same overhead sum order).
        const double denom =
            static_cast<double>(std::max<std::uint64_t>(1, n_accesses));
        for (std::uint64_t r = 0;;) {
          r += prof->skip_quiet_misses(n_records - r, miss_count_per_sim);
          if (r == n_records) break;
          const MissRecord& rec = miss_records.data()[r++];
          const double t =
              now_ns + phase_ns * static_cast<double>(rec.order) / denom;
          prof->on_llc_miss(t, rec.addr, rec.is_write, miss_count_per_sim);
        }
      }
      cumulative_instructions += real_instr;
      now_ns += phase_ns;
      if (prof) {
        prof->on_counter(now_ns, "instructions", cumulative_instructions);
        prof->on_phase(now_ns, phase.name, /*begin=*/false);
      }

      for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
        total_tier_sim[t] += phase_tier_sim[t];
      }

      for (std::size_t i = 0; i < n_objects; ++i) {
        if (app.objects[i].transient_phase == static_cast<int>(p))
          do_free(i);
      }
    }
  }

  if (prof) now_ns += prof->overhead_ns();

  // ---- Result ------------------------------------------------------------
  RunResult result;
  result.app = app.name;
  result.condition = condition_name(options.condition);
  result.fom_unit = app.fom_unit;
  result.time_s = now_ns * 1e-9;
  HMEM_ASSERT(result.time_s > 0);
  result.fom = app.work_per_iteration * static_cast<double>(app.iterations) *
               ranks / result.time_s;

  // Per-tier traffic, fastest tier first (the order callers reason in).
  // Migration traffic is real (not sampled), so it joins after scaling.
  result.tier_traffic.reserve(n_tiers);
  for (const memsim::TierIndex t : perf) {
    TierTraffic traffic;
    traffic.name = cfg.tiers[t].name;
    traffic.bytes = static_cast<std::uint64_t>(
                        static_cast<double>(total_tier_sim[t]) * scale) +
                    migration_real[t];
    traffic.migration_bytes = migration_real[t];
    result.tier_traffic.push_back(std::move(traffic));
  }
  result.migration_bytes = migration_bytes_total;
  result.migration_count = migration_moves;
  result.migration_cost_s = migration_cost_ns * 1e-9;
  result.achieved_bw_gbs =
      static_cast<double>(result.dram_bytes()) / result.time_s / 1e9;
  result.llc_misses = total_misses_sim * miss_count_per_sim;
  result.alloc_calls = alloc_calls;
  result.allocs_per_second = static_cast<double>(alloc_calls) / result.time_s;
  result.interposition_overhead_ns = interpose_ns;

  result.total_hwm_bytes = 0;
  for (const auto& a : tier_allocs) {
    if (a != nullptr) result.total_hwm_bytes += a->stats().high_water_mark;
  }
  if (framework != nullptr) {
    result.autohbw = framework->stats();
    result.fast_hwm_bytes = framework->stats().fast_hwm;
  } else if (options.condition == Condition::kNumactl ||
             options.condition == Condition::kAutoHbw) {
    result.fast_hwm_bytes = tier_allocs[perf.front()]->stats().high_water_mark;
  }

  if (prof) {
    result.samples = prof->sampler().samples_taken();
    result.monitoring_overhead = prof->overhead_ns() / now_ns;
    if (options.trace_sink == nullptr) {
      result.trace =
          std::make_shared<trace::TraceBuffer>(prof->take_trace());
    }
    result.sites = sites;
  }
  return result;
}

}  // namespace hmem::engine
