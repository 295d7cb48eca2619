#include "engine/replay.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <variant>
#include <vector>

#include "alloc/allocators.hpp"
#include "callstack/modulemap.hpp"
#include "callstack/unwind.hpp"
#include "common/assert.hpp"
#include "common/error.hpp"
#include "runtime/policy.hpp"

namespace hmem::engine {

namespace {

using memsim::Address;

/// A recorded allocation re-hosted by the replay policy: where the bytes
/// live now, and which policy tier serves samples landing inside it.
struct LiveRange {
  Address end = 0;       ///< recorded [base, end)
  Address new_addr = 0;  ///< address the replay policy assigned
  std::size_t tier = 0;  ///< policy tier (fastest-first index)
};

}  // namespace

RunResult replay_run(trace::TraceReader& events,
                     const callstack::SiteDb& sites,
                     const ReplayOptions& options) {
  if (options.condition == Condition::kCacheMode ||
      options.condition == Condition::kDynamic) {
    throw ConfigError(
        "replay supports the ddr, numactl, autohbw and framework conditions "
        "(cache and dynamic need the live object stream, not samples)");
  }
  if (options.condition == Condition::kFramework &&
      options.placement == nullptr) {
    throw ConfigError("framework replay requires a placement");
  }
  const int ranks = std::max(1, options.ranks);
  const int shards = std::max(1, options.shards);

  // ---- Per-rank machine view (mirrors run_app) --------------------------
  memsim::MachineConfig cfg = options.node;
  if (cfg.tiers.empty()) throw ConfigError("node config has no tiers");
  for (memsim::TierSpec& tier : cfg.tiers) {
    tier.capacity_bytes /= static_cast<std::uint64_t>(ranks);
  }
  memsim::assign_tier_bases(cfg.tiers);

  const std::size_t n_tiers = cfg.tiers.size();
  const std::vector<memsim::TierIndex> perf = cfg.tiers_by_performance();
  const memsim::TierIndex slowest = perf.back();

  std::vector<std::unique_ptr<alloc::Allocator>> tier_allocs(n_tiers);
  for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
    const memsim::TierSpec& tier = cfg.tiers[t];
    if (t == slowest) {
      tier_allocs[t] = std::make_unique<alloc::PosixAllocator>(
          tier.base, tier.capacity_bytes);
    } else {
      tier_allocs[t] = std::make_unique<alloc::MemkindAllocator>(
          tier.base, tier.capacity_bytes);
    }
  }
  std::vector<alloc::Allocator*> policy_tiers;
  for (const memsim::TierIndex t : perf) {
    policy_tiers.push_back(tier_allocs[t].get());
  }
  const std::size_t slow_policy_tier = policy_tiers.size() - 1;

  // AllocOutcome::tier indexes the *policy's own* allocator list, which for
  // DdrPolicy holds a single entry — it does not line up with the
  // fastest-first policy_tiers order. The assigned address is unambiguous:
  // tier base ranges partition the simulated address space, so locate the
  // address instead.
  const auto policy_tier_of = [&](Address addr) -> std::size_t {
    for (memsim::TierIndex t = 0; t < n_tiers; ++t) {
      const memsim::TierSpec& tier = cfg.tiers[t];
      if (addr >= tier.base && addr - tier.base < tier.capacity_bytes) {
        for (std::size_t p = 0; p < perf.size(); ++p) {
          if (perf[p] == t) return p;
        }
      }
    }
    return slow_policy_tier;
  };

  // The framework unwinds/translates through a module map; every module a
  // recorded call-stack mentions must be registered (a recording does not
  // say which binary produced it). Trace readers intern sites lazily while
  // events stream, so registration happens on first sight, not up front.
  callstack::ModuleMap modules;
  std::set<std::string> module_names;
  Address module_base = 0x400000;
  const auto ensure_modules = [&](const callstack::SymbolicCallStack& stack) {
    for (const auto& frame : stack.frames) {
      if (!module_names.insert(frame.module).second) continue;
      modules.add_module(frame.module, module_base, 1ULL << 20);
      module_base += 1ULL << 24;
    }
  };
  for (const auto& site : sites.all()) ensure_modules(site.stack);
  callstack::Unwinder unwinder(modules);
  callstack::Translator translator(modules);

  std::unique_ptr<runtime::PlacementPolicy> policy;
  runtime::AutoHbwMalloc* framework = nullptr;
  switch (options.condition) {
    case Condition::kDdr:
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
      auto fw = std::make_unique<runtime::AutoHbwMalloc>(
          *options.placement, policy_tiers, unwinder, translator,
          options.runtime_options);
      framework = fw.get();
      policy = std::move(fw);
      break;
    }
    default:
      HMEM_ASSERT_MSG(false, "unreachable replay condition");
  }

  // ---- Replay loop ------------------------------------------------------
  // Live map keyed by *recorded* base address (shards arrive pre-rebased by
  // the reader, so bases are unique across ranks). Samples look up the
  // covering range; anything outside every live range — the stack, regions
  // below the profiler's min-alloc threshold, or bytes from a corrupted
  // shard — is unattributed and served by the slowest tier, which is where
  // every replayable policy leaves unmanaged data.
  std::map<Address, LiveRange> live;
  std::vector<std::uint64_t> tier_bytes(policy_tiers.size(), 0);
  std::uint64_t misses = 0;
  std::uint64_t sample_events = 0;
  std::uint64_t alloc_calls = 0;
  double alloc_ns = 0;
  double max_instructions = 0;

  trace::Event event;
  while (events.next(event)) {
    if (const auto* alloc = std::get_if<trace::AllocEvent>(&event)) {
      const bool known_site = alloc->site < sites.size();
      const bool is_dynamic =
          known_site ? sites.get(alloc->site).is_dynamic : true;
      static const callstack::SymbolicCallStack kEmptyStack;
      const callstack::SymbolicCallStack& stack =
          known_site ? sites.get(alloc->site).stack : kEmptyStack;
      ensure_modules(stack);
      const runtime::AllocOutcome out =
          is_dynamic ? policy->allocate(alloc->size, stack)
                     : policy->allocate_static(alloc->size);
      if (out.addr == 0) {
        throw ResourceError(
            "simulated out of memory during replay (the recorded allocation "
            "stream exceeds the machine's per-rank tier capacities)");
      }
      // A recorded base seen twice (possible only in a damaged shard) would
      // make sample lookup ambiguous: drop the stale range first.
      if (const auto stale = live.find(alloc->addr); stale != live.end()) {
        policy->deallocate(stale->second.new_addr);
        live.erase(stale);
      }
      live[alloc->addr] =
          LiveRange{alloc->addr + std::max<std::uint64_t>(1, alloc->size),
                    out.addr, policy_tier_of(out.addr)};
      if (is_dynamic) ++alloc_calls;
      alloc_ns += out.cost_ns;
    } else if (const auto* free = std::get_if<trace::FreeEvent>(&event)) {
      // Frees of never-recorded regions (stack, filtered allocations) are
      // silently ignored, like a malloc registry seeing a foreign pointer.
      const auto it = live.find(free->addr);
      if (it != live.end()) {
        alloc_ns += policy->deallocate(it->second.new_addr);
        live.erase(it);
      }
    } else if (const auto* sample = std::get_if<trace::SampleEvent>(&event)) {
      ++sample_events;
      misses += sample->weight;
      std::size_t tier = slow_policy_tier;
      auto it = live.upper_bound(sample->addr);
      if (it != live.begin()) {
        --it;
        if (sample->addr < it->second.end) tier = it->second.tier;
      }
      tier_bytes[tier] += sample->weight * memsim::kCacheLineBytes;
    } else if (const auto* counter = std::get_if<trace::CounterEvent>(&event)) {
      // Cumulative per rank; after a multi-rank merge the maximum is the
      // per-rank instruction count (ranks execute in parallel).
      if (counter->name == "instructions") {
        max_instructions = std::max(max_instructions, counter->value);
      }
    }
    // Phase markers carry no replayable work (placement is static here).
  }

  // ---- Modeled time (per rank) ------------------------------------------
  const double cores_per_rank =
      std::max(1.0, static_cast<double>(options.node.cores) / ranks);
  const double threads =
      options.threads_per_rank > 0
          ? std::min(static_cast<double>(options.threads_per_rank),
                     cores_per_rank)
          : cores_per_rank;
  const double instr_rate = threads * cfg.ipc * cfg.freq_ghz * 1e9;
  const double compute_s = max_instructions / instr_rate;
  double dominant_s = 0;
  std::size_t dominant = 0;
  std::vector<double> tier_seconds(policy_tiers.size(), 0.0);
  for (std::size_t t = 0; t < policy_tiers.size(); ++t) {
    const memsim::TierSpec& tier = options.node.tiers[perf[t]];
    const double bw_gbs =
        std::min(threads * tier.per_core_bw_gbs, tier.peak_bw_gbs / ranks);
    tier_seconds[t] = static_cast<double>(tier_bytes[t]) / shards /
                      (bw_gbs * 1e9);
    if (tier_seconds[t] > dominant_s) {
      dominant_s = tier_seconds[t];
      dominant = t;
    }
  }
  double overlapped_s = 0;
  for (std::size_t t = 0; t < policy_tiers.size(); ++t) {
    if (t != dominant) overlapped_s += tier_seconds[t];
  }
  const double memory_s = dominant_s + options.tier_mix_penalty * overlapped_s;
  const double time_s = std::max(compute_s, memory_s) +
                        options.overlap_beta * std::min(compute_s, memory_s) +
                        alloc_ns * 1e-9;

  // ---- Result (per-rank means over the merged shards; exact for a
  // single-shard replay) --------------------------------------------------
  RunResult result;
  result.app = "replay";
  result.condition = condition_name(options.condition);
  result.fom_unit = "n/a";
  result.time_s = std::max(time_s, 1e-12);
  result.fom = 0;
  result.tier_traffic.reserve(policy_tiers.size());
  for (std::size_t t = 0; t < policy_tiers.size(); ++t) {
    TierTraffic traffic;
    traffic.name = cfg.tiers[perf[t]].name;
    traffic.bytes = tier_bytes[t] / static_cast<std::uint64_t>(shards);
    result.tier_traffic.push_back(std::move(traffic));
  }
  result.achieved_bw_gbs =
      static_cast<double>(result.dram_bytes()) / result.time_s / 1e9;
  result.llc_misses = misses / static_cast<std::uint64_t>(shards);
  result.samples = sample_events;
  result.alloc_calls = alloc_calls / static_cast<std::uint64_t>(shards);
  result.allocs_per_second =
      static_cast<double>(result.alloc_calls) / result.time_s;
  result.interposition_overhead_ns = alloc_ns;
  result.total_hwm_bytes = 0;
  for (const auto& a : tier_allocs) {
    result.total_hwm_bytes += a->stats().high_water_mark;
  }
  if (framework != nullptr) {
    result.autohbw = framework->stats();
    result.fast_hwm_bytes = framework->stats().fast_hwm;
  } else if (options.condition == Condition::kNumactl ||
             options.condition == Condition::kAutoHbw) {
    result.fast_hwm_bytes = tier_allocs[perf.front()]->stats().high_water_mark;
  }
  return result;
}

}  // namespace hmem::engine
