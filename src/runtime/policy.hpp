// Placement policies — the execution conditions of the paper's evaluation.
//
// Every experiment runs the same application under one of five placement
// regimes. A policy owns the routing of each dynamic allocation (and of the
// process's static/stack image) to a backing allocator. Policies are tier
// generic: they receive one allocator per machine tier in descending
// performance order (`tiers[0]` = fastest ... `tiers.back()` = slowest,
// unbounded default), and promotion targets a *tier id* — an index into
// that list — rather than "the fast tier".
//
//  * DdrPolicy        — everything in the default tier (the reference
//                       line; "DDR" on the paper's platform).
//  * NumactlPolicy    — `numactl -p 1`: *all* data (static, automatic and
//                       dynamic) preferred into faster tiers, FCFS,
//                       cascading fast-to-slow until something fits.
//  * AutoHbwLibPolicy — memkind's autohbw library: dynamic allocations of
//                       at least a size threshold (1 MiB in the paper) go
//                       to a target tier (default: fastest) when they fit.
//  * AutoHbwMalloc    — the paper's contribution (see auto_hbwmalloc.hpp);
//                       implements this same interface.
//  * cache mode       — not a policy: everything goes to the backing tier
//                       (DdrPolicy) and the engine models the memory-side
//                       cache analytically (CacheModeModel).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "callstack/callstack.hpp"

namespace hmem::runtime {

using alloc::Address;
using alloc::Allocator;

struct AllocOutcome {
  /// 0 on failure (simulated OOM — callers treat it as fatal).
  Address addr = 0;
  Allocator* owner = nullptr;
  /// Simulated CPU cost of the allocation path (allocator cost plus any
  /// interposition overhead), charged to execution time by the engine.
  double cost_ns = 0;
  /// True when the bytes landed in any tier faster than the default.
  bool promoted = false;
  /// Tier id (index into the policy's fast-to-slow allocator list) that
  /// received the bytes.
  std::size_t tier = 0;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  /// Routes one dynamic allocation. `context` is the allocation call-stack
  /// (what backtrace() would see).
  virtual AllocOutcome allocate(std::uint64_t size,
                                const callstack::SymbolicCallStack& context) = 0;

  /// Frees a prior allocation; returns the simulated cost. Asserts on
  /// addresses this policy never returned.
  virtual double deallocate(Address addr) = 0;

  /// Places one static/automatic region at process load. Policies other
  /// than numactl cannot retarget these, so the default goes to the slow
  /// allocator.
  virtual AllocOutcome allocate_static(std::uint64_t size);

  /// Moves a live dynamic allocation into `target_tier` (phase-aware
  /// re-placement). When the target tier cannot take it, the move cascades
  /// FCFS toward slower tiers, exactly like the numactl fallback; reaching
  /// the allocation's current tier on the way means "stay put" (addr
  /// unchanged, zero cost). Returns addr == 0 only when every candidate
  /// tier refused — the object then stays where it was. The returned
  /// cost_ns charges the allocator bookkeeping of the move (the data-copy
  /// traffic itself is the engine's to charge through the memory model).
  virtual AllocOutcome retarget(Address addr, std::size_t target_tier);

  virtual const std::string& name() const = 0;

  /// The policy's allocators, fastest first; back() is the default.
  const std::vector<Allocator*>& tiers() const { return tiers_; }

 protected:
  /// `tiers` in descending performance order; must hold at least the
  /// default (slowest) allocator.
  explicit PlacementPolicy(std::vector<Allocator*> tiers);

  Allocator& slow() const { return *tiers_.back(); }
  std::size_t slow_tier() const { return tiers_.size() - 1; }

  AllocOutcome from_tier(std::size_t tier, std::uint64_t size,
                         double extra_ns = 0.0);
  double free_from(Address addr);

  std::vector<Allocator*> tiers_;
};

/// Reference: everything in the default (slowest) tier.
class DdrPolicy final : public PlacementPolicy {
 public:
  explicit DdrPolicy(Allocator& slow);

  AllocOutcome allocate(std::uint64_t size,
                        const callstack::SymbolicCallStack& context) override;
  double deallocate(Address addr) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "ddr";
};

/// numactl -p 1: FCFS into faster tiers (including statics), cascading
/// fast-to-slow; the slowest tier is the unconditional fallback.
class NumactlPolicy final : public PlacementPolicy {
 public:
  /// Two-tier convenience: fast preferred, slow fallback.
  NumactlPolicy(Allocator& slow, Allocator& fast);
  /// N-tier: allocators fastest first.
  explicit NumactlPolicy(std::vector<Allocator*> tiers);

  AllocOutcome allocate(std::uint64_t size,
                        const callstack::SymbolicCallStack& context) override;
  double deallocate(Address addr) override;
  AllocOutcome allocate_static(std::uint64_t size) override;
  const std::string& name() const override { return name_; }

 private:
  std::string name_ = "numactl";
};

/// memkind autohbw: dynamic allocations >= threshold go to the target tier
/// when they fit.
class AutoHbwLibPolicy final : public PlacementPolicy {
 public:
  AutoHbwLibPolicy(Allocator& slow, Allocator& fast,
                   std::uint64_t threshold_bytes = 1ULL << 20);
  /// N-tier: promote threshold-sized allocations into `target_tier` (an
  /// index into `tiers`, default 0 = fastest).
  AutoHbwLibPolicy(std::vector<Allocator*> tiers,
                   std::uint64_t threshold_bytes, std::size_t target_tier = 0);

  AllocOutcome allocate(std::uint64_t size,
                        const callstack::SymbolicCallStack& context) override;
  double deallocate(Address addr) override;
  const std::string& name() const override { return name_; }

  std::uint64_t threshold_bytes() const { return threshold_; }
  std::size_t target_tier() const { return target_; }

 private:
  std::string name_ = "autohbw";
  std::uint64_t threshold_;
  std::size_t target_ = 0;
};

}  // namespace hmem::runtime
