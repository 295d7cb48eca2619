// Application workload model.
//
// The paper evaluates eight real HPC applications. We cannot run them here,
// so each is replayed as a *memory-object signature*: the set of data
// objects (sizes, allocation sites, static-vs-dynamic, allocation churn),
// the per-phase distribution of memory accesses over those objects, and the
// execution geometry. The signatures are encoded from Table I plus the
// causes Section IV.C gives for each application's behaviour (see the
// header comment of each configs/apps/<name>.ini). An AppSpec is purely
// declarative — the execution engine interprets it against the simulated
// machine.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "callstack/callstack.hpp"

namespace hmem::apps {

enum class AccessPattern {
  kStream,         ///< sequential lines, position persists across iterations
  kRandom,         ///< uniform random line within the object
  kStrided,        ///< fixed large stride (gather-like)
  kRandomPermute,  ///< fixed random permutation of all lines, replayed
  kZipf,           ///< power-law skew: low lines hot, tail cold
  kPointerChase,   ///< random single-cycle successor chain (linked list)
  kBursty,         ///< random jump, then a short sequential burst
};

/// Canonical config-file name of a pattern ("seq", "random", "stride",
/// "random-permute", "zipf", "pointer-chase", "bursty").
const char* pattern_name(AccessPattern pattern);

/// Inverse of pattern_name; also accepts the legacy aliases "stream" and
/// "strided". Returns nullopt for unknown names.
std::optional<AccessPattern> parse_pattern(const std::string& name);

/// Comma-separated pattern names for usage and error texts.
std::string pattern_list();

/// Table-backed patterns (random-permute, pointer-chase) materialise one
/// 32-bit entry per cache line, so a hostile config could demand unbounded
/// memory; validate() rejects such objects above this size (1 GiB object =
/// 64 MiB table).
inline constexpr std::uint64_t kMaxTablePatternBytes = 1ULL << 30;

struct ObjectSpec {
  std::string name;
  std::uint64_t size_bytes = 0;
  AccessPattern pattern = AccessPattern::kStream;
  /// Static or automatic variable: visible to the profiler (by name), but
  /// not interceptable by auto-hbwmalloc.
  bool is_static = false;
  /// Freed and re-allocated every iteration (Lulesh-style churn). Churned
  /// objects share one allocation call-stack across iterations.
  bool churn = false;
  /// Number of simultaneously-live instances allocated from this one
  /// site (an allocation inside a loop: "the call-stack will be the same
  /// for each iteration, and hence it can not unequivocally distinguish
  /// among the different allocations"). size_bytes is per instance; the
  /// advisor only ever sees the per-instance maximum while the runtime
  /// allocates all of them.
  int instances = 1;
  /// When >= 0, the object only lives inside that phase of each iteration
  /// (allocated at phase entry, freed at phase exit). The advisor's
  /// static-address-space assumption treats such objects as always live —
  /// the Lulesh artefact.
  int transient_phase = -1;
  /// Call-stack depth of the allocation site (affects unwind/translate
  /// cost; apps with deep inlined stacks stress the interposer).
  int callstack_depth = 3;
  /// kZipf skew exponent (> 0); ~0.8 matches common cache-friendly skews,
  /// larger values concentrate traffic on fewer lines.
  double zipf_alpha = 0.8;
  /// kStrided stride in cache lines; 0 selects the historical default (67).
  std::uint64_t stride_lines = 0;
  /// kBursty run length in cache lines between random jumps.
  std::uint64_t burst_lines = 64;

  std::uint64_t total_bytes() const {
    return size_bytes * static_cast<std::uint64_t>(instances);
  }

  bool operator==(const ObjectSpec&) const = default;
};

struct PhaseSpec {
  std::string name;
  /// Share of the iteration's accesses spent in this phase.
  double access_share = 1.0;
  /// Relative access weight per object (parallel to AppSpec::objects;
  /// entries are normalised internally). Zero = not touched in this phase.
  std::vector<double> object_weights;
  /// Share of this phase's accesses that hit the *stack* (register spills,
  /// automatic variables) — traffic the framework can never retarget.
  double stack_weight = 0.0;
  /// Fraction of accesses that are stores.
  double write_fraction = 0.3;
  /// Arithmetic intensity: instructions retired per (real) memory access.
  double insts_per_access = 12.0;

  bool operator==(const PhaseSpec&) const = default;
};

struct AppSpec {
  std::string name;
  std::string fom_unit;
  int ranks = 1;
  int threads_per_rank = 1;
  std::uint64_t iterations = 50;
  /// Simulated accesses generated per iteration (per rank). Each simulated
  /// access statistically represents `access_scale` real accesses.
  std::uint64_t accesses_per_iteration = 20000;
  double access_scale = 1000.0;
  /// FOM units of work completed per rank per iteration; FOM = work * ranks
  /// * iterations / time.
  double work_per_iteration = 1.0;
  /// Stack region size (per rank).
  std::uint64_t stack_bytes = 8ULL << 20;
  std::vector<ObjectSpec> objects;
  std::vector<PhaseSpec> phases;

  bool operator==(const AppSpec&) const = default;

  /// Index lookup by object name; asserts when absent (test helper).
  std::size_t object_index(const std::string& name) const;
  /// Total dynamic + static footprint (bytes, per rank).
  std::uint64_t total_footprint() const;

  /// Builds the symbolic allocation call-stack for an object. The innermost
  /// frame is unique per object; outer frames walk through main. Churned
  /// objects keep the same stack every iteration by construction.
  callstack::SymbolicCallStack alloc_stack(std::size_t object_index) const;
};

/// Verifies internal consistency (weights vectors sized to objects, shares
/// summing to ~1, nonzero sizes). Returns a description of the first
/// problem, or an empty string when valid.
std::string validate(const AppSpec& spec);

}  // namespace hmem::apps
