// PEBS-style hardware sampling of LLC misses.
//
// The paper samples one out of every 37,589 L2 (LLC) cache misses via PEBS,
// capturing the referenced address. We reproduce the mechanism exactly: a
// down-counter armed with the period fires on overflow and records the
// triggering access. The reset value can be randomised within a small
// jitter window — real PMU drivers do this to avoid phase-locking onto
// loop structures — and both the period and the jitter are configurable so
// the sampling-accuracy ablation can sweep them.
//
// On Xeon Phi, PEBS reports only the address for L2 events; on Xeon it adds
// load latency and the serving memory level. SampleRecord carries the
// optional fields so the richer infrastructure is representable (the paper
// calls this out as a future refinement), but the KNL-profile pipeline only
// consumes the address.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/prng.hpp"
#include "memsim/address.hpp"

namespace hmem::pebs {

using memsim::Address;

struct SampleRecord {
  double time_ns = 0;
  Address addr = 0;
  bool is_write = false;
  std::uint64_t weight = 1;  ///< sampling period at the time of capture
  /// Xeon-only extras (unused on the KNL profile, see header comment).
  std::optional<double> latency_ns;
  std::optional<int> mem_level;
};

struct SamplerConfig {
  /// Paper value: one sample every 37,589 LLC misses.
  std::uint64_t period = 37589;
  /// Fractional jitter applied to each re-arm (0 = strictly periodic).
  double jitter = 0.05;
  std::uint64_t seed = 0x5eb5;
};

class PebsSampler {
 public:
  explicit PebsSampler(SamplerConfig config);

  /// Feed one LLC miss; returns a record when the counter overflowed.
  std::optional<SampleRecord> on_llc_miss(double time_ns, Address addr,
                                          bool is_write);

  /// Feed `count` misses sharing one representative address (the execution
  /// engine simulates sampled access streams where each simulated miss
  /// stands for many real ones). Returns the number of overflows fired;
  /// each fire represents `period` misses.
  std::uint64_t on_llc_misses(double time_ns, Address addr, bool is_write,
                              std::uint64_t count);

  /// Skip-ahead over quiet miss groups: of up to `max_groups` groups of
  /// `count` misses each (count > 0), consumes in O(1) the leading groups
  /// that cannot fire — exactly as calling on_llc_misses(count) once per
  /// group would, firing none — and returns how many it consumed. When the
  /// result is below `max_groups`, the next group fires.
  std::uint64_t skip_quiet(std::uint64_t max_groups, std::uint64_t count);

  std::uint64_t misses_seen() const { return misses_seen_; }
  std::uint64_t samples_taken() const { return samples_taken_; }
  const SamplerConfig& config() const { return config_; }

  void reset();

 private:
  void arm();

  SamplerConfig config_;
  hmem::Xoshiro256 rng_;
  std::uint64_t countdown_ = 0;
  std::uint64_t misses_seen_ = 0;
  std::uint64_t samples_taken_ = 0;
};

}  // namespace hmem::pebs
