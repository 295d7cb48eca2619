// Deterministic per-object access-offset generators.
//
// Thin adapter from the pluggable workload_gen layer to the byte offsets
// the engine consumes. Generator position persists across iterations so
// that cache-mode residency builds up realistically (the direct-mapped
// MCDRAM cache sees the same blocks revisited run-long, which is what makes
// its capacity/conflict behaviour emerge instead of being scripted).
#pragma once

#include <cstdint>
#include <memory>

#include "apps/app.hpp"
#include "apps/workload_gen.hpp"
#include "memsim/address.hpp"

namespace hmem::apps {

class AccessGenerator {
 public:
  /// Generator for an object spec: pattern plus its parameters.
  AccessGenerator(const ObjectSpec& object, std::uint64_t seed);

  /// Legacy shorthand: pattern with default parameters.
  AccessGenerator(AccessPattern pattern, std::uint64_t object_bytes,
                  std::uint64_t seed);

  /// Next line-aligned offset in [0, object_bytes).
  std::uint64_t next_offset() { return gen_->next_line() * memsim::kCacheLineBytes; }

  AccessPattern pattern() const { return pattern_; }

  /// The stream's inline state (seq, stride, random, random-permute), which
  /// compiled kernels step in place instead of calling next_offset(); empty
  /// for the call-out patterns. Stable for the generator's lifetime.
  const InlineGen& inline_state() const { return inline_; }

 private:
  AccessPattern pattern_;
  std::unique_ptr<WorkloadGen> gen_;
  InlineGen inline_;
};

}  // namespace hmem::apps
