// Pluggable access-pattern generators (the workload_gen layer).
//
// Each generator produces a deterministic stream of cache-line indices
// within one object; AccessGenerator adapts the stream to byte offsets for
// the engine. The design follows FlashX's workload.h: one tiny abstract
// interface, one concrete class per pattern (seq is the stride-1 walk),
// state fully owned by the generator so a (pattern, size, seed) triple
// replays bit-identically.
//
// The three legacy patterns (seq, random, stride) reproduce the original
// AccessGenerator's RNG draw order exactly — existing traces, FOMs and
// golden tests must not move when a bundled app is routed through this
// layer. The newer patterns extend the scenario space:
//
//   random-permute  Fisher-Yates permutation of all lines, replayed in
//                   order: uniform coverage with zero temporal locality,
//                   the classic TLB/cache-antagonist sweep.
//   zipf            bounded power-law over line indices (low lines hot),
//                   sampled O(1) by inverse transform; alpha sets the skew.
//   pointer-chase   a random single-cycle successor chain visiting every
//                   line (Sattolo's algorithm): latency-bound dependent
//                   loads, the worst case for prefetchers.
//   bursty          a random jump followed by a short sequential burst —
//                   page-local streaming with poor inter-page locality.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "common/prng.hpp"

namespace hmem::apps {

// ---- Inline state -----------------------------------------------------------
// The patterns the compiled access kernels run without a call (seq, stride,
// random, random-permute) keep their whole state in one of these structs.
// The generator class steps it through the member below, the bytecode VM
// calls the same member on the same object, and the native emitter emits the
// same sequence against the object's address: one definition, three
// executors, one stream.

/// A wrapping walk over `lines` lines: seq is the stride-1 walk, stride a
/// walk with a pre-reduced stride. Invariant: stride < lines, position <
/// lines, so a step wraps at most once.
struct LineWalk {
  std::uint64_t lines = 0;
  std::uint64_t stride = 0;
  std::uint64_t position = 0;

  std::uint64_t step() {
    const std::uint64_t line = position;
    position += stride;
    if (position >= lines) position -= lines;
    return line;
  }
};

/// Independent uniform draws over `lines` lines. The native emitter steps
/// `rng` as four raw words (Xoshiro256 is standard-layout, state first).
struct RandomLines {
  std::uint64_t lines = 0;
  hmem::Xoshiro256 rng;

  std::uint64_t step() { return rng.below(lines); }
};

/// Replays a permutation `table` of `lines` entries from `position`.
/// Invariant: position < lines.
struct PermuteLines {
  const std::uint32_t* table = nullptr;
  std::uint64_t lines = 0;
  std::uint64_t position = 0;

  std::uint64_t step() {
    const std::uint64_t line = table[position];
    if (++position == lines) position = 0;
    return line;
  }
};

/// The inline state a generator exposes to compiled kernels: at most one
/// member is set; none means kernels call out through next_line().
struct InlineGen {
  LineWalk* walk = nullptr;
  RandomLines* random = nullptr;
  PermuteLines* permute = nullptr;
};

/// One access-pattern stream over `lines` cache lines.
class WorkloadGen {
 public:
  virtual ~WorkloadGen() = default;

  /// Next line index in [0, lines).
  virtual std::uint64_t next_line() = 0;

  /// State a compiled kernel may step in place instead of calling
  /// next_line(); both advance the same stream.
  virtual InlineGen inline_state() { return {}; }
};

/// Wrapping walk (seq and stride); starts at a seed-dependent phase so
/// distinct objects (and runs) are decorrelated. The stride is pre-reduced
/// mod the object length so the wrap is a compare-and-subtract.
class WalkWorkloadGen final : public WorkloadGen {
 public:
  WalkWorkloadGen(std::uint64_t lines, std::uint64_t seed,
                  std::uint64_t stride_lines);
  std::uint64_t next_line() override { return walk_.step(); }
  InlineGen inline_state() override { return {.walk = &walk_}; }

 private:
  LineWalk walk_;
};

/// Independent uniform draws.
class RandomWorkloadGen final : public WorkloadGen {
 public:
  RandomWorkloadGen(std::uint64_t lines, std::uint64_t seed);
  std::uint64_t next_line() override { return state_.step(); }
  InlineGen inline_state() override { return {.random = &state_}; }

 private:
  RandomLines state_;
};

/// Replays a fixed Fisher-Yates permutation of all lines: every line is
/// visited exactly once per cycle, in an order with no spatial locality.
class RandomPermuteWorkloadGen final : public WorkloadGen {
 public:
  RandomPermuteWorkloadGen(std::uint64_t lines, std::uint64_t seed);
  std::uint64_t next_line() override { return state_.step(); }
  InlineGen inline_state() override { return {.permute = &state_}; }

 private:
  std::vector<std::uint32_t> table_;
  PermuteLines state_;  ///< cursor over table_
};

/// Bounded power-law over line indices: P(line = k) ~ (k+1)^-alpha via O(1)
/// inverse-transform sampling, so low line numbers are hot and the tail is
/// cold — the skew knob for "most traffic fits in the fast tier" scenarios.
class ZipfWorkloadGen final : public WorkloadGen {
 public:
  ZipfWorkloadGen(std::uint64_t lines, std::uint64_t seed, double alpha);
  std::uint64_t next_line() override;

 private:
  std::uint64_t lines_;
  double alpha_;
  double span_;  ///< precomputed (lines+1)^(1-alpha) - 1, or log(lines+1)
  hmem::Xoshiro256 rng_;
};

/// Follows a random cyclic successor chain built with Sattolo's algorithm:
/// a single cycle through every line, i.e. a shuffled linked list whose
/// next load depends on the previous one.
class PointerChaseWorkloadGen final : public WorkloadGen {
 public:
  PointerChaseWorkloadGen(std::uint64_t lines, std::uint64_t seed);
  std::uint64_t next_line() override;

 private:
  std::vector<std::uint32_t> next_;
  std::uint64_t current_;
};

/// Random jump, then `burst` sequential lines before the next jump.
class BurstyWorkloadGen final : public WorkloadGen {
 public:
  BurstyWorkloadGen(std::uint64_t lines, std::uint64_t seed,
                    std::uint64_t burst);
  std::uint64_t next_line() override;

 private:
  std::uint64_t lines_;
  std::uint64_t burst_;
  std::uint64_t position_ = 0;
  std::uint64_t remaining_ = 0;
  hmem::Xoshiro256 rng_;
};

/// Builds the generator an ObjectSpec declares, sized to `lines` cache
/// lines. Pattern parameters (zipf_alpha, stride_lines, burst_lines) come
/// from the spec; the caller picks the seed.
std::unique_ptr<WorkloadGen> make_workload_gen(const ObjectSpec& object,
                                               std::uint64_t lines,
                                               std::uint64_t seed);

}  // namespace hmem::apps
