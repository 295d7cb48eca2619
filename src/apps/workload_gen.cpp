#include "apps/workload_gen.hpp"

#include <cmath>
#include <numeric>

#include "common/assert.hpp"
#include "memsim/address.hpp"

namespace hmem::apps {

namespace {

// Historical stride (a prime-ish step larger than one page, co-prime with
// most object sizes) used when an ObjectSpec leaves stride_lines at 0.
constexpr std::uint64_t kDefaultStrideLines = 67;

}  // namespace

WalkWorkloadGen::WalkWorkloadGen(std::uint64_t lines, std::uint64_t seed,
                                 std::uint64_t stride_lines) {
  HMEM_ASSERT(lines > 0);
  // Reduce the stride mod the object length up front: (p + s) % L and
  // (p + s % L) % L walk the same sequence, and a pre-reduced stride lets
  // the step wrap with a compare-and-subtract instead of a division.
  walk_.lines = lines;
  walk_.stride = stride_lines % lines;
  // Start at a deterministic but seed-dependent phase so different runs
  // (and different objects) are decorrelated. The draw order matches the
  // original AccessGenerator bit for bit.
  hmem::Xoshiro256 rng(seed);
  walk_.position = rng.below(lines);
}

RandomWorkloadGen::RandomWorkloadGen(std::uint64_t lines, std::uint64_t seed)
    : state_{lines, hmem::Xoshiro256(seed)} {
  HMEM_ASSERT(lines > 0);
}

RandomPermuteWorkloadGen::RandomPermuteWorkloadGen(std::uint64_t lines,
                                                   std::uint64_t seed) {
  HMEM_ASSERT(lines > 0);
  HMEM_ASSERT(lines <= (kMaxTablePatternBytes / memsim::kCacheLineBytes));
  table_.resize(lines);
  std::iota(table_.begin(), table_.end(), 0U);
  hmem::Xoshiro256 rng(seed);
  for (std::uint64_t i = lines - 1; i > 0; --i) {
    const std::uint64_t j = rng.below(i + 1);
    std::swap(table_[i], table_[j]);
  }
  state_.table = table_.data();
  state_.lines = lines;
  state_.position = rng.below(lines);
}

ZipfWorkloadGen::ZipfWorkloadGen(std::uint64_t lines, std::uint64_t seed,
                                 double alpha)
    : lines_(lines), alpha_(alpha), rng_(seed) {
  HMEM_ASSERT(lines_ > 0);
  HMEM_ASSERT_MSG(alpha > 0 && std::isfinite(alpha),
                  "zipf alpha must be positive and finite");
  const double n1 = static_cast<double>(lines_) + 1.0;
  span_ = alpha_ == 1.0 ? std::log(n1) : std::pow(n1, 1.0 - alpha_) - 1.0;
}

std::uint64_t ZipfWorkloadGen::next_line() {
  // Inverse transform of the bounded continuous power law p(x) ~ x^-alpha
  // on [1, lines+1): O(1) per draw, no per-line tables, and the discrete
  // floor keeps P(line = k) ~ (k+1)^-alpha.
  const double u = rng_.uniform();
  const double x = alpha_ == 1.0
                       ? std::exp(span_ * u)
                       : std::pow(1.0 + span_ * u, 1.0 / (1.0 - alpha_));
  const auto line = static_cast<std::uint64_t>(x - 1.0);
  return line >= lines_ ? lines_ - 1 : line;
}

PointerChaseWorkloadGen::PointerChaseWorkloadGen(std::uint64_t lines,
                                                 std::uint64_t seed) {
  HMEM_ASSERT(lines > 0);
  HMEM_ASSERT(lines <= (kMaxTablePatternBytes / memsim::kCacheLineBytes));
  // Sattolo's algorithm: a uniformly random *cyclic* permutation, so the
  // chase visits every line before repeating — no short cycles that would
  // quietly shrink the working set.
  next_.resize(lines);
  std::iota(next_.begin(), next_.end(), 0U);
  hmem::Xoshiro256 rng(seed);
  for (std::uint64_t i = lines - 1; i > 0; --i) {
    const std::uint64_t j = rng.below(i);
    std::swap(next_[i], next_[j]);
  }
  current_ = rng.below(lines);
}

std::uint64_t PointerChaseWorkloadGen::next_line() {
  current_ = next_[current_];
  return current_;
}

BurstyWorkloadGen::BurstyWorkloadGen(std::uint64_t lines, std::uint64_t seed,
                                     std::uint64_t burst)
    : lines_(lines), burst_(burst == 0 ? 1 : burst), rng_(seed) {
  HMEM_ASSERT(lines_ > 0);
}

std::uint64_t BurstyWorkloadGen::next_line() {
  if (remaining_ == 0) {
    position_ = rng_.below(lines_);
    remaining_ = burst_;
  }
  const std::uint64_t line = position_;
  if (++position_ == lines_) position_ = 0;
  --remaining_;
  return line;
}

std::unique_ptr<WorkloadGen> make_workload_gen(const ObjectSpec& object,
                                               std::uint64_t lines,
                                               std::uint64_t seed) {
  switch (object.pattern) {
    case AccessPattern::kStream:
      return std::make_unique<WalkWorkloadGen>(lines, seed, 1);
    case AccessPattern::kRandom:
      return std::make_unique<RandomWorkloadGen>(lines, seed);
    case AccessPattern::kStrided:
      return std::make_unique<WalkWorkloadGen>(
          lines, seed,
          object.stride_lines == 0 ? kDefaultStrideLines : object.stride_lines);
    case AccessPattern::kRandomPermute:
      return std::make_unique<RandomPermuteWorkloadGen>(lines, seed);
    case AccessPattern::kZipf:
      return std::make_unique<ZipfWorkloadGen>(lines, seed, object.zipf_alpha);
    case AccessPattern::kPointerChase:
      return std::make_unique<PointerChaseWorkloadGen>(lines, seed);
    case AccessPattern::kBursty:
      return std::make_unique<BurstyWorkloadGen>(lines, seed,
                                                 object.burst_lines);
  }
  HMEM_ASSERT_MSG(false, "unknown access pattern");
  return nullptr;
}

}  // namespace hmem::apps
