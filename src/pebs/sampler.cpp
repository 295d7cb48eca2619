#include "pebs/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace hmem::pebs {

PebsSampler::PebsSampler(SamplerConfig config)
    : config_(config), rng_(config.seed) {
  HMEM_ASSERT(config_.period > 0);
  HMEM_ASSERT(config_.jitter >= 0.0 && config_.jitter < 1.0);
  arm();
}

void PebsSampler::arm() {
  if (config_.jitter == 0.0) {
    countdown_ = config_.period;
    return;
  }
  const auto p = static_cast<double>(config_.period);
  const double lo = p * (1.0 - config_.jitter);
  const double hi = p * (1.0 + config_.jitter);
  const double v = lo + (hi - lo) * rng_.uniform();
  countdown_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(v)));
}

std::optional<SampleRecord> PebsSampler::on_llc_miss(double time_ns,
                                                     Address addr,
                                                     bool is_write) {
  ++misses_seen_;
  HMEM_ASSERT(countdown_ > 0);
  if (--countdown_ > 0) return std::nullopt;
  ++samples_taken_;
  arm();
  SampleRecord rec;
  rec.time_ns = time_ns;
  rec.addr = addr;
  rec.is_write = is_write;
  rec.weight = config_.period;
  return rec;
}

std::uint64_t PebsSampler::on_llc_misses(double time_ns, Address addr,
                                         bool is_write, std::uint64_t count) {
  (void)time_ns;
  (void)addr;
  (void)is_write;
  misses_seen_ += count;
  std::uint64_t fires = 0;
  std::uint64_t remaining = count;
  while (remaining >= countdown_) {
    remaining -= countdown_;
    ++fires;
    ++samples_taken_;
    arm();
  }
  countdown_ -= remaining;
  return fires;
}

std::uint64_t PebsSampler::skip_quiet(std::uint64_t max_groups,
                                      std::uint64_t count) {
  HMEM_ASSERT(count > 0 && countdown_ > 0);
  // A group fires when it reaches the countdown, so the groups that leave
  // it positive are the first (countdown - 1) / count.
  const std::uint64_t quiet = std::min(max_groups, (countdown_ - 1) / count);
  countdown_ -= quiet * count;
  misses_seen_ += quiet * count;
  return quiet;
}

void PebsSampler::reset() {
  misses_seen_ = 0;
  samples_taken_ = 0;
  arm();
}

}  // namespace hmem::pebs
