#include "memsim/cache.hpp"

#include <bit>

#include "common/assert.hpp"

namespace hmem::memsim {

Cache::Cache(const CacheConfig& config) : config_(config) {
  HMEM_ASSERT(std::has_single_bit(config.line_bytes));
  HMEM_ASSERT(config.ways > 0 && config.ways <= kMaxWays);
  HMEM_ASSERT(config.size_bytes >=
              static_cast<std::uint64_t>(config.line_bytes) * config.ways);
  sets_ = config.size_bytes /
          (static_cast<std::uint64_t>(config.line_bytes) * config.ways);
  HMEM_ASSERT_MSG(std::has_single_bit(sets_),
                  "cache size must yield power-of-two sets");
  line_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  set_mask_ = sets_ - 1;
  top_shift_ = 4 * (config.ways - 1);
  tags_.resize(sets_ * config.ways, kInvalidTag);
  order_.resize(sets_, initial_order(config.ways));
}

bool Cache::access(Address addr) {
  ++stats_.accesses;
  const Address tag = tag_of(addr);
  const std::uint64_t set = set_of(addr);
  Address* tags = &tags_[set * config_.ways];

  // Hit scan: pure tag compares against the compact tag array (an invalid
  // way holds kInvalidTag, which no real address produces, so no validity
  // check is needed). A tag appears in at most one way.
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tags[w] == tag) {
      touch(order_[set], w, top_shift_);
      ++stats_.hits;
      return true;
    }
  }
  const std::uint32_t victim = evict(order_[set], top_shift_);
  ++stats_.misses;
  if (tags[victim] != kInvalidTag) ++stats_.evictions;
  tags[victim] = tag;
  return false;
}

bool Cache::contains(Address addr) const {
  const Address tag = tag_of(addr);
  const std::size_t base = set_of(addr) * config_.ways;
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (tags_[base + w] == tag) return true;
  }
  return false;
}

void Cache::flush() {
  tags_.assign(tags_.size(), kInvalidTag);
  order_.assign(order_.size(), initial_order(config_.ways));
}

}  // namespace hmem::memsim
