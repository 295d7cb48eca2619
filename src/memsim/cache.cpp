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
  tags_.resize(sets_ * 2 * config.ways, kInvalidTagHalf);
  order_.resize(sets_, initial_order(config.ways));
}

bool Cache::access(Address addr) {
  ++stats_.accesses;
  const Address tag = tag_of(addr);
  const std::uint64_t set = set_of(addr);
  const std::uint32_t ways = config_.ways;
  std::uint32_t* row = &tags_[set * 2 * ways];

  const std::uint32_t way = find_way(row, ways, tag);
  if (way < ways) {
    touch(order_[set], way, top_shift_);
    ++stats_.hits;
    return true;
  }
  const std::uint32_t victim = evict(order_[set], top_shift_);
  ++stats_.misses;
  if (way_tag(row, ways, victim) != kInvalidTag) ++stats_.evictions;
  set_way_tag(row, ways, victim, tag);
  return false;
}

bool Cache::contains(Address addr) const {
  const std::uint32_t ways = config_.ways;
  return find_way(&tags_[set_of(addr) * 2 * ways], ways, tag_of(addr)) <
         ways;
}

void Cache::flush() {
  tags_.assign(tags_.size(), kInvalidTagHalf);
  order_.assign(order_.size(), initial_order(config_.ways));
}

}  // namespace hmem::memsim
