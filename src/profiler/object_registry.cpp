#include "profiler/object_registry.hpp"

#include "common/assert.hpp"

namespace hmem::profiler {

std::size_t ObjectRegistry::upper_bound(Address addr) const {
  std::size_t n = bases_.size();
  if (n == 0) return 0;
  // Halve the candidate window with a conditional move, not a branch:
  // `first` ends on the last base <= addr, or on bases_[0] when none is.
  const Address* first = bases_.data();
  while (n > 1) {
    const std::size_t half = n / 2;
    first = first[half] <= addr ? first + half : first;
    n -= half;
  }
  return static_cast<std::size_t>(first - bases_.data()) +
         static_cast<std::size_t>(*first <= addr);
}

void ObjectRegistry::on_alloc(Address addr, std::uint64_t size, SiteId site) {
  HMEM_ASSERT(size > 0);
  // Disjointness check against neighbours only — ranges are disjoint by
  // induction, so overlap can only involve the immediate neighbours.
  const std::size_t at = upper_bound(addr);
  if (at < bases_.size()) {
    HMEM_ASSERT_MSG(addr + size <= bases_[at],
                    "allocation overlaps a live object");
  }
  if (at > 0) {
    const LiveObject& prev = objects_[at - 1];
    HMEM_ASSERT_MSG(prev.addr + prev.size <= addr,
                    "allocation overlaps a live object");
  }
  const auto offset = static_cast<std::ptrdiff_t>(at);
  bases_.insert(bases_.begin() + offset, addr);
  objects_.insert(objects_.begin() + offset, LiveObject{addr, size, site});
  live_bytes_ += size;
}

std::optional<LiveObject> ObjectRegistry::on_free(Address addr) {
  const std::size_t at = upper_bound(addr);
  if (at == 0 || bases_[at - 1] != addr) return std::nullopt;
  const auto offset = static_cast<std::ptrdiff_t>(at - 1);
  const LiveObject obj = objects_[at - 1];
  bases_.erase(bases_.begin() + offset);
  objects_.erase(objects_.begin() + offset);
  live_bytes_ -= obj.size;
  return obj;
}

std::optional<LiveObject> ObjectRegistry::lookup(Address addr) const {
  const std::size_t at = upper_bound(addr);
  if (at == 0) return std::nullopt;
  const LiveObject& candidate = objects_[at - 1];
  if (addr < candidate.addr + candidate.size) return candidate;
  return std::nullopt;
}

void ObjectRegistry::clear() {
  bases_.clear();
  objects_.clear();
  live_bytes_ = 0;
}

}  // namespace hmem::profiler
