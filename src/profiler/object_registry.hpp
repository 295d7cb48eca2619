// Live-object interval map: address -> owning allocation site.
//
// Extrae "registers the allocated address range through the returned pointer
// and the size of the allocation" and attributes each sampled reference "by
// matching the accessed address against the previously allocated object's
// address ranges". This is that matcher: disjoint live ranges kept as two
// parallel arrays sorted by base address (the bases alone, densely packed
// for the search, and the LiveObject records beside them). A point lookup
// is a branch-free upper-bound search over the bases whose trip count
// depends only on the number of live ranges; alloc and free shift the
// arrays, which at the few hundred live ranges a trace holds costs less
// than a tree's node chasing on every sample.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "callstack/sitedb.hpp"
#include "memsim/address.hpp"

namespace hmem::profiler {

using callstack::SiteId;
using memsim::Address;

struct LiveObject {
  Address addr = 0;
  std::uint64_t size = 0;
  SiteId site = callstack::kInvalidSite;
};

class ObjectRegistry {
 public:
  /// Registers a live range. Overlapping an existing live range is a logic
  /// error (allocators hand out disjoint memory) and asserts.
  void on_alloc(Address addr, std::uint64_t size, SiteId site);

  /// Removes a live range; returns the removed record, nullopt when addr is
  /// not the base of a live object (e.g. free of an unmonitored small
  /// allocation — the caller decides whether that is expected).
  std::optional<LiveObject> on_free(Address addr);

  /// Object whose range contains addr, if any.
  std::optional<LiveObject> lookup(Address addr) const;

  std::size_t live_count() const { return objects_.size(); }
  std::uint64_t live_bytes() const { return live_bytes_; }

  void clear();

 private:
  /// Number of live ranges whose base is <= addr: the index of the first
  /// base above it.
  std::size_t upper_bound(Address addr) const;

  std::vector<Address> bases_;  ///< ascending
  std::vector<LiveObject> objects_;  ///< objects_[i].addr == bases_[i]
  std::uint64_t live_bytes_ = 0;
};

}  // namespace hmem::profiler
