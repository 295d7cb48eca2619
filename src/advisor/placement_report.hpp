// Human-readable placement report — the hand-off between hmem_advisor and
// auto-hbwmalloc.
//
// The paper makes the report human-readable on purpose: static objects can
// only be migrated by editing the source, and developers may prefer to apply
// the suggested placement by hand. The format round-trips: the runtime
// parses exactly what the advisor writes.
//
//   # hmem_advisor placement report
//   strategy = misses
//   threshold_pct = 1
//   enforced_fast_budget = 268435456
//   lb_size = 4096
//   ub_size = 209715200
//   [tier mcdram budget=268435456]
//   <name> | <max_size> | <llc_misses> | <callstack>
//   ...
//   [static recommendations]
//   <name> | <max_size> | <llc_misses> | <callstack>
#pragma once

#include <string>

#include "advisor/advisor.hpp"

namespace hmem::advisor {

std::string write_placement_report(const Placement& placement);

/// Parses a report produced by write_placement_report. Site ids are not
/// preserved across the text round-trip (the runtime matches by symbolic
/// call-stack); parsed ObjectInfo::site is kInvalidSite. Throws
/// std::runtime_error on malformed input.
Placement read_placement_report(const std::string& text);

/// Serialises exactly the fields of `placement` that auto-hbwmalloc
/// (runtime/auto_hbwmalloc.cpp) reads: the tier count, every tier's
/// budget, the call stacks of every non-fallback tier in list order (the
/// first match wins), the enforced fast budget, and the lb/ub size filter.
/// Strategy, threshold, static recommendations, tier and object names,
/// miss counts and object sizes are left out: the runtime never reads
/// them. Two placements with equal keys therefore drive the runtime — and,
/// with every other run input fixed, a whole production run — identically.
/// The encoding is length-prefixed, so distinct inputs never collide.
std::string runtime_key(const Placement& placement);

}  // namespace hmem::advisor
