// Profiler — the Extrae substitute (stage 1).
//
// Hooks the simulated application's allocation calls and the machine's
// LLC-miss stream, and produces the trace the rest of the pipeline consumes.
// Two fidelity details from the paper are preserved:
//  * only allocations of at least `min_alloc_bytes` are monitored (the paper
//    uses 4 KiB "to avoid small (and possibly frequent) allocations such as
//    those related to I/O");
//  * LLC misses are sampled with a PEBS-style period (default 37,589), not
//    recorded exhaustively.
// The profiler also accounts its own cost (per monitored allocation event
// and per captured sample) so the engine can report the monitoring overhead
// column of Table I.
#pragma once

#include <cstdint>

#include "callstack/sitedb.hpp"
#include "pebs/sampler.hpp"
#include "profiler/object_registry.hpp"
#include "trace/event.hpp"

namespace hmem::profiler {

struct ProfilerConfig {
  /// Allocations below this size are not monitored (paper: 4 KiB).
  std::uint64_t min_alloc_bytes = 4096;
  pebs::SamplerConfig sampler;
  /// Cost charged per monitored allocation event (unwind + record).
  double alloc_event_cost_ns = 16000.0;
  /// Cost charged per captured PEBS sample (interrupt + record).
  double sample_cost_ns = 1500.0;
};

class Profiler {
 public:
  /// With the default (null) sink, events accumulate in an internal
  /// TraceBuffer reachable via trace()/take_trace(). With an external sink
  /// — a format writer streaming to disk, a VisitorSink feeding an analysis
  /// — events are pushed there as they happen and nothing is buffered; the
  /// sink must outlive the profiler.
  explicit Profiler(ProfilerConfig config, trace::EventSink* sink = nullptr);

  /// Allocation hook. Records the event and registers the live range when
  /// size >= min_alloc_bytes; smaller allocations pass through unmonitored.
  void on_alloc(double time_ns, callstack::SiteId site, Address addr,
                std::uint64_t size);

  void on_free(double time_ns, Address addr);

  /// LLC-miss hook; feeds the PEBS sampler and records fired samples.
  /// `count` is the number of real misses this (simulated) miss represents;
  /// a fired sample's weight is count-aware.
  void on_llc_miss(double time_ns, Address addr, bool is_write,
                   std::uint64_t count = 1);

  /// Skips, in O(1), the leading misses of up to `max_misses` misses of
  /// `count` real misses each that cannot fire a sample; returns how many.
  /// Skipped misses cost nothing and emit nothing, exactly as feeding them
  /// through on_llc_miss one at a time would.
  std::uint64_t skip_quiet_misses(std::uint64_t max_misses,
                                  std::uint64_t count) {
    return sampler_.skip_quiet(max_misses, count);
  }

  void on_phase(double time_ns, const std::string& name, bool begin);
  void on_counter(double time_ns, const std::string& name, double value);

  /// The internal buffer; empty when an external sink was supplied.
  const trace::TraceBuffer& trace() const { return trace_; }
  trace::TraceBuffer take_trace() { return std::move(trace_); }
  const ObjectRegistry& registry() const { return registry_; }
  const pebs::PebsSampler& sampler() const { return sampler_; }
  const ProfilerConfig& config() const { return config_; }

  /// Accumulated simulated cost of monitoring — the source of the
  /// "monitoring overhead" percentages in Table I.
  double overhead_ns() const { return overhead_ns_; }

  std::uint64_t monitored_allocs() const { return monitored_allocs_; }
  std::uint64_t skipped_small_allocs() const { return skipped_small_allocs_; }

 private:
  ProfilerConfig config_;
  trace::TraceBuffer trace_;
  trace::EventSink* sink_;  ///< &trace_ unless an external sink was given
  ObjectRegistry registry_;
  pebs::PebsSampler sampler_;
  double overhead_ns_ = 0;
  std::uint64_t monitored_allocs_ = 0;
  std::uint64_t skipped_small_allocs_ = 0;
};

}  // namespace hmem::profiler
