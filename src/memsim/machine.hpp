// The simulated hybrid-memory node.
//
// Machine glues the LLC model and an ordered list of N memory tiers into a
// single `access()` entry point: given a physical address, it classifies
// where the access was served and what DRAM traffic it generated. Every
// tier is addressable memory (its own range), so placement decides which
// tier serves a miss. The execution engine aggregates these classifications
// into phase timings; the PEBS sampler taps the LLC-miss stream.
//
// MemMode names the paper's two platform modes. Cache mode (on KNL, MCDRAM
// fronting DDR as a direct-mapped memory-side cache) is not simulated line
// by line: the engine runs the Machine flat and models the memory-side
// cache analytically (CacheModeModel in engine/execution.cpp), using the
// cache_mode_* and mem_cache_tag_ns knobs below.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "memsim/address.hpp"
#include "memsim/cache.hpp"
#include "memsim/tier.hpp"

namespace hmem::memsim {

enum class MemMode { kFlat, kCache };

const char* mem_mode_name(MemMode mode);
std::optional<MemMode> parse_mem_mode(const std::string& name);

struct AccessResult {
  bool llc_hit = false;
  /// Tier that served the access (meaningless on an LLC hit).
  TierIndex tier = 0;
  double latency_ns = 0.0;
  /// DRAM traffic this access generated on the serving tier (zero on an
  /// LLC hit).
  std::uint64_t tier_bytes = 0;
};

struct MachineConfig {
  std::string name = "machine";
  int cores = 1;
  double freq_ghz = 1.0;
  /// Instructions one core retires per cycle when not memory-stalled.
  double ipc = 1.0;
  CacheConfig llc;
  /// Ordered tier list (address-map order). Identity is the index; the
  /// advisor's fill order is derived from relative_performance instead.
  std::vector<TierSpec> tiers;
  /// hmem_run's default condition when none is given (cache or DDR); the
  /// engine ignores it and follows the run's condition. Cache mode fronts
  /// the slowest tier with the fastest one.
  MemMode mode = MemMode::kFlat;
  double llc_latency_ns = 10.0;
  /// Tag-directory lookup added to every cache-mode DRAM access.
  double mem_cache_tag_ns = 12.0;
  /// Cache mode cannot stream at the front tier's flat-mode bandwidth:
  /// every access also moves tag/fill/writeback traffic on the memory side.
  /// Measured STREAM on KNL lands around 70% of flat; this derates the
  /// front-tier bandwidth the roofline model sees in cache mode.
  double cache_mode_bw_derate = 0.72;
  /// Direct-mapped conflict pressure coefficient: the cache-mode hit
  /// probability is derated by 1 / (1 + k * max(0, demand/capacity - 1)),
  /// so conflicts only bite when the working set oversubscribes the front
  /// tier ("the lack of associativity is a problem").
  double cache_mode_conflict_k = 0.05;

  /// The paper's platform: Intel Xeon Phi 7250, 68 cores @ 1.40 GHz,
  /// 96 GiB DDR4 + 16 GiB MCDRAM, 32 MiB aggregate L2 (LLC).
  static MachineConfig knl7250(MemMode mode);

  /// Xeon Max style node: 512 GiB DDR5 + 64 GiB on-package HBM.
  static MachineConfig spr_hbm(MemMode mode);

  /// DDR plus a slower CXL memory expander (type-3 device).
  static MachineConfig ddr_cxl(MemMode mode);

  /// Three-tier node: 16 GiB HBM + 128 GiB DDR + 512 GiB PMem.
  static MachineConfig hbm_ddr_pmem(MemMode mode);

  /// Down-scaled node for unit tests: tiny LLC so misses are easy to force,
  /// small tiers so capacity edges are reachable.
  static MachineConfig test_node(MemMode mode);

  /// Three-tier sibling of test_node (HBM + DDR + PMem, a few MiB each).
  static MachineConfig test_node3(MemMode mode);

  /// Preset lookup by name ("knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem",
  /// plus the test nodes); nullopt for unknown names.
  static std::optional<MachineConfig> preset(const std::string& name,
                                             MemMode mode = MemMode::kFlat);
  /// Preset names in lookup order, for --help texts.
  static std::vector<std::string> preset_names();

  /// Parses a machine description config:
  ///   [machine]             name/cores/freq_ghz/ipc/mode + model knobs
  ///   [llc]                 size, line, ways, latency_ns
  ///   [tier <name>]         capacity, latency_ns, per_core_bw_gbs,
  ///                         peak_bw_gbs, relative_performance
  /// Tier sections appear in address-map order. Throws ConfigError on
  /// invalid input (no tiers, duplicate names, zero capacity, non-positive
  /// relative performance, an [llc] line that is not a power of two, ways
  /// outside 1..16, or a size that is not a power-of-two set count).
  static MachineConfig from_config(const Config& config);

  std::size_t tier_count() const { return tiers.size(); }
  /// Index of the highest / lowest relative_performance tier (first wins
  /// ties, matching the advisor's stable fill order).
  TierIndex fastest_tier() const;
  TierIndex slowest_tier() const;
  /// Tier indices in descending relative_performance (stable).
  std::vector<TierIndex> tiers_by_performance() const;
};

/// Comma-joined preset names ("knl, spr-hbm, ...") for usage texts.
std::string machine_preset_list();

/// Resolves a --machine style argument: a preset name first, then a
/// machine config file (MachineConfig::from_config). Returns nullopt and
/// fills *error (if non-null) on failure.
std::optional<MachineConfig> load_machine_config(const std::string& arg,
                                                 std::string* error);

class Machine {
 public:
  explicit Machine(MachineConfig config);

  /// Simulates one memory access (reads and writes route alike) at line
  /// granularity.
  AccessResult access(Address addr);

  /// Tier that owns the address range (flat-mode view); addresses outside
  /// every range fall back to the slowest tier.
  TierIndex owning_tier(Address addr) const;
  bool in_tier(Address addr, TierIndex tier) const;

  const MachineConfig& config() const { return config_; }

  Cache& llc() { return llc_; }
  const Cache& llc() const { return llc_; }
  std::size_t tier_count() const { return ranges_.size(); }
  TierIndex fastest_tier() const { return fastest_; }
  TierIndex slowest_tier() const { return slowest_; }

 private:
  /// Compact copy of the tier ranges for the per-access routing scan (the
  /// full TierSpec drags a std::string through the cache).
  struct TierRange {
    Address base = 0;
    Address end = 0;
    double latency_ns = 0;
  };

  MachineConfig config_;
  Cache llc_;
  std::vector<TierRange> ranges_;
  TierIndex fastest_ = 0;
  TierIndex slowest_ = 0;
};

}  // namespace hmem::memsim
