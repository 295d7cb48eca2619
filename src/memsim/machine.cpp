#include "memsim/machine.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/assert.hpp"
#include "common/error.hpp"
#include "common/tier_config.hpp"
#include "common/units.hpp"

namespace hmem::memsim {

const char* mem_mode_name(MemMode mode) {
  switch (mode) {
    case MemMode::kFlat:
      return "flat";
    case MemMode::kCache:
      return "cache";
  }
  return "?";
}

std::optional<MemMode> parse_mem_mode(const std::string& name) {
  if (name == "flat") return MemMode::kFlat;
  if (name == "cache") return MemMode::kCache;
  return std::nullopt;
}

MachineConfig MachineConfig::knl7250(MemMode mode) {
  MachineConfig cfg;
  cfg.name = "knl7250";
  cfg.cores = 68;
  cfg.freq_ghz = 1.40;
  cfg.ipc = 2.0;  // two-wide out-of-order silvermont-derived core
  // 34 tiles x 1 MiB L2, modelled as one aggregate LLC; rounded to 32 MiB to
  // keep the set count a power of two.
  cfg.llc = CacheConfig{32ULL * kMiB, 64, 16};
  cfg.tiers = {
      TierSpec{
          .name = "DDR",
          .capacity_bytes = 96ULL * kGiB,
          .latency_ns = 130.0,
          .per_core_bw_gbs = 6.5,
          .peak_bw_gbs = 90.0,
          .relative_performance = 1.0,
      },
      // MCDRAM: higher idle latency than DDR on KNL but ~5x the bandwidth.
      TierSpec{
          .name = "MCDRAM",
          .capacity_bytes = 16ULL * kGiB,
          .latency_ns = 155.0,
          .per_core_bw_gbs = 9.5,
          .peak_bw_gbs = 480.0,
          .relative_performance = 5.0,
      },
  };
  assign_tier_bases(cfg.tiers);
  cfg.mode = mode;
  cfg.llc_latency_ns = 12.0;
  cfg.mem_cache_tag_ns = 12.0;
  return cfg;
}

MachineConfig MachineConfig::spr_hbm(MemMode mode) {
  MachineConfig cfg;
  cfg.name = "spr-hbm";
  cfg.cores = 56;
  cfg.freq_ghz = 2.0;
  cfg.ipc = 4.0;  // golden-cove class core
  cfg.llc = CacheConfig{64ULL * kMiB, 64, 16};
  cfg.tiers = {
      TierSpec{
          .name = "DDR",
          .capacity_bytes = 512ULL * kGiB,
          .latency_ns = 110.0,
          .per_core_bw_gbs = 12.0,
          .peak_bw_gbs = 300.0,
          .relative_performance = 1.0,
      },
      TierSpec{
          .name = "HBM",
          .capacity_bytes = 64ULL * kGiB,
          .latency_ns = 140.0,
          .per_core_bw_gbs = 30.0,
          .peak_bw_gbs = 1200.0,
          .relative_performance = 4.0,
      },
  };
  assign_tier_bases(cfg.tiers);
  cfg.mode = mode;
  cfg.llc_latency_ns = 20.0;
  cfg.mem_cache_tag_ns = 10.0;
  // SPR HBM caching mode streams closer to flat than KNL's did.
  cfg.cache_mode_bw_derate = 0.80;
  return cfg;
}

MachineConfig MachineConfig::ddr_cxl(MemMode mode) {
  MachineConfig cfg;
  cfg.name = "ddr-cxl";
  cfg.cores = 32;
  cfg.freq_ghz = 2.5;
  cfg.ipc = 3.0;
  cfg.llc = CacheConfig{32ULL * kMiB, 64, 16};
  cfg.tiers = {
      // CXL type-3 expander: capacity play, link-limited bandwidth and an
      // extra controller hop on every access. The slow unbounded fallback.
      TierSpec{
          .name = "CXL",
          .capacity_bytes = 512ULL * kGiB,
          .latency_ns = 250.0,
          .per_core_bw_gbs = 6.0,
          .peak_bw_gbs = 64.0,
          .relative_performance = 1.0,
      },
      // Local DDR is the *fast* tier on this machine.
      TierSpec{
          .name = "DDR",
          .capacity_bytes = 128ULL * kGiB,
          .latency_ns = 100.0,
          .per_core_bw_gbs = 10.0,
          .peak_bw_gbs = 200.0,
          .relative_performance = 2.5,
      },
  };
  assign_tier_bases(cfg.tiers);
  cfg.mode = mode;
  cfg.llc_latency_ns = 15.0;
  cfg.mem_cache_tag_ns = 15.0;
  cfg.cache_mode_bw_derate = 0.85;
  return cfg;
}

MachineConfig MachineConfig::hbm_ddr_pmem(MemMode mode) {
  MachineConfig cfg;
  cfg.name = "hbm-ddr-pmem";
  cfg.cores = 48;
  cfg.freq_ghz = 2.2;
  cfg.ipc = 3.0;
  cfg.llc = CacheConfig{32ULL * kMiB, 64, 16};
  cfg.tiers = {
      // Persistent memory: huge, slow, asymmetric in reality — modelled
      // with its sustained read bandwidth. The unbounded fallback.
      TierSpec{
          .name = "PMEM",
          .capacity_bytes = 512ULL * kGiB,
          .latency_ns = 350.0,
          .per_core_bw_gbs = 2.0,
          .peak_bw_gbs = 40.0,
          .relative_performance = 1.0,
      },
      TierSpec{
          .name = "DDR",
          .capacity_bytes = 128ULL * kGiB,
          .latency_ns = 100.0,
          .per_core_bw_gbs = 10.0,
          .peak_bw_gbs = 200.0,
          .relative_performance = 3.0,
      },
      TierSpec{
          .name = "HBM",
          .capacity_bytes = 16ULL * kGiB,
          .latency_ns = 130.0,
          .per_core_bw_gbs = 20.0,
          .peak_bw_gbs = 600.0,
          .relative_performance = 6.0,
      },
  };
  assign_tier_bases(cfg.tiers);
  cfg.mode = mode;
  cfg.llc_latency_ns = 15.0;
  cfg.mem_cache_tag_ns = 12.0;
  return cfg;
}

MachineConfig MachineConfig::test_node(MemMode mode) {
  MachineConfig cfg;
  cfg.name = "test_node";
  cfg.cores = 4;
  cfg.freq_ghz = 1.0;
  cfg.ipc = 1.0;
  cfg.llc = CacheConfig{16ULL * kKiB, 64, 4};
  cfg.tiers = {
      TierSpec{
          .name = "DDR",
          .capacity_bytes = 64ULL * kMiB,
          .latency_ns = 100.0,
          .per_core_bw_gbs = 5.0,
          .peak_bw_gbs = 10.0,
          .relative_performance = 1.0,
      },
      TierSpec{
          .name = "MCDRAM",
          .capacity_bytes = 8ULL * kMiB,
          .latency_ns = 120.0,
          .per_core_bw_gbs = 10.0,
          .peak_bw_gbs = 40.0,
          .relative_performance = 5.0,
      },
  };
  assign_tier_bases(cfg.tiers);
  cfg.mode = mode;
  cfg.llc_latency_ns = 5.0;
  cfg.mem_cache_tag_ns = 10.0;
  return cfg;
}

MachineConfig MachineConfig::test_node3(MemMode mode) {
  MachineConfig cfg;
  cfg.name = "test_node3";
  cfg.cores = 4;
  cfg.freq_ghz = 1.0;
  cfg.ipc = 1.0;
  cfg.llc = CacheConfig{16ULL * kKiB, 64, 4};
  cfg.tiers = {
      TierSpec{
          .name = "PMEM",
          .capacity_bytes = 64ULL * kMiB,
          .latency_ns = 300.0,
          .per_core_bw_gbs = 1.0,
          .peak_bw_gbs = 4.0,
          .relative_performance = 1.0,
      },
      TierSpec{
          .name = "DDR",
          .capacity_bytes = 16ULL * kMiB,
          .latency_ns = 100.0,
          .per_core_bw_gbs = 5.0,
          .peak_bw_gbs = 10.0,
          .relative_performance = 3.0,
      },
      TierSpec{
          .name = "HBM",
          .capacity_bytes = 8ULL * kMiB,
          .latency_ns = 120.0,
          .per_core_bw_gbs = 10.0,
          .peak_bw_gbs = 40.0,
          .relative_performance = 6.0,
      },
  };
  assign_tier_bases(cfg.tiers);
  cfg.mode = mode;
  cfg.llc_latency_ns = 5.0;
  cfg.mem_cache_tag_ns = 10.0;
  return cfg;
}

std::optional<MachineConfig> MachineConfig::preset(const std::string& name,
                                                   MemMode mode) {
  if (name == "knl" || name == "knl7250") return knl7250(mode);
  if (name == "spr-hbm") return spr_hbm(mode);
  if (name == "ddr-cxl") return ddr_cxl(mode);
  if (name == "hbm-ddr-pmem") return hbm_ddr_pmem(mode);
  if (name == "test-node" || name == "test_node") return test_node(mode);
  if (name == "test-node3" || name == "test_node3") return test_node3(mode);
  return std::nullopt;
}

std::vector<std::string> MachineConfig::preset_names() {
  return {"knl", "spr-hbm", "ddr-cxl", "hbm-ddr-pmem"};
}

namespace {

[[noreturn]] void bad_machine(const std::string& what) {
  throw ConfigError("machine config: " + what);
}

}  // namespace

MachineConfig MachineConfig::from_config(const Config& config) {
  MachineConfig cfg;
  cfg.name = config.get_string("machine", "name", "custom");
  cfg.cores = static_cast<int>(config.get_int("machine", "cores", 1));
  if (cfg.cores < 1) bad_machine("cores must be >= 1");
  cfg.freq_ghz = config.get_double("machine", "freq_ghz", 1.0);
  cfg.ipc = config.get_double("machine", "ipc", 1.0);
  if (cfg.freq_ghz <= 0 || cfg.ipc <= 0)
    bad_machine("freq_ghz and ipc must be positive");
  const std::string mode = config.get_string("machine", "mode", "flat");
  const auto parsed_mode = parse_mem_mode(mode);
  if (!parsed_mode) bad_machine("unknown mode '" + mode + "'");
  cfg.mode = *parsed_mode;
  cfg.llc_latency_ns =
      config.get_double("machine", "llc_latency_ns", cfg.llc_latency_ns);
  cfg.mem_cache_tag_ns =
      config.get_double("machine", "mem_cache_tag_ns", cfg.mem_cache_tag_ns);
  cfg.cache_mode_bw_derate = config.get_double(
      "machine", "cache_mode_bw_derate", cfg.cache_mode_bw_derate);
  cfg.cache_mode_conflict_k = config.get_double(
      "machine", "cache_mode_conflict_k", cfg.cache_mode_conflict_k);

  // [llc] geometry: the Cache constructor asserts these, so a file must
  // fail here, naming the key, before any run builds one.
  const std::uint64_t llc_size = config.get_bytes("llc", "size", 32ULL * kMiB);
  const std::uint64_t llc_line = config.get_bytes("llc", "line", 64);
  const long long llc_ways = config.get_int("llc", "ways", 16);
  if (!std::has_single_bit(llc_line) || llc_line > (1ULL << 30))
    bad_machine("[llc] line must be a power of two up to 1G");
  if (llc_ways < 1 || llc_ways > static_cast<long long>(Cache::kMaxWays))
    bad_machine("[llc] ways must be in 1.." +
                std::to_string(Cache::kMaxWays));
  const std::uint64_t set_bytes =
      llc_line * static_cast<std::uint64_t>(llc_ways);
  if (llc_size % set_bytes != 0 || !std::has_single_bit(llc_size / set_bytes))
    bad_machine("[llc] size must be a power-of-two number of sets of "
                "line * ways bytes");
  cfg.llc.size_bytes = llc_size;
  cfg.llc.line_bytes = static_cast<std::uint32_t>(llc_line);
  cfg.llc.ways = static_cast<std::uint32_t>(llc_ways);
  cfg.llc_latency_ns =
      config.get_double("llc", "latency_ns", cfg.llc_latency_ns);

  for (const TierSection& section :
       parse_tier_sections(config, "machine config")) {
    TierSpec tier;
    tier.name = section.name;
    tier.capacity_bytes = section.capacity_bytes;
    tier.relative_performance = section.relative_performance;
    tier.latency_ns = config.get_double(section.section, "latency_ns", 100.0);
    tier.per_core_bw_gbs =
        config.get_double(section.section, "per_core_bw_gbs", 5.0);
    tier.peak_bw_gbs = config.get_double(section.section, "peak_bw_gbs", 50.0);
    cfg.tiers.push_back(std::move(tier));
  }
  assign_tier_bases(cfg.tiers);
  return cfg;
}

std::string machine_preset_list() {
  std::string list;
  for (const auto& name : MachineConfig::preset_names()) {
    if (!list.empty()) list += ", ";
    list += name;
  }
  return list;
}

std::optional<MachineConfig> load_machine_config(const std::string& arg,
                                                 std::string* error) {
  if (auto preset = MachineConfig::preset(arg)) return preset;
  std::ifstream in(arg);
  if (!in) {
    if (error != nullptr) {
      *error = "'" + arg + "' is neither a machine preset (" +
               machine_preset_list() + ") nor a readable config file";
    }
    return std::nullopt;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return MachineConfig::from_config(Config::parse(text.str()));
  } catch (const std::exception& e) {
    if (error != nullptr) *error = arg + ": " + e.what();
    return std::nullopt;
  }
}

TierIndex MachineConfig::fastest_tier() const {
  HMEM_ASSERT(!tiers.empty());
  TierIndex best = 0;
  for (TierIndex i = 1; i < tiers.size(); ++i) {
    if (tiers[i].relative_performance >
        tiers[best].relative_performance) {
      best = i;
    }
  }
  return best;
}

TierIndex MachineConfig::slowest_tier() const {
  HMEM_ASSERT(!tiers.empty());
  TierIndex worst = 0;
  for (TierIndex i = 1; i < tiers.size(); ++i) {
    if (tiers[i].relative_performance <
        tiers[worst].relative_performance) {
      worst = i;
    }
  }
  return worst;
}

std::vector<TierIndex> MachineConfig::tiers_by_performance() const {
  std::vector<TierIndex> order(tiers.size());
  for (TierIndex i = 0; i < tiers.size(); ++i) order[i] = i;
  // Ties keep address-map order, matching the advisor's stable fill order.
  std::stable_sort(order.begin(), order.end(),
                   [this](TierIndex a, TierIndex b) {
                     return tiers[a].relative_performance >
                            tiers[b].relative_performance;
                   });
  return order;
}

Machine::Machine(MachineConfig config) : config_(std::move(config)),
                                         llc_(config_.llc) {
  HMEM_ASSERT_MSG(!config_.tiers.empty(), "machine needs at least one tier");
  assign_tier_bases(config_.tiers);  // no-op for already-assigned tiers
  ranges_.reserve(config_.tiers.size());
  for (const TierSpec& spec : config_.tiers) {
    ranges_.push_back(TierRange{spec.base, spec.base + spec.capacity_bytes,
                                spec.latency_ns});
  }
  fastest_ = config_.fastest_tier();
  slowest_ = config_.slowest_tier();
}

bool Machine::in_tier(Address addr, TierIndex tier) const {
  return addr >= ranges_[tier].base && addr < ranges_[tier].end;
}

TierIndex Machine::owning_tier(Address addr) const {
  for (TierIndex i = 0; i < ranges_.size(); ++i) {
    if (in_tier(addr, i)) return i;
  }
  return slowest_;
}

AccessResult Machine::access(Address addr) {
  AccessResult result;
  result.llc_hit = llc_.access(addr);
  if (result.llc_hit) {
    result.latency_ns = config_.llc_latency_ns;
    return result;
  }
  const TierIndex t = owning_tier(addr);
  result.tier = t;
  result.latency_ns = ranges_[t].latency_ns;
  result.tier_bytes = kCacheLineBytes;
  return result;
}

}  // namespace hmem::memsim
