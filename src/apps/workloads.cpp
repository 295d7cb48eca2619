// The bundled workloads.
//
// The ten bundled apps are defined once, as configs/apps/<name>.ini (each
// file's header comment gives the app's rationale and its mapping to the
// paper's observations). The build embeds the files into the library
// (embed_configs.cmake); they are parsed once per process, on first use.
// Only the parametric Stream Triad kernel (Figure 1) stays a C++ factory.
#include "apps/workloads.hpp"

#include "apps/app_config.hpp"
#include "apps/bundled_configs.hpp"
#include "common/assert.hpp"
#include "common/units.hpp"

namespace hmem::apps {

namespace {

std::uint64_t MB(double x) {
  return static_cast<std::uint64_t>(x * static_cast<double>(kMiB));
}

ObjectSpec dyn(std::string name, std::uint64_t size, AccessPattern pattern) {
  ObjectSpec o;
  o.name = std::move(name);
  o.size_bytes = size;
  o.pattern = pattern;
  return o;
}

std::vector<AppSpec> parse_all(
    std::span<const detail::BundledConfig> configs) {
  std::vector<AppSpec> apps;
  for (const detail::BundledConfig& config : configs) {
    apps.push_back(from_config_text(config.text));
    HMEM_ASSERT_MSG(apps.back().name == config.name,
                    "bundled app config names a different app");
  }
  return apps;
}

struct Bundled {
  std::vector<AppSpec> paper;
  std::vector<AppSpec> phase_shift;
};

/// The embedded configs, parsed once, on first use: parsing the ten texts
/// costs ~100x more than copying the parsed specs out.
const Bundled& bundled() {
  static const Bundled apps{parse_all(detail::paper_configs()),
                            parse_all(detail::phase_shift_configs())};
  return apps;
}

}  // namespace

AppSpec make_stream_triad(int threads) {
  HMEM_ASSERT(threads > 0);
  AppSpec app;
  app.name = "stream-triad";
  app.fom_unit = "GB/s";
  app.ranks = 1;
  app.threads_per_rank = threads;
  app.iterations = 4;
  app.accesses_per_iteration = 30000;
  // Triad moves 3 * 128 MiB per sweep; each simulated access stands for
  // (3*128 MiB / 64 B) / 30000 real line accesses.
  app.access_scale = (3.0 * 128.0 * 1024.0 * 1024.0 / 64.0) / 30000.0;
  app.work_per_iteration = 1.0;  // FOM computed as bandwidth by the bench
  app.stack_bytes = MB(1);

  app.objects = {
      dyn("a", MB(128), AccessPattern::kStream),
      dyn("b", MB(128), AccessPattern::kStream),
      dyn("c", MB(128), AccessPattern::kStream),
  };
  PhaseSpec triad;
  triad.name = "triad";
  triad.access_share = 1.0;
  triad.object_weights = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  triad.stack_weight = 0.0;
  triad.write_fraction = 1.0 / 3.0;  // a[i] = b[i] + s * c[i]
  triad.insts_per_access = 2.0;
  app.phases = {triad};
  return app;
}

std::vector<AppSpec> phase_shift_apps() { return bundled().phase_shift; }

std::vector<AppSpec> all_apps() { return bundled().paper; }

std::optional<AppSpec> find_app(const std::string& name) {
  for (const auto* apps : {&bundled().paper, &bundled().phase_shift}) {
    for (const AppSpec& app : *apps) {
      if (app.name == name) return app;
    }
  }
  return std::nullopt;
}

AppSpec app_by_name(const std::string& name) {
  auto app = find_app(name);
  HMEM_ASSERT_MSG(app.has_value(), "unknown application name");
  return *app;
}

}  // namespace hmem::apps
