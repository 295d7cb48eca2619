#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "apps/workloads.hpp"
#include "common/error.hpp"

namespace perfbench {

using namespace hmem;

// ---- Tracer --------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int Tracer::begin(const char* name) {
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - epoch_).count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op_;
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - epoch_).count();
  // Spans close in LIFO order (SpanScope is the only caller).
  open_.pop_back();
}

std::vector<double> Tracer::self_ns() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  // Children of one parent run sequentially on this thread, so the time
  // they cover is the sum of their durations.
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      self[static_cast<std::size_t>(span.parent)] -= span.duration_ns();
    }
  }
  return self;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_ns();
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %.0f, "
                  "\"end_ns\": %.0f, \"self_ns\": %.0f, \"parent\": %d, "
                  "\"op\": %d}\n",
                  i, s.name, s.start_ns, s.end_ns, self[i], s.parent, s.op);
    out << line;
  }
  return static_cast<bool>(out);
}

std::vector<double> per_op_total_ms(const Tracer& tracer, const char* name) {
  std::map<int, double> totals;
  for (const Span& s : tracer.spans()) {
    if (std::strcmp(s.name, name) == 0) totals[s.op] += s.duration_ns() / 1e6;
  }
  std::vector<double> out;
  for (const auto& [op, ms] : totals) out.push_back(ms);
  return out;
}

std::vector<double> span_durations(const Tracer& tracer, const char* name,
                                   double divisor) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.duration_ns() / divisor);
  }
  return out;
}

// ---- Statistics ----------------------------------------------------------

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

std::size_t beyond(std::size_t n, double p) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

// ---- Output checks -------------------------------------------------------

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string bits(double value) {
  std::uint64_t raw = 0;
  std::memcpy(&raw, &value, sizeof(raw));
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(raw));
  return buf;
}

// ---- Input helpers -------------------------------------------------------

std::vector<apps::AppSpec> bundled_apps() {
  std::vector<apps::AppSpec> result = apps::all_apps();
  for (apps::AppSpec& app : apps::phase_shift_apps()) {
    result.push_back(std::move(app));
  }
  return result;
}

void scale_to_accesses(apps::AppSpec& app, std::uint64_t accesses) {
  const std::uint64_t per = app.accesses_per_iteration;
  app.iterations = std::max<std::uint64_t>(1, (accesses + per / 2) / per);
  app.accesses_per_iteration = std::max<std::uint64_t>(
      1, (accesses + app.iterations / 2) / app.iterations);
}

double cost_scale(const CostScale& table, const std::string& app) {
  for (const auto& [name, scale] : table) {
    if (app == name) return scale;
  }
  return 1.0;
}

namespace {

std::uint64_t per_rank_fallback_capacity(
    const apps::AppSpec& app, const memsim::MachineConfig& node) {
  return node.tiers[node.slowest_tier()].capacity_bytes /
         static_cast<std::uint64_t>(app.ranks);
}

}  // namespace

void check_fits(const apps::AppSpec& app, const memsim::MachineConfig& node) {
  const std::string problem = apps::validate(app);
  if (!problem.empty()) {
    throw ConfigError("app " + app.name + ": " + problem);
  }
  const std::uint64_t need = app.total_footprint() + app.stack_bytes;
  const std::uint64_t have = per_rank_fallback_capacity(app, node);
  if (need > have) {
    throw ResourceError("app " + app.name + " at " +
                        std::to_string(app.ranks) + " ranks needs " +
                        std::to_string(need) + " bytes per rank; the " +
                        node.tiers[node.slowest_tier()].name + " tier of " +
                        node.name + " holds " + std::to_string(have));
  }
}

int max_fitting_ranks(apps::AppSpec app, const memsim::MachineConfig& node,
                      int limit) {
  const std::uint64_t need = app.total_footprint() + app.stack_bytes;
  for (int ranks = limit; ranks >= 1; --ranks) {
    app.ranks = ranks;
    if (need <= per_rank_fallback_capacity(app, node)) return ranks;
  }
  return 0;
}

std::string resolved_kernel(bool cache_mode, bool profiled) {
  return engine::kernel::kernel_name(
      engine::kernel::resolve_kernel(kKernel, cache_mode, profiled));
}

}  // namespace perfbench
