// perfbench — end-to-end and per-layer benchmark of the hmem pipeline.
//
// Shared pieces of perfbench: the span tracer, percentile helpers, output
// digests, the metric sink and the Workload interface every workload
// (pipeline, advise, stream, sweep) implements. perfbench only calls the
// library's public functions; it never changes what they compute.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "engine/kernel/kernel.hpp"
#include "memsim/machine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Tracing -------------------------------------------------------------

/// One traced interval. `parent` indexes the enclosing span (-1 at the top
/// level); `op` is the op the span belongs to (-1 outside ops).
struct Span {
  const char* name = "";
  double start_ns = 0;
  double end_ns = 0;
  int parent = -1;
  int op = -1;
  double duration_ns() const { return end_ns - start_ns; }
};

/// In-memory span recorder, single-threaded (the closed-loop client). A
/// null Tracer* means tracing is off; SpanScope then costs one branch.
class Tracer {
 public:
  Tracer();
  int begin(const char* name);
  void end(int id);
  void set_op(int op) { op_ = op; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the time its direct children cover.
  std::vector<double> self_ns() const;
  /// Writes every span as one JSON object per line.
  bool write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int op_ = -1;
};

class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1) {}
  ~SpanScope() {
    if (tracer_) tracer_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-op sums of the durations of spans named `name`, in ms, one entry
/// per op that has at least one such span.
std::vector<double> per_op_total_ms(const Tracer& tracer, const char* name);
/// Every duration of spans named `name`, in the given unit divisor
/// (1e6 = ms, 1e3 = us).
std::vector<double> span_durations(const Tracer& tracer, const char* name,
                                   double divisor);

// ---- Statistics ----------------------------------------------------------

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
/// Samples strictly beyond the nearest-rank p-th percentile.
std::size_t beyond(std::size_t n, double p);

// ---- Output checks -------------------------------------------------------

/// FNV-1a 64 over a byte string, chainable.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t h = 1469598103934665603ULL);
/// Exact bit pattern of a double, for digests that must repeat bit-exactly.
std::string bits(double value);

// ---- Metrics -------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
  std::string note;  ///< sample count and provenance, human-readable only
};
using Metrics = std::map<std::string, Metric>;

// ---- Workloads -----------------------------------------------------------

/// Every access loop runs this backend. Never kAuto: that would read
/// HMEM_KERNEL from the caller's environment. The engine's fallback ladder
/// still applies (profiled and cache-mode runs cannot use native), so the
/// context line records what each stage resolved to.
inline constexpr hmem::engine::kernel::KernelKind kKernel =
    hmem::engine::kernel::KernelKind::kNative;

/// Simulation seeds of a workload seed: the profiled runs' ASLR image and
/// sampling phase, and a different image for the production runs.
inline std::uint64_t profile_seed(std::uint64_t seed) {
  return 42 + 2000 * seed;
}
inline std::uint64_t production_seed(std::uint64_t seed) {
  return profile_seed(seed) + 1000;
}

struct WorkloadConfig {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< shrunken inputs for the benchmark's own tests
  int jobs = 1;        ///< worker threads for setup profiling
};

/// One op's outcome: a digest of every output it produced (simulated
/// statistics and report texts) and the work it did in the workload's
/// throughput unit.
struct OpResult {
  std::uint64_t digest = 0;
  double work = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Unit of throughput_per_s: what one op's `work` counts.
  virtual const char* work_unit() const = 0;
  /// Builds every input before the first timed op (timed as setup_s).
  virtual void setup() = 0;
  virtual std::size_t inputs() const = 0;
  virtual std::string input_name(std::size_t input) const = 0;
  /// Runs one op. With a tracer the op records spans around every library
  /// call it makes; its outputs must not change.
  virtual OpResult run(std::size_t input, Tracer* tracer) = 0;
  /// Digest every op on `input` must reproduce, when an independent path
  /// computes it (stream: the batch advise path). Untimed.
  virtual std::optional<std::uint64_t> oracle(std::size_t /*input*/) {
    return std::nullopt;
  }
  /// Adds the per-layer metrics the traced ops measured.
  virtual void per_layer(const Tracer& tracer, Metrics& out) const = 0;
  /// Workload part of the host context: machine preset, sizes, and the
  /// kernel each stage resolved to.
  virtual std::string context() const = 0;
};

std::unique_ptr<Workload> make_pipeline(const WorkloadConfig& config);
std::unique_ptr<Workload> make_advise(const WorkloadConfig& config,
                                      bool stream);
std::unique_ptr<Workload> make_sweep(const WorkloadConfig& config);

// ---- Input helpers -------------------------------------------------------

/// The 10 bundled apps: the eight paper apps plus churn and transient.
std::vector<hmem::apps::AppSpec> bundled_apps();

/// Scales `app.iterations`, then trims `accesses_per_iteration`, so one run
/// simulates `accesses` accesses (per rank) to within one per iteration.
void scale_to_accesses(hmem::apps::AppSpec& app, std::uint64_t accesses);

/// Per-app size multipliers that make every op of a workload cost about
/// the same host time. Equal simulated work alone leaves apps 20-40%
/// apart (per-access cost depends on the access pattern, the per-rank LLC
/// share and the churn of each app), and a percentile over a mix of cheap
/// and expensive ops jumps between app clusters. Calibrated once on a
/// 4-core x86-64 container (gcc 12.2, Release) against each workload's
/// median op; part of the input definition, so never re-tuned per run.
using CostScale = std::vector<std::pair<const char*, double>>;
double cost_scale(const CostScale& table, const std::string& app);

/// Throws hmem::ConfigError when the app's per-rank footprint (objects
/// plus stack) does not fit the slowest tier's per-rank share — the tier
/// every unplaced object falls back to. Without this check such an input
/// dies on the engine's out-of-memory assertion mid-run.
void check_fits(const hmem::apps::AppSpec& app,
                const hmem::memsim::MachineConfig& node);

/// Largest rank count <= limit at which the app still fits (0 if none).
int max_fitting_ranks(hmem::apps::AppSpec app,
                      const hmem::memsim::MachineConfig& node, int limit);

/// "native" / "bytecode" / "interp": what the engine's fallback ladder
/// resolves kKernel to for a stage.
std::string resolved_kernel(bool cache_mode, bool profiled);

}  // namespace perfbench
