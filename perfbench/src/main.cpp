// perfbench — closed-loop runner over one workload.
//
//   perfbench --workload pipeline|advise|stream|sweep --seed N --seconds S
//             --trace 0|1 [--smoke] [--expect digests.txt]
//             [--spans-out spans.jsonl]
//
// One client thread issues the next op only after the previous one
// returned. Setup runs kSetupReps times (setup_s is their median); one
// untimed round then runs every input once to record the digests later ops
// must repeat. The timed loop draws inputs in seeded round-robin order
// (a fresh seeded permutation per round) for --seconds, and longer if
// needed to collect kMinOps ops so op_p90_ms has at least 10 samples
// beyond it.
//
// --trace 0 prints the end-to-end metrics; --trace 1 spends the first half
// of the time untraced and the second half traced, and prints the
// per-layer metrics plus the tracing overhead between the two halves.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics.
#include <sys/resource.h>
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/prng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr int kSetupReps = 3;
constexpr double kSetupMinS = 0.5;
constexpr std::size_t kSetupMaxReps = 100000;
constexpr std::size_t kMinOps = 100;  // 10 samples beyond p90
constexpr double kOvertimeS = 60;     // hard cap past --seconds
constexpr int kMaxJobs = 4;           // setup profiling threads

/// Every per-layer metric, in print order, with its unit. A workload that
/// does not call a layer reports it as 0.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"engine.profile_run_ms", "ms"},
    {"engine.framework_run_ms", "ms"},
    {"engine.dynamic_run_ms", "ms"},
    {"engine.accesses_per_s", "1/s"},
    {"engine.migrations", "count"},
    {"profiler.samples", "count"},
    {"trace.events", "count"},
    {"runtime.match_ratio", "ratio"},
    {"runtime.cache_hit_ratio", "ratio"},
    {"trace.decode_merge_ms", "ms"},
    {"analysis.aggregate_ms", "ms"},
    {"analysis.events_per_s", "1/s"},
    {"analysis.ingest_ms", "ms"},
    {"advisor.solve_ms", "ms"},
    {"advisor.phase_solve_ms", "ms"},
    {"advisor.report_ms", "ms"},
    {"advisor.refresh_p50_us", "us"},
    {"advisor.refresh_p95_us", "us"},
    {"advisor.resolves_per_refresh", "ratio"},
    {"sweep.pass_s", "s"},
    {"sweep.profile_hit_rate", "ratio"},
    {"sweep.program_hit_rate", "ratio"},
    {"sweep.arena_peak_cell_bytes", "bytes"},
    {"tracing.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string expect;
  std::string spans_out;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload pipeline|advise|stream|sweep --seed N "
               "--seconds S --trace 0|1 [--smoke] [--expect file] "
               "[--spans-out file]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        args.workload = value();
      } else if (flag == "--seed") {
        args.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value());
      } else if (flag == "--trace") {
        args.trace = value() != "0";
      } else if (flag == "--smoke") {
        args.smoke = true;
      } else if (flag == "--expect") {
        args.expect = value();
      } else if (flag == "--spans-out") {
        args.spans_out = value();
      } else {
        usage(argv[0]);
      }
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0)) usage(argv[0]);
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "pipeline") return make_pipeline(config);
  if (name == "advise") return make_advise(config, /*stream=*/false);
  if (name == "stream") return make_advise(config, /*stream=*/true);
  if (name == "sweep") return make_sweep(config);
  return nullptr;
}

std::string host_context() {
  struct utsname u{};
  const std::string os = uname(&u) == 0 ? u.release : "unknown";
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"nproc\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
                "\"os_kernel\": \"%s\"",
                hmem::hardware_jobs(), PERFBENCH_BUILD_TYPE, compiler.c_str(),
                os.c_str());
  return buf;
}

double peak_rss_mb() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// "workload seed input digest" lines; '#' starts a comment.
std::map<std::string, std::uint64_t> load_expected(const Args& args) {
  std::map<std::string, std::uint64_t> expected;
  std::ifstream in(args.expect);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string input;
    std::string hex;
    if (!(fields >> workload >> seed >> input >> hex) ||
        workload.front() == '#') {
      continue;
    }
    if (workload == args.workload && seed == args.seed) {
      expected[input] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }
  return expected;
}

/// Seeded round-robin: each round visits every input once, in a fresh
/// seeded permutation.
class Order {
 public:
  Order(std::uint64_t seed, std::size_t n)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 17), perm_(n), pos_(n) {
    for (std::size_t i = 0; i < n; ++i) perm_[i] = i;
  }
  std::size_t next() {
    if (pos_ == perm_.size()) {
      for (std::size_t i = perm_.size(); i > 1; --i) {
        std::swap(perm_[i - 1], perm_[rng_.next() % i]);
      }
      pos_ = 0;
    }
    return perm_[pos_++];
  }

 private:
  hmem::Xoshiro256 rng_;
  std::vector<std::size_t> perm_;
  std::size_t pos_;
};

struct Sample {
  std::vector<double> ms;  ///< latency of every successful op
  std::map<std::size_t, std::vector<double>> by_input;
  std::map<std::size_t, double> work;  ///< one op's work, per input
};

/// Work of one round over every measured input, each at its median op
/// time. A host stall moves a mean over all ops but not the medians, and
/// every input weighs the same whatever the seeded order.
double round_throughput(const Sample& s) {
  double work = 0;
  double seconds = 0;
  for (const auto& [input, ms] : s.by_input) {
    work += s.work.at(input);
    seconds += median(ms) / 1e3;
  }
  return seconds > 0 ? work / seconds : 0;
}

class Runner {
 public:
  Runner(const Args& args, std::unique_ptr<Workload> workload)
      : args_(args),
        workload_(std::move(workload)),
        order_(args.seed, workload_->inputs()),
        reference_(workload_->inputs()) {}

  /// Runs every input once, untimed, and records the digest later ops
  /// must reproduce; checks it against the oracle and committed digests.
  void reference_round() {
    const std::map<std::string, std::uint64_t> expected =
        args_.smoke ? std::map<std::string, std::uint64_t>{}
                    : load_expected(args_);
    for (std::size_t i = 0; i < workload_->inputs(); ++i) {
      const std::string name = workload_->input_name(i);
      ++attempted_;
      std::optional<std::uint64_t> digest;
      try {
        digest = workload_->run(i, nullptr).digest;
      } catch (const std::exception& e) {
        fail("op on " + name + " threw: " + e.what());
        continue;
      }
      std::printf("digest %s %llu %s %016llx\n", args_.workload.c_str(),
                  static_cast<unsigned long long>(args_.seed), name.c_str(),
                  static_cast<unsigned long long>(*digest));
      std::optional<std::uint64_t> oracle;
      try {
        oracle = workload_->oracle(i);
      } catch (const std::exception& e) {
        fail("oracle on " + name + " threw: " + e.what());
        continue;
      }
      if (oracle && *oracle != *digest) {
        fail("op on " + name + " differs from its oracle");
        continue;
      }
      const auto it = expected.find(name);
      if (it != expected.end()) {
        ++expected_checked_;
        if (it->second != *digest) {
          fail("op on " + name + " differs from the committed digest");
          continue;
        }
      }
      reference_[i] = digest;
    }
  }

  /// Closed loop for `seconds` (and until min_ops ops succeeded).
  Sample measure(double seconds, std::size_t min_ops, Tracer* tracer) {
    Sample sample;
    const Clock::time_point start = Clock::now();
    for (;;) {
      const double elapsed = seconds_since(start);
      if (elapsed >= seconds && sample.ms.size() >= min_ops) break;
      if (elapsed >= seconds + kOvertimeS) break;
      const std::size_t input = order_.next();
      if (tracer != nullptr) tracer->set_op(static_cast<int>(attempted_));
      ++attempted_;
      OpResult result;
      const Clock::time_point t0 = Clock::now();
      try {
        SpanScope span(tracer, "op");
        result = workload_->run(input, tracer);
      } catch (const std::exception& e) {
        fail("op on " + workload_->input_name(input) + " threw: " + e.what());
        continue;
      }
      const double dt = seconds_since(t0);
      if (!reference_[input] || result.digest != *reference_[input]) {
        fail("op on " + workload_->input_name(input) +
             " did not repeat its reference outputs");
        continue;
      }
      sample.ms.push_back(dt * 1e3);
      sample.by_input[input].push_back(dt * 1e3);
      sample.work[input] = result.work;
    }
    return sample;
  }

  void fail(const std::string& why) {
    ++failed_;
    if (failures_.size() < 10) failures_.push_back(why);
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::size_t expected_checked() const { return expected_checked_; }
  const std::vector<std::string>& failures() const { return failures_; }
  Workload& workload() { return *workload_; }

 private:
  const Args& args_;
  std::unique_ptr<Workload> workload_;
  Order order_;
  std::vector<std::optional<std::uint64_t>> reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t expected_checked_ = 0;
  std::vector<std::string> failures_;
};

void print_metric(const std::string& name, const Metric& m) {
  std::printf("metric %-30s %.6g %s (%s)\n", name.c_str(), m.value,
              m.unit.c_str(), m.note.c_str());
}

/// Per-input p50s: ops of one workload should cost about the same.
void print_inputs(const Workload& workload, const Sample& s) {
  for (const auto& [input, ms] : s.by_input) {
    std::printf("input %-12s p50_ms=%-10.4g p90_ms=%-10.4g n=%zu\n",
                workload.input_name(input).c_str(), median(ms),
                percentile(ms, 0.9), ms.size());
  }
}

void print_span_table(const Tracer& tracer) {
  struct Row {
    std::size_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Row> rows;
  const std::vector<double> self = tracer.self_ns();
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const Span& s = tracer.spans()[i];
    Row& row = rows[s.name];
    ++row.count;
    row.total_ms += s.duration_ns() / 1e6;
    row.self_ms += self[i] / 1e6;
  }
  for (const auto& [name, row] : rows) {
    std::printf("span %-26s count=%-8zu total_ms=%-12.3f self_ms=%.3f\n",
                name.c_str(), row.count, row.total_ms, row.self_ms);
  }
}

int run(const Args& args) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  WorkloadConfig config;
  config.seed = args.seed;
  config.smoke = args.smoke;
  config.jobs = std::min(hmem::hardware_jobs(), kMaxJobs);

  // Setup, several times: setup_s is the median. Cheap setups repeat
  // until kSetupMinS has passed, so their median is not one cold sample.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  const int reps = args.smoke ? 1 : kSetupReps;
  const Clock::time_point setup_start = Clock::now();
  while (static_cast<int>(setup_s.size()) < reps ||
         (!args.smoke && seconds_since(setup_start) < kSetupMinS &&
          setup_s.size() < kSetupMaxReps)) {
    workload.reset();
    workload = make_workload(args.workload, config);
    if (!workload) {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
    const Clock::time_point t0 = Clock::now();
    try {
      workload->setup();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", e.what());
      return hmem::exit_code_for(e);
    }
    setup_s.push_back(seconds_since(t0));
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? " smoke" : "");
  std::printf("context {%s, \"setup_jobs\": %d, %s}\n", host_context().c_str(),
              config.jobs, workload->context().c_str());

  Runner runner(args, std::move(workload));
  runner.reference_round();
  const std::size_t min_ops = args.smoke ? 20 : kMinOps;
  Metrics metrics;
  bool correct = true;
  Tracer tracer;
  if (!args.trace) {
    const Sample s = runner.measure(args.seconds, min_ops, nullptr);
    print_inputs(runner.workload(), s);
    const std::size_t n = s.ms.size();
    const std::string ops = "n=" + std::to_string(n) + " ops";
    metrics["setup_s"] = {median(setup_s), "s",
                          "median of " + std::to_string(setup_s.size()) +
                              " setups"};
    metrics["op_p50_ms"] = {percentile(s.ms, 0.5), "ms", ops};
    metrics["op_p90_ms"] = {percentile(s.ms, 0.9), "ms",
                            ops + ", " + std::to_string(beyond(n, 0.9)) +
                                " beyond"};
    metrics["throughput_per_s"] = {
        round_throughput(s), "1/s",
        std::string(runner.workload().work_unit()) +
            " per round at each input's p50 op time, over " + ops};
    metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", "process ru_maxrss"};
    if (beyond(n, 0.9) < 10 && !args.smoke) {
      correct = false;
      std::printf("failure: fewer than 10 samples beyond p90\n");
    }
  } else {
    // Any 2n-1 consecutive ops of the seeded order hold a full round, so
    // every input runs traced at least once.
    const double half = args.seconds / 2;
    const std::size_t half_ops = std::max<std::size_t>(
        2 * runner.workload().inputs() - 1, min_ops / 5);
    const Sample plain = runner.measure(half, half_ops, nullptr);
    const Sample traced = runner.measure(half, half_ops, &tracer);
    runner.workload().per_layer(tracer, metrics);
    const double base = median(plain.ms);
    metrics["tracing.overhead_pct"] = {
        base > 0 ? (median(traced.ms) / base - 1) * 100 : 0, "%",
        "op p50 traced (n=" + std::to_string(traced.ms.size()) +
            ") vs untraced (n=" + std::to_string(plain.ms.size()) + ")"};
    for (const auto& [name, unit] : kPerLayer) {
      if (metrics.count(name) == 0) {
        metrics[name] = {0, unit, "layer not called by this workload"};
      }
    }
    print_span_table(tracer);
    if (!args.spans_out.empty() && !tracer.write(args.spans_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }

  for (const auto& [name, m] : metrics) {
    if (!std::isfinite(m.value)) {
      correct = false;
      std::printf("failure: metric %s is not finite\n", name.c_str());
    }
    print_metric(name, m);
  }
  std::printf("checks: %llu ops attempted, %llu failed, %zu committed "
              "digests checked\n",
              static_cast<unsigned long long>(runner.attempted()),
              static_cast<unsigned long long>(runner.failed()),
              runner.expected_checked());
  for (const std::string& why : runner.failures()) {
    std::printf("failure: %s\n", why.c_str());
  }
  correct = correct && runner.failed() == 0;

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(runner.attempted());
  json += ", \"failed\": " + std::to_string(runner.failed());
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const std::string& name, const Metric& m) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const auto& [name, unit] : kPerLayer) emit(name, metrics[name]);
  } else {
    for (const char* name : {"setup_s", "op_p50_ms", "op_p90_ms",
                             "throughput_per_s", "peak_rss_mb"}) {
      emit(name, metrics[name]);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
