// Fault-injection framework + salvage/checkpoint recovery, end to end:
//
//  * the HMEM_FAULTS/--faults schedule grammar and the deterministic
//    firing of probabilistic / nth / every schedules;
//  * degradation ladders — injected fast-tier allocation failures cascade
//    to slower tiers, injected kernel-compile failures fall through
//    native -> bytecode -> interp with bit-identical results;
//  * chunk-level salvage — a corrupted middle chunk of a checksummed
//    binary shard costs exactly that chunk's events, the SalvageReport
//    says so, and --strict (the library default) throws a FormatError
//    naming the file and chunk;
//  * the k-way merge dropping dead shards instead of dying with them;
//  * crash-safe outputs — AtomicFile commit/abort semantics and the
//    SweepStore's append/fsync/torn-tail-truncate resume contract;
//  * the tools' exit-code convention (0 ok, 2 usage/config, 3 data/IO),
//    driven through the real binaries when the build provides them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

#include "advisor/placement_report.hpp"
#include "advisor/schedule_report.hpp"
#include "apps/app_config.hpp"
#include "apps/workloads.hpp"
#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/prng.hpp"
#include "engine/execution.hpp"
#include "engine/pipeline.hpp"
#include "engine/sweep_store.hpp"
#include "trace/format.hpp"
#include "trace/merge.hpp"
#include "trace/replay.hpp"
#include "trace/salvage.hpp"

namespace hmem {
namespace {

/// Every test leaves the process disarmed: the schedule and its counters
/// are global, and a leaked schedule would silently degrade whichever
/// suite runs next.
class FaultsTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm(); }
  void TearDown() override { fault::disarm(); }
};

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "hmem_faults_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// A small-but-real profiled app shared by the engine-level tests.
apps::AppSpec tiny_app() {
  apps::AppSpec app;
  app.name = "faults-src";
  app.fom_unit = "it/s";
  app.ranks = 1;
  app.threads_per_rank = 2;
  app.iterations = 3;
  app.accesses_per_iteration = 4000;
  app.objects = {
      apps::ObjectSpec{.name = "a", .size_bytes = 64ULL << 10},
      apps::ObjectSpec{.name = "b",
                       .size_bytes = 256ULL << 10,
                       .pattern = apps::AccessPattern::kRandom},
  };
  apps::PhaseSpec phase;
  phase.name = "main";
  phase.object_weights = {0.5, 0.5};
  app.phases = {phase};
  return app;
}

// ------------------------------------------------- schedule grammar ------

TEST_F(FaultsTest, FaultSpecParses) {
  EXPECT_EQ(fault::configure("io_read:p=0.5,seed=7"), "");
  EXPECT_TRUE(fault::armed());
  EXPECT_NE(fault::describe().find("io_read"), std::string::npos);

  EXPECT_EQ(fault::configure("alloc:nth=3;io_write:every=100"), "");
  EXPECT_NE(fault::describe().find("alloc"), std::string::npos);
  EXPECT_NE(fault::describe().find("io_write"), std::string::npos);

  // An empty spec disarms everything.
  EXPECT_EQ(fault::configure(""), "");
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::describe(), "");

  // Malformed specs are rejected with a message and keep the previous
  // schedule (here: disarmed stays disarmed, a valid one stays valid).
  EXPECT_NE(fault::configure("bogus_site:p=0.1"), "");
  EXPECT_NE(fault::configure("io_read:p=1.5"), "");
  EXPECT_NE(fault::configure("io_read:p=-0.1"), "");
  EXPECT_NE(fault::configure("io_read:nth=0"), "");
  EXPECT_NE(fault::configure("io_read:every=0"), "");
  EXPECT_NE(fault::configure("io_read:p=0.1,nth=2"), "");  // mixed triggers
  EXPECT_NE(fault::configure("io_read"), "");              // no trigger
  EXPECT_FALSE(fault::armed());

  ASSERT_EQ(fault::configure("kernel_compile:nth=1"), "");
  const std::string before = fault::describe();
  EXPECT_NE(fault::configure("io_read:p=junk"), "");
  EXPECT_EQ(fault::describe(), before);
}

TEST_F(FaultsTest, InjectorSchedules) {
  // Disarmed: no hit is recorded, nothing fires.
  EXPECT_FALSE(fault::inject(fault::Site::kIoRead));
  EXPECT_EQ(fault::counters(fault::Site::kIoRead).hits, 0u);

  // nth=3 fires exactly once, on the third hit.
  ASSERT_EQ(fault::configure("alloc:nth=3"), "");
  EXPECT_FALSE(fault::inject(fault::Site::kAlloc));
  EXPECT_FALSE(fault::inject(fault::Site::kAlloc));
  EXPECT_TRUE(fault::inject(fault::Site::kAlloc));
  EXPECT_FALSE(fault::inject(fault::Site::kAlloc));
  EXPECT_EQ(fault::counters(fault::Site::kAlloc).hits, 4u);
  EXPECT_EQ(fault::counters(fault::Site::kAlloc).fires, 1u);
  // A site with no schedule never fires even while another is armed.
  EXPECT_FALSE(fault::inject(fault::Site::kIoWrite));
  EXPECT_EQ(fault::counters(fault::Site::kIoWrite).fires, 0u);

  // every=2 fires on hits 2, 4, 6, ...
  ASSERT_EQ(fault::configure("io_write:every=2"), "");
  std::vector<bool> fired;
  for (int i = 0; i < 6; ++i) fired.push_back(fault::inject(fault::Site::kIoWrite));
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, true, false, true}));

  // p=1 always fires, p=0 never; both count hits. The p=0.5 stream is
  // deterministic in (seed, hit index): two runs see the same pattern.
  ASSERT_EQ(fault::configure("io_read:p=1,seed=1"), "");
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(fault::inject(fault::Site::kIoRead));
  ASSERT_EQ(fault::configure("io_read:p=0,seed=1"), "");
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(fault::inject(fault::Site::kIoRead));
  EXPECT_EQ(fault::counters(fault::Site::kIoRead).hits, 8u);

  std::vector<bool> first, second;
  ASSERT_EQ(fault::configure("io_read:p=0.5,seed=42"), "");
  for (int i = 0; i < 64; ++i) first.push_back(fault::inject(fault::Site::kIoRead));
  ASSERT_EQ(fault::configure("io_read:p=0.5,seed=42"), "");
  for (int i = 0; i < 64; ++i) second.push_back(fault::inject(fault::Site::kIoRead));
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

// --------------------------------------------- degradation ladders -------

TEST_F(FaultsTest, AllocFaultsCascadeToSlowerTiers) {
  const apps::AppSpec app = tiny_app();
  engine::RunOptions options;
  options.condition = engine::Condition::kNumactl;
  const engine::RunResult healthy = engine::run_app(app, options);

  // Every fast-tier allocation attempt fails: the numactl cascade must
  // still complete every allocation (the catch-all tier is never
  // injected), just slower.
  ASSERT_EQ(fault::configure("alloc:p=1,seed=1"), "");
  const engine::RunResult degraded = engine::run_app(app, options);
  EXPECT_GT(fault::counters(fault::Site::kAlloc).fires, 0u);
  EXPECT_GT(degraded.time_s, 0.0);
  EXPECT_EQ(degraded.alloc_calls, healthy.alloc_calls);
  // With the fast tier unreachable, nothing is promoted: the fast-tier
  // high-water mark collapses to zero.
  EXPECT_GT(healthy.fast_hwm_bytes, 0u);
  EXPECT_EQ(degraded.fast_hwm_bytes, 0u);
}

TEST_F(FaultsTest, KernelCompileFaultsFallThroughBitIdentical) {
  const apps::AppSpec app = tiny_app();
  engine::RunOptions options;
  options.kernel = engine::kernel::KernelKind::kInterp;
  const engine::RunResult interp = engine::run_app(app, options);

  // Every compile attempt fails: the ladder walks native -> bytecode ->
  // interp, and every rung computes identical results, so the run is
  // bit-identical to asking for the interpreter outright.
  ASSERT_EQ(fault::configure("kernel_compile:p=1,seed=3"), "");
  // Naming the kernel for a report neither fires nor counts a fault.
  EXPECT_EQ(engine::kernel::select_kernel(engine::kernel::KernelKind::kBytecode,
                                          false),
            engine::kernel::KernelKind::kBytecode);
  EXPECT_EQ(fault::counters(fault::Site::kKernelCompile).hits, 0u);
  options.kernel = engine::kernel::KernelKind::kNative;
  const engine::RunResult faulted = engine::run_app(app, options);
  EXPECT_GT(fault::counters(fault::Site::kKernelCompile).hits, 0u);
  EXPECT_EQ(faulted.fom, interp.fom);
  EXPECT_EQ(faulted.time_s, interp.time_s);
  EXPECT_EQ(faulted.llc_misses, interp.llc_misses);
  EXPECT_EQ(faulted.samples, interp.samples);
}

TEST_F(FaultsTest, InfeasibleRunsThrowTypedErrors) {
  engine::RunOptions options;
  options.condition = engine::Condition::kDdr;
  // An object larger than every tier it could live in: rejected before the
  // simulation starts, naming the object and the tier.
  apps::AppSpec app = tiny_app();
  app.objects[1].size_bytes = 900ULL << 30;
  try {
    engine::run_app(app, options);
    ADD_FAILURE() << "expected a ResourceError";
  } catch (const ResourceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'b'"), std::string::npos) << what;
    EXPECT_NE(what.find("DDR"), std::string::npos) << what;
  }
  // Objects that each fit but together exhaust the fallback tier: caught at
  // the failing allocation, naming the object and instance.
  app = tiny_app();
  app.objects[1].size_bytes = 40ULL << 30;
  app.objects[1].instances = 4;
  try {
    engine::run_app(app, options);
    ADD_FAILURE() << "expected a ResourceError";
  } catch (const ResourceError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'b' (instance 3 of 4)"), std::string::npos) << what;
    EXPECT_NE(what.find("no room"), std::string::npos) << what;
  }
  // A static schedule without a placement for one of the app's phases.
  advisor::PlacementSchedule schedule;
  for (const char* phase : {"main", "other"}) {
    advisor::PhasePlacement entry;
    entry.phase = phase;
    entry.placement.tiers.resize(2);
    schedule.phases.push_back(entry);
  }
  schedule.phases[0].phase = "elsewhere";
  options.condition = engine::Condition::kDynamic;
  options.schedule = &schedule;
  EXPECT_THROW(engine::run_app(tiny_app(), options), ConfigError);
}

// ------------------------------------------------ chunk-level salvage ----

/// A multi-chunk checksummed shard of synthetic samples plus the flush
/// offsets (used to aim corruption at a specific chunk's payload).
struct ChecksummedShard {
  std::string bytes;
  std::vector<std::size_t> flush_offsets;  ///< stream size after each flush
  std::vector<trace::Event> events;        ///< the full decoded sequence
};

ChecksummedShard make_checksummed_shard(std::size_t n_events) {
  ChecksummedShard shard;
  std::ostringstream out(std::ios::binary);
  callstack::SiteDb sites;
  trace::WriterOptions options;
  options.checksums = true;
  const auto writer = trace::make_trace_writer(
      out, sites, trace::TraceFormat::kBinary, options);
  Xoshiro256 rng(0xFA017ULL);
  double time_ns = 0;
  auto last = static_cast<std::size_t>(out.tellp());
  for (std::size_t e = 0; e < n_events; ++e) {
    time_ns += static_cast<double>(rng.below(20));
    trace::SampleEvent sample;
    sample.time_ns = time_ns;
    sample.addr = 0x10000 + rng.below(1ULL << 18) * 64;
    sample.weight = 1 + rng.below(4);
    writer->on_event(sample);
    const auto now = static_cast<std::size_t>(out.tellp());
    if (now != last) {
      shard.flush_offsets.push_back(now);
      last = now;
    }
  }
  writer->finish();
  shard.flush_offsets.push_back(static_cast<std::size_t>(out.tellp()));
  shard.bytes = out.str();

  std::istringstream in(shard.bytes, std::ios::binary);
  callstack::SiteDb read_sites;
  const auto reader = trace::open_trace_reader(in, read_sites);
  trace::Event event;
  while (reader->next(event)) shard.events.push_back(event);
  return shard;
}

TEST_F(FaultsTest, CorruptedMiddleChunkCostsExactlyThatChunk) {
  // Three full event chunks (kChunkEvents = 4096) plus a partial tail.
  constexpr std::size_t kChunk = 4096;
  const ChecksummedShard shard = make_checksummed_shard(3 * kChunk + 100);
  ASSERT_EQ(shard.events.size(), 3 * kChunk + 100);
  ASSERT_GE(shard.flush_offsets.size(), 4u);

  // Flip one byte deep inside the second event chunk's payload. The flush
  // region (flush_offsets[0], flush_offsets[1]] holds that chunk's 'K'
  // checksum + 'E' header + payload; the midpoint is well past the header.
  std::string corrupted = shard.bytes;
  const std::size_t mid =
      (shard.flush_offsets[0] + shard.flush_offsets[1]) / 2;
  corrupted[mid] = static_cast<char>(corrupted[mid] ^ 0x5A);

  // Salvage: the stream is the original minus exactly the damaged chunk.
  {
    std::istringstream in(corrupted, std::ios::binary);
    callstack::SiteDb sites;
    trace::SalvageReport report;
    trace::ReaderOptions options;
    options.salvage = true;
    options.report = &report;
    options.source = "shard.bin";
    const auto reader = trace::open_trace_reader(in, sites, options);
    trace::Event event;
    std::vector<trace::Event> salvaged;
    while (reader->next(event)) salvaged.push_back(event);

    ASSERT_EQ(salvaged.size(), shard.events.size() - kChunk);
    for (std::size_t i = 0; i < salvaged.size(); ++i) {
      const std::size_t original = i < kChunk ? i : i + kChunk;
      ASSERT_TRUE(salvaged[i] == shard.events[original])
          << "event " << i << " diverges from the undamaged stream";
    }
    EXPECT_EQ(report.chunks_dropped, 1u);
    EXPECT_EQ(report.events_dropped, kChunk);
    EXPECT_GT(report.bytes_dropped, 0u);
    EXPECT_EQ(report.tails_abandoned, 0u);
    ASSERT_EQ(report.incidents_total, 1u);
    EXPECT_EQ(report.incidents[0].file, "shard.bin");
    EXPECT_TRUE(report.incidents[0].chunk.has_value());
  }

  // Strict (the default): FormatError naming the file and chunk.
  {
    std::istringstream in(corrupted, std::ios::binary);
    callstack::SiteDb sites;
    trace::ReaderOptions options;
    options.source = "shard.bin";
    options.shard = 0;
    const auto reader = trace::open_trace_reader(in, sites, options);
    trace::Event event;
    try {
      while (reader->next(event)) {
      }
      FAIL() << "strict reader accepted a checksum-corrupted chunk";
    } catch (const FormatError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
      EXPECT_NE(what.find("shard.bin"), std::string::npos) << what;
      EXPECT_NE(what.find("chunk"), std::string::npos) << what;
    }
  }
}

TEST_F(FaultsTest, MergeDropsDeadShardsAndKeepsGoing) {
  // One healthy shard, one with a valid header and a garbage body (its
  // reader constructs fine and throws on the first next()).
  const ChecksummedShard good = make_checksummed_shard(200);
  std::string bad(trace::kBinaryMagic, sizeof(trace::kBinaryMagic));
  bad.push_back(static_cast<char>(trace::kBinaryVersion));
  bad += "this is not a chunk stream";

  callstack::SiteDb sites;
  std::istringstream good_in(good.bytes, std::ios::binary);
  std::istringstream bad_in(bad, std::ios::binary);
  std::vector<std::unique_ptr<trace::TraceReader>> inputs;
  inputs.push_back(trace::open_trace_reader(good_in, sites));
  inputs.push_back(trace::open_trace_reader(bad_in, sites));

  trace::SalvageReport report;
  trace::MergeOptions options;
  options.drop_failed_inputs = true;
  options.report = &report;
  options.labels = {"good.bin", "bad.bin"};
  trace::MergeTraceReader merge(std::move(inputs), std::move(options));

  trace::Event event;
  std::size_t n = 0;
  while (merge.next(event)) {
    ASSERT_TRUE(event == good.events[n]);
    ++n;
  }
  EXPECT_EQ(n, good.events.size());
  EXPECT_EQ(report.shards_dropped, 1u);
  ASSERT_EQ(report.incidents_total, 1u);
  EXPECT_EQ(report.incidents[0].file, "bad.bin");
}

/// A two-sample shard whose second timestamp is `second_ns`. In binary a
/// backwards time is a negative delta inside one event chunk.
std::string bad_time_shard(double second_ns, trace::TraceFormat format) {
  std::ostringstream out(std::ios::binary);
  callstack::SiteDb sites;
  const auto writer = trace::make_trace_writer(out, sites, format);
  writer->on_event(trace::SampleEvent{100.0, 0x1000, false, 1});
  writer->on_event(trace::SampleEvent{second_ns, 0x1040, false, 1});
  writer->finish();
  return out.str();
}

TEST_F(FaultsTest, MergeRejectsNonFiniteAndBackwardsTimes) {
  // The merge orders inputs by time, so a NaN, negative or backwards
  // timestamp is malformed data there: strict merges throw a FormatError
  // naming the input (and its chunk, in binary); degraded merges drop that
  // input and keep the others. Neither reaches the aggregator's time-order
  // invariant.
  struct Case {
    double second_ns;
    trace::TraceFormat format;
    const char* expect;
  };
  for (const Case& c :
       {Case{std::nan(""), trace::TraceFormat::kText, "non-finite"},
        Case{-5.0, trace::TraceFormat::kText, "out of time order"},
        Case{40.0, trace::TraceFormat::kBinary, "out of time order"}}) {
    const bool binary = c.format == trace::TraceFormat::kBinary;
    const std::string bad = bad_time_shard(c.second_ns, c.format);
    const ChecksummedShard good = make_checksummed_shard(50);
    for (const bool drop : {false, true}) {
      callstack::SiteDb sites;
      std::istringstream good_in(good.bytes, std::ios::binary);
      std::istringstream bad_in(bad, std::ios::binary);
      std::vector<std::unique_ptr<trace::TraceReader>> inputs;
      inputs.push_back(trace::open_trace_reader(good_in, sites));
      inputs.push_back(trace::open_trace_reader(bad_in, sites));
      trace::SalvageReport report;
      trace::MergeOptions options;
      options.drop_failed_inputs = drop;
      options.report = &report;
      options.labels = {"good", "bad"};
      trace::MergeTraceReader merge(std::move(inputs), std::move(options));
      std::size_t n = 0;
      trace::Event event;
      if (!drop) {
        try {
          while (merge.next(event)) ++n;
          ADD_FAILURE() << c.expect << ": no error";
        } catch (const FormatError& e) {
          const std::string what = e.what();
          EXPECT_NE(what.find(c.expect), std::string::npos) << what;
          EXPECT_NE(what.find("bad, shard 1"), std::string::npos) << what;
          EXPECT_EQ(what.find("chunk 0") != std::string::npos, binary)
              << what;
        }
        continue;
      }
      while (merge.next(event)) ++n;
      // The bad input's first sample (t = 100) merged before it died.
      EXPECT_EQ(n, good.events.size() + 1) << c.expect;
      EXPECT_EQ(report.shards_dropped, 1u);
      ASSERT_EQ(report.incidents_total, 1u);
      EXPECT_EQ(report.incidents[0].file, "bad");
    }
  }
}

TEST_F(FaultsTest, SalvageNamesTheShardPastAnUnopenableOne) {
  // Shard 0 cannot be opened and gets no merge input, so the bad shard is
  // merge input 0 but shard 1: the incident must say shard 1.
  const std::string bad = temp_path("bad_time.trace");
  {
    std::ofstream out(bad, std::ios::binary);
    out << bad_time_shard(std::nan(""), trace::TraceFormat::kText);
  }
  trace::ReplayReaderOptions salvage;
  salvage.salvage = true;
  trace::ReplayReader replay({temp_path("does_not_exist.trace"), bad},
                             salvage);
  trace::Event event;
  std::size_t n = 0;
  while (replay.reader().next(event)) ++n;
  EXPECT_EQ(n, 1u);
  const trace::SalvageReport& report = replay.salvage_report();
  ASSERT_EQ(report.incidents.size(), 2u);
  EXPECT_EQ(report.incidents[1].file, bad);
  EXPECT_EQ(report.incidents[1].shard, std::optional<std::size_t>(1));
  std::remove(bad.c_str());
}

TEST_F(FaultsTest, ReplayFrontRefusesAllDeadShards) {
  trace::ReplayReaderOptions salvage;
  salvage.salvage = true;
  // One unreadable shard of one: salvage must not degrade into an empty
  // (plausible-looking) recording.
  EXPECT_THROW(trace::ReplayReader({temp_path("does_not_exist.bin")}, salvage),
               IoError);
  EXPECT_THROW(trace::ReplayReader({}, salvage), ConfigError);
}

// ------------------------------------------------ crash-safe outputs -----

TEST_F(FaultsTest, AtomicFileCommitAndAbort) {
  const std::string path = temp_path("atomic.txt");
  std::remove(path.c_str());

  {
    AtomicFile file(path);
    file.stream() << "first";
    file.commit();
  }
  EXPECT_EQ(slurp(path), "first");

  // An abandoned write (destructor without commit) leaves the previous
  // content untouched and no temp file behind.
  {
    AtomicFile file(path);
    file.stream() << "torn half-wri";
  }
  EXPECT_EQ(slurp(path), "first");

  // An injected io_write fault at commit behaves like the crash: IoError,
  // target untouched.
  ASSERT_EQ(fault::configure("io_write:nth=1"), "");
  {
    AtomicFile file(path);
    file.stream() << "doomed";
    EXPECT_THROW(file.commit(), IoError);
  }
  fault::disarm();
  EXPECT_EQ(slurp(path), "first");

  std::string error;
  EXPECT_TRUE(write_file_atomic(path, "second", &error)) << error;
  EXPECT_EQ(slurp(path), "second");
  std::remove(path.c_str());
}

TEST_F(FaultsTest, SweepStoreResumesAcrossReopenAndTornTail) {
  const std::string path = temp_path("sweep.dat");
  std::remove(path.c_str());

  {
    engine::SweepStore store(path);
    EXPECT_EQ(store.size(), 0u);
    store.put("app1|knl", "1.5|2.5");
    store.put("key with space", "line1\nline2\tand\\slash");
    store.put("app1|knl", "3.5|4.5");  // last write wins
    EXPECT_EQ(store.size(), 2u);
  }
  {
    engine::SweepStore store(path);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.dropped_records(), 0u);
    EXPECT_EQ(store.find("app1|knl").value_or(""), "3.5|4.5");
    EXPECT_EQ(store.find("key with space").value_or(""),
              "line1\nline2\tand\\slash");
    EXPECT_FALSE(store.contains("missing"));
  }

  // Simulate the crash: a torn half-record at the tail plus a record with
  // a bad checksum. Both are dropped at load; the first put truncates the
  // file back to the valid prefix, after which a reload is clean again.
  {
    std::ofstream tail(path, std::ios::app | std::ios::binary);
    tail << "deadbeef bogus record\n";
    tail << "12ab";  // the torn write itself
  }
  {
    engine::SweepStore store(path);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_GE(store.dropped_records(), 1u);
    store.put("app2|knl", "9|9");
  }
  {
    engine::SweepStore store(path);
    EXPECT_EQ(store.size(), 3u);
    EXPECT_EQ(store.dropped_records(), 0u);
    EXPECT_EQ(store.find("app2|knl").value_or(""), "9|9");
  }

  // An injected io_write fault makes put() throw and leaves the in-memory
  // view unchanged.
  {
    engine::SweepStore store(path);
    ASSERT_EQ(fault::configure("io_write:nth=1"), "");
    EXPECT_THROW(store.put("app3|knl", "1|1"), IoError);
    fault::disarm();
    EXPECT_FALSE(store.contains("app3|knl"));
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ CLI exit codes ---------

#ifdef HMEM_TOOLS_DIR

/// Runs a tool through the shell with HMEM_FAULTS scrubbed (the suite may
/// run under a CI fault preset; the exit-code contract is about the
/// arguments, not the ambient schedule). Returns the exit status, -1 on a
/// signal. Stderr goes to `*stderr_text` when given, else to /dev/null.
int run_tool(const std::string& command_tail,
             std::string* stderr_text = nullptr) {
  const std::string stderr_path = temp_path("tool_stderr.txt");
  const std::string command =
      "HMEM_FAULTS= " + std::string(HMEM_TOOLS_DIR) + "/" + command_tail +
      " >/dev/null 2>" + (stderr_text ? stderr_path : "&1");
  const int status = std::system(command.c_str());
  if (stderr_text != nullptr) {
    *stderr_text = slurp(stderr_path);
    std::remove(stderr_path.c_str());
  }
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

bool tools_present() {
  const std::string probe = std::string(HMEM_TOOLS_DIR) + "/hmem_advise";
  std::ifstream in(probe);
  return in.good();
}

TEST_F(FaultsTest, CliExitCodes) {
  if (!tools_present()) {
    GTEST_SKIP() << "tool binaries not built in " << HMEM_TOOLS_DIR;
  }
  const std::string shard = temp_path("cli_shard.bin");
  const std::string out = temp_path("cli_out.bin");

  // 2: usage and configuration errors.
  EXPECT_EQ(run_tool("hmem_advise --bogus-flag"), 2);
  EXPECT_EQ(run_tool("hmem_advise"), 2);
  EXPECT_EQ(run_tool("hmem_profile no-such-app " + out), 2);
  EXPECT_EQ(run_tool("hmem_run hpcg --faults io_read:p=9"), 2);
  EXPECT_EQ(run_tool("hmem_run hpcg --condition warp"), 2);
  EXPECT_EQ(run_tool("hmem_workload check /nonexistent.ini"), 2);
  // Malformed numbers: a zero or non-numeric sampling period, a
  // non-numeric min-alloc, trailing garbage on a count. Each is a usage
  // error caught before the trace output is opened, so no temp file is
  // left behind either.
  for (const std::string& tail :
       {"hmem_profile snap " + out + " 0", "hmem_profile snap " + out + " abc",
        "hmem_profile snap " + out + " --period 0",
        "hmem_profile snap " + out + " 37589 xyz",
        "hmem_profile snap " + out + " --jobs 2x",
        std::string("hmem_run snap --ranks 2z")}) {
    EXPECT_EQ(run_tool(tail), 2) << tail;
  }
  // A size no uint64 holds is malformed too, not 2^63 bytes.
  EXPECT_EQ(run_tool("hmem_sweep --budgets nan"), 2);
  // A Misses(t%) threshold outside [0, 100], from a flag or a sweep INI,
  // is a usage error, not an assert in the knapsack.
  for (const char* strategy : {"misses:150", "misses:nan", "misses:1e400"}) {
    EXPECT_EQ(run_tool(std::string("hmem_sweep --strategies ") + strategy), 2)
        << strategy;
  }
  const std::string sweep_ini = temp_path("cli_sweep.ini");
  {
    std::ofstream ini(sweep_ini);
    ini << "[sweep]\nstrategies = misses:200\n";
  }
  EXPECT_EQ(run_tool("hmem_sweep --sweep-config " + sweep_ini), 2);
  // A misspelt sweep INI is an error, not a silently different grid: a
  // line that is neither a header nor key = value, a non-boolean, an
  // unknown key.
  for (const char* body : {"[sweep\nfoo\n", "[sweep]\ndynamic = maybe\n",
                           "[sweep]\nbudget = 256M\n"}) {
    {
      std::ofstream ini(sweep_ini);
      ini << body;
    }
    EXPECT_EQ(run_tool("hmem_sweep --sweep-config " + sweep_ini), 2) << body;
  }
  std::remove(sweep_ini.c_str());
  // --shards parses both halves whole: trailing text or a sign is an error.
  for (const char* shards : {"1/2x", "1/2/3", "+1/2", "3/2", "0/2", "1/"}) {
    EXPECT_EQ(run_tool(std::string("hmem_sweep --smoke --apps churn "
                                   "--shards ") +
                       shards),
              2)
        << shards;
  }
  EXPECT_EQ(run_tool("hmem_sweep --smoke --apps churn --shards 2/2"), 0);
  const std::filesystem::path out_path(out);
  const std::string tmp_prefix = out_path.filename().string() + ".tmp";
  for (const auto& entry :
       std::filesystem::directory_iterator(out_path.parent_path())) {
    EXPECT_NE(entry.path().filename().string().rfind(tmp_prefix, 0), 0u)
        << "left behind: " << entry.path();
  }
  // Machine files whose [llc] geometry no cache can be built from.
  const std::string machine = temp_path("cli_machine.ini");
  for (const char* llc : {"ways = 0", "ways = 17", "line = 48",
                          "size = 1M\nways = 12"}) {
    {
      std::ofstream ini(machine);
      ini << "[llc]\n" << llc << "\n[tier DDR]\ncapacity = 16G\n";
    }
    EXPECT_EQ(run_tool("hmem_run snap --machine " + machine), 2) << llc;
  }
  // A 12-way LLC is valid: each rank's share keeps a power-of-two set count.
  {
    std::ofstream ini(machine);
    ini << "[llc]\nsize = 24M\nways = 12\n[tier DDR]\ncapacity = 64G\n";
  }
  EXPECT_EQ(run_tool("hmem_run snap --condition ddr --machine " + machine), 0);

  // A per-phase schedule advised from lulesh names none of snap's phases:
  // running snap under it is a configuration error, not an abort.
  const std::string schedule = temp_path("cli_schedule.txt");
  const std::string placement = temp_path("cli_placement.txt");
  {
    engine::PipelineOptions popts;
    popts.per_phase = true;
    const engine::PipelineResult lulesh =
        engine::run_pipeline(apps::app_by_name("lulesh"), popts);
    ASSERT_GT(lulesh.schedule.phases.size(), 1u);
    std::ofstream out_file(schedule);
    out_file << advisor::write_schedule_report(lulesh.schedule);
    std::ofstream placement_file(placement);
    placement_file << advisor::write_placement_report(lulesh.placement);
  }
  EXPECT_EQ(run_tool("hmem_run snap --placement " + schedule), 2);
  // A second report of a kind already given would silently replace the
  // first: it is a usage error naming both files, caught before any run.
  const std::string placement2 = temp_path("cli_placement2.txt");
  const std::string schedule2 = temp_path("cli_schedule2.txt");
  std::filesystem::copy_file(placement, placement2,
                             std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(schedule, schedule2,
                             std::filesystem::copy_options::overwrite_existing);
  for (const auto& [first, second] :
       {std::pair{placement, placement2}, std::pair{schedule, schedule2}}) {
    std::string message;
    EXPECT_EQ(run_tool("hmem_run lulesh --placement " + first +
                           " --placement " + second,
                       &message),
              2)
        << first << " " << second;
    EXPECT_NE(message.find(first), std::string::npos) << message;
    EXPECT_NE(message.find(second), std::string::npos) << message;
  }
  std::remove(placement2.c_str());
  std::remove(schedule2.c_str());

  // Every condition but ddr needs a second tier; on the one-tier machine
  // above each is a configuration error naming the tier count.
  for (const char* condition : {"numactl", "autohbw", "cache"}) {
    EXPECT_EQ(run_tool(std::string("hmem_run snap --condition ") + condition +
                       " --machine " + machine),
              2)
        << condition;
  }
  EXPECT_EQ(run_tool("hmem_run lulesh --placement " + placement +
                     " --machine " + machine),
            2);
  EXPECT_EQ(run_tool("hmem_run lulesh --placement " + schedule +
                     " --machine " + machine),
            2);
  std::remove(schedule.c_str());
  std::remove(placement.c_str());
  std::remove(machine.c_str());

  // 4: a valid app whose objects fit no tier of the machine (every snap
  // object at 900G against knl's per-rank DDR share).
  const std::string huge = temp_path("cli_huge.ini");
  {
    apps::AppSpec snap = apps::app_by_name("snap");
    for (apps::ObjectSpec& object : snap.objects) object.size_bytes = 900ULL << 30;
    std::ofstream ini(huge);
    ini << apps::to_config_text(snap);
  }
  EXPECT_EQ(run_tool("hmem_run --app-config " + huge + " --condition ddr"), 4);
  EXPECT_EQ(run_tool("hmem_run --app-config " + huge + " --condition numactl"),
            4);
  std::remove(huge.c_str());

  // 0: an app whose every phase rounds to zero accesses still profiles on
  // every kernel, native included, to the same trace bytes.
  const std::string tiny = temp_path("cli_tiny.ini");
  {
    apps::AppSpec app;
    app.name = "tiny";
    app.fom_unit = "it/s";
    app.accesses_per_iteration = 1;
    app.objects = {apps::ObjectSpec{.name = "buf", .size_bytes = 1ULL << 20}};
    for (const auto& [name, share] :
         {std::pair{"a", 0.34}, std::pair{"b", 0.33}, std::pair{"c", 0.33}}) {
      apps::PhaseSpec phase;
      phase.name = name;
      phase.access_share = share;
      phase.object_weights = {1.0};
      app.phases.push_back(phase);
    }
    ASSERT_EQ(apps::validate(app), "");
    std::ofstream ini(tiny);
    ini << apps::to_config_text(app);
  }
  std::string traces[2];
  for (int k = 0; k < 2; ++k) {
    const char* kernel = k == 0 ? "native" : "bytecode";
    EXPECT_EQ(run_tool("hmem_profile " + tiny + " " + out + " --kernel " +
                       kernel),
              0)
        << kernel;
    traces[k] = slurp(out);
  }
  EXPECT_FALSE(traces[1].empty());
  EXPECT_TRUE(traces[0] == traces[1]);
  std::remove(tiny.c_str());

  // 3: data and I/O errors, in both strict and (all-dead) salvage mode.
  EXPECT_EQ(run_tool("hmem_advise /nonexistent.trace 64M"), 3);
  EXPECT_EQ(run_tool("hmem_advise /nonexistent.trace 64M --strict"), 3);
  {
    std::ofstream garbage(shard, std::ios::binary);
    garbage << "HMT2";
    garbage << static_cast<char>(2);
    garbage << "garbage body that is not a chunk stream";
  }
  EXPECT_EQ(run_tool("hmem_advise " + shard + " 64M --strict"), 3);
  // A NaN, negative or backwards timestamp: exit 3 under --strict; the
  // default salvage mode drops the shard with a warning and runs on.
  for (const auto& [second_ns, format] :
       {std::pair{std::nan(""), trace::TraceFormat::kText},
        std::pair{-5.0, trace::TraceFormat::kText},
        std::pair{40.0, trace::TraceFormat::kBinary}}) {
    {
      std::ofstream bad(shard, std::ios::binary);
      bad << bad_time_shard(second_ns, format);
    }
    const std::string what = std::to_string(second_ns);
    EXPECT_EQ(run_tool("hmem_advise " + shard + " 64M --strict"), 3) << what;
    EXPECT_EQ(run_tool("hmem_advise " + shard + " 64M"), 0) << what;
    EXPECT_EQ(run_tool("hmem_run --replay " + shard + " --strict"), 3)
        << what;
    EXPECT_EQ(run_tool("hmem_run --replay " + shard), 0) << what;
  }

  // 0: a real profile -> advise round trip, with checksums on.
  const std::string config = temp_path("cli_app.ini");
  {
    std::ofstream ini(config);
    ini << apps::to_config_text(tiny_app());
  }
  EXPECT_EQ(run_tool("hmem_profile " + shard + " --app-config " + config +
                     " --checksums --period 50"),
            0);
  EXPECT_EQ(run_tool("hmem_advise " + shard + " 64M"), 0);
  // Advisor options the knapsack cannot take: a threshold outside
  // [0, 100], and an exact solve over a tier past its 2^22-page table
  // (hbm-ddr-pmem's 128 GiB DDR middle tier, or a 32 GiB virtual budget).
  for (const char* options :
       {" 256M --threshold 150", " 256M --threshold -1",
        " 256M --strategy exact --machine hbm-ddr-pmem",
        " 256M --strategy exact --virtual 32G"}) {
    EXPECT_EQ(run_tool("hmem_advise " + shard + options), 2) << options;
  }
  EXPECT_EQ(run_tool("hmem_advise " + shard + " 256M --strategy exact "
                     "--machine knl"),
            0);
  EXPECT_EQ(run_tool("hmem_advise " + shard + " 1e30G"), 2);
  std::remove(shard.c_str());
  std::remove(config.c_str());
  std::remove(out.c_str());
}

#endif  // HMEM_TOOLS_DIR

// ------------------------------------------------ env preset pipeline ----

TEST_F(FaultsTest, FaultPresetPipelineSurvives) {
  // The CI fault-matrix presets keep read, alloc and compile faults armed
  // through a whole profile -> salvage-read -> aggregate-shaped pass; the
  // pipeline must degrade (fewer events, slower tiers, lower kernels), not
  // die. Writes are excluded: an injected write fault is *supposed* to
  // abort a writer, which is its own test above.
  const ChecksummedShard shard = make_checksummed_shard(2 * 4096);
  ASSERT_EQ(fault::configure("io_read:p=0.05,seed=1;alloc:p=0.2,seed=9;"
                             "kernel_compile:p=0.5,seed=3"),
            "");

  std::istringstream in(shard.bytes, std::ios::binary);
  callstack::SiteDb sites;
  trace::ReaderOptions options;
  options.source = "preset.bin";
  trace::RecoveringTraceReader reader(in, sites, options);
  trace::Event event;
  std::size_t n = 0;
  std::size_t checked = 0;
  while (reader.next(event)) {
    // Whatever survives is an in-order subsequence of the original; spot
    // checking the prefix (io_read faults abandon the tail, they never
    // reorder) keeps this cheap.
    if (checked < 64) {
      ASSERT_TRUE(event == shard.events[n]);
      ++checked;
    }
    ++n;
  }
  EXPECT_LE(n, shard.events.size());
  EXPECT_GT(fault::counters(fault::Site::kIoRead).hits, 0u);

  const engine::RunResult run =
      engine::run_app(tiny_app(), engine::RunOptions{});
  EXPECT_GT(run.time_s, 0.0);
  EXPECT_GT(run.fom, 0.0);
}

}  // namespace
}  // namespace hmem
