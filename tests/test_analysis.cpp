// Tests for the Paramedir-substitute aggregator and the Folding analysis,
// including the streaming-visitor paths' equivalence with the buffered ones.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/aggregator.hpp"
#include "analysis/folding.hpp"
#include "apps/workloads.hpp"
#include "engine/execution.hpp"
#include "trace/merge.hpp"

namespace hmem::analysis {
namespace {

using trace::AllocEvent;
using trace::CounterEvent;
using trace::FreeEvent;
using trace::PhaseEvent;
using trace::SampleEvent;

callstack::SymbolicCallStack stack_of(const std::string& fn) {
  callstack::SymbolicCallStack s;
  s.frames.push_back(callstack::CodeLocation{"app.x", fn, 1});
  return s;
}

TEST(Aggregator, AttributesSamplesToLiveObjects) {
  callstack::SiteDb sites;
  const auto a = sites.intern("A", stack_of("alloc_A"));
  const auto b = sites.intern("B", stack_of("alloc_B"));
  trace::TraceBuffer buf;
  buf.add(AllocEvent{0, a, 0x1000, 0x1000});
  buf.add(AllocEvent{1, b, 0x8000, 0x1000});
  buf.add(SampleEvent{2, 0x1100, false, 100});
  buf.add(SampleEvent{3, 0x8000, false, 100});
  buf.add(SampleEvent{4, 0x1fff, false, 100});

  const auto result = aggregate_trace(buf, sites);
  ASSERT_EQ(result.objects.size(), 2u);
  // Sorted descending by misses: A (200) then B (100).
  EXPECT_EQ(result.objects[0].name, "A");
  EXPECT_EQ(result.objects[0].llc_misses, 200u);
  EXPECT_EQ(result.objects[1].llc_misses, 100u);
  EXPECT_EQ(result.unattributed_samples, 0u);
  EXPECT_EQ(result.total_weighted_misses, 300u);
}

TEST(Aggregator, UnattributedSamplesCounted) {
  callstack::SiteDb sites;
  sites.intern("A", stack_of("alloc_A"));
  trace::TraceBuffer buf;
  buf.add(AllocEvent{0, 0, 0x1000, 0x100});
  buf.add(SampleEvent{1, 0xdead0000, false, 50});  // stack/static reference
  const auto result = aggregate_trace(buf, sites);
  EXPECT_EQ(result.unattributed_samples, 1u);
  EXPECT_EQ(result.unattributed_misses, 50u);
  EXPECT_GT(result.unattributed_fraction(), 0.99);
}

TEST(Aggregator, FreedObjectsStopAccumulating) {
  callstack::SiteDb sites;
  const auto a = sites.intern("A", stack_of("alloc_A"));
  trace::TraceBuffer buf;
  buf.add(AllocEvent{0, a, 0x1000, 0x100});
  buf.add(SampleEvent{1, 0x1000, false, 10});
  buf.add(FreeEvent{2, 0x1000});
  buf.add(SampleEvent{3, 0x1000, false, 10});  // dangling: unattributed
  const auto result = aggregate_trace(buf, sites);
  EXPECT_EQ(result.objects[0].llc_misses, 10u);
  EXPECT_EQ(result.unattributed_samples, 1u);
}

TEST(Aggregator, LoopingSiteReportsMaxSize) {
  // "we report the maximum requested size observed for each repeated
  // allocation site"
  callstack::SiteDb sites;
  const auto a = sites.intern("A", stack_of("alloc_A"));
  trace::TraceBuffer buf;
  buf.add(AllocEvent{0, a, 0x1000, 4096});
  buf.add(FreeEvent{1, 0x1000});
  buf.add(AllocEvent{2, a, 0x2000, 16384});
  buf.add(FreeEvent{3, 0x2000});
  buf.add(AllocEvent{4, a, 0x3000, 8192});
  const auto result = aggregate_trace(buf, sites);
  ASSERT_EQ(result.objects.size(), 1u);
  EXPECT_EQ(result.objects[0].max_size_bytes, 16384u);
}

TEST(Aggregator, PropagatesStaticFlag) {
  callstack::SiteDb sites;
  const auto s = sites.intern("st", stack_of("static_st"), false);
  trace::TraceBuffer buf;
  buf.add(AllocEvent{0, s, 0x1000, 4096});
  const auto result = aggregate_trace(buf, sites);
  EXPECT_FALSE(result.objects[0].is_dynamic);
}

TEST(AggregatorDeathTest, OutOfOrderTraceAsserts) {
  callstack::SiteDb sites;
  sites.intern("A", stack_of("alloc_A"));
  trace::TraceBuffer buf;
  buf.add(AllocEvent{5, 0, 0x1000, 64});
  buf.add(AllocEvent{1, 0, 0x2000, 64});
  EXPECT_DEATH(aggregate_trace(buf, sites), "time order");
}

TEST(ObjectsCsv, RoundTrip) {
  std::vector<advisor::ObjectInfo> objects(2);
  objects[0].name = "A";
  objects[0].site = 0;
  objects[0].max_size_bytes = 4096;
  objects[0].llc_misses = 1000;
  objects[1].name = "B, with comma";
  objects[1].site = 1;
  objects[1].is_dynamic = false;
  objects[1].max_size_bytes = 100;
  objects[1].llc_misses = 5;
  const auto csv = objects_to_csv(objects);
  const auto parsed = objects_from_csv(csv);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "A");
  EXPECT_EQ(parsed[0].llc_misses, 1000u);
  EXPECT_EQ(parsed[1].name, "B, with comma");
  EXPECT_FALSE(parsed[1].is_dynamic);
}

TEST(ObjectsCsv, MalformedRowsAreSkippedNotThrown) {
  // A corrupt/truncated file must never escape as an exception: bad rows
  // are dropped with a warning, intact rows still parse.
  const std::string csv =
      "name,site,dynamic,max_size_bytes,llc_misses,misses_per_kib\n"
      "good,3,1,4096,1000,244.141\n"
      "bad_site,junk,1,4096,1000,1.0\n"
      "bad_size,4,1,notanumber,1000,1.0\n"
      "bad_misses,5,1,4096,12tail,1.0\n"
      "negative,6,1,-4096,1000,1.0\n"
      "spacey_negative,6,1, -4096,1000,1.0\n"
      "plus_sign,6,1,+4096,1000,1.0\n"
      "overflow,7,1,99999999999999999999999999,1,1.0\n"
      "short,8\n"
      "also_good,9,0,100,5,51.2\n"
      "trunca";  // mid-row EOF
  std::vector<advisor::ObjectInfo> parsed;
  ASSERT_NO_THROW(parsed = objects_from_csv(csv));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].name, "good");
  EXPECT_EQ(parsed[0].site, 3u);
  EXPECT_EQ(parsed[0].max_size_bytes, 4096u);
  EXPECT_EQ(parsed[1].name, "also_good");
  EXPECT_FALSE(parsed[1].is_dynamic);
}

TEST(ObjectsCsv, MissingHeaderIsTolerated) {
  // Without the expected header row every line is tried as data; the
  // file's actual rows survive.
  const auto parsed = objects_from_csv("solo,2,1,64,7,112.0\n");
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].name, "solo");
  EXPECT_EQ(parsed[0].llc_misses, 7u);
}

TEST(ObjectsCsv, EmptyAndHeaderOnlyInputs) {
  EXPECT_TRUE(objects_from_csv("").empty());
  EXPECT_TRUE(objects_from_csv(
                  "name,site,dynamic,max_size_bytes,llc_misses,"
                  "misses_per_kib\n")
                  .empty());
}

// ------------------------------------------------------------- folding ----

trace::TraceBuffer folding_trace() {
  trace::TraceBuffer buf;
  // Two alternating routines over [0, 1000) ns with samples and counters.
  buf.add(PhaseEvent{0, "octsweep", true});
  buf.add(SampleEvent{100, 0x1000, false, 1});
  buf.add(SampleEvent{400, 0x2000, false, 1});
  buf.add(CounterEvent{0, "instructions", 0});
  buf.add(PhaseEvent{500, "octsweep", false});
  buf.add(PhaseEvent{500, "outer_src_calc", true});
  buf.add(CounterEvent{500, "instructions", 1000});
  buf.add(SampleEvent{700, 0xf000, false, 1});
  buf.add(CounterEvent{1000, "instructions", 1100});
  buf.add(PhaseEvent{1000, "outer_src_calc", false});
  return buf;
}

TEST(Folding, DominantPhasePerBin) {
  const auto result = fold(folding_trace(), 0, 1000, 4);
  ASSERT_EQ(result.bins.size(), 4u);
  EXPECT_EQ(result.bins[0].dominant_phase, "octsweep");
  EXPECT_EQ(result.bins[1].dominant_phase, "octsweep");
  EXPECT_EQ(result.bins[2].dominant_phase, "outer_src_calc");
  EXPECT_EQ(result.bins[3].dominant_phase, "outer_src_calc");
}

TEST(Folding, SamplesLandInBins) {
  const auto result = fold(folding_trace(), 0, 1000, 4);
  EXPECT_EQ(result.bins[0].sample_count, 1u);
  EXPECT_EQ(result.bins[1].sample_count, 1u);
  EXPECT_EQ(result.bins[2].sample_count, 1u);
  EXPECT_EQ(result.bins[0].min_addr, 0x1000u);
  EXPECT_EQ(result.bins[2].min_addr, 0xf000u);
}

TEST(Folding, MipsReflectsCounterDeltas) {
  const auto result = fold(folding_trace(), 0, 1000, 2);
  // First half: 1000 instructions in 500 ns -> 2e9 IPS = 2000 MIPS.
  EXPECT_NEAR(result.bins[0].mips, 2000.0, 1.0);
  // Second half: 100 instructions in 500 ns -> 200 MIPS (the dip).
  EXPECT_NEAR(result.bins[1].mips, 200.0, 1.0);
  EXPECT_GT(result.bins[0].mips, result.bins[1].mips * 5);
}

TEST(Folding, CsvHasHeaderAndRows) {
  const auto result = fold(folding_trace(), 0, 1000, 4);
  const auto csv = folding_to_csv(result);
  EXPECT_NE(csv.find("bin,t_mid_ms,phase"), std::string::npos);
  EXPECT_NE(csv.find("octsweep"), std::string::npos);
  EXPECT_NE(csv.find("outer_src_calc"), std::string::npos);
}

// ------------------------------------- streaming / buffered equivalence ----

void expect_identical_reports(const AggregateResult& a,
                              const AggregateResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.total_samples, b.total_samples) << label;
  EXPECT_EQ(a.total_weighted_misses, b.total_weighted_misses) << label;
  EXPECT_EQ(a.unattributed_samples, b.unattributed_samples) << label;
  EXPECT_EQ(a.unattributed_misses, b.unattributed_misses) << label;
  ASSERT_EQ(a.objects.size(), b.objects.size()) << label;
  for (std::size_t i = 0; i < a.objects.size(); ++i) {
    EXPECT_EQ(a.objects[i].site, b.objects[i].site) << label;
    EXPECT_EQ(a.objects[i].name, b.objects[i].name) << label;
    EXPECT_EQ(a.objects[i].stack, b.objects[i].stack) << label;
    EXPECT_EQ(a.objects[i].max_size_bytes, b.objects[i].max_size_bytes)
        << label;
    EXPECT_EQ(a.objects[i].llc_misses, b.objects[i].llc_misses) << label;
    EXPECT_EQ(a.objects[i].is_dynamic, b.objects[i].is_dynamic) << label;
  }
}

void expect_identical_foldings(const FoldingResult& a, const FoldingResult& b,
                               const std::string& label) {
  ASSERT_EQ(a.bins.size(), b.bins.size()) << label;
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].dominant_phase, b.bins[i].dominant_phase) << label;
    EXPECT_EQ(a.bins[i].sample_count, b.bins[i].sample_count) << label;
    EXPECT_EQ(a.bins[i].min_addr, b.bins[i].min_addr) << label;
    EXPECT_EQ(a.bins[i].max_addr, b.bins[i].max_addr) << label;
    // Bit-identical: the streaming path performs the same float ops in the
    // same order as the buffered one.
    EXPECT_EQ(a.bins[i].instructions, b.bins[i].instructions) << label;
    EXPECT_EQ(a.bins[i].mips, b.bins[i].mips) << label;
  }
}

/// The nine built-in workloads: the paper's eight applications plus the
/// Stream Triad kernel.
std::vector<apps::AppSpec> nine_workloads() {
  auto workloads = apps::all_apps();
  workloads.push_back(apps::make_stream_triad(16));
  return workloads;
}

TEST(StreamingEquivalence, AggregateAndFoldMatchBufferedOnAllWorkloads) {
  for (const auto& app : nine_workloads()) {
    engine::RunOptions opts;
    opts.profile = true;
    const auto run = engine::run_app(app, opts);
    ASSERT_NE(run.trace, nullptr) << app.name;
    const auto& buf = *run.trace;
    const auto& sites = *run.sites;

    // Aggregation: buffered adapter vs pull-stream over the same events.
    const auto buffered = aggregate_trace(buf, sites);
    trace::BufferTraceReader stream_reader(buf);
    const auto streamed = aggregate_stream(stream_reader, sites);
    expect_identical_reports(buffered, streamed, app.name + " (stream)");

    // And through a serialized binary round trip (fresh SiteDb, remapped
    // ids — names and statistics must still match exactly).
    std::ostringstream os;
    const auto writer =
        trace::make_trace_writer(os, sites, trace::TraceFormat::kBinary);
    for (const auto& event : buf.events()) writer->on_event(event);
    writer->finish();
    callstack::SiteDb sites2;
    std::istringstream is(os.str());
    const auto reader = trace::open_trace_reader(is, sites2);
    const auto serialized = aggregate_stream(*reader, sites2);
    expect_identical_reports(buffered, serialized, app.name + " (binary)");

    // Folding: buffered adapter vs the streaming visitor.
    const double t_end = run.time_s * 1e9;
    const auto folded = fold(buf, 0, t_end, 16);
    trace::BufferTraceReader fold_reader(buf);
    const auto folded_stream = fold_stream(fold_reader, 0, t_end, 16);
    expect_identical_foldings(folded, folded_stream, app.name);
  }
}

TEST(StreamingEquivalence, MergedSingleShardMatchesDirectAggregation) {
  // A 1-way merge must be a no-op wrapper.
  const auto app = apps::app_by_name("snap");
  engine::RunOptions opts;
  opts.profile = true;
  const auto run = engine::run_app(app, opts);
  const auto direct = aggregate_trace(*run.trace, *run.sites);

  std::vector<std::unique_ptr<trace::TraceReader>> inputs;
  inputs.push_back(std::make_unique<trace::BufferTraceReader>(*run.trace));
  trace::MergeTraceReader merged(std::move(inputs));
  const auto via_merge = aggregate_stream(merged, *run.sites);
  expect_identical_reports(direct, via_merge, "snap via 1-way merge");
}

}  // namespace
}  // namespace hmem::analysis
