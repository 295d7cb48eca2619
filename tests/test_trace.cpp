// Tests for trace events, the sink/visitor interfaces, both trace formats
// (text v1 with field quoting, binary v2), the format-sniffing front and
// the k-way merge reader.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "common/prng.hpp"
#include "trace/event.hpp"
#include "trace/format.hpp"
#include "trace/merge.hpp"
#include "trace/tracefile.hpp"
#include "trace/visitor.hpp"

namespace hmem::trace {
namespace {

callstack::SymbolicCallStack stack_of(const std::string& fn) {
  callstack::SymbolicCallStack s;
  s.frames.push_back(callstack::CodeLocation{"app.x", fn, 1});
  return s;
}

/// Serializes a buffer in the given format and reads it back.
void round_trip(const callstack::SiteDb& sites, const TraceBuffer& buf,
                TraceFormat format, callstack::SiteDb& sites_out,
                TraceBuffer& buf_out) {
  std::ostringstream os;
  const auto writer = make_trace_writer(os, sites, format);
  for (const auto& event : buf.events()) writer->on_event(event);
  writer->finish();
  std::istringstream is(os.str());
  const auto reader = open_trace_reader(is, sites_out);
  pump(*reader, buf_out);
}

TEST(TraceBuffer, AccumulatesEvents) {
  TraceBuffer buf;
  EXPECT_TRUE(buf.empty());
  buf.add(AllocEvent{1.0, 0, 0x1000, 64});
  buf.add(FreeEvent{2.0, 0x1000});
  EXPECT_EQ(buf.size(), 2u);
  buf.clear();
  EXPECT_TRUE(buf.empty());
}

TEST(EventTime, VisitsAllVariants) {
  EXPECT_DOUBLE_EQ(event_time_ns(Event{AllocEvent{1.5, 0, 0, 1}}), 1.5);
  EXPECT_DOUBLE_EQ(event_time_ns(Event{FreeEvent{2.5, 0}}), 2.5);
  EXPECT_DOUBLE_EQ(event_time_ns(Event{SampleEvent{3.5, 0, false, 1}}), 3.5);
  EXPECT_DOUBLE_EQ(event_time_ns(Event{PhaseEvent{4.5, "p", true}}), 4.5);
  EXPECT_DOUBLE_EQ(event_time_ns(Event{CounterEvent{5.5, "c", 9}}), 5.5);
}

TEST(TraceFile, RoundTripAllEventKinds) {
  callstack::SiteDb sites;
  const auto site = sites.intern("A", stack_of("alloc_A"));
  TraceBuffer buf;
  buf.add(AllocEvent{10.0, site, 0x100001000, 4096});
  buf.add(PhaseEvent{11.0, "solve", true});
  buf.add(SampleEvent{12.5, 0x100001040, true, 37589});
  buf.add(CounterEvent{13.0, "instructions", 1e6});
  buf.add(PhaseEvent{14.0, "solve", false});
  buf.add(FreeEvent{15.0, 0x100001000});

  std::ostringstream os;
  EXPECT_EQ(write_trace(os, sites, buf), 6u);

  callstack::SiteDb sites2;
  TraceBuffer buf2;
  std::istringstream is(os.str());
  read_trace(is, sites2, buf2);
  ASSERT_EQ(buf2.size(), 6u);
  EXPECT_EQ(sites2.size(), 1u);

  const auto* alloc = std::get_if<AllocEvent>(&buf2.events()[0]);
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(alloc->addr, 0x100001000u);
  EXPECT_EQ(alloc->size, 4096u);
  EXPECT_EQ(sites2.get(alloc->site).object_name, "A");

  const auto* sample = std::get_if<SampleEvent>(&buf2.events()[2]);
  ASSERT_NE(sample, nullptr);
  EXPECT_TRUE(sample->is_write);
  EXPECT_EQ(sample->weight, 37589u);

  const auto* counter = std::get_if<CounterEvent>(&buf2.events()[3]);
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->value, 1e6);
}

TEST(TraceFile, SiteIdsRemappedOnMerge) {
  // Reader must remap site ids into a SiteDb that already has entries.
  callstack::SiteDb sites_a;
  const auto site_a = sites_a.intern("A", stack_of("alloc_A"));
  TraceBuffer buf_a;
  buf_a.add(AllocEvent{1.0, site_a, 0x1000, 64});
  std::ostringstream os;
  write_trace(os, sites_a, buf_a);

  callstack::SiteDb merged;
  merged.intern("Zero", stack_of("alloc_zero"));  // occupies id 0
  TraceBuffer buf_b;
  std::istringstream is(os.str());
  read_trace(is, merged, buf_b);
  const auto* alloc = std::get_if<AllocEvent>(&buf_b.events()[0]);
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(merged.get(alloc->site).object_name, "A");
  EXPECT_EQ(alloc->site, 1u);  // remapped past the existing entry
}

TEST(TraceFile, MalformedLinesThrow) {
  callstack::SiteDb sites;
  TraceBuffer buf;
  for (const char* bad : {
           "X|1.0|what",                 // unknown kind
           "A|1.0|0|1000",               // too few fields
           "A|abc|0|1000|64",            // bad time
           "M|1.0|zzz|0|1",              // bad address... (hex ok, zzz not)
           "P|1.0|Q|phase",              // bad begin/end flag
           "A|1.0|7|1000|64",            // site never defined
       }) {
    std::istringstream is(bad);
    callstack::SiteDb s2;
    TraceBuffer b2;
    EXPECT_THROW(read_trace(is, s2, b2), std::runtime_error) << bad;
  }
}

TEST(TraceFile, IgnoresCommentsAndBlankLines) {
  callstack::SiteDb sites;
  TraceBuffer buf;
  std::istringstream is("# comment\n\nF|1.0|1000\n");
  read_trace(is, sites, buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(EventSink, TraceBufferIsASink) {
  TraceBuffer buf;
  EventSink& sink = buf;
  sink.on_event(Event{AllocEvent{1.0, 0, 0x1000, 64}});
  sink.on_event(Event{FreeEvent{2.0, 0x1000}});
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<FreeEvent>(buf.events()[1]));
}

TEST(EventVisitor, DispatchesByKind) {
  struct Counting : EventVisitor {
    int allocs = 0, frees = 0, samples = 0, phases = 0, counters = 0;
    void on_alloc(const AllocEvent&) override { ++allocs; }
    void on_free(const FreeEvent&) override { ++frees; }
    void on_sample(const SampleEvent&) override { ++samples; }
    void on_phase(const PhaseEvent&) override { ++phases; }
    void on_counter(const CounterEvent&) override { ++counters; }
  } counting;
  TraceBuffer buf;
  buf.add(AllocEvent{1, 0, 0x1000, 64});
  buf.add(PhaseEvent{2, "p", true});
  buf.add(SampleEvent{3, 0x1000, false, 1});
  buf.add(CounterEvent{4, "c", 1});
  buf.add(PhaseEvent{5, "p", false});
  buf.add(FreeEvent{6, 0x1000});
  visit_buffer(buf, counting);
  EXPECT_EQ(counting.allocs, 1);
  EXPECT_EQ(counting.frees, 1);
  EXPECT_EQ(counting.samples, 1);
  EXPECT_EQ(counting.phases, 2);
  EXPECT_EQ(counting.counters, 1);

  // VisitorSink: the same dispatch behind the push interface.
  VisitorSink sink(counting);
  sink.on_event(Event{SampleEvent{7, 0x2000, true, 5}});
  EXPECT_EQ(counting.samples, 2);
}

TEST(FieldQuoting, PlainNamesPassVerbatim) {
  EXPECT_EQ(escape_field("solve_phase.1"), "solve_phase.1");
  EXPECT_EQ(unescape_field("solve_phase.1"), "solve_phase.1");
}

TEST(FieldQuoting, HostileNamesRoundTrip) {
  for (const std::string name :
       {"with space", "pipe|inside", "quote\"inside", "back\\slash",
        "new\nline", "tab\tand\rcr", "", " leading", "trailing ",
        "\"quoted\""}) {
    const std::string escaped = escape_field(name);
    // The escaped form must be safe for the line-oriented format.
    EXPECT_EQ(escaped.find('|'), std::string::npos) << name;
    EXPECT_EQ(escaped.find('\n'), std::string::npos) << name;
    EXPECT_EQ(unescape_field(escaped), name) << name;
  }
}

TEST(FieldQuoting, RejectsMalformedQuoting) {
  for (const std::string bad : {"\"unterminated", "\"", "\"bad\\q\"",
                                "\"trailing\\\"", "\"inner\"quote\""}) {
    EXPECT_THROW(unescape_field(bad), std::runtime_error) << bad;
  }
}

TEST(TraceFile, HostileNamesSurviveTextRoundTrip) {
  callstack::SiteDb sites;
  const auto site = sites.intern("matrix A|piv\not", stack_of("alloc \"A\""));
  TraceBuffer buf;
  buf.add(AllocEvent{1.0, site, 0x1000, 4096});
  buf.add(PhaseEvent{2.0, "solve|forward pass", true});
  buf.add(CounterEvent{3.0, "instructions\nretired", 42.5});
  buf.add(PhaseEvent{4.0, "solve|forward pass", false});

  std::ostringstream os;
  write_trace(os, sites, buf);
  callstack::SiteDb sites2;
  TraceBuffer buf2;
  std::istringstream is(os.str());
  read_trace(is, sites2, buf2);

  ASSERT_EQ(buf2.size(), buf.size());
  EXPECT_EQ(sites2.get(0).object_name, "matrix A|piv\not");
  EXPECT_EQ(sites2.get(0).stack.frames[0].function, "alloc \"A\"");
  const auto* phase = std::get_if<PhaseEvent>(&buf2.events()[1]);
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->name, "solve|forward pass");
  const auto* counter = std::get_if<CounterEvent>(&buf2.events()[2]);
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->name, "instructions\nretired");
  EXPECT_DOUBLE_EQ(counter->value, 42.5);
}

TEST(TraceFile, UnterminatedQuoteInTraceThrows) {
  callstack::SiteDb sites;
  TraceBuffer buf;
  std::istringstream is("P|1.0|B|\"unterminated phase\n");
  EXPECT_THROW(read_trace(is, sites, buf), std::runtime_error);
}

TEST(BinaryFormat, RoundTripAllEventKinds) {
  callstack::SiteDb sites;
  const auto site = sites.intern("A", stack_of("alloc_A"));
  TraceBuffer buf;
  buf.add(AllocEvent{10.0, site, 0x100001000, 4096});
  buf.add(PhaseEvent{11.0, "solve", true});
  buf.add(SampleEvent{12.5, 0x100001040, true, 37589});
  buf.add(CounterEvent{13.0, "instructions", 0.1});  // not text-exact
  buf.add(PhaseEvent{14.0, "solve", false});
  buf.add(FreeEvent{15.0, 0x100001000});

  callstack::SiteDb sites2;
  TraceBuffer buf2;
  round_trip(sites, buf, TraceFormat::kBinary, sites2, buf2);
  ASSERT_EQ(buf2.size(), buf.size());
  EXPECT_EQ(sites2.size(), 1u);
  EXPECT_EQ(sites2.get(0).object_name, "A");
  for (std::size_t i = 0; i < buf.size(); ++i)
    EXPECT_EQ(buf2.events()[i], buf.events()[i]) << "event " << i;
}

TEST(BinaryFormat, SiteIdsRemappedOnMerge) {
  callstack::SiteDb sites_a;
  const auto site_a = sites_a.intern("A", stack_of("alloc_A"));
  TraceBuffer buf_a;
  buf_a.add(AllocEvent{1.0, site_a, 0x1000, 64});

  callstack::SiteDb merged;
  merged.intern("Zero", stack_of("alloc_zero"));  // occupies id 0
  TraceBuffer buf_b;
  round_trip(sites_a, buf_a, TraceFormat::kBinary, merged, buf_b);
  const auto* alloc = std::get_if<AllocEvent>(&buf_b.events()[0]);
  ASSERT_NE(alloc, nullptr);
  EXPECT_EQ(merged.get(alloc->site).object_name, "A");
  EXPECT_EQ(alloc->site, 1u);  // remapped past the existing entry
}

TEST(BinaryFormat, SpansMultipleChunksWithLateSites) {
  // More events than one chunk holds, with a second site interned (and a
  // new phase name introduced) mid-stream: exercises chunk flushing and
  // incremental string/site tables.
  callstack::SiteDb sites;
  const auto a = sites.intern("A", stack_of("alloc_A"));
  std::ostringstream os;
  const auto writer = make_trace_writer(os, sites, TraceFormat::kBinary);
  double t = 0;
  for (int i = 0; i < 6000; ++i)
    writer->on_event(SampleEvent{t += 0.5, 0x1000u + i * 64u, false, 1});
  writer->on_event(AllocEvent{t += 1, a, 0x10000000, 4096});
  const auto b = sites.intern("B", stack_of("alloc_B"));
  writer->on_event(AllocEvent{t += 1, b, 0x20000000, 8192});
  writer->on_event(PhaseEvent{t += 1, "late phase", true});
  writer->finish();
  EXPECT_EQ(writer->events_written(), 6003u);

  callstack::SiteDb sites2;
  TraceBuffer buf;
  std::istringstream is(os.str());
  pump(*open_trace_reader(is, sites2), buf);
  ASSERT_EQ(buf.size(), 6003u);
  EXPECT_EQ(sites2.size(), 2u);
  const auto* late = std::get_if<PhaseEvent>(&buf.events().back());
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->name, "late phase");
}

TEST(BinaryFormat, RejectsCorruptStreams) {
  callstack::SiteDb sites;
  const std::vector<std::string> corrupt_streams = {
      std::string("HMT9\x02", 5),             // wrong magic
      std::string("HMT2\x07", 5),             // wrong version
      std::string("HMT2\x02X", 6),            // unknown chunk tag
      std::string("HMT2\x02T\x01\x05zz", 9),  // truncated string table
      // Corruption-controlled sizes must be rejected before allocating
      // (std::runtime_error, not bad_alloc): huge event count, huge chunk
      // payload, huge string length.
      std::string("HMT2\x02E\xff\xff\xff\xff\x7f", 11),
      std::string("HMT2\x02E\x01\xff\xff\xff\xff\x7f", 12),
      std::string("HMT2\x02T\x01\xff\xff\xff\xff\x7f", 11),
  };
  for (const std::string& bad : corrupt_streams) {
    std::istringstream is(bad);
    TraceBuffer buf;
    EXPECT_THROW(
        {
          const auto reader = detail::open_binary_reader(is, sites);
          pump(*reader, buf);
        },
        std::runtime_error);
  }
}

TEST(FormatFront, SniffsTextAndBinary) {
  callstack::SiteDb sites;
  TraceBuffer buf;
  buf.add(FreeEvent{1.0, 0x1000});
  for (const auto format : {TraceFormat::kText, TraceFormat::kBinary}) {
    std::ostringstream os;
    const auto writer = make_trace_writer(os, sites, format);
    writer->on_event(buf.events()[0]);
    writer->finish();
    std::istringstream is(os.str());
    EXPECT_EQ(sniff_trace_format(is), format);
    callstack::SiteDb s2;
    TraceBuffer b2;
    pump(*open_trace_reader(is, s2), b2);
    ASSERT_EQ(b2.size(), 1u);
    EXPECT_EQ(b2.events()[0], buf.events()[0]);
  }
}

TEST(PropertyTest, RandomStreamsRoundTripTextAndBinaryIdentically) {
  // Random event streams, each pushed through text -> binary -> text; all
  // three decoded sequences must be identical, event for event. Times are
  // drawn on the 1 ps grid both formats quantize to; counter values are
  // arbitrary doubles (text uses %.17g, binary raw bits — both lossless).
  Xoshiro256 rng(20260728);
  for (int round = 0; round < 25; ++round) {
    callstack::SiteDb sites;
    std::vector<callstack::SiteId> ids;
    const int n_sites = 1 + static_cast<int>(rng.below(4));
    for (int s = 0; s < n_sites; ++s)
      ids.push_back(sites.intern("obj" + std::to_string(s),
                                 stack_of("fn" + std::to_string(s)),
                                 rng.below(2) == 0));
    TraceBuffer buf;
    std::uint64_t ticks = 0;  // picoseconds — the grid both formats encode
    const int n_events = 50 + static_cast<int>(rng.below(200));
    for (int i = 0; i < n_events; ++i) {
      ticks += rng.below(2'000'000'000);
      const double t = static_cast<double>(ticks) / 1000.0;
      switch (rng.below(5)) {
        case 0:
          buf.add(AllocEvent{t, ids[rng.below(ids.size())],
                             rng.below(1ULL << 48), 1 + rng.below(1u << 20)});
          break;
        case 1:
          buf.add(FreeEvent{t, rng.below(1ULL << 48)});
          break;
        case 2:
          buf.add(SampleEvent{t, rng.below(1ULL << 48), rng.below(2) == 1,
                              1 + rng.below(100000)});
          break;
        case 3:
          buf.add(PhaseEvent{t, "phase " + std::to_string(rng.below(3)),
                             rng.below(2) == 0});
          break;
        default:
          buf.add(CounterEvent{t, "ctr|" + std::to_string(rng.below(2)),
                               rng.uniform() * 1e12});
      }
    }

    callstack::SiteDb s1, s2, s3;
    TraceBuffer t1, b1, t2;
    round_trip(sites, buf, TraceFormat::kText, s1, t1);     // text
    round_trip(s1, t1, TraceFormat::kBinary, s2, b1);       // -> binary
    round_trip(s2, b1, TraceFormat::kText, s3, t2);         // -> text
    ASSERT_EQ(t1.size(), buf.size()) << "round " << round;
    ASSERT_EQ(b1.size(), buf.size()) << "round " << round;
    ASSERT_EQ(t2.size(), buf.size()) << "round " << round;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      EXPECT_EQ(t1.events()[i], buf.events()[i])
          << "round " << round << " event " << i << " (text)";
      EXPECT_EQ(b1.events()[i], t1.events()[i])
          << "round " << round << " event " << i << " (binary)";
      EXPECT_EQ(t2.events()[i], b1.events()[i])
          << "round " << round << " event " << i << " (text again)";
    }
  }
}

TEST(PropertyTest, HalfTickTimestampsRoundIdenticallyInBothFormats) {
  // 0.0625 ns is exactly representable and sits on a .5 ps tie: %.3f
  // rounds ties to even ("0.062"), and the binary encoder must agree
  // (llrint, not llround — which would give 63 ticks).
  TraceBuffer buf;
  buf.add(FreeEvent{0.0625, 0x1000});
  buf.add(FreeEvent{0.1875, 0x1000});  // the other tie direction: -> 0.188
  callstack::SiteDb sites, st, sb;
  TraceBuffer from_text, from_binary;
  round_trip(sites, buf, TraceFormat::kText, st, from_text);
  round_trip(sites, buf, TraceFormat::kBinary, sb, from_binary);
  ASSERT_EQ(from_text.size(), 2u);
  ASSERT_EQ(from_binary.size(), 2u);
  EXPECT_EQ(from_text.events()[0], from_binary.events()[0]);
  EXPECT_EQ(from_text.events()[1], from_binary.events()[1]);
  EXPECT_DOUBLE_EQ(event_time_ns(from_binary.events()[0]), 0.062);
  EXPECT_DOUBLE_EQ(event_time_ns(from_binary.events()[1]), 0.188);
}

TEST(MergeReader, OrdersEventsAcrossShards) {
  TraceBuffer a, b, c;
  a.add(SampleEvent{1.0, 0xa1, false, 1});
  a.add(SampleEvent{4.0, 0xa2, false, 1});
  b.add(SampleEvent{2.0, 0xb1, false, 1});
  b.add(SampleEvent{2.0, 0xb2, false, 1});  // equal times keep shard order
  c.add(SampleEvent{3.0, 0xc1, false, 1});

  std::vector<std::unique_ptr<TraceReader>> inputs;
  inputs.push_back(std::make_unique<BufferTraceReader>(a));
  inputs.push_back(std::make_unique<BufferTraceReader>(b));
  inputs.push_back(std::make_unique<BufferTraceReader>(c));
  MergeTraceReader merged(std::move(inputs));

  std::vector<Address> order;
  Event e;
  double last = -1;
  while (merged.next(e)) {
    EXPECT_GE(event_time_ns(e), last);
    last = event_time_ns(e);
    order.push_back(std::get<SampleEvent>(e).addr);
  }
  EXPECT_EQ(order, (std::vector<Address>{0xa1, 0xb1, 0xb2, 0xc1, 0xa2}));
}

TEST(MergeReader, TiesBreakTowardLowerShardIndex) {
  TraceBuffer a, b;
  a.add(SampleEvent{1.0, 0xa, false, 1});
  b.add(SampleEvent{1.0, 0xb, false, 1});
  std::vector<std::unique_ptr<TraceReader>> inputs;
  inputs.push_back(std::make_unique<BufferTraceReader>(a));
  inputs.push_back(std::make_unique<BufferTraceReader>(b));
  MergeTraceReader merged(std::move(inputs));
  Event e;
  ASSERT_TRUE(merged.next(e));
  EXPECT_EQ(std::get<SampleEvent>(e).addr, 0xau);
  ASSERT_TRUE(merged.next(e));
  EXPECT_EQ(std::get<SampleEvent>(e).addr, 0xbu);
  EXPECT_FALSE(merged.next(e));
}

TEST(MergeReader, OffsetReaderRebasesAddressCarryingEvents) {
  TraceBuffer buf;
  buf.add(AllocEvent{1.0, 0, 0x1000, 64});
  buf.add(SampleEvent{2.0, 0x1010, false, 1});
  buf.add(PhaseEvent{3.0, "p", true});
  buf.add(FreeEvent{4.0, 0x1000});
  OffsetTraceReader reader(std::make_unique<BufferTraceReader>(buf),
                           kRankAddressStride);
  Event e;
  ASSERT_TRUE(reader.next(e));
  EXPECT_EQ(std::get<AllocEvent>(e).addr, 0x1000 + kRankAddressStride);
  ASSERT_TRUE(reader.next(e));
  EXPECT_EQ(std::get<SampleEvent>(e).addr, 0x1010 + kRankAddressStride);
  ASSERT_TRUE(reader.next(e));
  EXPECT_EQ(std::get<PhaseEvent>(e).name, "p");  // untouched
  ASSERT_TRUE(reader.next(e));
  EXPECT_EQ(std::get<FreeEvent>(e).addr, 0x1000 + kRankAddressStride);
}

/// Yields a buffer's events, but throws in place of event `fail_at` —
/// an input that dies mid-stream.
class FailingReader final : public TraceReader {
 public:
  FailingReader(const TraceBuffer& buffer, std::size_t fail_at)
      : buffer_(&buffer), fail_at_(fail_at) {}

  bool next(Event& out) override {
    if (pos_ == fail_at_) throw std::runtime_error("input died");
    if (pos_ >= buffer_->size()) return false;
    out = buffer_->events()[pos_++];
    return true;
  }

 private:
  const TraceBuffer* buffer_;
  std::size_t fail_at_;
  std::size_t pos_ = 0;
};

TEST(MergeReader, MatchesStableSortOracle) {
  // Differential check of the loser tree against the definition of the
  // merge: every delivered event tagged (time, input, seq) and stably
  // sorted. Times repeat heavily within and across inputs, some inputs
  // are empty, and (in degraded mode) some die mid-stream, losing their
  // tail.
  struct Tagged {
    double time;
    std::size_t input;
    std::size_t seq;
    Event event;
  };
  Xoshiro256 rng(0x4E46E);
  for (const std::size_t k : {1, 2, 3, 7, 16, 17, 64}) {
    for (int iter = 0; iter < 20; ++iter) {
      const bool drop = iter % 2 == 1;
      std::vector<TraceBuffer> buffers(k);
      std::vector<std::size_t> fail_at(k, SIZE_MAX);
      std::vector<Tagged> oracle;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t n = rng.below(4) == 0 ? 0 : rng.below(40);
        double t = static_cast<double>(rng.below(5));
        for (std::size_t seq = 0; seq < n; ++seq) {
          t += static_cast<double>(rng.below(3) / 2);  // mostly repeats
          Event event;
          switch (rng.below(3)) {
            case 0:
              event = SampleEvent{t, (i << 32) | seq, false, 1};
              break;
            case 1:
              event = PhaseEvent{t, "phase-" + std::to_string(i),
                                 seq % 2 == 0};
              break;
            default:
              event = CounterEvent{t, "c", static_cast<double>(seq)};
              break;
          }
          buffers[i].add(event);
        }
        if (drop && n > 0 && rng.below(3) == 0) fail_at[i] = rng.below(n);
        for (std::size_t seq = 0; seq < std::min(n, fail_at[i]); ++seq) {
          const Event& event = buffers[i].events()[seq];
          oracle.push_back(Tagged{event_time_ns(event), i, seq, event});
        }
      }
      std::stable_sort(oracle.begin(), oracle.end(),
                       [](const Tagged& a, const Tagged& b) {
                         if (a.time != b.time) return a.time < b.time;
                         return a.input < b.input;
                       });

      std::vector<std::unique_ptr<TraceReader>> inputs;
      for (std::size_t i = 0; i < k; ++i) {
        inputs.push_back(
            std::make_unique<FailingReader>(buffers[i], fail_at[i]));
      }
      MergeOptions options;
      options.drop_failed_inputs = drop;
      MergeTraceReader merged(std::move(inputs), std::move(options));
      std::size_t n = 0;
      Event event;
      while (merged.next(event)) {
        ASSERT_LT(n, oracle.size()) << "k=" << k << " iter=" << iter;
        ASSERT_TRUE(event == oracle[n].event)
            << "k=" << k << " iter=" << iter << " event " << n << " (input "
            << oracle[n].input << ", seq " << oracle[n].seq << ")";
        ++n;
      }
      EXPECT_EQ(n, oracle.size()) << "k=" << k << " iter=" << iter;
      EXPECT_FALSE(merged.next(event));  // stays exhausted
    }
  }
}

TEST(MergeReader, NoInputsIsAnEmptyStream) {
  MergeTraceReader merged({});
  Event e;
  EXPECT_FALSE(merged.next(e));
}

}  // namespace
}  // namespace hmem::trace
