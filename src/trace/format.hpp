// TraceWriter / TraceReader — the common serialization front of the trace
// layer. Two on-disk formats sit behind it:
//
//  * text (format v1): the original line-oriented format of
//    trace/tracefile.hpp — one `kind|field|...` line per event, site
//    definitions on `S|` lines. Human-inspectable; names are quoted and
//    escaped so arbitrary phase/counter/object names survive (see
//    escape_field below).
//
//  * binary (format v2): a compact chunked stream,
//
//        magic "HMT2" | u8 version(2) | chunk*
//        chunk := 'T' string-table | 'S' site-table | 'K' checksum
//                 | 'E' events
//        'K': 4 raw little-endian bytes — CRC-32 (IEEE) of the *next*
//             event chunk's payload. Emitted only when the writer was
//             opened with WriterOptions::checksums; readers accept shards
//             with or without them (and with them interleaved).
//        'T': varint n, then n x { varint len, bytes } — appended to the
//             file-global string table, referenced by index;
//        'S': varint n, then n x { varint file_site_id, varint name_str,
//             u8 dynamic, varint nframes, nframes x { varint module_str,
//             varint function_str, varint line } };
//        'E': varint event_count, varint payload_bytes (so readers can
//             skip whole chunks), then event_count packed events. Per
//             event: u8 kind (0 alloc, 1 free, 2 sample-load,
//             3 sample-store, 4 phase-begin, 5 phase-end, 6 counter),
//             zigzag-varint timestamp delta in picosecond ticks, then
//             kind-specific fields; addresses are zigzag-varint deltas.
//             Delta state (previous timestamp/address) resets at each
//             chunk boundary so skipped chunks never desynchronize.
//
//    Timestamps are quantized to 1 ps — exactly the precision of the text
//    format's %.3f nanoseconds — so the two formats round-trip identically.
//
// Writers are EventSinks: the profiler can stream straight to disk without
// ever materializing the trace. Readers are pull-based and remap site ids
// into the SiteDb supplied at open time, so several shards can be read
// (or k-way merged, trace/merge.hpp) into one site database.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "callstack/sitedb.hpp"
#include "common/error.hpp"
#include "trace/event.hpp"
#include "trace/visitor.hpp"

namespace hmem::trace {

struct SalvageReport;  // trace/salvage.hpp

enum class TraceFormat { kText, kBinary };

const char* trace_format_name(TraceFormat format);
/// Parses "text" / "binary" (the --format flag values).
std::optional<TraceFormat> parse_trace_format(const std::string& name);

inline constexpr char kBinaryMagic[4] = {'H', 'M', 'T', '2'};
inline constexpr std::uint8_t kBinaryVersion = 2;

/// Writer-side knobs. Checksums are opt-in so that existing shards (and
/// golden byte-identity tests) are unchanged by default.
struct WriterOptions {
  /// Binary v2 only: guard every event chunk with a CRC-32 ('K' chunk
  /// immediately preceding it). Readers accept shards with or without.
  bool checksums = false;
};

/// Reader-side knobs. The default is the historical strict contract:
/// throw on the first malformed byte. With `salvage` set, damaged event
/// chunks are skipped and accounted in a SalvageReport instead.
struct ReaderOptions {
  bool salvage = false;
  /// Where salvage incidents accumulate; may be shared by several readers.
  /// Null means the reader keeps a private report (open_trace_reader) —
  /// use RecoveringTraceReader when you want to inspect it afterwards.
  SalvageReport* report = nullptr;
  std::string source;                ///< path/label for error context
  std::optional<std::size_t> shard;  ///< shard index for error context
};

/// Streaming serializer. Site definitions are read from the SiteDb bound at
/// construction and emitted incrementally: every site interned before an
/// event is serialized ahead of that event, so the producer may keep
/// interning while it streams. finish() flushes buffered chunks and any
/// sites not yet written (it runs from the destructor too, but call it
/// explicitly when you want to check the stream state afterwards).
class TraceWriter : public EventSink {
 public:
  virtual void finish() = 0;
  virtual std::size_t events_written() const = 0;
};

/// Pull side: yields events one at a time, false at end of stream. Site
/// references in returned events are already remapped into the SiteDb given
/// at open time. Throws std::runtime_error on malformed input.
class TraceReader {
 public:
  virtual ~TraceReader() = default;
  virtual bool next(Event& out) = 0;
  /// Where the event next() last returned came from: the source and shard
  /// the reader was opened with and, in binary, its event chunk. Lets
  /// checks made above the reader (the merge's time-order check) name the
  /// data at fault.
  virtual ErrorContext where() const { return {}; }
};

std::unique_ptr<TraceWriter> make_trace_writer(std::ostream& out,
                                               const callstack::SiteDb& sites,
                                               TraceFormat format);
std::unique_ptr<TraceWriter> make_trace_writer(std::ostream& out,
                                               const callstack::SiteDb& sites,
                                               TraceFormat format,
                                               const WriterOptions& options);

/// Sniffs the format from the first bytes of a seekable stream (binary
/// traces start with the "HMT2" magic; no text line does).
TraceFormat sniff_trace_format(std::istream& in);

/// Opens a reader for either format, sniffing the magic.
std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites);
std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites,
                                               TraceFormat format);
std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites,
                                               const ReaderOptions& options);
std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites,
                                               TraceFormat format,
                                               const ReaderOptions& options);

/// Drains a reader into a sink / visitor; returns the number of events.
std::size_t pump(TraceReader& reader, EventSink& sink);
std::size_t pump(TraceReader& reader, EventVisitor& visitor);

/// Text-format field quoting. Plain names pass through verbatim (so v1
/// traces are unchanged); names containing '|', '"', '\\' or whitespace are
/// written as "..." with C-style escapes (\" \\ \n \t \r) plus \p for '|',
/// keeping the escaped field free of separator and newline bytes.
std::string escape_field(const std::string& name);
/// Inverse of escape_field. Throws std::runtime_error on an unterminated
/// quote or an unknown escape sequence.
std::string unescape_field(const std::string& field);

namespace detail {
// Per-format back ends (format.cpp: text; binary.cpp: format v2). Prefer
// the front-door factories above.
std::unique_ptr<TraceWriter> make_text_writer(std::ostream& out,
                                              const callstack::SiteDb& sites);
std::unique_ptr<TraceWriter> make_binary_writer(
    std::ostream& out, const callstack::SiteDb& sites);
std::unique_ptr<TraceWriter> make_binary_writer(std::ostream& out,
                                                const callstack::SiteDb& sites,
                                                const WriterOptions& options);
std::unique_ptr<TraceReader> open_text_reader(std::istream& in,
                                              callstack::SiteDb& sites);
std::unique_ptr<TraceReader> open_text_reader(std::istream& in,
                                              callstack::SiteDb& sites,
                                              const ReaderOptions& options);
std::unique_ptr<TraceReader> open_binary_reader(std::istream& in,
                                                callstack::SiteDb& sites);
std::unique_ptr<TraceReader> open_binary_reader(std::istream& in,
                                                callstack::SiteDb& sites,
                                                const ReaderOptions& options);
}  // namespace detail

}  // namespace hmem::trace
