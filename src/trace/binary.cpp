// Binary trace format v2 (layout documented in trace/format.hpp).
//
// Design goals, in order: (1) streamable — the writer is an EventSink and
// never holds more than one chunk; (2) compact — timestamps and addresses
// are zigzag-varint deltas, names go through a string table; (3) seekable
// in the large — every event chunk carries its event count and payload byte
// size, so a reader can skip whole chunks without decoding them. Delta
// state resets at chunk boundaries for exactly that reason.
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "trace/format.hpp"
#include "trace/salvage.hpp"
#include "trace/wire.hpp"

namespace hmem::trace {

namespace {

constexpr std::size_t kChunkEvents = 4096;

// Reader-side sanity caps on corruption-controlled sizes, far above
// anything the writer produces (chunks hold <= kChunkEvents events of a
// few dozen bytes each): reject before allocating, so malformed input
// yields the documented std::runtime_error rather than bad_alloc.
constexpr std::uint64_t kMaxChunkPayloadBytes = 1ULL << 24;  // 16 MiB
constexpr std::uint64_t kMaxStringBytes = 1ULL << 20;        // 1 MiB
constexpr std::uint64_t kMaxChunkEventCount = 1ULL << 20;
constexpr std::uint64_t kMaxStackFrames = 1ULL << 10;

// Chunk tags.
constexpr char kStringChunk = 'T';
constexpr char kSiteChunk = 'S';
constexpr char kEventChunk = 'E';
constexpr char kChecksumChunk = 'K';  // CRC-32 of the next event chunk

// Event kinds.
enum : std::uint8_t {
  kAlloc = 0,
  kFree = 1,
  kSampleLoad = 2,
  kSampleStore = 3,
  kPhaseBegin = 4,
  kPhaseEnd = 5,
  kCounter = 6,
};

/// Timestamps are stored in picosecond ticks — the precision of the text
/// format's %.3f nanoseconds — so both formats round-trip identically.
/// llrint (ties-to-even under the default rounding mode) matches printf's
/// correctly-rounded %.3f on exact .5 ps ties, where llround would not.
std::int64_t time_to_ticks(double time_ns) {
  return std::llrint(time_ns * 1000.0);
}

double ticks_to_time(std::int64_t ticks) {
  return static_cast<double>(ticks) / 1000.0;
}

void put_string(std::string& out, const std::string& s) {
  wire::put_varint(out, s.size());
  out.append(s);
}

void put_double(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

class BinaryTraceWriter final : public TraceWriter {
 public:
  BinaryTraceWriter(std::ostream& out, const callstack::SiteDb& sites,
                    WriterOptions options = {})
      : out_(&out), sites_(&sites), options_(options) {}
  ~BinaryTraceWriter() override {
    // finish() can throw (stream failure, injected io_write fault); a
    // destructor must swallow that — callers who care call finish().
    try {
      finish();
    } catch (...) {
    }
  }

  void on_event(const Event& event) override {
    std::visit(
        [&](const auto& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, AllocEvent>) {
            payload_.push_back(kAlloc);
            put_time(e.time_ns);
            wire::put_varint(payload_, e.site);
            put_addr(e.addr);
            wire::put_varint(payload_, e.size);
          } else if constexpr (std::is_same_v<T, FreeEvent>) {
            payload_.push_back(kFree);
            put_time(e.time_ns);
            put_addr(e.addr);
          } else if constexpr (std::is_same_v<T, SampleEvent>) {
            payload_.push_back(e.is_write ? kSampleStore : kSampleLoad);
            put_time(e.time_ns);
            put_addr(e.addr);
            wire::put_varint(payload_, e.weight);
          } else if constexpr (std::is_same_v<T, PhaseEvent>) {
            payload_.push_back(e.begin ? kPhaseBegin : kPhaseEnd);
            put_time(e.time_ns);
            wire::put_varint(payload_, string_id(e.name));
          } else if constexpr (std::is_same_v<T, CounterEvent>) {
            payload_.push_back(kCounter);
            put_time(e.time_ns);
            wire::put_varint(payload_, string_id(e.name));
            put_double(payload_, e.value);
          }
        },
        event);
    ++chunk_events_;
    ++events_;
    if (chunk_events_ >= kChunkEvents) flush_chunk();
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    flush_chunk();
    out_->flush();
  }

  std::size_t events_written() const override { return events_; }

 private:
  void put_time(double time_ns) {
    const std::int64_t ticks = time_to_ticks(time_ns);
    wire::put_varint(payload_, wire::zigzag(ticks - prev_ticks_));
    prev_ticks_ = ticks;
  }

  void put_addr(Address addr) {
    wire::put_varint(
        payload_, wire::zigzag(static_cast<std::int64_t>(addr - prev_addr_)));
    prev_addr_ = addr;
  }

  std::uint64_t string_id(const std::string& s) {
    const auto it = string_ids_.find(s);
    if (it != string_ids_.end()) return it->second;
    const std::uint64_t id = string_ids_.size();
    string_ids_.emplace(s, id);
    pending_strings_.push_back(s);
    return id;
  }

  /// Serializes sites interned since the last flush. Interning their names
  /// may grow pending_strings_, which is why the string chunk is written
  /// after this runs but before the site chunk hits the stream.
  std::string collect_new_sites(std::uint64_t& count) {
    std::string payload;
    count = 0;
    while (emitted_sites_ < sites_->size()) {
      const auto& site = sites_->all()[emitted_sites_];
      wire::put_varint(payload, site.id);
      wire::put_varint(payload, string_id(site.object_name));
      payload.push_back(site.is_dynamic ? 1 : 0);
      wire::put_varint(payload, site.stack.frames.size());
      for (const auto& frame : site.stack.frames) {
        wire::put_varint(payload, string_id(frame.module));
        wire::put_varint(payload, string_id(frame.function));
        wire::put_varint(payload, frame.line);
      }
      ++emitted_sites_;
      ++count;
    }
    return payload;
  }

  void flush_chunk() {
    write_header();
    std::uint64_t site_count = 0;
    const std::string site_payload = collect_new_sites(site_count);
    if (!pending_strings_.empty()) {
      std::string chunk;
      chunk.push_back(kStringChunk);
      wire::put_varint(chunk, pending_strings_.size());
      for (const auto& s : pending_strings_) put_string(chunk, s);
      out_->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
      pending_strings_.clear();
    }
    if (site_count > 0) {
      std::string chunk;
      chunk.push_back(kSiteChunk);
      wire::put_varint(chunk, site_count);
      chunk.append(site_payload);
      out_->write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
    }
    if (chunk_events_ > 0) {
      if (fault::inject(fault::Site::kIoWrite)) {
        throw IoError("injected io_write fault flushing event chunk");
      }
      if (options_.checksums) {
        const std::uint32_t crc = crc32(payload_.data(), payload_.size());
        char kchunk[5];
        kchunk[0] = kChecksumChunk;
        for (int i = 0; i < 4; ++i)
          kchunk[1 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
        out_->write(kchunk, sizeof(kchunk));
      }
      std::string header;
      header.push_back(kEventChunk);
      wire::put_varint(header, chunk_events_);
      wire::put_varint(header, payload_.size());
      out_->write(header.data(), static_cast<std::streamsize>(header.size()));
      out_->write(payload_.data(),
                  static_cast<std::streamsize>(payload_.size()));
      payload_.clear();
      chunk_events_ = 0;
      prev_ticks_ = 0;
      prev_addr_ = 0;
    }
    if (!*out_) throw IoError("trace write failed");
  }

  void write_header() {
    if (wrote_header_) return;
    wrote_header_ = true;
    out_->write(kBinaryMagic, sizeof(kBinaryMagic));
    out_->put(static_cast<char>(kBinaryVersion));
  }

  std::ostream* out_;
  const callstack::SiteDb* sites_;
  WriterOptions options_;
  std::unordered_map<std::string, std::uint64_t> string_ids_;
  std::vector<std::string> pending_strings_;
  std::size_t emitted_sites_ = 0;
  std::string payload_;
  std::uint64_t chunk_events_ = 0;
  std::int64_t prev_ticks_ = 0;
  Address prev_addr_ = 0;
  std::size_t events_ = 0;
  bool wrote_header_ = false;
  bool finished_ = false;
};

class BinaryTraceReader final : public TraceReader {
 public:
  BinaryTraceReader(std::istream& in, callstack::SiteDb& sites,
                    ReaderOptions options = {})
      : in_(&in),
        sites_(&sites),
        salvage_(options.salvage),
        report_(options.report != nullptr ? options.report : &own_report_),
        source_(std::move(options.source)),
        shard_(options.shard) {
    char magic[4] = {};
    in_->read(magic, sizeof(magic));
    if (in_->gcount() != sizeof(magic) ||
        std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0)
      corrupt("bad magic");
    const int version = in_->get();
    if (version != kBinaryVersion) corrupt("unsupported version");
  }

  bool next(Event& out) override {
    for (;;) {
      if (abandoned_) return false;
      if (chunk_remaining_ == 0) {
        if (!advance_chunk()) return false;
        continue;  // string/site/checksum chunks carry no events
      }
      if (!salvage_) {
        decode_event(out);
        --chunk_remaining_;
        if (chunk_remaining_ == 0 && cursor_ != end_)
          corrupt("event chunk has trailing bytes");
        return true;
      }
      try {
        decode_event(out);
      } catch (const std::exception& e) {
        // Damage inside a chunk: the chunk's remaining events are
        // undecodable (delta state is per-chunk), but the framing still
        // points at the next chunk. Drop the rest and keep going.
        report_->add_incident(e.what(), source_, shard_, chunk_index_);
        ++report_->chunks_dropped;
        report_->events_dropped += chunk_remaining_;
        report_->bytes_dropped += static_cast<std::uint64_t>(end_ - cursor_);
        chunk_remaining_ = 0;
        cursor_ = end_;
        continue;
      }
      --chunk_remaining_;
      if (chunk_remaining_ == 0 && cursor_ != end_) {
        report_->add_incident("event chunk has trailing bytes", source_,
                              shard_, chunk_index_);
        report_->bytes_dropped += static_cast<std::uint64_t>(end_ - cursor_);
        cursor_ = end_;
      }
      return true;
    }
  }

  ErrorContext where() const override {
    return ErrorContext{source_, shard_, chunk_index_};
  }

 private:
  [[noreturn]] void corrupt(const char* what) const {
    throw FormatError(std::string("malformed binary trace: ") + what,
                      ErrorContext{source_, shard_, chunk_index_});
  }

  /// read_chunk, plus salvage handling of stream-level damage: once the
  /// framing itself is unreadable everything after it is lost, so the
  /// remaining tail is abandoned and the stream ends early.
  bool advance_chunk() {
    if (!salvage_) return read_chunk();
    try {
      return read_chunk();
    } catch (const std::exception& e) {
      report_->add_incident(e.what(), source_, shard_, chunk_index_);
      ++report_->tails_abandoned;
      abandoned_ = true;
      return false;
    }
  }

  /// Reads one chunk; string and site chunks are absorbed internally.
  /// Returns false on a clean end of stream.
  bool read_chunk() {
    if (fault::inject(fault::Site::kIoRead)) {
      throw IoError("injected io_read fault",
                    ErrorContext{source_, shard_, chunk_index_});
    }
    const int tag = in_->get();
    if (tag == std::istream::traits_type::eof()) return false;
    switch (tag) {
      case kStringChunk: {
        const std::uint64_t n = read_varint();
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t len = read_varint();
          if (len > kMaxStringBytes) corrupt("oversized string-table entry");
          std::string s(len, '\0');
          in_->read(s.data(), static_cast<std::streamsize>(len));
          if (static_cast<std::uint64_t>(in_->gcount()) != len)
            corrupt("truncated string table");
          strings_.push_back(std::move(s));
        }
        return true;
      }
      case kSiteChunk: {
        const std::uint64_t n = read_varint();
        for (std::uint64_t i = 0; i < n; ++i) read_site();
        return true;
      }
      case kChecksumChunk: {
        char raw[4] = {};
        in_->read(raw, sizeof(raw));
        if (in_->gcount() != sizeof(raw)) corrupt("truncated checksum chunk");
        std::uint32_t crc = 0;
        for (int i = 0; i < 4; ++i)
          crc |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(raw[i]))
                 << (8 * i);
        expected_crc_ = crc;
        return true;
      }
      case kEventChunk: {
        chunk_index_ = chunk_index_ ? *chunk_index_ + 1 : 0;
        chunk_remaining_ = read_varint();
        if (chunk_remaining_ > kMaxChunkEventCount)
          corrupt("oversized event chunk count");
        const std::uint64_t bytes = read_varint();
        if (bytes > kMaxChunkPayloadBytes)
          corrupt("oversized event chunk payload");
        chunk_.resize(bytes);
        in_->read(chunk_.data(), static_cast<std::streamsize>(bytes));
        if (static_cast<std::uint64_t>(in_->gcount()) != bytes)
          corrupt("truncated event chunk");
        const std::optional<std::uint32_t> expected = expected_crc_;
        expected_crc_.reset();
        if (expected &&
            crc32(chunk_.data(), chunk_.size()) != *expected) {
          if (!salvage_) corrupt("event chunk checksum mismatch");
          // The framing survived (count and size were intact), only the
          // payload is damaged: skip exactly this chunk.
          report_->add_incident("event chunk checksum mismatch", source_,
                                shard_, chunk_index_);
          ++report_->chunks_dropped;
          report_->events_dropped += chunk_remaining_;
          report_->bytes_dropped += bytes;
          chunk_remaining_ = 0;
          cursor_ = end_ = nullptr;
          return true;
        }
        cursor_ = chunk_.data();
        end_ = chunk_.data() + chunk_.size();
        prev_ticks_ = 0;
        prev_addr_ = 0;
        if (chunk_remaining_ == 0 && bytes != 0)
          corrupt("empty event chunk with payload");
        return true;
      }
      default:
        corrupt("unknown chunk tag");
    }
  }

  void read_site() {
    const std::uint64_t file_id = read_varint();
    const std::string& name = string_at(read_varint());
    const int dynamic = in_->get();
    if (dynamic != 0 && dynamic != 1) corrupt("bad site dynamic flag");
    const std::uint64_t nframes = read_varint();
    // A corrupt varint must not turn into a giant reserve: the contract is
    // std::runtime_error on malformed input, never bad_alloc/length_error.
    if (nframes > kMaxStackFrames) corrupt("oversized call-stack");
    callstack::SymbolicCallStack stack;
    stack.frames.reserve(nframes);
    for (std::uint64_t f = 0; f < nframes; ++f) {
      callstack::CodeLocation loc;
      loc.module = string_at(read_varint());
      loc.function = string_at(read_varint());
      loc.line = static_cast<std::uint32_t>(read_varint());
      stack.frames.push_back(std::move(loc));
    }
    remap_[file_id] = sites_->intern(name, stack, dynamic == 1);
  }

  void decode_event(Event& out) {
    if (cursor_ == end_) corrupt("truncated event");
    const auto kind = static_cast<std::uint8_t>(*cursor_++);
    const double t = take_time();
    switch (kind) {
      case kAlloc: {
        AllocEvent e;
        e.time_ns = t;
        const std::uint64_t file_site = take_varint();
        const auto it = remap_.find(file_site);
        if (it == remap_.end()) corrupt("event references undefined site");
        e.site = it->second;
        e.addr = take_addr();
        e.size = take_varint();
        out = e;
        break;
      }
      case kFree: {
        FreeEvent e;
        e.time_ns = t;
        e.addr = take_addr();
        out = e;
        break;
      }
      case kSampleLoad:
      case kSampleStore: {
        SampleEvent e;
        e.time_ns = t;
        e.is_write = kind == kSampleStore;
        e.addr = take_addr();
        e.weight = take_varint();
        out = e;
        break;
      }
      case kPhaseBegin:
      case kPhaseEnd: {
        PhaseEvent e;
        e.time_ns = t;
        e.begin = kind == kPhaseBegin;
        e.name = string_at(take_varint());
        out = e;
        break;
      }
      case kCounter: {
        CounterEvent e;
        e.time_ns = t;
        e.name = string_at(take_varint());
        if (end_ - cursor_ < 8) corrupt("truncated counter value");
        std::uint64_t bits = 0;
        for (int i = 0; i < 8; ++i)
          bits |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(cursor_[i]))
                  << (8 * i);
        cursor_ += 8;
        std::memcpy(&e.value, &bits, sizeof(e.value));
        out = e;
        break;
      }
      default:
        corrupt("unknown event kind");
    }
  }

  std::uint64_t take_varint() {
    std::uint64_t v = 0;
    if (!wire::get_varint(cursor_, end_, v)) corrupt("truncated varint");
    return v;
  }

  double take_time() {
    prev_ticks_ += wire::unzigzag(take_varint());
    return ticks_to_time(prev_ticks_);
  }

  Address take_addr() {
    prev_addr_ += static_cast<Address>(wire::unzigzag(take_varint()));
    return prev_addr_;
  }

  const std::string& string_at(std::uint64_t id) {
    if (id >= strings_.size()) corrupt("string id out of range");
    return strings_[id];
  }

  /// Stream-level varint (chunk headers, string/site chunks).
  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (shift < 64) {
      const int byte = in_->get();
      if (byte == std::istream::traits_type::eof())
        corrupt("truncated varint");
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
    corrupt("oversized varint");
  }

  std::istream* in_;
  callstack::SiteDb* sites_;
  bool salvage_ = false;
  SalvageReport own_report_;
  SalvageReport* report_;
  std::string source_;
  std::optional<std::size_t> shard_;
  std::optional<std::size_t> chunk_index_;  ///< current event chunk (0-based)
  std::optional<std::uint32_t> expected_crc_;
  bool abandoned_ = false;
  std::vector<std::string> strings_;
  std::unordered_map<std::uint64_t, callstack::SiteId> remap_;
  std::string chunk_;
  const char* cursor_ = nullptr;
  const char* end_ = nullptr;
  std::uint64_t chunk_remaining_ = 0;
  std::int64_t prev_ticks_ = 0;
  Address prev_addr_ = 0;
};

}  // namespace

namespace detail {

std::unique_ptr<TraceWriter> make_binary_writer(
    std::ostream& out, const callstack::SiteDb& sites) {
  return std::make_unique<BinaryTraceWriter>(out, sites);
}

std::unique_ptr<TraceWriter> make_binary_writer(
    std::ostream& out, const callstack::SiteDb& sites,
    const WriterOptions& options) {
  return std::make_unique<BinaryTraceWriter>(out, sites, options);
}

std::unique_ptr<TraceReader> open_binary_reader(std::istream& in,
                                                callstack::SiteDb& sites) {
  return std::make_unique<BinaryTraceReader>(in, sites);
}

std::unique_ptr<TraceReader> open_binary_reader(
    std::istream& in, callstack::SiteDb& sites,
    const ReaderOptions& options) {
  return std::make_unique<BinaryTraceReader>(in, sites, options);
}

}  // namespace detail

}  // namespace hmem::trace
