#include "trace/format.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <unordered_map>

#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/strings.hpp"
#include "trace/salvage.hpp"

namespace hmem::trace {

namespace {

[[noreturn]] void malformed(const std::string& line,
                            const ErrorContext& ctx = {}) {
  throw FormatError("malformed trace line: " + line, ctx);
}

std::string fmt_time(double t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

double parse_time(const std::string& s, const std::string& line,
                  const ErrorContext& ctx = {}) {
  char* end = nullptr;
  const double t = std::strtod(s.c_str(), &end);
  if (end == nullptr || *end != '\0' || s.empty()) malformed(line, ctx);
  return t;
}

std::uint64_t parse_u64(const std::string& s, const std::string& line,
                        const ErrorContext& ctx = {}, int base = 10) {
  char* end = nullptr;
  const std::uint64_t v = std::strtoull(s.c_str(), &end, base);
  if (end == nullptr || *end != '\0' || s.empty()) malformed(line, ctx);
  return v;
}

// ---- text back end --------------------------------------------------------

class TextTraceWriter final : public TraceWriter {
 public:
  TextTraceWriter(std::ostream& out, const callstack::SiteDb& sites)
      : out_(&out), sites_(&sites) {}
  ~TextTraceWriter() override {
    // finish() can throw (stream failure, injected io_write fault); a
    // destructor must swallow that — callers who care call finish().
    try {
      finish();
    } catch (...) {
    }
  }

  void on_event(const Event& event) override {
    emit_new_sites();
    std::visit(
        [&](const auto& e) {
          using T = std::decay_t<decltype(e)>;
          char buf[128];
          if constexpr (std::is_same_v<T, AllocEvent>) {
            std::snprintf(buf, sizeof(buf), "A|%s|%u|%" PRIx64 "|%" PRIu64,
                          fmt_time(e.time_ns).c_str(), e.site, e.addr,
                          e.size);
            *out_ << buf << '\n';
          } else if constexpr (std::is_same_v<T, FreeEvent>) {
            std::snprintf(buf, sizeof(buf), "F|%s|%" PRIx64,
                          fmt_time(e.time_ns).c_str(), e.addr);
            *out_ << buf << '\n';
          } else if constexpr (std::is_same_v<T, SampleEvent>) {
            std::snprintf(buf, sizeof(buf), "M|%s|%" PRIx64 "|%d|%" PRIu64,
                          fmt_time(e.time_ns).c_str(), e.addr,
                          e.is_write ? 1 : 0, e.weight);
            *out_ << buf << '\n';
          } else if constexpr (std::is_same_v<T, PhaseEvent>) {
            *out_ << "P|" << fmt_time(e.time_ns) << '|'
                  << (e.begin ? 'B' : 'E') << '|' << escape_field(e.name)
                  << '\n';
          } else if constexpr (std::is_same_v<T, CounterEvent>) {
            // %.17g keeps the value lossless across a round trip.
            std::snprintf(buf, sizeof(buf), "%.17g", e.value);
            *out_ << "C|" << fmt_time(e.time_ns) << '|'
                  << escape_field(e.name) << '|' << buf << '\n';
          }
          (void)buf;
        },
        event);
    ++events_;
  }

  void finish() override {
    if (finished_) return;
    finished_ = true;
    if (fault::inject(fault::Site::kIoWrite)) {
      throw IoError("injected io_write fault finishing text trace");
    }
    emit_new_sites();
    out_->flush();
    if (!*out_) throw IoError("trace write failed");
  }

  std::size_t events_written() const override { return events_; }

 private:
  void emit_new_sites() {
    while (emitted_sites_ < sites_->size()) {
      const auto& site = sites_->all()[emitted_sites_];
      *out_ << "S|" << site.id << '|' << escape_field(site.object_name) << '|'
            << (site.is_dynamic ? 1 : 0) << '|'
            << escape_field(site.stack.to_string()) << '\n';
      ++emitted_sites_;
    }
  }

  std::ostream* out_;
  const callstack::SiteDb* sites_;
  std::size_t emitted_sites_ = 0;
  std::size_t events_ = 0;
  bool finished_ = false;
};

class TextTraceReader final : public TraceReader {
 public:
  TextTraceReader(std::istream& in, callstack::SiteDb& sites,
                  ReaderOptions options = {})
      : in_(&in),
        sites_(&sites),
        salvage_(options.salvage),
        report_(options.report != nullptr ? options.report : &own_report_),
        ctx_{std::move(options.source), options.shard, std::nullopt} {}

  bool next(Event& out) override {
    if (abandoned_) return false;
    if (fault::inject(fault::Site::kIoRead)) {
      if (!salvage_) throw IoError("injected io_read fault", ctx_);
      report_->add_incident("injected io_read fault", ctx_.file, ctx_.shard);
      ++report_->tails_abandoned;
      abandoned_ = true;
      return false;
    }
    while (std::getline(*in_, line_)) {
      if (line_.empty() || line_[0] == '#') continue;
      if (!salvage_) {
        if (parse_line(line_, out)) return true;
        continue;
      }
      // Text damage is line-local: skip the bad line, count it as one
      // lost event, keep reading.
      try {
        if (parse_line(line_, out)) return true;
      } catch (const std::exception& e) {
        report_->add_incident(e.what(), ctx_.file, ctx_.shard);
        ++report_->events_dropped;
        report_->bytes_dropped += line_.size() + 1;
      }
    }
    return false;
  }


  ErrorContext where() const override { return ctx_; }

 private:
  /// Returns true when the line carried an event ('S' lines only update the
  /// site database and yield no event).
  bool parse_line(const std::string& line, Event& out) {
    const auto fields = split(line, '|');
    if (fields.size() < 2) malformed(line, ctx_);
    const char kind = fields[0].size() == 1 ? fields[0][0] : '\0';
    switch (kind) {
      case 'S': {
        if (fields.size() != 5) malformed(line, ctx_);
        const auto old_id =
            static_cast<callstack::SiteId>(parse_u64(fields[1], line));
        callstack::SymbolicCallStack stack;
        if (!callstack::SymbolicCallStack::from_string(
                unescape_field(fields[4]), stack))
          malformed(line, ctx_);
        const bool dynamic = fields[3] == "1";
        remap_[old_id] =
            sites_->intern(unescape_field(fields[2]), stack, dynamic);
        return false;
      }
      case 'A': {
        if (fields.size() != 5) malformed(line, ctx_);
        AllocEvent e;
        e.time_ns = parse_time(fields[1], line, ctx_);
        const auto old_id =
            static_cast<callstack::SiteId>(parse_u64(fields[2], line));
        const auto it = remap_.find(old_id);
        if (it == remap_.end()) malformed(line, ctx_);
        e.site = it->second;
        e.addr = parse_u64(fields[3], line, ctx_, 16);
        e.size = parse_u64(fields[4], line, ctx_);
        out = e;
        return true;
      }
      case 'F': {
        if (fields.size() != 3) malformed(line, ctx_);
        FreeEvent e;
        e.time_ns = parse_time(fields[1], line, ctx_);
        e.addr = parse_u64(fields[2], line, ctx_, 16);
        out = e;
        return true;
      }
      case 'M': {
        if (fields.size() != 5) malformed(line, ctx_);
        SampleEvent e;
        e.time_ns = parse_time(fields[1], line, ctx_);
        e.addr = parse_u64(fields[2], line, ctx_, 16);
        e.is_write = fields[3] == "1";
        e.weight = parse_u64(fields[4], line, ctx_);
        out = e;
        return true;
      }
      case 'P': {
        if (fields.size() != 4) malformed(line, ctx_);
        PhaseEvent e;
        e.time_ns = parse_time(fields[1], line, ctx_);
        if (fields[2] != "B" && fields[2] != "E") malformed(line, ctx_);
        e.begin = fields[2] == "B";
        e.name = unescape_field(fields[3]);
        out = e;
        return true;
      }
      case 'C': {
        if (fields.size() != 4) malformed(line, ctx_);
        CounterEvent e;
        e.time_ns = parse_time(fields[1], line, ctx_);
        e.name = unescape_field(fields[2]);
        e.value = parse_time(fields[3], line, ctx_);
        out = e;
        return true;
      }
      default:
        malformed(line, ctx_);
    }
  }

  std::istream* in_;
  callstack::SiteDb* sites_;
  bool salvage_ = false;
  SalvageReport own_report_;
  SalvageReport* report_;
  ErrorContext ctx_;
  bool abandoned_ = false;
  std::unordered_map<callstack::SiteId, callstack::SiteId> remap_;
  std::string line_;  ///< reused across next() calls — capacity amortizes
};

}  // namespace

// ---- field quoting --------------------------------------------------------

std::string escape_field(const std::string& name) {
  bool needs_quoting = name.empty();
  for (const char c : name) {
    if (c == '|' || c == '"' || c == '\\' || c == ' ' || c == '\n' ||
        c == '\t' || c == '\r') {
      needs_quoting = true;
      break;
    }
  }
  if (!needs_quoting) return name;
  std::string out = "\"";
  for (const char c : name) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '|': out += "\\p"; break;
      default: out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string unescape_field(const std::string& field) {
  if (field.empty() || field[0] != '"') return field;  // unquoted: verbatim
  if (field.size() < 2 || field.back() != '"')
    throw std::runtime_error("unterminated quoted field: " + field);
  std::string out;
  out.reserve(field.size() - 2);
  for (std::size_t i = 1; i + 1 < field.size(); ++i) {
    const char c = field[i];
    if (c == '"')
      throw std::runtime_error("stray quote inside quoted field: " + field);
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (i + 2 >= field.size())  // the backslash escapes the closing quote
      throw std::runtime_error("unterminated quoted field: " + field);
    switch (field[++i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      case 'r': out.push_back('\r'); break;
      case 'p': out.push_back('|'); break;
      default:
        throw std::runtime_error("unknown escape in quoted field: " + field);
    }
  }
  return out;
}

// ---- front-door factories -------------------------------------------------

const char* trace_format_name(TraceFormat format) {
  return format == TraceFormat::kBinary ? "binary" : "text";
}

std::optional<TraceFormat> parse_trace_format(const std::string& name) {
  if (name == "text") return TraceFormat::kText;
  if (name == "binary") return TraceFormat::kBinary;
  return std::nullopt;
}

namespace detail {

std::unique_ptr<TraceWriter> make_text_writer(std::ostream& out,
                                              const callstack::SiteDb& sites) {
  return std::make_unique<TextTraceWriter>(out, sites);
}

std::unique_ptr<TraceReader> open_text_reader(std::istream& in,
                                              callstack::SiteDb& sites) {
  return std::make_unique<TextTraceReader>(in, sites);
}

std::unique_ptr<TraceReader> open_text_reader(std::istream& in,
                                              callstack::SiteDb& sites,
                                              const ReaderOptions& options) {
  return std::make_unique<TextTraceReader>(in, sites, options);
}

}  // namespace detail

std::unique_ptr<TraceWriter> make_trace_writer(std::ostream& out,
                                               const callstack::SiteDb& sites,
                                               TraceFormat format) {
  return format == TraceFormat::kBinary ? detail::make_binary_writer(out, sites)
                                        : detail::make_text_writer(out, sites);
}

std::unique_ptr<TraceWriter> make_trace_writer(std::ostream& out,
                                               const callstack::SiteDb& sites,
                                               TraceFormat format,
                                               const WriterOptions& options) {
  // Checksums are a binary-v2 concept; the text format ignores them.
  return format == TraceFormat::kBinary
             ? detail::make_binary_writer(out, sites, options)
             : detail::make_text_writer(out, sites);
}

TraceFormat sniff_trace_format(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  if (start == std::istream::pos_type(-1)) {
    // Non-seekable stream (a pipe, /dev/stdin): a one-byte peek decides —
    // no text trace line starts with the magic's 'H'.
    return in.peek() == kBinaryMagic[0] ? TraceFormat::kBinary
                                        : TraceFormat::kText;
  }
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  const bool is_binary = in.gcount() == sizeof(magic) &&
                         std::memcmp(magic, kBinaryMagic, sizeof(magic)) == 0;
  in.clear();
  in.seekg(start);
  if (!in)
    throw std::runtime_error("trace stream is not seekable; cannot sniff");
  return is_binary ? TraceFormat::kBinary : TraceFormat::kText;
}

std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites,
                                               TraceFormat format) {
  return format == TraceFormat::kBinary ? detail::open_binary_reader(in, sites)
                                        : detail::open_text_reader(in, sites);
}

std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites) {
  return open_trace_reader(in, sites, sniff_trace_format(in));
}

std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites,
                                               TraceFormat format,
                                               const ReaderOptions& options) {
  return format == TraceFormat::kBinary
             ? detail::open_binary_reader(in, sites, options)
             : detail::open_text_reader(in, sites, options);
}

std::unique_ptr<TraceReader> open_trace_reader(std::istream& in,
                                               callstack::SiteDb& sites,
                                               const ReaderOptions& options) {
  return open_trace_reader(in, sites, sniff_trace_format(in), options);
}

std::size_t pump(TraceReader& reader, EventSink& sink) {
  Event event;
  std::size_t n = 0;
  while (reader.next(event)) {
    sink.on_event(event);
    ++n;
  }
  return n;
}

std::size_t pump(TraceReader& reader, EventVisitor& visitor) {
  Event event;
  std::size_t n = 0;
  while (reader.next(event)) {
    dispatch_event(event, visitor);
    ++n;
  }
  return n;
}

}  // namespace hmem::trace
