#include "engine/kernel/native.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>

#include "apps/generator.hpp"
#include "memsim/cache.hpp"

#if defined(HMEM_NATIVE_KERNEL) && defined(__x86_64__) && \
    (defined(__unix__) || defined(__APPLE__))
#define HMEM_NATIVE_X64 1
#endif

namespace hmem::engine::kernel {

// Out-of-line target for the emitted code's call-out offset draws (zipf,
// pointer-chase, bursty; the other patterns step inline). The generator's
// stream is independent of the main RNG, so crossing a C call boundary here
// cannot perturb bit-identity.
extern "C" std::uint64_t hmem_kernel_gen_next(void* gen) {
  return static_cast<apps::AccessGenerator*>(gen)->next_offset();
}

namespace {

/// Points `rec` at an inline generator's state: copied in for a burst,
/// stepped in the record, copied back.
template <typename State>
void adopt_state(SlotRecord& rec, State* state) {
  static_assert(std::is_trivially_copyable_v<State> &&
                sizeof(State) <= sizeof(SlotRecord::state));
  rec.gen = state;
  rec.state_bytes = sizeof(State);
}

/// True when no line below `lines` starts at or past `clamp`, so clamping
/// the offsets of a stream over those lines is a no-op.
bool lines_in_range(std::uint64_t lines, std::uint64_t clamp) {
  return lines - 1 < clamp / memsim::kCacheLineBytes +
                         (clamp % memsim::kCacheLineBytes != 0);
}

}  // namespace

bool SlotTable::bind(const Program& p) {
  program_ = &p;
  records_.assign(p.slot_count(), SlotRecord{});
  for (std::size_t s = 0; s < p.slot_count(); ++s) {
    SlotRecord& rec = records_[s];
    const Insn* in = &p.code[p.block_start[s]];
    if (in->op == Op::kStackAddr) {
      rec.base = in->imm0;
      rec.latency_ns = in[1].f;
      rec.tier = in[1].a;
      rec.kind = kShapeStack | kDrawsMain;
      rec.bound = in->imm1;
      continue;
    }
    // An object block: the address head, its offset op, its serve op.
    if (in->op == Op::kPickAddr) {
      rec.kind = kDrawsMain;
      rec.pool = p.instances.data() + in->imm0;
      rec.bound = in->a;
    } else {
      rec.base = in->imm0;
      rec.latency_ns = in[2].f;
      rec.tier = in[2].a;
    }
    const Insn& off = in[1];
    apps::AccessGenerator* const gen = p.gens[off.a];
    const apps::InlineGen& state = gen->inline_state();
    rec.clamp = off.imm0;
    switch (off.op) {
      case Op::kWalkOffset:
        adopt_state(rec, state.walk);
        if (!lines_in_range(state.walk->lines, rec.clamp)) {
          rec.kind |= kClamped;
        }
        break;
      case Op::kRandomOffset:
        rec.kind |= kShapeRandom;
        adopt_state(rec, state.random);
        if (!lines_in_range(state.random->lines, rec.clamp)) {
          rec.kind |= kClamped;
        }
        break;
      case Op::kPermuteOffset:
        rec.kind |= kShapePermute;
        adopt_state(rec, state.permute);
        break;
      default:
        rec.kind |= kShapeCall;
        rec.gen = gen;
        break;
    }
  }
  std::vector<const void*> gens;
  for (const SlotRecord& rec : records_) {
    if (rec.gen != nullptr) gens.push_back(rec.gen);
  }
  std::sort(gens.begin(), gens.end());
  if (std::adjacent_find(gens.begin(), gens.end()) != gens.end()) {
    program_ = nullptr;  // unbound: run() refuses it
    return false;
  }
  columns_.assign(p.threshold.size(), SlotColumn{});
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    SlotColumn& col = columns_[c];
    const SlotRecord& own = records_[c];
    const SlotRecord& alias = records_[p.alias[c]];
    col.threshold = p.threshold[c];
    col.rec = &own;
    col.alias_rec = &alias;
    col.kind = static_cast<std::uint8_t>(own.kind);
    col.alias_kind = static_cast<std::uint8_t>(alias.kind);
  }
  return true;
}

#ifndef HMEM_NATIVE_X64

bool native_available() { return false; }
bool NativeKernel::emit(std::uint32_t, std::uint32_t, std::uint64_t, bool) {
  return false;
}
void NativeKernel::run(SlotTable&, Frame&) const {}

#else  // HMEM_NATIVE_X64

namespace {

// The emitted code addresses the Frame by displacements off rbx, taken
// from the struct layout here; the prologue/epilogue assume rng_state
// leads it.
static_assert(offsetof(Frame, rng_state) == 0);
constexpr int kFrameLatency = offsetof(Frame, latency_ns);
constexpr int kFrameMisses = offsetof(Frame, misses);
constexpr int kFrameAccesses = offsetof(Frame, n_accesses);
constexpr int kFrameTierSim = offsetof(Frame, tier_sim);
constexpr int kFrameMissOut = offsetof(Frame, miss_out);
constexpr int kFrameSpill = offsetof(Frame, spill);
constexpr int kFrameDraw = offsetof(Frame, draw);
constexpr int kFrameTags = offsetof(Frame, tags);
constexpr int kFrameOrder = offsetof(Frame, order);
constexpr int kFrameColumns = offsetof(Frame, columns);
constexpr int kFrameCols = offsetof(Frame, n_cols);
constexpr int kFrameCoinMask = offsetof(Frame, coin_mask);
constexpr int kFrameWriteThreshold = offsetof(Frame, write_threshold);
constexpr int kFrameWriteShift = offsetof(Frame, write_shift);
constexpr int kFrameLlcLatency = offsetof(Frame, llc_latency_ns);
static_assert(sizeof(memsim::Address) == 8);
// An instance record and a slot record serve alike: base, latency, tier.
static_assert(offsetof(InstanceSlot, base) == 0);
static_assert(offsetof(InstanceSlot, latency_ns) == 8);
static_assert(offsetof(InstanceSlot, tier) == 16);
static_assert(offsetof(SlotRecord, base) == 0);
static_assert(offsetof(SlotRecord, latency_ns) == 8);
static_assert(offsetof(SlotRecord, tier) == 16);
constexpr int kSlotState = offsetof(SlotRecord, state);
constexpr int kSlotPool = offsetof(SlotRecord, pool);
constexpr int kSlotBound = offsetof(SlotRecord, bound);
constexpr int kSlotGen = offsetof(SlotRecord, gen);
constexpr int kSlotClamp = offsetof(SlotRecord, clamp);
static_assert(offsetof(SlotColumn, threshold) == 0);
constexpr int kColumnRec = offsetof(SlotColumn, rec);
constexpr int kColumnAliasRec = offsetof(SlotColumn, alias_rec);
constexpr int kColumnKind = offsetof(SlotColumn, kind);
constexpr int kColumnAliasKind = offsetof(SlotColumn, alias_kind);
// A miss record is three words; the emitted store writes is_write as a
// whole word (0 or 1 in its low byte, zeros over the padding).
static_assert(sizeof(MissRecord) == 24);
static_assert(offsetof(MissRecord, order) == 0);
static_assert(offsetof(MissRecord, addr) == 8);
static_assert(offsetof(MissRecord, is_write) == 16);
// Inline generator state, stepped in its record's copy
// (apps/workload_gen.hpp layouts).
constexpr int kWalkLines = kSlotState + offsetof(apps::LineWalk, lines);
constexpr int kWalkStride = kSlotState + offsetof(apps::LineWalk, stride);
constexpr int kWalkPosition = kSlotState + offsetof(apps::LineWalk, position);
constexpr int kRandomLines = kSlotState + offsetof(apps::RandomLines, lines);
constexpr int kRandomRng = kSlotState + offsetof(apps::RandomLines, rng);
constexpr int kPermuteTable = kSlotState + offsetof(apps::PermuteLines, table);
constexpr int kPermuteLines = kSlotState + offsetof(apps::PermuteLines, lines);
constexpr int kPermutePosition =
    kSlotState + offsetof(apps::PermuteLines, position);
// RandomLines::rng is stepped as four raw xoshiro256** words, s0 first.
static_assert(std::is_standard_layout_v<Xoshiro256> &&
              sizeof(Xoshiro256) == 32);

// Recency-word constants for the inline hit path (memsim::Cache::touch):
// the nibble broadcast and the zero-nibble flags.
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ULL;

// Register numbers (SysV). Persistent state sits in callee-saved registers:
// rbx = Frame*, rbp = access counter, r12..r15 = xoshiro s0..s3. Per
// access, r8 holds the slot's record and r9 the record it serves from (the
// slot's own, or the picked instance's) until the miss is accounted;
// everything else is scratch.
constexpr int kRax = 0, kRcx = 1, kRdx = 2, kRbx = 3;
constexpr int kRbp = 5, kRsi = 6, kRdi = 7;
constexpr int kR8 = 8, kR9 = 9, kR10 = 10, kR11 = 11;
constexpr int kR12 = 12, kR13 = 13, kR14 = 14, kR15 = 15;

std::uint64_t bits_of(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Minimal x86-64 emitter: exactly the encodings the kernel needs, with
/// rel32 label fixups. Memory operands never use rsp/r12/r13/rbp as a base
/// (the modrm special cases), which the code below respects by
/// construction.
class Asm {
 public:
  std::vector<std::uint8_t> buf;

  struct Label {
    std::ptrdiff_t target = -1;
    std::vector<std::size_t> fixups;  ///< positions of pending rel32 slots
  };

  std::size_t pos() const { return buf.size(); }
  void byte(std::uint8_t b) { buf.push_back(b); }
  void imm32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void imm64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void bind(Label& l) {
    l.target = static_cast<std::ptrdiff_t>(pos());
    for (const std::size_t at : l.fixups) {
      const std::uint32_t rel =
          static_cast<std::uint32_t>(l.target - static_cast<std::ptrdiff_t>(at + 4));
      for (int i = 0; i < 4; ++i) {
        buf[at + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(rel >> (8 * i));
      }
    }
    l.fixups.clear();
  }

  void rel32(Label& l) {
    if (l.target >= 0) {
      imm32(static_cast<std::uint32_t>(l.target -
                                       static_cast<std::ptrdiff_t>(pos() + 4)));
    } else {
      l.fixups.push_back(pos());
      imm32(0);
    }
  }

  // ---- encoding helpers ----
  void rex(bool w, int reg, int index, int rm) {
    const std::uint8_t r = static_cast<std::uint8_t>(
        0x40 | (w ? 8 : 0) | ((reg >> 3) << 2) | ((index >> 3) << 1) |
        (rm >> 3));
    if (r != 0x40 || w) byte(r);
  }
  void rex_opt(int reg, int index, int rm) {
    // 32-bit op: REX only when a high register is involved.
    const std::uint8_t r = static_cast<std::uint8_t>(
        0x40 | ((reg >> 3) << 2) | ((index >> 3) << 1) | (rm >> 3));
    if (r != 0x40) byte(r);
  }
  void modrm(int mod, int reg, int rm) {
    byte(static_cast<std::uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  void mem(int reg, int base, int disp) {
    // base is never rsp/r12 (SIB escape) or, with disp 0, rbp/r13.
    if (disp == 0 && (base & 7) != 5) {
      modrm(0, reg, base);
    } else if (disp >= -128 && disp <= 127) {
      modrm(1, reg, base);
      byte(static_cast<std::uint8_t>(disp));
    } else {
      modrm(2, reg, base);
      imm32(static_cast<std::uint32_t>(disp));
    }
  }
  void sib_mem(int reg, int base, int index, int scale_log, int disp = 0) {
    // [base + index*scale + disp], disp 0 or a disp8; base never rbp/r13.
    modrm(disp == 0 ? 0 : 1, reg, 4);
    byte(static_cast<std::uint8_t>((scale_log << 6) | ((index & 7) << 3) |
                                   (base & 7)));
    if (disp != 0) byte(static_cast<std::uint8_t>(disp));
  }

  // ---- instructions ----
  void push_r(int r) { rex_opt(0, 0, r); byte(0x50 + (r & 7)); }
  void pop_r(int r) { rex_opt(0, 0, r); byte(0x58 + (r & 7)); }
  void mov_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x89); modrm(3, src, dst); }
  void mov_ri64(int r, std::uint64_t v) { rex(true, 0, 0, r); byte(0xB8 + (r & 7)); imm64(v); }
  void mov_ri32(int r, std::uint32_t v) { rex_opt(0, 0, r); byte(0xB8 + (r & 7)); imm32(v); }
  void mov_r_mem(int dst, int base, int disp) { rex(true, dst, 0, base); byte(0x8B); mem(dst, base, disp); }
  void mov_mem_r(int base, int disp, int src) { rex(true, src, 0, base); byte(0x89); mem(src, base, disp); }
  void mov32_r_sib(int dst, int base, int index, int scale_log) {
    rex_opt(dst, index, base); byte(0x8B); sib_mem(dst, base, index, scale_log);
  }
  void mov32_sib_r(int base, int index, int scale_log, int disp, int src) {
    rex_opt(src, index, base); byte(0x89); sib_mem(src, base, index, scale_log, disp);
  }
  void cmp32_r_sib(int r, int base, int index, int scale_log, int disp) {
    rex_opt(r, index, base); byte(0x3B); sib_mem(r, base, index, scale_log, disp);
  }
  void movzx8_r_mem(int dst, int base, int disp) {
    rex_opt(dst, 0, base); byte(0x0F); byte(0xB6); mem(dst, base, disp);
  }
  void mov32_rr(int dst, int src) { rex_opt(src, 0, dst); byte(0x89); modrm(3, src, dst); }
  void lea_sib(int dst, int base, int index, int scale_log) {
    rex(true, dst, index, base); byte(0x8D); sib_mem(dst, base, index, scale_log);
  }
  void lea_r13x5(int dst) {
    // lea dst, [r13 + r13*4]: rbp-class base forces a disp8 of zero.
    rex(true, dst, kR13, kR13);
    byte(0x8D);
    modrm(1, dst, 4);
    byte(static_cast<std::uint8_t>((2 << 6) | ((kR13 & 7) << 3) | (kR13 & 7)));
    byte(0);
  }
  void add_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x01); modrm(3, src, dst); }
  void sub_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x29); modrm(3, src, dst); }
  void add_r_mem(int dst, int base, int disp) { rex(true, dst, 0, base); byte(0x03); mem(dst, base, disp); }
  void sub_r_mem(int dst, int base, int disp) { rex(true, dst, 0, base); byte(0x2B); mem(dst, base, disp); }
  void and_r_mem(int dst, int base, int disp) { rex(true, dst, 0, base); byte(0x23); mem(dst, base, disp); }
  void imul_r_mem(int dst, int base, int disp) {
    rex(true, dst, 0, base); byte(0x0F); byte(0xAF); mem(dst, base, disp);
  }
  void test_rr(int a, int b) { rex(true, b, 0, a); byte(0x85); modrm(3, b, a); }
  void and_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x21); modrm(3, src, dst); }
  void or_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x09); modrm(3, src, dst); }
  void not_r(int r) { rex(true, 0, 0, r); byte(0xF7); modrm(3, 2, r); }
  void neg_r(int r) { rex(true, 0, 0, r); byte(0xF7); modrm(3, 3, r); }
  void xor_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x31); modrm(3, src, dst); }
  void xor32_rr(int dst, int src) { rex_opt(src, 0, dst); byte(0x31); modrm(3, src, dst); }
  void cmp_rr(int a, int b) { rex(true, a, 0, b); byte(0x3B); modrm(3, a, b); }  // flags(a - b)
  void cmp_r_mem(int a, int base, int disp) { rex(true, a, 0, base); byte(0x3B); mem(a, base, disp); }
  void xor_r_mem(int dst, int base, int disp) { rex(true, dst, 0, base); byte(0x33); mem(dst, base, disp); }
  void adc_ri8(int r, std::uint8_t v) { rex(true, 0, 0, r); byte(0x83); modrm(3, 2, r); byte(v); }
  void shl_ri(int r, int n) { rex(true, 0, 0, r); byte(0xC1); modrm(3, 4, r); byte(static_cast<std::uint8_t>(n)); }
  void shr_ri(int r, int n) { rex(true, 0, 0, r); byte(0xC1); modrm(3, 5, r); byte(static_cast<std::uint8_t>(n)); }
  void shr_cl(int r) { rex(true, 0, 0, r); byte(0xD3); modrm(3, 5, r); }
  void rol_ri(int r, int n) { rex(true, 0, 0, r); byte(0xC1); modrm(3, 0, r); byte(static_cast<std::uint8_t>(n)); }
  void imul_rri(int dst, int src, std::uint32_t v) {
    rex(true, dst, 0, src); byte(0x69); modrm(3, dst, src); imm32(v);
  }
  void mul_r(int r) { rex(true, 0, 0, r); byte(0xF7); modrm(3, 4, r); }
  void div_r(int r) { rex(true, 0, 0, r); byte(0xF7); modrm(3, 6, r); }
  void cmovae_rr(int dst, int src) { rex(true, dst, 0, src); byte(0x0F); byte(0x43); modrm(3, dst, src); }
  void inc_r(int r) { rex(true, 0, 0, r); byte(0xFF); modrm(3, 0, r); }
  void dec_r(int r) { rex(true, 0, 0, r); byte(0xFF); modrm(3, 1, r); }
  void inc_mem(int base, int disp) { rex(true, 0, 0, base); byte(0xFF); mem(0, base, disp); }
  void add_sib_imm8(int base, int index, std::uint8_t v) {
    rex(true, 0, index, base); byte(0x83); sib_mem(0, base, index, 3); byte(v);
  }
  void sub_rsp8() { byte(0x48); byte(0x83); byte(0xEC); byte(0x08); }
  void add_rsp8() { byte(0x48); byte(0x83); byte(0xC4); byte(0x08); }
  void call_r(int r) { rex_opt(0, 0, r); byte(0xFF); modrm(3, 2, r); }
  void jmp_label(Label& l) { byte(0xE9); rel32(l); }
  void jb_label(Label& l) { byte(0x0F); byte(0x82); rel32(l); }
  void jae_label(Label& l) { byte(0x0F); byte(0x83); rel32(l); }
  void ret() { byte(0xC3); }
  void cmp_mem0(int base, int disp) {
    rex(true, 0, 0, base); byte(0x83); mem(7, base, disp); byte(0);
  }
  void je_label(Label& l) { byte(0x0F); byte(0x84); rel32(l); }
  void jne_label(Label& l) { byte(0x0F); byte(0x85); rel32(l); }
  // 32-bit forms (the upper half of the destination is zeroed).
  void and32_rr(int dst, int src) { rex_opt(src, 0, dst); byte(0x21); modrm(3, src, dst); }
  void and32_ri(int r, std::uint32_t v) { rex_opt(0, 0, r); byte(0x81); modrm(3, 4, r); imm32(v); }
  void test32_ri(int r, std::uint32_t v) { rex_opt(0, 0, r); byte(0xF7); modrm(3, 0, r); imm32(v); }
  void cmp32_ri8(int r, std::uint8_t v) { rex_opt(0, 0, r); byte(0x83); modrm(3, 7, r); byte(v); }
  void bsf32_rr(int dst, int src) { rex_opt(dst, 0, src); byte(0x0F); byte(0xBC); modrm(3, dst, src); }
  void imul_rr(int dst, int src) { rex(true, dst, 0, src); byte(0x0F); byte(0xAF); modrm(3, dst, src); }
  // SSE2 packed-integer ops for the tag probe (xmm0..xmm7).
  void sse_rm(std::uint8_t prefix, std::uint8_t op, int x, int base, int disp) {
    byte(prefix); rex_opt(x, 0, base); byte(0x0F); byte(op); mem(x, base, disp);
  }
  void sse_rr(std::uint8_t op, int x, int x2) { byte(0x66); byte(0x0F); byte(op); modrm(3, x, x2); }
  void movdqu_x_mem(int x, int base, int disp) { sse_rm(0xF3, 0x6F, x, base, disp); }
  void movd_x_mem(int x, int base, int disp) { sse_rm(0x66, 0x6E, x, base, disp); }  // upper dwords zeroed
  void movd_x_r(int x, int r) { byte(0x66); rex_opt(x, 0, r); byte(0x0F); byte(0x6E); modrm(3, x, r); }
  void pshufd(int x, int x2, std::uint8_t order) { sse_rr(0x70, x, x2); byte(order); }
  void pcmpeqd(int x, int x2) { sse_rr(0x76, x, x2); }
  void packssdw(int x, int x2) { sse_rr(0x6B, x, x2); }
  void packsswb(int x, int x2) { sse_rr(0x63, x, x2); }
  void pmovmskb(int r, int x) { sse_rr(0xD7, r, x); }  // r is a low register
  // SSE2 scalar double ops.
  void movsd_x_mem(int x, int base, int disp) { sse_rm(0xF2, 0x10, x, base, disp); }
  void movsd_mem_x(int base, int disp, int x) { sse_rm(0xF2, 0x11, x, base, disp); }
  void addsd_x_mem(int x, int base, int disp) { sse_rm(0xF2, 0x58, x, base, disp); }
};

}  // namespace

bool NativeKernel::emit(std::uint32_t ways, std::uint32_t line_shift,
                        std::uint64_t set_mask, bool profiled) {
  if (!ExecutableAllocator::supported()) return false;
  if (entry_ != nullptr) {
    alloc_.release(entry_);
    entry_ = nullptr;
  }
  profiled_ = profiled;
  if (ways == 0 || ways > memsim::Cache::kMaxWays) return false;
  const int top_shift = 4 * static_cast<int>(ways - 1);

  Asm a;
  Asm::Label loop, walk, clamp, addr, other, random, random_rare, random_ok,
      not_random, draw_retry, draw_rare, drawn, pick, shape, permute,
      candidate, candidate_next, miss, hit, next, done;

  // ---- prologue: 6 pushes + sub 8 leaves rsp 16-aligned at call sites.
  a.push_r(kRbx);
  a.push_r(kRbp);
  a.push_r(kR12);
  a.push_r(kR13);
  a.push_r(kR14);
  a.push_r(kR15);
  a.sub_rsp8();
  a.mov_rr(kRbx, kRdi);  // frame
  a.mov_r_mem(kR12, kRbx, 0);
  a.mov_r_mem(kR13, kRbx, 8);
  a.mov_r_mem(kR14, kRbx, 16);
  a.mov_r_mem(kR15, kRbx, 24);
  a.movsd_x_mem(7, kRbx, kFrameLatency);  // xmm7 = the running latency sum
  a.xor32_rr(kRbp, kRbp);  // k = 0
  a.cmp_mem0(kRbx, kFrameAccesses);  // n_accesses == 0?
  a.je_label(done);

  // xoshiro256** step on r12..r15: draw in rax, rdi clobbered.
  const auto emit_step = [&]() {
    a.lea_r13x5(kRax);  // s1 * 5
    a.rol_ri(kRax, 7);
    a.lea_sib(kRax, kRax, kRax, 3);  // * 9
    a.mov_rr(kRdi, kR13);
    a.shl_ri(kRdi, 17);  // t
    a.xor_rr(kR14, kR12);
    a.xor_rr(kR15, kR13);
    a.xor_rr(kR13, kR14);
    a.xor_rr(kR12, kR15);
    a.xor_rr(kR14, kRdi);
    a.rol_ri(kR15, 45);
  };
  // Lemire's rare case, out of line: rax:rdx = the low:high product of a
  // draw and the bound in rcx, with low < bound. Accepts (high back in rdx,
  // on to `ok`) unless low falls under the rejection threshold
  // (0 - bound) % bound, in which case it draws again at `retry`. Clobbers
  // r10 and r11; rcx survives.
  const auto emit_lemire_rare = [&](Asm::Label& ok, Asm::Label& retry) {
    a.mov_rr(kR10, kRax);
    a.mov_rr(kR11, kRdx);
    a.mov_rr(kRax, kRcx);
    a.neg_r(kRax);
    a.xor32_rr(kRdx, kRdx);
    a.div_r(kRcx);  // rdx = (0 - bound) % bound
    a.cmp_rr(kR10, kRdx);
    a.mov_rr(kRdx, kR11);
    a.jae_label(ok);
    a.jmp_label(retry);
  };

  // ---- per access: the draw, the column, the slot's record and kind.
  a.bind(loop);
  emit_step();
  if (profiled) a.mov_mem_r(kRbx, kFrameDraw, kRax);  // for the write coin
  a.mov32_rr(kRcx, kRax);  // zero-extended low 32 bits
  a.imul_r_mem(kRcx, kRbx, kFrameCols);
  a.shr_ri(kRcx, 32);      // column
  a.shl_ri(kRcx, 5);       // * sizeof(SlotColumn)
  a.add_r_mem(kRcx, kRbx, kFrameColumns);
  a.movzx8_r_mem(kRsi, kRcx, kColumnKind);
  a.movzx8_r_mem(kRdx, kRcx, kColumnAliasKind);
  a.mov_r_mem(kR8, kRcx, kColumnRec);
  a.mov_r_mem(kRdi, kRcx, kColumnAliasRec);
  a.shr_ri(kRax, 32);
  a.and_r_mem(kRax, kRbx, kFrameCoinMask);  // coin
  a.cmp_r_mem(kRax, kRcx, 0);               // coin - threshold
  a.cmovae_rr(kR8, kRdi);  // r8 = coin < thr ? own record : alias record
  a.cmovae_rr(kRsi, kRdx);                  // and its kind, in rsi
  a.mov_rr(kR9, kR8);                       // serving from it, unless picked
  // Kind zero, an in-range walk that draws nothing, falls through; every
  // other kind leaves here. The branch waits on the column's load alone.
  a.test_rr(kRsi, kRsi);
  a.jne_label(other);
  // Walk (LineWalk::step) on the record's copy: line = position; position
  // += stride, wrapped. Only a walk that can pass its object is clamped.
  a.bind(walk);
  a.mov_r_mem(kRax, kR8, kWalkPosition);  // line
  a.mov_r_mem(kRdx, kR8, kWalkStride);
  a.add_rr(kRdx, kRax);
  a.mov_rr(kRcx, kRdx);
  a.sub_r_mem(kRcx, kR8, kWalkLines);  // borrows unless the walk wraps
  a.cmovae_rr(kRdx, kRcx);
  a.mov_mem_r(kR8, kWalkPosition, kRdx);
  a.shl_ri(kRax, 6);
  a.test32_ri(kRsi, kClamped);
  a.jne_label(clamp);

  // ---- the LLC probe: the exact Cache::access sequence with the geometry
  // baked in. r10 = addr, rax = tag, rsi = the set's tag row, rdx =
  // &order[set]; r9 = the record a miss is served from.
  a.bind(addr);  // rax = the offset
  a.mov_r_mem(kR10, kR9, 0);
  a.add_rr(kR10, kRax);
  a.mov_rr(kRax, kR10);
  a.shr_ri(kRax, static_cast<int>(line_shift));  // tag
  a.mov_rr(kRcx, kRax);
  a.mov_ri64(kRdi, set_mask);
  a.and_rr(kRcx, kRdi);                  // set
  a.mov_r_mem(kRdx, kRbx, kFrameOrder);
  a.lea_sib(kRdx, kRdx, kRcx, 3);
  if (std::has_single_bit(ways)) {
    a.shl_ri(kRcx, std::countr_zero(ways));
  } else {
    a.imul_rri(kRcx, kRcx, ways);
  }
  a.mov_r_mem(kRsi, kRbx, kFrameTags);
  a.lea_sib(kRsi, kRsi, kRcx, 3);  // a row is 8 bytes a way
  // SSE2 tag match on the row's low dwords (memsim::Cache::way_tag): the
  // tag's low dword, broadcast in xmm2, is compared four ways (16 bytes)
  // at a time — one way loads alone, and otherwise every load ends inside
  // the row, whose high dwords follow its low ones. Up to four compares
  // pack to one byte per way and pmovmskb gives one bit per way; bits of
  // absent ways (high dwords past the last way, or a repeated register
  // when the group is short) are masked off. Any candidate leaves on the
  // one jne, to confirm its high dword out of line.
  const int row_highs = 4 * static_cast<int>(ways);  // bytes to the highs
  a.movd_x_r(2, kRax);
  a.pshufd(2, 2, 0);
  const std::uint32_t chunks = (ways + 3) / 4;
  for (std::uint32_t c = 0; c < chunks; ++c) {
    const int x = 3 + static_cast<int>(c);
    if (ways == 1) {
      a.movd_x_mem(x, kRsi, 0);
    } else {
      a.movdqu_x_mem(x, kRsi, static_cast<int>(c) * 16);
    }
    a.pcmpeqd(x, 2);
  }
  a.packssdw(3, chunks > 1 ? 4 : 3);
  if (chunks > 2) a.packssdw(5, chunks > 3 ? 6 : 5);
  a.packsswb(3, chunks > 2 ? 5 : 3);
  a.pmovmskb(kRcx, 3);
  a.and32_ri(kRcx, static_cast<std::uint32_t>((1ULL << ways) - 1));
  a.jne_label(candidate);
  // Miss (Cache::evict): pop the least-recent way, push it on top, install
  // both tag halves.
  a.bind(miss);
  a.mov_r_mem(kR8, kRdx, 0);
  a.mov_ri32(kRcx, 0xF);
  a.and_rr(kRcx, kR8);              // victim
  a.shr_ri(kR8, 4);
  a.mov_rr(kR11, kRcx);
  a.shl_ri(kR11, top_shift);
  a.or_rr(kR8, kR11);
  a.mov_mem_r(kRdx, 0, kR8);
  a.mov32_sib_r(kRsi, kRcx, 2, 0, kRax);  // the low dword
  a.shr_ri(kRax, 32);
  a.mov32_sib_r(kRsi, kRcx, 2, row_highs, kRax);  // the high dword
  a.addsd_x_mem(7, kR9, 8);         // latency += the server's latency
  a.mov_r_mem(kRcx, kRbx, kFrameTierSim);
  a.mov_r_mem(kR11, kR9, 16);
  a.add_sib_imm8(kRcx, kR11, 64);   // [tier] += kCacheLineBytes
  if (profiled) {
    // miss_out[misses] = {k, addr, draw's write coin}.
    a.mov_r_mem(kRcx, kRbx, kFrameMisses);
    a.lea_sib(kRcx, kRcx, kRcx, 1);  // * 3 words
    a.mov_r_mem(kRdx, kRbx, kFrameMissOut);
    a.lea_sib(kRdx, kRdx, kRcx, 3);
    a.mov_mem_r(kRdx, 0, kRbp);
    a.mov_mem_r(kRdx, 8, kR10);
    a.mov_r_mem(kRax, kRbx, kFrameDraw);
    a.mov_r_mem(kRcx, kRbx, kFrameWriteShift);
    a.shr_cl(kRax);
    a.xor32_rr(kR8, kR8);
    a.cmp_r_mem(kRax, kRbx, kFrameWriteThreshold);
    a.adc_ri8(kR8, 0);               // is_write = coin < threshold
    a.mov_mem_r(kRdx, 16, kR8);
  }
  a.inc_mem(kRbx, kFrameMisses);
  // On to the next access; the hit path below rejoins here.
  a.bind(next);
  a.inc_r(kRbp);
  a.cmp_r_mem(kRbp, kRbx, kFrameAccesses);
  a.jb_label(loop);

  a.bind(done);
  a.movsd_mem_x(kRbx, kFrameLatency, 7);
  a.mov_mem_r(kRbx, 0, kR12);
  a.mov_mem_r(kRbx, 8, kR13);
  a.mov_mem_r(kRbx, 16, kR14);
  a.mov_mem_r(kRbx, 24, kR15);
  a.add_rsp8();
  a.pop_r(kR15);
  a.pop_r(kR14);
  a.pop_r(kR13);
  a.pop_r(kR12);
  a.pop_r(kRbp);
  a.pop_r(kRbx);
  a.ret();

  // ---- every other kind, out of line, dispatched on the kind in rsi.
  // A single-instance random object, the next most common, runs first.
  a.bind(other);
  a.cmp32_ri8(kRsi, kShapeRandom);
  a.jne_label(not_random);
  // Random (RandomLines::step) on the record's copy: Xoshiro256::below(lines)
  // on the object's four state words.
  a.bind(random);
  a.mov_r_mem(kRdx, kR8, kRandomRng + 8);   // s1
  a.lea_sib(kRax, kRdx, kRdx, 2);           // s1 * 5
  a.rol_ri(kRax, 7);
  a.lea_sib(kRax, kRax, kRax, 3);           // * 9: the draw
  a.mov_rr(kRcx, kRdx);
  a.shl_ri(kRcx, 17);                       // t
  a.mov_r_mem(kRdi, kR8, kRandomRng + 16);
  a.xor_r_mem(kRdi, kR8, kRandomRng);       // s2 ^= s0
  a.mov_r_mem(kR10, kR8, kRandomRng + 24);
  a.xor_rr(kR10, kRdx);                     // s3 ^= s1
  a.xor_rr(kRdx, kRdi);                     // s1 ^= s2
  a.mov_r_mem(kR11, kR8, kRandomRng);
  a.xor_rr(kR11, kR10);                     // s0 ^= s3
  a.xor_rr(kRdi, kRcx);                     // s2 ^= t
  a.rol_ri(kR10, 45);                       // s3 = rotl(s3, 45)
  a.mov_mem_r(kR8, kRandomRng, kR11);
  a.mov_mem_r(kR8, kRandomRng + 8, kRdx);
  a.mov_mem_r(kR8, kRandomRng + 16, kRdi);
  a.mov_mem_r(kR8, kRandomRng + 24, kR10);
  a.mov_r_mem(kRcx, kR8, kRandomLines);
  a.mul_r(kRcx);  // rdx:rax = draw * lines
  a.cmp_rr(kRax, kRcx);
  a.jb_label(random_rare);
  a.bind(random_ok);
  a.mov_rr(kRax, kRdx);
  a.shl_ri(kRax, 6);
  a.test32_ri(kRsi, kClamped);
  a.je_label(addr);
  // Offset in rax, clamped to [0, clamp) exactly as the interpreter does.
  a.bind(clamp);
  a.xor32_rr(kRdx, kRdx);
  a.cmp_r_mem(kRax, kR8, kSlotClamp);
  a.cmovae_rr(kRax, kRdx);
  a.jmp_label(addr);

  // Then the main-RNG draw a stack line or an instance pick takes
  // (below(bound), as the interpreter).
  a.bind(not_random);
  a.test32_ri(kRsi, kDrawsMain);
  a.je_label(shape);
  a.bind(draw_retry);
  emit_step();
  a.mov_r_mem(kRcx, kR8, kSlotBound);
  a.mul_r(kRcx);  // rdx:rax = draw * bound
  a.cmp_rr(kRax, kRcx);
  a.jb_label(draw_rare);
  a.bind(drawn);  // rdx = the line or the instance
  a.cmp32_ri8(kRsi, kShapeStack | kDrawsMain);
  a.jne_label(pick);
  a.mov_rr(kRax, kRdx);
  a.shl_ri(kRax, 6);  // a stack line: in range by construction, no clamp
  a.jmp_label(addr);
  a.bind(pick);
  a.shl_ri(kRdx, 5);  // * sizeof(InstanceSlot)
  a.mov_r_mem(kR9, kR8, kSlotPool);
  a.add_rr(kR9, kRdx);  // serve from the picked instance
  // Then the offset, by shape.
  a.bind(shape);
  a.mov32_rr(kRax, kRsi);
  a.and32_ri(kRax, kShapeMask);
  a.je_label(walk);
  a.cmp32_ri8(kRax, kShapeRandom);
  a.je_label(random);
  a.cmp32_ri8(kRax, kShapePermute);
  a.je_label(permute);
  // Call-out: the C call clobbers every caller-saved register and every
  // xmm register, so park both records and the latency sum in the frame.
  a.mov_mem_r(kRbx, kFrameSpill, kR8);
  a.mov_mem_r(kRbx, kFrameSpill + 8, kR9);
  a.movsd_mem_x(kRbx, kFrameLatency, 7);
  a.mov_r_mem(kRdi, kR8, kSlotGen);
  a.mov_ri64(kRax, reinterpret_cast<std::uint64_t>(&hmem_kernel_gen_next));
  a.call_r(kRax);
  a.movsd_x_mem(7, kRbx, kFrameLatency);
  a.mov_r_mem(kR8, kRbx, kFrameSpill);
  a.mov_r_mem(kR9, kRbx, kFrameSpill + 8);
  a.jmp_label(clamp);

  // Permute (PermuteLines::step): line = table[position]; wrapping cursor.
  a.bind(permute);
  a.mov_r_mem(kRcx, kR8, kPermutePosition);
  a.mov_r_mem(kRdi, kR8, kPermuteTable);
  a.mov32_r_sib(kRax, kRdi, kRcx, 2);  // line = table[position]
  a.inc_r(kRcx);
  a.xor32_rr(kRdx, kRdx);
  a.cmp_r_mem(kRcx, kR8, kPermuteLines);
  a.cmovae_rr(kRcx, kRdx);  // ++position == lines -> 0
  a.mov_mem_r(kR8, kPermutePosition, kRcx);
  a.shl_ri(kRax, 6);
  a.jmp_label(clamp);

  // Hit (Cache::touch), edi = the way: flag the way's nibble, splice it out
  // below/above, push it on top. Out of line — hits are rare — but no call.
  a.bind(hit);
  a.mov32_rr(kRcx, kRdi);           // way
  a.mov_ri64(kRax, kNibbleOnes);
  a.mov_rr(kR11, kRax);
  a.imul_rr(kR11, kRcx);            // the way's id in every nibble
  a.mov_r_mem(kR8, kRdx, 0);        // order
  a.xor_rr(kR11, kR8);              // x: zero nibble at the way
  a.mov_rr(kRdi, kR11);
  a.sub_rr(kRdi, kRax);
  a.not_r(kR11);
  a.and_rr(kRdi, kR11);
  a.mov_ri64(kRax, kNibbleHighs);
  a.and_rr(kRdi, kRax);             // zero = (x - ones) & ~x & highs
  a.mov_rr(kRax, kRdi);
  a.neg_r(kRax);
  a.and_rr(kRax, kRdi);             // zero & -zero
  a.shr_ri(kRax, 3);
  a.dec_r(kRax);                    // below
  a.mov_rr(kR11, kR8);
  a.and_rr(kR11, kRax);             // order & below
  a.shr_ri(kR8, 4);
  a.not_r(kRax);
  a.and_rr(kR8, kRax);              // (order >> 4) & ~below
  a.or_rr(kR8, kR11);
  a.shl_ri(kRcx, top_shift);
  a.or_rr(kR8, kRcx);
  a.mov_mem_r(kRdx, 0, kR8);
  a.addsd_x_mem(7, kRbx, kFrameLlcLatency);
  a.jmp_label(next);

  // Low-dword candidates in ecx, lowest first (Cache::find_way's order): a
  // way whose high dword matches too is the hit; none is a miss. The tag in
  // rax survives for the miss path.
  a.bind(candidate);
  a.mov_rr(kR11, kRax);
  a.shr_ri(kR11, 32);               // the tag's high dword
  a.bind(candidate_next);
  a.bsf32_rr(kRdi, kRcx);
  a.cmp32_r_sib(kR11, kRsi, kRdi, 2, row_highs);
  a.je_label(hit);
  a.mov_rr(kR8, kRcx);
  a.dec_r(kR8);
  a.and32_rr(kRcx, kR8);            // drop the lowest candidate
  a.jne_label(candidate_next);
  a.jmp_label(miss);

  a.bind(draw_rare);
  emit_lemire_rare(drawn, draw_retry);
  a.bind(random_rare);
  emit_lemire_rare(random_ok, random);

  // ---- map and seal W^X.
  void* base = alloc_.allocate(a.buf.size());
  if (base == nullptr) return false;
  std::memcpy(base, a.buf.data(), a.buf.size());
  if (!alloc_.seal(base)) {
    alloc_.release(base);
    return false;
  }
  entry_ = base;
  return true;
}

void NativeKernel::run(SlotTable& table, Frame& frame) const {
  HMEM_ASSERT(entry_ != nullptr);
  HMEM_ASSERT_MSG((frame.miss_out != nullptr) == profiled_,
                  "miss buffer must match the emitted profiling mode");
  HMEM_ASSERT_MSG(table.program_ != nullptr, "run needs a bound table");
  const Program& p = *table.program_;
  frame.columns = table.columns_.data();
  frame.n_cols = p.threshold.size();
  frame.coin_mask = p.coin_mask;
  frame.write_threshold = p.write_threshold;
  frame.write_shift = p.write_shift;
  frame.llc_latency_ns = p.llc_latency_ns;
  for (SlotRecord& rec : table.records_) {
    if (rec.state_bytes != 0) std::memcpy(rec.state, rec.gen, rec.state_bytes);
  }
  reinterpret_cast<void (*)(Frame*)>(entry_)(&frame);
  for (const SlotRecord& rec : table.records_) {
    if (rec.state_bytes != 0) std::memcpy(rec.gen, rec.state, rec.state_bytes);
  }
}

namespace {

/// One slot of a self-test program: a stack of `count` lines (gen < 0), or
/// an object over gens[gen] — a fixed block when `count` is 0, else a pick
/// of `count` instances (a pick of one still draws, as kPickAddr does).
struct SelfTestSlot {
  int gen;
  std::uint64_t count;
  memsim::Address base;
  std::uint32_t tier;
};

/// The self-test's two programs over one set of generators, bound to one
/// emitted loop in succession; they differ in slot count and order, bases,
/// tiers, stack lines and which streams are picked from. Variant 0: two
/// stacks (the second 2^38 bytes above the first, so their tags equal in
/// the low dword and differ in the high one, which the probe must tell
/// apart; 96 lines exercise Lemire's rejection threshold), then fixed
/// blocks and a three-instance pick of the random stream. Variant 1:
/// objects first — both random streams fixed, and picks of the permute
/// cursor (five instances), the bursty call-out (one) and a second seq
/// walk (two) — then one stack. Offsets clamp at 40 lines, which the
/// stride walk and the long random stream overrun and the seq walks and
/// the short random stream do not.
const std::vector<SelfTestSlot>& self_test_layout(int variant) {
  static const std::vector<SelfTestSlot> layouts[2] = {
      {{-1, 96, 1ULL << 20, 0},
       {-1, 64, (1ULL << 20) + (1ULL << 38), 1},
       {0, 0, 4ULL << 20, 0},
       {1, 3, 5ULL << 20, 1},
       {2, 0, 6ULL << 20, 0},
       {3, 0, 7ULL << 20, 1},
       {4, 0, 8ULL << 20, 0}},
      {{0, 0, (1ULL << 32) + (9ULL << 20), 1},
       {1, 0, (1ULL << 32) + (10ULL << 20), 0},
       {2, 0, (1ULL << 32) + (11ULL << 20), 1},
       {3, 5, (1ULL << 32) + (12ULL << 20), 0},
       {4, 1, (1ULL << 32) + (13ULL << 20), 1},
       {5, 2, (1ULL << 32) + (14ULL << 20), 0},
       {6, 0, (1ULL << 32) + (15ULL << 20), 1},
       {-1, 33, (1ULL << 32) + (3ULL << 20), 0}}};
  return layouts[variant];
}

/// A self-test program: `variant`'s layout, served from two tiers. Only the
/// slots in `active` ever run: the other columns divert every coin to an
/// active one.
Program self_test_program(
    int variant,
    const std::vector<std::unique_ptr<apps::AccessGenerator>>& gens,
    const std::vector<std::uint32_t>& active) {
  const std::vector<SelfTestSlot>& layout = self_test_layout(variant);
  Program p;
  for (std::size_t c = 0; c < layout.size(); ++c) {
    const bool on =
        std::find(active.begin(), active.end(), c) != active.end();
    p.threshold.push_back(on ? 1 + c % 2 : 0);  // odd columns keep every coin
    p.alias.push_back(active[(c + 3) % active.size()]);
  }
  p.coin_mask = 1;
  p.write_threshold = 512;  // about a quarter of the accesses write
  p.write_shift = 53;
  p.llc_latency_ns = 10.0;
  p.n_tiers = 2;
  const auto serve_fixed = [&](std::uint32_t tier) {
    Insn serve;
    serve.op = Op::kServeFixed;
    serve.a = tier;
    serve.f = tier == 0 ? 130.0 : 155.0;
    p.code.push_back(serve);
  };
  for (const SelfTestSlot& slot : layout) {
    p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
    Insn head;
    if (slot.gen < 0) {
      head.op = Op::kStackAddr;
      head.imm0 = slot.base;
      head.imm1 = slot.count;
      p.code.push_back(head);
      serve_fixed(slot.tier);
      continue;
    }
    if (slot.count > 0) {
      head.op = Op::kPickAddr;
      head.imm0 = p.instances.size();
      head.a = static_cast<std::uint32_t>(slot.count);
      for (std::uint64_t i = 0; i < slot.count; ++i) {
        InstanceSlot instance;
        instance.base = slot.base + (i << 16);
        instance.latency_ns = 100.0 + static_cast<double>(i);
        instance.tier = (slot.tier + i) % 2;
        p.instances.push_back(instance);
      }
    } else {
      head.op = Op::kFixedAddr;
      head.imm0 = slot.base;
    }
    p.code.push_back(head);
    Insn off;
    off.op = offset_op(*gens[static_cast<std::size_t>(slot.gen)]);
    off.a = static_cast<std::uint32_t>(p.gens.size());
    off.imm0 = 40 * memsim::kCacheLineBytes;
    p.gens.push_back(gens[static_cast<std::size_t>(slot.gen)].get());
    p.code.push_back(off);
    if (slot.count > 0) {
      Insn serve;
      serve.op = Op::kServePicked;
      p.code.push_back(serve);
    } else {
      serve_fixed(slot.tier);
    }
  }
  return p;
}

/// Everything one self-test burst can change.
struct SelfTestOutcome {
  double latency = 0;
  std::uint64_t misses = 0;
  std::uint64_t rng[4] = {0, 0, 0, 0};
  std::uint64_t tier_sim[2] = {0, 0};
  std::vector<std::uint32_t> tags;
  std::vector<std::uint64_t> order;
  std::vector<MissRecord> records;
  std::vector<std::uint64_t> gen_next;  ///< each stream's next offsets after

  bool operator==(const SelfTestOutcome& o) const {
    if (bits_of(latency) != bits_of(o.latency) || misses != o.misses ||
        std::memcmp(rng, o.rng, sizeof(rng)) != 0 ||
        std::memcmp(tier_sim, o.tier_sim, sizeof(tier_sim)) != 0 ||
        tags != o.tags || order != o.order || gen_next != o.gen_next ||
        records.size() != o.records.size()) {
      return false;
    }
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (records[r].order != o.records[r].order ||
          records[r].addr != o.records[r].addr ||
          records[r].is_write != o.records[r].is_write) {
        return false;
      }
    }
    return true;
  }
};

/// One-time emit-and-execute check. Per LLC geometry and profiling mode,
/// one emitted loop is bound to both self-test programs in succession —
/// every slot shape (stack; fixed and picked walk, random, permute and
/// bursty call-out; picks of one and of several instances) — and each
/// burst must agree with the bytecode VM from identical state on every
/// output bit: frame results, LLC state, RNG state, each generator's
/// stream position and every miss record. It runs in three geometries, one
/// per shape of the emitted tag probe — 4 ways (one load), 16 ways (every
/// preset; four loads) and 3 (one load whose last lane, way 0's high dword,
/// is masked off) — and in each, every group of slots by block shape alone
/// and all of them together must both hit and miss. A failure (broken mmap
/// policy, emitter regression on an exotic toolchain) downgrades the
/// process to the bytecode VM, so a mis-emitted path can never reach a
/// result or a trace.
bool native_self_test() {
  constexpr std::uint64_t kSets = 8;
  constexpr std::uint64_t kAccesses = 512;
  const auto object = [](apps::AccessPattern pattern, std::uint64_t lines,
                         std::uint64_t stride) {
    apps::ObjectSpec spec;
    spec.name = "self-test";
    spec.size_bytes = lines * memsim::kCacheLineBytes;
    spec.pattern = pattern;
    spec.stride_lines = stride;
    return spec;
  };
  // Short streams, so every walk and cursor wraps within the burst.
  const apps::ObjectSpec specs[] = {
      object(apps::AccessPattern::kStrided, 50, 7),
      object(apps::AccessPattern::kRandom, 1000, 0),
      object(apps::AccessPattern::kStream, 30, 0),
      object(apps::AccessPattern::kRandomPermute, 20, 0),
      object(apps::AccessPattern::kBursty, 300, 0),
      object(apps::AccessPattern::kStream, 24, 0),
      object(apps::AccessPattern::kRandom, 32, 0),
  };
  // Per variant, slots by block shape (stack / fixed / pick), then all.
  const std::vector<std::uint32_t> slot_sets[2][4] = {
      {{0, 1}, {2, 4, 5, 6}, {3}, {0, 1, 2, 3, 4, 5, 6}},
      {{7}, {0, 1, 2, 6}, {3, 4, 5}, {0, 1, 2, 3, 4, 5, 6, 7}}};

  const auto run = [&](int variant, std::uint32_t ways,
                       const std::vector<std::uint32_t>& active,
                       const NativeKernel* native, bool profiled,
                       SelfTestOutcome* out) {
    std::vector<std::unique_ptr<apps::AccessGenerator>> gens;
    for (const apps::ObjectSpec& spec : specs) {
      gens.push_back(
          std::make_unique<apps::AccessGenerator>(spec, 0x5eed + gens.size()));
    }
    const Program p = self_test_program(variant, gens, active);
    if (!verify_program(p).empty()) return false;
    out->tags.assign(kSets * 2 * ways, memsim::Cache::kInvalidTagHalf);
    out->order.assign(kSets, memsim::Cache::initial_order(ways));
    if (profiled) out->records.resize(kAccesses);
    Frame f;
    f.tags = out->tags.data();
    f.order = out->order.data();
    f.ways = ways;
    f.line_shift = 6;
    f.set_mask = kSets - 1;
    f.n_accesses = kAccesses;
    f.tier_sim = out->tier_sim;
    f.miss_out = profiled ? out->records.data() : nullptr;
    Xoshiro256 rng(0x5e1f7e57ULL);
    if (native != nullptr) {
      SlotTable table;
      if (!table.bind(p)) return false;
      rng.save_state(f.rng_state);
      native->run(table, f);
      for (int i = 0; i < 4; ++i) out->rng[i] = f.rng_state[i];
    } else {
      run_bytecode(p, f, rng);
      rng.save_state(out->rng);
    }
    out->latency = f.latency_ns;
    out->misses = f.misses;
    if (profiled) out->records.resize(f.misses);
    for (const auto& gen : gens) {
      for (int i = 0; i < 4; ++i) out->gen_next.push_back(gen->next_offset());
    }
    return true;
  };

  for (const std::uint32_t ways : {4u, 16u, 3u}) {
    for (const bool profiled : {false, true}) {
      NativeKernel kern;
      if (!kern.emit(ways, 6, kSets - 1, profiled)) return false;
      for (const int variant : {0, 1}) {
        for (const std::vector<std::uint32_t>& active : slot_sets[variant]) {
          SelfTestOutcome bytecode, native;
          if (!run(variant, ways, active, nullptr, profiled, &bytecode) ||
              !run(variant, ways, active, &kern, profiled, &native)) {
            return false;
          }
          if (!(bytecode == native)) return false;
          // The burst must actually have exercised both paths it checks.
          if (bytecode.misses == 0 || bytecode.misses == kAccesses) {
            return false;
          }
        }
      }
    }
  }
  return true;
}

}  // namespace

bool native_available() {
  static const bool ok =
      ExecutableAllocator::supported() && native_self_test();
  return ok;
}

#endif  // HMEM_NATIVE_X64

}  // namespace hmem::engine::kernel
