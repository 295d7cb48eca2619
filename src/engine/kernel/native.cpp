#include "engine/kernel/native.hpp"

#include <algorithm>
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

#ifndef HMEM_NATIVE_X64

bool native_available() { return false; }
bool NativeKernel::compile(const Program&, std::uint32_t, std::uint32_t,
                           std::uint64_t, bool) {
  return false;
}
void NativeKernel::run(Frame&) const {}

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
constexpr int kFrameScratch = offsetof(Frame, scratch);
constexpr int kFrameDraw = offsetof(Frame, draw);
constexpr int kFrameNextBlock = offsetof(Frame, next_block);
constexpr int kFrameTags = offsetof(Frame, tags);
constexpr int kFrameOrder = offsetof(Frame, order);
static_assert(sizeof(memsim::Address) == 8);
static_assert(offsetof(InstanceSlot, base) == 0);
static_assert(offsetof(InstanceSlot, latency_ns) == 8);
static_assert(offsetof(InstanceSlot, tier) == 16);
// A miss record is three words; the emitted store writes is_write as a
// whole word (0 or 1 in its low byte, zeros over the padding).
static_assert(sizeof(MissRecord) == 24);
static_assert(offsetof(MissRecord, order) == 0);
static_assert(offsetof(MissRecord, addr) == 8);
static_assert(offsetof(MissRecord, is_write) == 16);
// Inline generator state, stepped in place (apps/workload_gen.hpp).
constexpr int kWalkPosition = offsetof(apps::LineWalk, position);
constexpr int kPermutePosition = offsetof(apps::PermuteLines, position);
// RandomLines::rng is stepped as four raw xoshiro256** words, s0 first.
static_assert(std::is_standard_layout_v<Xoshiro256> &&
              sizeof(Xoshiro256) == 32);

// Recency-word constants for the inline hit path (memsim::Cache::touch):
// the nibble broadcast and the zero-nibble flags.
constexpr std::uint64_t kNibbleOnes = 0x1111111111111111ULL;
constexpr std::uint64_t kNibbleHighs = 0x8888888888888888ULL;

// Register numbers (SysV). Persistent state sits in callee-saved registers:
// rbx = Frame*, rbp = access counter, r12..r15 = xoshiro s0..s3. Everything
// else is per-access scratch.
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
  void sib_mem(int reg, int base, int index, int scale_log) {
    // [base + index*scale], disp 0; base never rbp/r13.
    modrm(0, reg, 4);
    byte(static_cast<std::uint8_t>((scale_log << 6) | ((index & 7) << 3) |
                                   (base & 7)));
  }

  // ---- instructions ----
  void push_r(int r) { rex_opt(0, 0, r); byte(0x50 + (r & 7)); }
  void pop_r(int r) { rex_opt(0, 0, r); byte(0x58 + (r & 7)); }
  void mov_rr(int dst, int src) { rex(true, src, 0, dst); byte(0x89); modrm(3, src, dst); }
  void mov_ri64(int r, std::uint64_t v) { rex(true, 0, 0, r); byte(0xB8 + (r & 7)); imm64(v); }
  void mov_ri32(int r, std::uint32_t v) { rex_opt(0, 0, r); byte(0xB8 + (r & 7)); imm32(v); }
  void mov_r_mem(int dst, int base, int disp) { rex(true, dst, 0, base); byte(0x8B); mem(dst, base, disp); }
  void mov_mem_r(int base, int disp, int src) { rex(true, src, 0, base); byte(0x89); mem(src, base, disp); }
  void mov_r_sib(int dst, int base, int index, int scale_log) {
    rex(true, dst, index, base); byte(0x8B); sib_mem(dst, base, index, scale_log);
  }
  void mov32_r_sib(int dst, int base, int index, int scale_log) {
    rex_opt(dst, index, base); byte(0x8B); sib_mem(dst, base, index, scale_log);
  }
  void mov_sib_r(int base, int index, int scale_log, int src) {
    rex(true, src, index, base); byte(0x89); sib_mem(src, base, index, scale_log);
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
  void rol_ri(int r, int n) { rex(true, 0, 0, r); byte(0xC1); modrm(3, 0, r); byte(static_cast<std::uint8_t>(n)); }
  void imul_rri(int dst, int src, std::uint32_t v) {
    rex(true, dst, 0, src); byte(0x69); modrm(3, dst, src); imm32(v);
  }
  void mul_r(int r) { rex(true, 0, 0, r); byte(0xF7); modrm(3, 4, r); }
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
  void call_label(Label& l) { byte(0xE8); rel32(l); }
  void jmp_label(Label& l) { byte(0xE9); rel32(l); }
  void jb_label(Label& l) { byte(0x0F); byte(0x82); rel32(l); }
  void jae_label(Label& l) { byte(0x0F); byte(0x83); rel32(l); }
  void ret() { byte(0xC3); }
  void cmp_mem0(int base, int disp) {
    rex(true, 0, 0, base); byte(0x83); mem(7, base, disp); byte(0);
  }
  void je_label(Label& l) { byte(0x0F); byte(0x84); rel32(l); }
  void jne_label(Label& l) { byte(0x0F); byte(0x85); rel32(l); }
  void jmp_mem(int base, int disp) { rex_opt(0, 0, base); byte(0xFF); mem(4, base, disp); }
  // 32-bit forms (the upper half of the destination is zeroed).
  void and32_rr(int dst, int src) { rex_opt(src, 0, dst); byte(0x21); modrm(3, src, dst); }
  void or32_rr(int dst, int src) { rex_opt(src, 0, dst); byte(0x09); modrm(3, src, dst); }
  void and32_ri(int r, std::uint32_t v) { rex_opt(0, 0, r); byte(0x81); modrm(3, 4, r); imm32(v); }
  void shl32_ri(int r, int n) { rex_opt(0, 0, r); byte(0xC1); modrm(3, 4, r); byte(static_cast<std::uint8_t>(n)); }
  void shr32_ri(int r, int n) { rex_opt(0, 0, r); byte(0xC1); modrm(3, 5, r); byte(static_cast<std::uint8_t>(n)); }
  void bsf32_rr(int dst, int src) { rex_opt(dst, 0, src); byte(0x0F); byte(0xBC); modrm(3, dst, src); }
  void imul_rr(int dst, int src) { rex(true, dst, 0, src); byte(0x0F); byte(0xAF); modrm(3, dst, src); }
  // SSE2 packed-integer ops for the tag probe (xmm0..xmm7).
  void sse_rm(std::uint8_t prefix, std::uint8_t op, int x, int base, int disp) {
    byte(prefix); rex_opt(x, 0, base); byte(0x0F); byte(op); mem(x, base, disp);
  }
  void sse_rr(std::uint8_t op, int x, int x2) { byte(0x66); byte(0x0F); byte(op); modrm(3, x, x2); }
  void movdqu_x_mem(int x, int base, int disp) { sse_rm(0xF3, 0x6F, x, base, disp); }
  void movq_x_mem(int x, int base, int disp) { sse_rm(0xF3, 0x7E, x, base, disp); }  // upper qword zeroed
  void punpcklqdq(int x, int x2) { sse_rr(0x6C, x, x2); }
  void pcmpeqd(int x, int x2) { sse_rr(0x76, x, x2); }
  void packssdw(int x, int x2) { sse_rr(0x6B, x, x2); }
  void packsswb(int x, int x2) { sse_rr(0x63, x, x2); }
  void pmovmskb(int r, int x) { sse_rr(0xD7, r, x); }  // r is a low register
  // SSE2 scalar double ops (xmm0..xmm7, low bases only — no REX needed).
  void movsd_x_mem(int x, int base, int disp) { byte(0xF2); byte(0x0F); byte(0x10); mem(x, base, disp); }
  void movsd_mem_x(int base, int disp, int x) { byte(0xF2); byte(0x0F); byte(0x11); mem(x, base, disp); }
  void addsd(int x, int x2) { byte(0xF2); byte(0x0F); byte(0x58); modrm(3, x, x2); }
  void movq_x_r(int x, int r) {
    byte(0x66); rex(true, x, 0, r); byte(0x0F); byte(0x6E); modrm(3, x, r);
  }
};

}  // namespace

bool NativeKernel::compile(const Program& p, std::uint32_t ways,
                           std::uint32_t line_shift, std::uint64_t set_mask,
                           bool profiled) {
  if (!ExecutableAllocator::supported()) return false;
  if (entry_ != nullptr) {
    alloc_.release(entry_);
    entry_ = nullptr;
  }
  profiled_ = profiled;
  const std::uint64_t n_cols = p.threshold.size();
  if (n_cols == 0 || n_cols > 0x7FFFFFFFULL) return false;
  if (ways == 0 || ways > memsim::Cache::kMaxWays) return false;
  const int top_shift = 4 * static_cast<int>(ways - 1);

  jump_table_.assign(p.slot_count(), 0);
  std::vector<std::size_t> block_offset(p.slot_count(), 0);

  Asm a;
  Asm::Label loop, serve, hit, next, done, rng_next;

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

  // Lookahead dispatch: xoshiro256**'s output depends only on the state
  // before it advances, so the next access's draw — and from it the column,
  // the alias decision and the block entry — can be computed from r13
  // without stepping the generator. Each block runs this right after its own
  // extra draws and parks the entry in frame.next_block; the loop top then
  // advances the state and jumps there, so the dispatch target is resolved
  // long before the jump instead of at the end of a dependent chain.
  // Clobbers rax, rcx, rsi, rdi and r8.
  const auto emit_lookahead = [&]() {
    a.lea_r13x5(kRax);  // the next draw: rotl(s1 * 5, 7) * 9
    a.rol_ri(kRax, 7);
    a.lea_sib(kRax, kRax, kRax, 3);
    a.mov32_rr(kRcx, kRax);  // zero-extended low 32 bits
    a.imul_rri(kRcx, kRcx, static_cast<std::uint32_t>(n_cols));
    a.shr_ri(kRcx, 32);      // column
    a.shr_ri(kRax, 32);
    a.mov_ri64(kRdi, p.coin_mask);
    a.and_rr(kRax, kRdi);    // coin
    a.mov_ri64(kRsi, reinterpret_cast<std::uint64_t>(p.threshold.data()));
    a.mov_r_sib(kRdi, kRsi, kRcx, 3);   // thr[col]
    a.mov_ri64(kRsi, reinterpret_cast<std::uint64_t>(p.alias.data()));
    a.mov32_r_sib(kR8, kRsi, kRcx, 2);  // alias[col], zero-extended
    a.cmp_rr(kRax, kRdi);               // coin - thr
    a.cmovae_rr(kRcx, kR8);             // slot = coin < thr ? col : alias
    a.mov_ri64(kRsi, reinterpret_cast<std::uint64_t>(jump_table_.data()));
    a.mov_r_sib(kRax, kRsi, kRcx, 3);
    a.mov_mem_r(kRbx, kFrameNextBlock, kRax);
  };
  emit_lookahead();  // the first access's block

  // xoshiro256** step: draw in rax (when wanted), state advanced in
  // r12..r15. Clobbers rax and rdi only.
  const auto emit_step = [&](bool want_draw) {
    if (want_draw) {
      a.lea_r13x5(kRax);  // s1 * 5
      a.rol_ri(kRax, 7);
      a.lea_sib(kRax, kRax, kRax, 3);  // * 9
    }
    a.mov_rr(kRdi, kR13);
    a.shl_ri(kRdi, 17);  // t
    a.xor_rr(kR14, kR12);
    a.xor_rr(kR15, kR13);
    a.xor_rr(kR13, kR14);
    a.xor_rr(kR12, kR15);
    a.xor_rr(kR14, kRdi);
    a.rol_ri(kR15, 45);
  };

  // ---- per-access prelude: advance the generator, dispatch.
  a.bind(loop);
  emit_step(profiled);
  if (profiled) a.mov_mem_r(kRbx, kFrameDraw, kRax);  // for the write coin
  a.jmp_mem(kRbx, kFrameNextBlock);

  // Inline Lemire below(bound) with the rejection threshold precomputed;
  // result in rdx. rng_next preserves rcx/rsi, so the loop re-multiplies
  // without reloading the constants.
  const auto emit_below = [&](std::uint64_t bound) {
    Asm::Label ok, retry;
    a.call_label(rng_next);
    a.mov_ri64(kRcx, bound);
    a.mul_r(kRcx);           // rdx:rax = draw * bound
    a.cmp_rr(kRax, kRcx);
    a.jae_label(ok);
    a.mov_ri64(kRsi, (0 - bound) % bound);
    a.bind(retry);
    a.cmp_rr(kRax, kRsi);
    a.jae_label(ok);
    a.call_label(rng_next);
    a.mul_r(kRcx);
    a.jmp_label(retry);
    a.bind(ok);
  };
  // One xoshiro256** step on the four state words at [rsi] (an object's
  // RandomLines::rng): draw in rax, state written back. rsi survives;
  // rcx, rdx, rdi, r8 and r9 are clobbered.
  const auto emit_state_step = [&]() {
    a.mov_r_mem(kRdx, kRsi, 8);      // s1
    a.lea_sib(kRax, kRdx, kRdx, 2);  // s1 * 5
    a.rol_ri(kRax, 7);
    a.lea_sib(kRax, kRax, kRax, 3);  // * 9
    a.mov_rr(kRcx, kRdx);
    a.shl_ri(kRcx, 17);              // t
    a.mov_r_mem(kRdi, kRsi, 16);
    a.xor_r_mem(kRdi, kRsi, 0);      // s2 ^= s0
    a.mov_r_mem(kR8, kRsi, 24);
    a.xor_rr(kR8, kRdx);             // s3 ^= s1
    a.xor_rr(kRdx, kRdi);            // s1 ^= s2
    a.mov_r_mem(kR9, kRsi, 0);
    a.xor_rr(kR9, kR8);              // s0 ^= s3
    a.xor_rr(kRdi, kRcx);            // s2 ^= t
    a.rol_ri(kR8, 45);               // s3 = rotl(s3, 45)
    a.mov_mem_r(kRsi, 0, kR9);
    a.mov_mem_r(kRsi, 8, kRdx);
    a.mov_mem_r(kRsi, 16, kRdi);
    a.mov_mem_r(kRsi, 24, kR8);
  };
  // An offset op: the object's next line, scaled to bytes in rax and
  // clamped to [0, size) exactly as the interpreter does. Walks, random
  // draws and permute cursors step the generator's own state in place with
  // its constant fields baked in; the remaining patterns call the
  // AccessGenerator shim. Clobbers every caller-saved register.
  const auto emit_offset = [&](const Insn& off) {
    apps::AccessGenerator* const gen = p.gens[off.a];
    const apps::InlineGen& state = gen->inline_state();
    switch (off.op) {
      case Op::kWalkOffset: {
        const apps::LineWalk& walk = *state.walk;
        a.mov_ri64(kRsi, reinterpret_cast<std::uint64_t>(&walk));
        a.mov_r_mem(kRax, kRsi, kWalkPosition);  // line
        a.mov_ri64(kRdx, walk.stride);
        a.add_rr(kRdx, kRax);
        a.mov_ri64(kRdi, walk.lines);
        a.mov_rr(kRcx, kRdx);
        a.sub_rr(kRcx, kRdi);     // borrows unless the walk wraps
        a.cmovae_rr(kRdx, kRcx);
        a.mov_mem_r(kRsi, kWalkPosition, kRdx);
        a.shl_ri(kRax, 6);
        break;
      }
      case Op::kRandomOffset: {
        // Xoshiro256::below(lines) on the object's own generator.
        const apps::RandomLines& random = *state.random;
        const std::uint64_t bound = random.lines;
        Asm::Label retry, ok;
        a.mov_ri64(kRsi, reinterpret_cast<std::uint64_t>(&random.rng));
        a.bind(retry);
        emit_state_step();
        a.mov_ri64(kRcx, bound);
        a.mul_r(kRcx);  // rdx:rax = draw * bound
        a.cmp_rr(kRax, kRcx);
        a.jae_label(ok);
        a.mov_ri64(kRdi, (0 - bound) % bound);
        a.cmp_rr(kRax, kRdi);
        a.jb_label(retry);
        a.bind(ok);
        a.mov_rr(kRax, kRdx);
        a.shl_ri(kRax, 6);
        break;
      }
      case Op::kPermuteOffset: {
        const apps::PermuteLines& permute = *state.permute;
        a.mov_ri64(kRsi, reinterpret_cast<std::uint64_t>(&permute));
        a.mov_r_mem(kRcx, kRsi, kPermutePosition);
        a.mov_ri64(kRdi, reinterpret_cast<std::uint64_t>(permute.table));
        a.mov32_r_sib(kRax, kRdi, kRcx, 2);  // line = table[position]
        a.inc_r(kRcx);
        a.xor32_rr(kRdx, kRdx);
        a.mov_ri64(kRdi, permute.lines);
        a.cmp_rr(kRcx, kRdi);
        a.cmovae_rr(kRcx, kRdx);  // ++position == lines -> 0
        a.mov_mem_r(kRsi, kPermutePosition, kRcx);
        a.shl_ri(kRax, 6);
        break;
      }
      default:
        // The C call clobbers every xmm register: park the latency sum.
        a.movsd_mem_x(kRbx, kFrameLatency, 7);
        a.mov_ri64(kRdi, reinterpret_cast<std::uint64_t>(gen));
        a.mov_ri64(kRax,
                   reinterpret_cast<std::uint64_t>(&hmem_kernel_gen_next));
        a.call_r(kRax);
        a.movsd_x_mem(7, kRbx, kFrameLatency);
        break;
    }
    a.mov_ri64(kRcx, off.imm0);
    a.xor32_rr(kRdx, kRdx);
    a.cmp_rr(kRax, kRcx);
    a.cmovae_rr(kRax, kRdx);
  };
  const auto emit_serve_const = [&](std::uint32_t tier, double latency) {
    a.mov_ri32(kR11, tier);
    a.mov_ri64(kRax, bits_of(latency));
    a.movq_x_r(1, kRax);  // xmm1 = miss latency
    a.jmp_label(serve);
  };

  // ---- per-slot blocks: own draws, lookahead, offset. Contract with
  // .serve: r10 = addr, r11 = serving tier, xmm1 = miss latency.
  for (std::size_t s = 0; s < p.slot_count(); ++s) {
    block_offset[s] = a.pos();
    const Insn* in = &p.code[p.block_start[s]];
    switch (in->op) {
      case Op::kStackAddr: {
        emit_below(in->imm1);
        a.shl_ri(kRdx, 6);  // * kCacheLineBytes
        a.mov_ri64(kR10, in->imm0);
        a.add_rr(kR10, kRdx);
        emit_lookahead();
        const Insn& sv = p.code[p.block_start[s] + 1];
        emit_serve_const(sv.a, sv.f);
        break;
      }
      case Op::kFixedAddr: {
        emit_lookahead();
        emit_offset(p.code[p.block_start[s] + 1]);
        a.mov_ri64(kR10, in->imm0);
        a.add_rr(kR10, kRax);
        const Insn& sv = p.code[p.block_start[s] + 2];
        emit_serve_const(sv.a, sv.f);
        break;
      }
      case Op::kPickAddr: {
        emit_below(in->a);
        a.shl_ri(kRdx, 5);  // InstanceSlot stride
        a.mov_ri64(kRax,
                   reinterpret_cast<std::uint64_t>(p.instances.data() +
                                                   in->imm0));
        a.add_rr(kRax, kRdx);
        a.mov_mem_r(kRbx, kFrameScratch, kRax);  // spill rec* across the offset
        emit_lookahead();
        emit_offset(p.code[p.block_start[s] + 1]);
        a.mov_r_mem(kRsi, kRbx, kFrameScratch);
        a.mov_r_mem(kR10, kRsi, 0);   // rec.base
        a.add_rr(kR10, kRax);
        a.mov_r_mem(kR11, kRsi, 16);  // rec.tier
        a.movsd_x_mem(1, kRsi, 8);    // rec.latency_ns
        a.jmp_label(serve);
        break;
      }
      default:
        return false;  // verify_program rejects these shapes already
    }
  }

  // ---- shared LLC probe: the exact Cache::access sequence with geometry
  // baked in. rax = tag, rsi = &tags[set * ways], rdx = &order[set].
  a.bind(serve);
  a.mov_rr(kRax, kR10);
  a.shr_ri(kRax, static_cast<int>(line_shift));  // tag
  a.mov_rr(kRcx, kRax);
  a.mov_ri64(kRdi, set_mask);
  a.and_rr(kRcx, kRdi);                  // set
  a.mov_r_mem(kRdx, kRbx, kFrameOrder);
  a.lea_sib(kRdx, kRdx, kRcx, 3);
  a.imul_rri(kRcx, kRcx, ways);
  a.mov_r_mem(kRsi, kRbx, kFrameTags);
  a.lea_sib(kRsi, kRsi, kRcx, 3);
  // SSE2 tag match, branch-free until the one hit test: the tag broadcast
  // in xmm2 is compared two ways (16 bytes) at a time, an odd last way
  // loaded alone (movq zeroes the upper half, so nothing past the set — or
  // past the array, for the last set — is read). Up to four compares pack
  // to one byte per dword and pmovmskb gives one bit per dword; ways 8..15
  // fill the upper half of ecx. A way matches when both of its dword bits
  // are set; bits of absent ways (an odd tail, or a repeated register when
  // a group is short) are masked off, and bsf picks the lowest way —
  // Cache::access's first match.
  a.movq_x_r(2, kRax);
  a.punpcklqdq(2, 2);
  const std::uint32_t chunks = (ways + 1) / 2;
  for (std::uint32_t g = 0; g * 4 < chunks; ++g) {
    const std::uint32_t n = std::min<std::uint32_t>(4, chunks - g * 4);
    for (std::uint32_t c = 0; c < n; ++c) {
      const std::uint32_t chunk = g * 4 + c;
      const int x = 3 + static_cast<int>(c);
      if (2 * chunk + 1 < ways) {
        a.movdqu_x_mem(x, kRsi, static_cast<int>(chunk) * 16);
      } else {
        a.movq_x_mem(x, kRsi, static_cast<int>(chunk) * 16);
      }
      a.pcmpeqd(x, 2);
    }
    a.packssdw(3, n > 1 ? 4 : 3);
    if (n > 2) a.packssdw(5, n > 3 ? 6 : 5);
    a.packsswb(3, n > 2 ? 5 : 3);
    if (g == 0) {
      a.pmovmskb(kRcx, 3);
    } else {
      a.pmovmskb(kRdi, 3);
      a.shl32_ri(kRdi, 16);
      a.or32_rr(kRcx, kRdi);
    }
  }
  a.mov32_rr(kRdi, kRcx);
  a.shr32_ri(kRdi, 1);
  a.and32_rr(kRcx, kRdi);  // bit 2w: both dwords of way w match
  const std::uint64_t way_bits =
      0x5555555555555555ULL & ((1ULL << (2 * ways)) - 1);
  a.and32_ri(kRcx, static_cast<std::uint32_t>(way_bits));
  a.jne_label(hit);
  // Miss (Cache::evict): pop the least-recent way, push it on top, install.
  a.mov_r_mem(kR8, kRdx, 0);
  a.mov_ri32(kRcx, 0xF);
  a.and_rr(kRcx, kR8);              // victim
  a.shr_ri(kR8, 4);
  a.mov_rr(kR9, kRcx);
  a.shl_ri(kR9, top_shift);
  a.or_rr(kR8, kR9);
  a.mov_mem_r(kRdx, 0, kR8);
  a.mov_sib_r(kRsi, kRcx, 3, kRax);  // tags[victim] = tag
  a.addsd(7, 1);                    // latency += miss latency
  a.mov_r_mem(kRcx, kRbx, kFrameTierSim);
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
    a.shr_ri(kRax, static_cast<int>(p.write_shift));
    a.mov_ri64(kRcx, p.write_threshold);
    a.xor32_rr(kR8, kR8);
    a.cmp_rr(kRax, kRcx);
    a.adc_ri8(kR8, 0);               // is_write = coin < threshold
    a.mov_mem_r(kRdx, 16, kR8);
  }
  a.inc_mem(kRbx, kFrameMisses);
  a.jmp_label(next);

  // Hit (Cache::touch), ecx = the match bits: flag the way's nibble, splice
  // it out below/above, push it on top. Inline — no call.
  a.bind(hit);
  a.bsf32_rr(kRcx, kRcx);
  a.shr32_ri(kRcx, 1);              // way
  a.mov_ri64(kRax, kNibbleOnes);
  a.mov_rr(kR9, kRax);
  a.imul_rr(kR9, kRcx);             // the way's id in every nibble
  a.mov_r_mem(kR8, kRdx, 0);        // order
  a.xor_rr(kR9, kR8);               // x: zero nibble at the way
  a.mov_rr(kRdi, kR9);
  a.sub_rr(kRdi, kRax);
  a.not_r(kR9);
  a.and_rr(kRdi, kR9);
  a.mov_ri64(kRax, kNibbleHighs);
  a.and_rr(kRdi, kRax);             // zero = (x - ones) & ~x & highs
  a.mov_rr(kRax, kRdi);
  a.neg_r(kRax);
  a.and_rr(kRax, kRdi);             // zero & -zero
  a.shr_ri(kRax, 3);
  a.dec_r(kRax);                    // below
  a.mov_rr(kR9, kR8);
  a.and_rr(kR9, kRax);              // order & below
  a.shr_ri(kR8, 4);
  a.not_r(kRax);
  a.and_rr(kR8, kRax);              // (order >> 4) & ~below
  a.or_rr(kR8, kR9);
  a.shl_ri(kRcx, top_shift);
  a.or_rr(kR8, kRcx);
  a.mov_mem_r(kRdx, 0, kR8);
  a.mov_ri64(kRax, bits_of(p.llc_latency_ns));
  a.movq_x_r(1, kRax);
  a.addsd(7, 1);

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

  // ---- the step as a subroutine for below()'s draws; rcx/rsi survive.
  a.bind(rng_next);
  emit_step(true);
  a.ret();

  // ---- map, resolve the dispatch table, seal W^X.
  void* base = alloc_.allocate(a.buf.size());
  if (base == nullptr) return false;
  std::memcpy(base, a.buf.data(), a.buf.size());
  for (std::size_t s = 0; s < block_offset.size(); ++s) {
    jump_table_[s] = reinterpret_cast<std::uint64_t>(base) + block_offset[s];
  }
  if (!alloc_.seal(base)) {
    alloc_.release(base);
    return false;
  }
  entry_ = base;
  return true;
}

void NativeKernel::run(Frame& frame) const {
  HMEM_ASSERT(entry_ != nullptr);
  HMEM_ASSERT_MSG((frame.miss_out != nullptr) == profiled_,
                  "miss buffer must match the compiled profiling mode");
  reinterpret_cast<void (*)(Frame*)>(entry_)(&frame);
}

namespace {

/// The self-test's program: two stack blocks, then one object block per
/// generator in `gens` — fixed-address blocks, except a three-instance pick
/// for gens[1] — served from alternating tiers. Only the slots in `active`
/// ever run: the other columns divert every coin to an active one.
Program self_test_program(
    const std::vector<std::unique_ptr<apps::AccessGenerator>>& gens,
    const std::vector<std::uint32_t>& active) {
  Program p;
  const std::size_t n = 2 + gens.size();
  for (std::size_t c = 0; c < n; ++c) {
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
  // 96 lines exercise Lemire's rejection threshold. The second stack sits
  // 2^38 bytes above the first: its tags equal the first's in the low dword
  // and differ in the high one, which the probe must tell apart.
  for (const std::uint64_t lines : {96, 64}) {
    p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
    Insn stack;
    stack.op = Op::kStackAddr;
    stack.imm0 = (1ULL << 20) + (lines == 96 ? 0 : 1ULL << 38);
    stack.imm1 = lines;
    p.code.push_back(stack);
    serve_fixed(lines == 96 ? 0 : 1);
  }
  for (std::size_t g = 0; g < gens.size(); ++g) {
    p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
    const memsim::Address base = (4ULL + g) << 20;
    Insn head;
    if (g == 1) {
      head.op = Op::kPickAddr;
      head.imm0 = p.instances.size();
      head.a = 3;
      for (std::uint64_t i = 0; i < 3; ++i) {
        InstanceSlot slot;
        slot.base = base + (i << 16);
        slot.latency_ns = 100.0 + static_cast<double>(i);
        slot.tier = i % 2;
        p.instances.push_back(slot);
      }
    } else {
      head.op = Op::kFixedAddr;
      head.imm0 = base;
    }
    p.code.push_back(head);
    Insn off;
    off.op = offset_op(*gens[g]);
    off.a = static_cast<std::uint32_t>(p.gens.size());
    off.imm0 = 40 * memsim::kCacheLineBytes;  // clamps the longer streams
    p.gens.push_back(gens[g].get());
    p.code.push_back(off);
    if (g == 1) {
      Insn serve;
      serve.op = Op::kServePicked;
      p.code.push_back(serve);
    } else {
      serve_fixed(static_cast<std::uint32_t>(g % 2));
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
  std::vector<memsim::Address> tags;
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

/// One-time emit-and-execute check: a synthetic program covering every
/// block shape and offset op (stride walk, seq walk, random, permute, and
/// a bursty call-out) runs through both backends from identical state,
/// unprofiled and profiled, and must agree on every output bit — frame
/// results, LLC state, RNG state, each generator's stream position and
/// every miss record. It runs in three LLC geometries, one per shape of the
/// emitted tag probe — 4 ways, 16 ways (every preset) and an odd 3 — and in
/// each, every block shape alone and all of them together must both hit
/// and miss. A failure (broken mmap policy, emitter regression on an exotic
/// toolchain) downgrades the process to the bytecode VM, so a mis-emitted
/// path can never reach a result or a trace.
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
  };
  // Slots by block shape (self_test_program's layout), then all together.
  const std::vector<std::uint32_t> slot_sets[] = {
      {0, 1}, {2, 4, 5, 6}, {3}, {0, 1, 2, 3, 4, 5, 6}};

  const auto run = [&](std::uint32_t ways,
                       const std::vector<std::uint32_t>& active, bool native,
                       bool profiled, SelfTestOutcome* out) {
    std::vector<std::unique_ptr<apps::AccessGenerator>> gens;
    for (const apps::ObjectSpec& spec : specs) {
      gens.push_back(
          std::make_unique<apps::AccessGenerator>(spec, 0x5eed + gens.size()));
    }
    const Program p = self_test_program(gens, active);
    if (!verify_program(p).empty()) return false;
    out->tags.assign(kSets * ways, memsim::Cache::kInvalidTag);
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
    if (native) {
      NativeKernel kern;
      if (!kern.compile(p, ways, 6, kSets - 1, profiled)) return false;
      rng.save_state(f.rng_state);
      kern.run(f);
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
    for (const std::vector<std::uint32_t>& active : slot_sets) {
      for (const bool profiled : {false, true}) {
        SelfTestOutcome bytecode, native;
        if (!run(ways, active, false, profiled, &bytecode) ||
            !run(ways, active, true, profiled, &native)) {
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
