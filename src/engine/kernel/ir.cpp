#include "engine/kernel/ir.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "memsim/machine.hpp"

namespace hmem::engine::kernel {

const char* op_name(Op op) {
  switch (op) {
    case Op::kStackAddr:
      return "stack_addr";
    case Op::kFixedAddr:
      return "fixed_addr";
    case Op::kPickAddr:
      return "pick_addr";
    case Op::kAddGenOffset:
      return "add_gen_offset";
    case Op::kWalkOffset:
      return "walk_offset";
    case Op::kRandomOffset:
      return "random_offset";
    case Op::kPermuteOffset:
      return "permute_offset";
    case Op::kServeFixed:
      return "serve_fixed";
    case Op::kServePicked:
      return "serve_picked";
  }
  return "?";
}

Op offset_op(const apps::AccessGenerator& gen) {
  const apps::InlineGen& state = gen.inline_state();
  if (state.walk != nullptr) return Op::kWalkOffset;
  if (state.random != nullptr) return Op::kRandomOffset;
  if (state.permute != nullptr) return Op::kPermuteOffset;
  return Op::kAddGenOffset;
}

// ---- Compiler --------------------------------------------------------------

Program compile_program(const AliasTable& alias, std::uint64_t write_threshold,
                        std::uint64_t write_shift,
                        const std::vector<SlotTarget>& targets,
                        const memsim::Machine& machine) {
  HMEM_ASSERT_MSG(alias.size() == targets.size(),
                  "one slot target per alias column");
  Program p;
  const std::size_t n = alias.size();
  p.threshold.reserve(n);
  p.alias.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    p.threshold.push_back(alias.slot_threshold(c));
    p.alias.push_back(alias.slot_alias(c));
  }
  p.coin_mask = alias.coin_mask();
  p.write_threshold = write_threshold;
  p.write_shift = write_shift;
  p.llc_latency_ns = machine.config().llc_latency_ns;
  p.n_tiers = static_cast<std::uint32_t>(machine.tier_count());

  const auto tier_latency = [&](memsim::TierIndex t) {
    return machine.config().tiers[t].latency_ns;
  };

  p.block_start.reserve(n);
  for (const SlotTarget& target : targets) {
    p.block_start.push_back(static_cast<std::uint32_t>(p.code.size()));
    if (target.is_stack) {
      // addr = base + below(lines) * line; one fixed serving tier — the
      // stack is a single allocation, so it cannot straddle a tier range.
      const memsim::TierIndex t = machine.owning_tier(target.stack_base);
      Insn pick;
      pick.op = Op::kStackAddr;
      pick.imm0 = target.stack_base;
      pick.imm1 = target.stack_lines;
      p.code.push_back(pick);
      Insn serve;
      serve.op = Op::kServeFixed;
      serve.a = static_cast<std::uint32_t>(t);
      serve.f = tier_latency(t);
      p.code.push_back(serve);
      continue;
    }
    HMEM_ASSERT_MSG(target.instances != nullptr && !target.instances->empty(),
                    "object slot target with no live instances");
    HMEM_ASSERT(target.gen != nullptr);
    const std::uint32_t gen_index = static_cast<std::uint32_t>(p.gens.size());
    p.gens.push_back(target.gen);
    if (target.instances->size() == 1) {
      // Single instance: the interpreter skips the instance draw, so the
      // compiled block must consume no draw either.
      const memsim::Address base = target.instances->front();
      const memsim::TierIndex t = machine.owning_tier(base);
      Insn fixed;
      fixed.op = Op::kFixedAddr;
      fixed.imm0 = base;
      p.code.push_back(fixed);
      Insn gen;
      gen.op = offset_op(*target.gen);
      gen.a = gen_index;
      gen.imm0 = target.size_bytes;
      p.code.push_back(gen);
      Insn serve;
      serve.op = Op::kServeFixed;
      serve.a = static_cast<std::uint32_t>(t);
      serve.f = tier_latency(t);
      p.code.push_back(serve);
    } else {
      // Instance pick: each instance carries its own baked tier + latency
      // (instances of one object can land in different tiers when a fast
      // tier fills mid-allocation).
      Insn pick;
      pick.op = Op::kPickAddr;
      pick.imm0 = p.instances.size();
      pick.a = static_cast<std::uint32_t>(target.instances->size());
      for (const memsim::Address base : *target.instances) {
        const memsim::TierIndex t = machine.owning_tier(base);
        InstanceSlot slot;
        slot.base = base;
        slot.latency_ns = tier_latency(t);
        slot.tier = t;
        p.instances.push_back(slot);
      }
      p.code.push_back(pick);
      Insn gen;
      gen.op = offset_op(*target.gen);
      gen.a = gen_index;
      gen.imm0 = target.size_bytes;
      p.code.push_back(gen);
      Insn serve;
      serve.op = Op::kServePicked;
      p.code.push_back(serve);
    }
  }

  const std::string problem = verify_program(p);
  HMEM_ASSERT_MSG(problem.empty(), problem.c_str());
  return p;
}

// ---- Verifier --------------------------------------------------------------

namespace {

std::string defect(const char* what, std::size_t where) {
  std::ostringstream os;
  os << what << " (at " << where << ")";
  return os.str();
}

bool is_offset_op(Op op) {
  return op == Op::kAddGenOffset || op == Op::kWalkOffset ||
         op == Op::kRandomOffset || op == Op::kPermuteOffset;
}

/// The inline-state invariants an offset op's step relies on; "" when the
/// generator's state is safe to step with `op`. Every step preserves them.
const char* offset_state_defect(Op op, const apps::InlineGen& state) {
  switch (op) {
    case Op::kWalkOffset:
      if (state.walk == nullptr) return "walk op on a generator without a walk";
      if (state.walk->lines == 0) return "walk with zero lines";
      if (state.walk->stride >= state.walk->lines) {
        return "walk stride not below its line count";
      }
      if (state.walk->position >= state.walk->lines) {
        return "walk position outside its lines";
      }
      return "";
    case Op::kRandomOffset:
      if (state.random == nullptr) {
        return "random op on a generator without random state";
      }
      if (state.random->lines == 0) return "random draw over zero lines";
      return "";
    case Op::kPermuteOffset:
      if (state.permute == nullptr || state.permute->table == nullptr) {
        return "permute op on a generator without a table";
      }
      if (state.permute->lines == 0) return "permute over zero lines";
      if (state.permute->position >= state.permute->lines) {
        return "permute position outside the table";
      }
      return "";
    default:
      return "";  // call-outs own their state
  }
}

}  // namespace

std::string verify_program(const Program& p) {
  const std::size_t n = p.threshold.size();
  if (n == 0) return "empty alias table";
  if (n > (1ULL << 32)) return "alias table wider than the 32-bit column draw";
  if (p.alias.size() != n) return "threshold/alias size mismatch";
  if (p.block_start.size() != n) return "one block per alias column required";
  if ((p.coin_mask & (p.coin_mask + 1)) != 0) {
    return "coin_mask is not a low-bit mask";
  }
  if (p.write_shift >= 64) return "write_shift out of range";
  // write_shift == 0 leaves all 64 draw bits as the coin, so any threshold
  // is in range (and 1 << 64 would be UB to compute).
  if (p.write_shift > 0 &&
      p.write_threshold > (1ULL << (64 - p.write_shift))) {
    return "write_threshold exceeds the coin range";
  }
  if (p.n_tiers == 0) return "program with no tiers";
  for (std::size_t c = 0; c < n; ++c) {
    if (p.threshold[c] > p.coin_mask + 1) {
      return defect("alias threshold above coin range", c);
    }
    if (p.alias[c] >= n) return defect("alias column out of range", c);
  }
  for (std::size_t i = 0; i < p.instances.size(); ++i) {
    if (p.instances[i].tier >= p.n_tiers) {
      return defect("instance tier out of range", i);
    }
  }
  for (apps::AccessGenerator* gen : p.gens) {
    if (gen == nullptr) return "null access generator";
  }

  // Every block must be one of the three legal shapes, fully inside `code`,
  // with every operand index in range. The executors rely on this: they run
  // without per-access bounds checks.
  for (std::size_t s = 0; s < n; ++s) {
    const std::size_t at = p.block_start[s];
    if (at >= p.code.size()) return defect("block start out of range", s);
    const Insn& head = p.code[at];
    switch (head.op) {
      case Op::kStackAddr: {
        if (at + 1 >= p.code.size()) return defect("truncated block", s);
        if (head.imm1 == 0) return defect("stack with zero lines", s);
        const Insn& serve = p.code[at + 1];
        if (serve.op != Op::kServeFixed) {
          return defect("stack block must end in serve_fixed", s);
        }
        if (serve.a >= p.n_tiers) return defect("serve tier out of range", s);
        break;
      }
      case Op::kFixedAddr:
      case Op::kPickAddr: {
        if (at + 2 >= p.code.size()) return defect("truncated block", s);
        const bool picked = head.op == Op::kPickAddr;
        if (picked) {
          if (head.a == 0) return defect("pick with zero instances", s);
          if (head.imm0 + head.a > p.instances.size()) {
            return defect("instance range out of pool", s);
          }
        }
        const Insn& gen = p.code[at + 1];
        if (!is_offset_op(gen.op)) {
          return defect("object block missing an offset op", s);
        }
        if (gen.a >= p.gens.size()) return defect("generator out of range", s);
        if (gen.imm0 == 0) return defect("zero-size offset clamp", s);
        const char* bad_state =
            offset_state_defect(gen.op, p.gens[gen.a]->inline_state());
        if (*bad_state != '\0') return defect(bad_state, s);
        const Insn& serve = p.code[at + 2];
        if (picked) {
          if (serve.op != Op::kServePicked) {
            return defect("pick block must end in serve_picked", s);
          }
        } else {
          if (serve.op != Op::kServeFixed) {
            return defect("fixed block must end in serve_fixed", s);
          }
          if (serve.a >= p.n_tiers) {
            return defect("serve tier out of range", s);
          }
        }
        break;
      }
      default:
        return defect("block starts with a non-address op", s);
    }
  }
  return "";
}

// ---- Bytecode VM -----------------------------------------------------------

namespace {

constexpr std::uint64_t kLine = memsim::kCacheLineBytes;

/// The interpreter's offset clamp: an offset past the object maps to 0.
inline std::uint64_t clamp_offset(std::uint64_t offset, std::uint64_t size) {
  return offset >= size ? 0 : offset;
}

/// The executor body, specialized on whether miss records are collected so
/// the steady-state (non-profiled) loop carries no record-keeping at all.
template <bool Profiled>
void run_impl(const Program& p, Frame& f, Xoshiro256& rng) {
  const std::uint64_t n_cols = p.threshold.size();
  const std::uint64_t* const thr = p.threshold.data();
  const std::uint32_t* const ali = p.alias.data();
  const std::uint32_t* const blocks = p.block_start.data();
  const Insn* const code = p.code.data();
  const InstanceSlot* const insts = p.instances.data();
  apps::AccessGenerator* const* const gens = p.gens.data();
  std::uint32_t* const tags = f.tags;
  std::uint64_t* const order = f.order;
  const auto ways = static_cast<std::uint32_t>(f.ways);
  const std::uint32_t top_shift = 4 * (ways - 1);
  const std::uint64_t line_shift = f.line_shift;
  const std::uint64_t set_mask = f.set_mask;
  double latency = f.latency_ns;
  std::uint64_t misses = f.misses;

  for (std::uint64_t k = 0; k < f.n_accesses; ++k) {
    // One structured draw per access, split exactly as the interpreter
    // splits it (column / alias coin / write coin).
    const std::uint64_t draw = rng.next();
    const std::size_t col = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(draw)) *
         n_cols) >>
        32);
    const std::uint64_t coin = (draw >> 32) & p.coin_mask;
    const std::size_t slot = coin < thr[col] ? col : ali[col];

    std::uint64_t addr = 0;
    double miss_latency = 0;
    std::uint64_t miss_tier = 0;
    for (const Insn* in = code + blocks[slot];; ++in) {
      bool served = false;
      switch (in->op) {
        case Op::kStackAddr:
          addr = in->imm0 + rng.below(in->imm1) * memsim::kCacheLineBytes;
          break;
        case Op::kFixedAddr:
          addr = in->imm0;
          break;
        case Op::kPickAddr: {
          const InstanceSlot& rec = insts[in->imm0 + rng.below(in->a)];
          addr = rec.base;
          // Baked serve parameters travel with the pick; the block's
          // serve_picked consumes them.
          miss_latency = rec.latency_ns;
          miss_tier = rec.tier;
          break;
        }
        case Op::kAddGenOffset:
          addr += clamp_offset(gens[in->a]->next_offset(), in->imm0);
          break;
        case Op::kWalkOffset:
          addr += clamp_offset(
              gens[in->a]->inline_state().walk->step() * kLine, in->imm0);
          break;
        case Op::kRandomOffset:
          addr += clamp_offset(
              gens[in->a]->inline_state().random->step() * kLine, in->imm0);
          break;
        case Op::kPermuteOffset:
          addr += clamp_offset(
              gens[in->a]->inline_state().permute->step() * kLine, in->imm0);
          break;
        case Op::kServeFixed:
          miss_latency = in->f;
          miss_tier = in->a;
          served = true;
          break;
        case Op::kServePicked:
          served = true;
          break;
      }
      if (served) break;
    }

    // Inline LLC probe: the exact Cache::access sequence (touch on a hit,
    // evict on a miss), minus the interpreter-only hit/miss counters.
    const std::uint64_t tag = addr >> line_shift;
    const std::uint64_t set = tag & set_mask;
    std::uint32_t* const row = tags + set * 2 * ways;
    const std::uint32_t way = memsim::Cache::find_way(row, ways, tag);
    if (way < ways) {
      memsim::Cache::touch(order[set], way, top_shift);
      latency += p.llc_latency_ns;
      continue;
    }
    memsim::Cache::set_way_tag(
        row, ways, memsim::Cache::evict(order[set], top_shift), tag);
    latency += miss_latency;
    f.tier_sim[miss_tier] += memsim::kCacheLineBytes;
    if constexpr (Profiled) {
      const bool is_write = (draw >> p.write_shift) < p.write_threshold;
      f.miss_out[misses] = MissRecord{k, addr, is_write};
    }
    ++misses;
  }

  f.latency_ns = latency;
  f.misses = misses;
}

}  // namespace

void run_bytecode(const Program& program, Frame& frame, Xoshiro256& rng) {
  if (frame.miss_out != nullptr) {
    run_impl<true>(program, frame, rng);
  } else {
    run_impl<false>(program, frame, rng);
  }
}

}  // namespace hmem::engine::kernel
