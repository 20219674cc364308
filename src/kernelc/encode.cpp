#include "kernelc/encode.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "base/error.hpp"
#include "kernelc/builtins.hpp"

namespace skelcl::kc {

namespace {

struct Effect {
  int delta = 0;         ///< net stack change
  int peak = 0;          ///< transient growth above the entry height (>= 0)
  bool terminal = false; ///< Ret / RetVoid / Trap
  bool jumps = false;    ///< has a branch target in `a`
  bool falls = true;     ///< control may continue to the next instruction
};

Effect effectOf(const Insn& insn, const std::vector<FunctionCode>& fns) {
  Effect e;
  switch (insn.op) {
    case Op::PushI: case Op::PushF: case Op::PushCI: case Op::PushCF:
    case Op::LoadSlot: case Op::LeaFrame: case Op::Dup:
      e.delta = 1; e.peak = 1; return e;
    case Op::LoadSlot2:
      e.delta = 2; e.peak = 2; return e;
    case Op::LoadSlotElemI32: case Op::LoadSlotElemU32: case Op::LoadSlotElemF32:
    case Op::LoadSlotElemF64: case Op::LoadSlotElemI64:
      e.delta = 1; e.peak = 1; return e;
    case Op::StoreSlot: case Op::Drop:
      e.delta = -1; return e;
    case Op::LoadI32: case Op::LoadU32: case Op::LoadF32: case Op::LoadF64:
    case Op::LoadI64:
      return e;  // pop ptr, push value
    case Op::StoreI32: case Op::StoreI64: case Op::StoreF32: case Op::StoreF64:
    case Op::MemCopy:
      e.delta = -2; return e;
    case Op::PtrAdd:
      e.delta = -1; return e;
    case Op::PtrAddImm: case Op::IncSlotI:
      return e;
    case Op::LoadElemI32: case Op::LoadElemU32: case Op::LoadElemF32:
    case Op::LoadElemF64: case Op::LoadElemI64:
      e.delta = -1; return e;
    case Op::TeeStoreI32: case Op::TeeStoreI64: case Op::TeeStoreF32:
    case Op::TeeStoreF64:
      e.delta = -2; return e;
    case Op::AddI: case Op::SubI: case Op::MulI: case Op::DivI: case Op::RemI:
    case Op::DivU: case Op::RemU: case Op::AndI: case Op::OrI: case Op::XorI:
    case Op::ShlI: case Op::ShrI: case Op::ShrU:
    case Op::AddL: case Op::SubL: case Op::MulL: case Op::DivL: case Op::RemL:
    case Op::DivUL: case Op::RemUL: case Op::AndL: case Op::OrL: case Op::XorL:
    case Op::ShlL: case Op::ShrL: case Op::ShrUL:
    case Op::AddF32: case Op::SubF32: case Op::MulF32: case Op::DivF32:
    case Op::AddF64: case Op::SubF64: case Op::MulF64: case Op::DivF64:
    case Op::EqI: case Op::NeI: case Op::LtI: case Op::LeI: case Op::GtI: case Op::GeI:
    case Op::LtU: case Op::LeU: case Op::GtU: case Op::GeU:
    case Op::LtUL: case Op::LeUL: case Op::GtUL: case Op::GeUL:
    case Op::EqF: case Op::NeF: case Op::LtF: case Op::LeF: case Op::GtF: case Op::GeF:
    case Op::EqP: case Op::NeP:
      e.delta = -1; return e;
    case Op::NegI: case Op::NotI: case Op::NegL: case Op::NotL:
    case Op::NegF32: case Op::NegF64: case Op::LNot:
    case Op::I2F32: case Op::I2F64: case Op::U2F32: case Op::U2F64:
    case Op::UL2F32: case Op::UL2F64: case Op::F2I: case Op::F2U: case Op::F2L:
    case Op::F2UL: case Op::F64toF32: case Op::I2U: case Op::U2I: case Op::BoolNorm:
      return e;
    case Op::Jmp:
      e.jumps = true; e.falls = false; return e;
    case Op::Jz: case Op::Jnz:
      e.delta = -1; e.jumps = true; return e;
    case Op::CmpJz: case Op::CmpJnz:
      e.delta = -2; e.jumps = true; return e;
    case Op::CallFn: {
      const auto& callee = fns.at(static_cast<std::size_t>(insn.a));
      const int ret = callee.returnType != types::Void ? 1 : 0;
      e.delta = ret - static_cast<int>(callee.paramTypes.size());
      e.peak = e.delta > 0 ? e.delta : 0;
      return e;
    }
    case Op::CallBuiltin: {
      const BuiltinDef& def = builtinTable().at(static_cast<std::size_t>(insn.a));
      const int ret = def.ret != BType::Void ? 1 : 0;
      e.delta = ret - insn.b;
      e.peak = e.delta > 0 ? e.delta : 0;
      return e;
    }
    case Op::Ret:
      e.delta = -1; e.terminal = true; e.falls = false; return e;
    case Op::RetVoid: case Op::Trap:
      e.terminal = true; e.falls = false; return e;
  }
  SKELCL_CHECK(false, "unhandled opcode in effectOf");
  return e;
}

}  // namespace

std::vector<int> stackHeights(const FunctionCode& fn, const std::vector<FunctionCode>& fns) {
  const std::size_t n = fn.code.size();
  std::vector<int> height(n, -1);
  std::vector<std::size_t> work;
  if (n == 0) return height;
  height[0] = 0;
  work.push_back(0);
  auto propagate = [&](std::size_t pc, int h) {
    SKELCL_CHECK(pc < n, "control flow runs off the end of the function");
    if (height[pc] < 0) {
      height[pc] = h;
      work.push_back(pc);
    } else {
      SKELCL_CHECK(height[pc] == h, "inconsistent stack height in '" + fn.name + "'");
    }
  };
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    const Insn& insn = fn.code[pc];
    const Effect e = effectOf(insn, fns);
    const int after = height[pc] + e.delta;
    SKELCL_CHECK(after >= 0, "stack underflow in '" + fn.name + "'");
    if (e.terminal) continue;
    if (e.jumps) propagate(static_cast<std::size_t>(insn.a), after);
    if (e.falls) propagate(pc + 1, after);
  }
  return height;
}

namespace {

/// maxStack: the highest transient peak over every reachable pc.
int computeMaxStack(const FunctionCode& fn, const std::vector<FunctionCode>& fns) {
  const std::vector<int> height = stackHeights(fn, fns);
  int maxPeak = 0;
  for (std::size_t pc = 0; pc < height.size(); ++pc) {
    if (height[pc] < 0) continue;
    maxPeak = std::max(maxPeak, height[pc] + effectOf(fn.code[pc], fns).peak);
  }
  return maxPeak;
}

bool fitsI32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

void packFunction(FunctionCode& fn) {
  fn.packed.clear();
  fn.pool.clear();
  fn.packed.reserve(fn.code.size());
  std::unordered_map<std::uint64_t, std::int32_t> poolIndex;
  auto addPool = [&](std::uint64_t bits) {
    const auto [it, inserted] =
        poolIndex.emplace(bits, static_cast<std::int32_t>(fn.pool.size()));
    if (inserted) fn.pool.push_back(bits);
    return it->second;
  };
  for (const Insn& insn : fn.code) {
    PackedInsn p{insn.op, insn.weight, 0, insn.a, insn.b, 0};
    switch (insn.op) {
      case Op::PushI:
        if (fitsI32(insn.imm)) {
          p.a = static_cast<std::int32_t>(insn.imm);
        } else {
          p.op = Op::PushCI;
          p.k = addPool(static_cast<std::uint64_t>(insn.imm));
        }
        break;
      case Op::PushF: {
        std::uint64_t bits;
        std::memcpy(&bits, &insn.fimm, sizeof bits);
        p.op = Op::PushCF;
        p.k = addPool(bits);
        break;
      }
      case Op::PtrAddImm:
      case Op::IncSlotI:
        // peephole guarantees the immediate fits in 32 bits
        p.b = static_cast<std::int32_t>(insn.imm);
        break;
      case Op::LoadSlotElemI32: case Op::LoadSlotElemU32: case Op::LoadSlotElemF32:
      case Op::LoadSlotElemF64: case Op::LoadSlotElemI64:
        // peephole guarantees the element size fits in 16 bits
        p.c = static_cast<std::uint16_t>(insn.imm);
        break;
      case Op::CmpJz:
      case Op::CmpJnz:
        p.c = static_cast<std::uint16_t>(insn.b);  // the fused comparison op
        p.b = 0;
        break;
      default:
        break;
    }
    fn.packed.push_back(p);
  }
}

/// Work-group-batched execution interleaves the work-items of a group
/// instruction-by-instruction, reordering their memory accesses relative to
/// sequential per-item execution.  Restrict it to kernels where that
/// reordering is unobservable: no calls into other functions (whose bodies
/// we'd have to analyze transitively; tier 2 inlines every call it can, so
/// what remains calls a recursive or frame-carrying function), no frame
/// memory (per-lane frames don't fit the strided arena), and no
/// ordering-sensitive builtins.
bool computeBatchable(const FunctionCode& fn) {
  if (!fn.isKernel || fn.frameBytes != 0) return false;
  for (const Insn& insn : fn.code) {
    switch (insn.op) {
      case Op::CallFn:
      case Op::LeaFrame:
      case Op::MemCopy:
      case Op::Ret:
        return false;
      case Op::CallBuiltin: {
        const BuiltinDef& def = builtinTable().at(static_cast<std::size_t>(insn.a));
        if (std::strcmp(def.name, "barrier") == 0) return false;
        if (std::strncmp(def.name, "atomic_", 7) == 0) return false;
        break;
      }
      default:
        break;
    }
  }
  return true;
}

}  // namespace

void finalizeFunctions(std::vector<FunctionCode>& fns) {
  for (FunctionCode& fn : fns) {
    fn.maxStack = computeMaxStack(fn, fns);
    packFunction(fn);
    fn.batchable = computeBatchable(fn);
  }
}

}  // namespace skelcl::kc
