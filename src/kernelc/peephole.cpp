#include "kernelc/peephole.hpp"

#include <limits>
#include <vector>

#include "base/error.hpp"
#include "kernelc/encode.hpp"

namespace skelcl::kc {

namespace {

/// Typed memory load -> its two fused forms (0 if not fusable).
Op loadElemFor(Op load) {
  switch (load) {
    case Op::LoadI32: return Op::LoadElemI32;
    case Op::LoadU32: return Op::LoadElemU32;
    case Op::LoadF32: return Op::LoadElemF32;
    case Op::LoadF64: return Op::LoadElemF64;
    case Op::LoadI64: return Op::LoadElemI64;
    default: return Op::Trap;
  }
}

Op loadSlotElemFor(Op load) {
  switch (load) {
    case Op::LoadI32: return Op::LoadSlotElemI32;
    case Op::LoadU32: return Op::LoadSlotElemU32;
    case Op::LoadF32: return Op::LoadSlotElemF32;
    case Op::LoadF64: return Op::LoadSlotElemF64;
    case Op::LoadI64: return Op::LoadSlotElemI64;
    default: return Op::Trap;
  }
}

Op teeStoreFor(Op store) {
  switch (store) {
    case Op::StoreI32: return Op::TeeStoreI32;
    case Op::StoreI64: return Op::TeeStoreI64;
    case Op::StoreF32: return Op::TeeStoreF32;
    case Op::StoreF64: return Op::TeeStoreF64;
    default: return Op::Trap;
  }
}

bool isTypedLoad(Op op) { return loadElemFor(op) != Op::Trap; }
bool isTypedStore(Op op) { return teeStoreFor(op) != Op::Trap; }

bool fitsI32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

Insn make(Op op, std::int32_t a, std::int32_t b, std::int64_t imm, std::uint8_t weight) {
  Insn insn;
  insn.op = op;
  insn.a = a;
  insn.b = b;
  insn.imm = imm;
  insn.weight = weight;
  return insn;
}

}  // namespace

void peepholeOptimize(FunctionCode& fn) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  if (n == 0) return;

  // An instruction that is the target of any branch must stay addressable:
  // fusion windows may *start* at a target but never contain one.
  const std::vector<bool> isTarget = branchTargets(code);

  std::vector<Insn> out;
  out.reserve(n);
  // newIndexOf[i] = index in `out` of the (possibly fused) instruction that
  // starts at old index i; -1 for window-interior positions (never targets).
  std::vector<std::int32_t> newIndexOf(n + 1, -1);

  std::size_t i = 0;
  while (i < n) {
    // No branch target strictly inside a window of `len` instructions at i,
    // and the members' summed retired weight must fit the superinstruction's
    // weight field.  (The sum is the window length for compiler-fresh code,
    // but the rewrite pass leaves instructions carrying 0 or >1 weights.)
    auto clear = [&](std::size_t len) {
      if (i + len > n) return false;
      int wsum = 0;
      for (std::size_t j = 0; j < len; ++j) {
        if (j > 0 && isTarget[i + j]) return false;
        wsum += code[i + j].weight;
      }
      return wsum <= 255;
    };
    // Retired weight of the window [i, i+len): summing members (instead of
    // hardcoding the window length) keeps counts exact when fusing rewritten
    // instructions.
    const auto wsum = [&](std::size_t len) {
      int w = 0;
      for (std::size_t j = 0; j < len; ++j) w += code[i + j].weight;
      return static_cast<std::uint8_t>(w);
    };
    const auto op = [&](std::size_t j) { return code[i + j].op; };
    const auto at = [&](std::size_t j) -> const Insn& { return code[i + j]; };

    newIndexOf[i] = static_cast<std::int32_t>(out.size());
    std::size_t consumed = 1;

    // --- length 6: slot increment statements --------------------------------
    // post-inc statement: LoadSlot s; Dup; PushI k; AddI; StoreSlot s; Drop
    if (clear(6) && op(0) == Op::LoadSlot && op(1) == Op::Dup && op(2) == Op::PushI &&
        op(3) == Op::AddI && op(4) == Op::StoreSlot && at(4).a == at(0).a &&
        op(5) == Op::Drop && fitsI32(at(2).imm)) {
      out.push_back(make(Op::IncSlotI, at(0).a, 0, at(2).imm, wsum(6)));
      consumed = 6;
    }
    // pre-inc / i = i + k statement: LoadSlot s; PushI k; AddI; Dup; StoreSlot s; Drop
    else if (clear(6) && op(0) == Op::LoadSlot && op(1) == Op::PushI && op(2) == Op::AddI &&
             op(3) == Op::Dup && op(4) == Op::StoreSlot && at(4).a == at(0).a &&
             op(5) == Op::Drop && fitsI32(at(1).imm)) {
      out.push_back(make(Op::IncSlotI, at(0).a, 0, at(1).imm, wsum(6)));
      consumed = 6;
    }
    // --- length 5: store-through-scratch, result dropped --------------------
    // StoreSlot sc; LoadSlot sc; Store<T>; LoadSlot sc; Drop
    else if (clear(5) && op(0) == Op::StoreSlot && op(1) == Op::LoadSlot &&
             at(1).a == at(0).a && isTypedStore(op(2)) && op(3) == Op::LoadSlot &&
             at(3).a == at(0).a && op(4) == Op::Drop) {
      out.push_back(make(teeStoreFor(op(2)), at(0).a, 0, 0, wsum(5)));
      consumed = 5;
    }
    // --- length 4: whole array read from slots ------------------------------
    // LoadSlot p; LoadSlot i; PtrAdd sz; Load<T>
    else if (clear(4) && op(0) == Op::LoadSlot && op(1) == Op::LoadSlot &&
             op(2) == Op::PtrAdd && isTypedLoad(op(3)) && at(2).a >= 0 &&
             at(2).a <= 0xFFFF) {
      out.push_back(make(loadSlotElemFor(op(3)), at(0).a, at(1).a, at(2).a, wsum(4)));
      consumed = 4;
    }
    // bare slot increment: LoadSlot s; PushI k; AddI; StoreSlot s
    else if (clear(4) && op(0) == Op::LoadSlot && op(1) == Op::PushI && op(2) == Op::AddI &&
             op(3) == Op::StoreSlot && at(3).a == at(0).a && fitsI32(at(1).imm)) {
      out.push_back(make(Op::IncSlotI, at(0).a, 0, at(1).imm, wsum(4)));
      consumed = 4;
    }
    // --- length 3 -----------------------------------------------------------
    // store-through-scratch, result used: StoreSlot sc; LoadSlot sc; Store<T>
    else if (clear(3) && op(0) == Op::StoreSlot && op(1) == Op::LoadSlot &&
             at(1).a == at(0).a && isTypedStore(op(2))) {
      out.push_back(make(teeStoreFor(op(2)), at(0).a, 0, 0, wsum(3)));
      consumed = 3;
    }
    // assignment statement: Dup; StoreSlot s; Drop == plain StoreSlot (w=3)
    else if (clear(3) && op(0) == Op::Dup && op(1) == Op::StoreSlot && op(2) == Op::Drop) {
      out.push_back(make(Op::StoreSlot, at(1).a, 0, 0, wsum(3)));
      consumed = 3;
    }
    // --- length 2 -----------------------------------------------------------
    // PtrAdd sz; Load<T>  (index already on the stack)
    else if (clear(2) && op(0) == Op::PtrAdd && isTypedLoad(op(1)) && at(0).a >= 0) {
      out.push_back(make(loadElemFor(op(1)), at(0).a, 0, 0, wsum(2)));
      consumed = 2;
    }
    // PushI k; PtrAdd sz  (constant index, e.g. struct field offsets)
    else if (clear(2) && op(0) == Op::PushI && op(1) == Op::PtrAdd && fitsI32(at(0).imm)) {
      out.push_back(make(Op::PtrAddImm, at(1).a, 0, at(0).imm, wsum(2)));
      consumed = 2;
    }
    // compare; Jz / Jnz  ->  fused conditional branch
    else if (clear(2) && (opInfo(op(0)).flags & kFusableCompare) &&
             (op(1) == Op::Jz || op(1) == Op::Jnz)) {
      out.push_back(make(op(1) == Op::Jz ? Op::CmpJz : Op::CmpJnz, at(1).a,
                         static_cast<std::int32_t>(op(0)), 0, wsum(2)));
      consumed = 2;
    }
    // LoadSlot a; LoadSlot b  (binary-operator operands)
    else if (clear(2) && op(0) == Op::LoadSlot && op(1) == Op::LoadSlot) {
      out.push_back(make(Op::LoadSlot2, at(0).a, at(1).a, 0, wsum(2)));
      consumed = 2;
    } else {
      out.push_back(code[i]);
    }
    i += consumed;
  }
  newIndexOf[n] = static_cast<std::int32_t>(out.size());

  // Remap every branch target to the new instruction indices.
  for (Insn& insn : out) {
    if (isBranch(insn.op)) {
      const std::int32_t mapped = newIndexOf[static_cast<std::size_t>(insn.a)];
      SKELCL_CHECK(mapped >= 0, "branch target landed inside a fused window");
      insn.a = mapped;
    }
  }
  fn.code = std::move(out);
}

}  // namespace skelcl::kc
