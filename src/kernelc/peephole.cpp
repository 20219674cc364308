#include "kernelc/peephole.hpp"

#include <bit>
#include <limits>
#include <optional>
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

/// A window of `code` starting at instruction `i`, as a rewrite sees it.
struct Window {
  const std::vector<Insn>& code;
  const std::vector<bool>& isTarget;
  std::size_t i;

  Op op(std::size_t j) const { return code[i + j].op; }
  const Insn& at(std::size_t j) const { return code[i + j]; }
  /// No branch target strictly inside a window of `len` instructions at i,
  /// and the members' summed retired weight fits an instruction's weight
  /// field.  (The sum is the window length for compiler-fresh code, but the
  /// rewrite pass leaves instructions carrying 0 or >1 weights.)
  bool clear(std::size_t len) const {
    if (i + len > code.size()) return false;
    int sum = 0;
    for (std::size_t j = 0; j < len; ++j) {
      if (j > 0 && isTarget[i + j]) return false;
      sum += code[i + j].weight;
    }
    return sum <= 255;
  }
  /// Retired weight of the window [i, i+len): summing members (instead of
  /// hardcoding the window length) keeps counts exact when fusing rewritten
  /// instructions.
  std::uint8_t wsum(std::size_t len) const {
    int sum = 0;
    for (std::size_t j = 0; j < len; ++j) sum += code[i + j].weight;
    return static_cast<std::uint8_t>(sum);
  }
};

/// Rewrite `fn.code` window by window, left to right: `rewrite(w, out)`
/// appends the replacement of the window at w.i and returns its length, or
/// returns 0 to keep the instruction.  Windows may *start* at a branch target
/// but never contain one (Window::clear), so every target stays addressable
/// and is remapped afterwards.
template <class Rewrite>
void rewriteWindows(FunctionCode& fn, Rewrite&& rewrite) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  if (n == 0) return;
  const std::vector<bool> isTarget = branchTargets(code);

  std::vector<Insn> out;
  out.reserve(n);
  // newIndexOf[i] = index in `out` of the (possibly fused) instruction that
  // starts at old index i; -1 for window-interior positions (never targets).
  std::vector<std::int32_t> newIndexOf(n + 1, -1);
  for (std::size_t i = 0; i < n;) {
    newIndexOf[i] = static_cast<std::int32_t>(out.size());
    std::size_t consumed = rewrite(Window{code, isTarget, i}, out);
    if (consumed == 0) {
      out.push_back(code[i]);
      consumed = 1;
    }
    i += consumed;
  }
  newIndexOf[n] = static_cast<std::int32_t>(out.size());

  for (Insn& insn : out) {
    if (isBranch(insn.op)) {
      const std::int32_t mapped = newIndexOf[static_cast<std::size_t>(insn.a)];
      SKELCL_CHECK(mapped >= 0, "branch target landed inside a fused window");
      insn.a = mapped;
    }
  }
  fn.code = std::move(out);
}

/// The superinstruction the window at w.i fuses into, appended to `out`;
/// returns the window's length, 0 when no rule matches.
std::size_t fuse(const Window& w, std::vector<Insn>& out) {
  const auto op = [&](std::size_t j) { return w.op(j); };
  const auto at = [&](std::size_t j) -> const Insn& { return w.at(j); };
  const auto emit = [&](Op fused, std::int32_t a, std::int32_t b, std::int64_t imm,
                        std::size_t len) {
    out.push_back(make(fused, a, b, imm, w.wsum(len)));
    return len;
  };

  // --- length 6: slot increment statements --------------------------------
  // post-inc statement: LoadSlot s; Dup; PushI k; AddI; StoreSlot s; Drop
  if (w.clear(6) && op(0) == Op::LoadSlot && op(1) == Op::Dup && op(2) == Op::PushI &&
      op(3) == Op::AddI && op(4) == Op::StoreSlot && at(4).a == at(0).a &&
      op(5) == Op::Drop && fitsI32(at(2).imm)) {
    return emit(Op::IncSlotI, at(0).a, 0, at(2).imm, 6);
  }
  // pre-inc / i = i + k statement: LoadSlot s; PushI k; AddI; Dup; StoreSlot s; Drop
  if (w.clear(6) && op(0) == Op::LoadSlot && op(1) == Op::PushI && op(2) == Op::AddI &&
      op(3) == Op::Dup && op(4) == Op::StoreSlot && at(4).a == at(0).a &&
      op(5) == Op::Drop && fitsI32(at(1).imm)) {
    return emit(Op::IncSlotI, at(0).a, 0, at(1).imm, 6);
  }
  // --- length 5: store-through-scratch, result dropped --------------------
  // StoreSlot sc; LoadSlot sc; Store<T>; LoadSlot sc; Drop
  if (w.clear(5) && op(0) == Op::StoreSlot && op(1) == Op::LoadSlot &&
      at(1).a == at(0).a && isTypedStore(op(2)) && op(3) == Op::LoadSlot &&
      at(3).a == at(0).a && op(4) == Op::Drop) {
    return emit(teeStoreFor(op(2)), at(0).a, 0, 0, 5);
  }
  // --- length 4: whole array read from slots ------------------------------
  // LoadSlot p; LoadSlot i; PtrAdd sz; Load<T>
  if (w.clear(4) && op(0) == Op::LoadSlot && op(1) == Op::LoadSlot && op(2) == Op::PtrAdd &&
      isTypedLoad(op(3)) && at(2).a >= 0 && at(2).a <= 0xFFFF) {
    return emit(loadSlotElemFor(op(3)), at(0).a, at(1).a, at(2).a, 4);
  }
  // bare slot increment: LoadSlot s; PushI k; AddI; StoreSlot s
  if (w.clear(4) && op(0) == Op::LoadSlot && op(1) == Op::PushI && op(2) == Op::AddI &&
      op(3) == Op::StoreSlot && at(3).a == at(0).a && fitsI32(at(1).imm)) {
    return emit(Op::IncSlotI, at(0).a, 0, at(1).imm, 4);
  }
  // --- length 3 -----------------------------------------------------------
  // store-through-scratch, result used: StoreSlot sc; LoadSlot sc; Store<T>
  if (w.clear(3) && op(0) == Op::StoreSlot && op(1) == Op::LoadSlot && at(1).a == at(0).a &&
      isTypedStore(op(2))) {
    return emit(teeStoreFor(op(2)), at(0).a, 0, 0, 3);
  }
  // assignment statement: Dup; StoreSlot s; Drop == plain StoreSlot (w=3)
  if (w.clear(3) && op(0) == Op::Dup && op(1) == Op::StoreSlot && op(2) == Op::Drop) {
    return emit(Op::StoreSlot, at(1).a, 0, 0, 3);
  }
  // --- length 2 -----------------------------------------------------------
  // PtrAdd sz; Load<T>  (index already on the stack)
  if (w.clear(2) && op(0) == Op::PtrAdd && isTypedLoad(op(1)) && at(0).a >= 0) {
    return emit(loadElemFor(op(1)), at(0).a, 0, 0, 2);
  }
  // PushI k; PtrAdd sz  (constant index, e.g. struct field offsets)
  if (w.clear(2) && op(0) == Op::PushI && op(1) == Op::PtrAdd && fitsI32(at(0).imm)) {
    return emit(Op::PtrAddImm, at(1).a, 0, at(0).imm, 2);
  }
  // compare; Jz / Jnz  ->  fused conditional branch
  if (w.clear(2) && (opInfo(op(0)).flags & kFusableCompare) &&
      (op(1) == Op::Jz || op(1) == Op::Jnz)) {
    return emit(op(1) == Op::Jz ? Op::CmpJz : Op::CmpJnz, at(1).a,
                static_cast<std::int32_t>(op(0)), 0, 2);
  }
  // LoadSlot a; LoadSlot b  (binary-operator operands)
  if (w.clear(2) && op(0) == Op::LoadSlot && op(1) == Op::LoadSlot) {
    return emit(Op::LoadSlot2, at(0).a, at(1).a, 0, 2);
  }
  return 0;
}

/// A register-form operand a push supplies: a slot, or a constant's bits.
struct Operand {
  Src src;
  std::int32_t slot;
  std::int64_t bits;
};

/// The operand `insn` pushes, when it is a slot load or a constant push.
std::optional<Operand> pushedOperand(const Insn& insn) {
  switch (insn.op) {
    case Op::LoadSlot: return Operand{Src::Slot, insn.a, 0};
    case Op::PushI: return Operand{Src::Const, 0, insn.imm};
    case Op::PushF: return Operand{Src::Const, 0, std::bit_cast<std::int64_t>(insn.fimm)};
    default: return std::nullopt;
  }
}

/// The register form's `c` for the value op `insn` on operands x and y, or
/// nullopt when it has none: the binary arithmetic opcodes, the
/// comparisons, and PtrAdd whose element size is a power of two up to 2^15
/// (its log2 fills c's top four bits).
std::optional<std::uint16_t> valueOp(const Insn& insn, Src x, Src y) {
  if (isBinaryValueOp(insn.op)) return regC(insn.op, x, y);
  const auto size = static_cast<unsigned>(insn.a);
  if (insn.op == Op::PtrAdd && insn.a > 0 && size <= 0x8000 && std::has_single_bit(size)) {
    return regC(insn.op, x, y, std::countr_zero(size));
  }
  return std::nullopt;
}

/// The register-form instruction the window at w.i lowers to, appended to
/// `out`; returns the window's length, 0 when it lowers to nothing.
std::size_t lower(const Window& w, std::vector<Insn>& out) {
  // Operands pushed right before the op: a LoadSlot2, two pushes (not both
  // constants: an Insn holds one constant), one push whose x is the stack
  // top, or none, both from the stack.
  Operand x{Src::Stack, 0, 0};
  Operand y{Src::Stack, 0, 0};
  std::size_t pushes = 0;
  const auto first = pushedOperand(w.at(0));
  const auto second = w.i + 1 < w.code.size() ? pushedOperand(w.at(1)) : std::nullopt;
  if (w.op(0) == Op::LoadSlot2) {
    x = Operand{Src::Slot, w.at(0).a, 0};
    y = Operand{Src::Slot, w.at(0).b, 0};
    pushes = 1;
  } else if (first && second && (first->src == Src::Slot || second->src == Src::Slot)) {
    x = *first;
    y = *second;
    pushes = 2;
  } else if (first) {
    y = *first;
    pushes = 1;
  }
  if (!w.clear(pushes + 1)) return 0;
  const Insn& opInsn = w.at(pushes);
  Insn r;
  r.b = x.slot;
  r.k = y.slot;
  r.imm = x.src == Src::Const ? x.bits : y.bits;
  if (opInsn.op == Op::CmpJz || opInsn.op == Op::CmpJnz) {
    // A compare-branch: nothing to gain when both operands are on the stack.
    if (pushes == 0) return 0;
    r.op = opInsn.op == Op::CmpJz ? Op::RegJz : Op::RegJnz;
    r.c = regC(static_cast<Op>(opInsn.b), x.src, y.src);
    r.a = opInsn.a;
    r.weight = w.wsum(pushes + 1);
    out.push_back(r);
    return pushes + 1;
  }
  const std::optional<std::uint16_t> c = valueOp(opInsn, x.src, y.src);
  if (!c) return 0;
  r.c = *c;
  // Absorb the store of the result, unless the op can fault: a fault then
  // retires exactly what the stack form retires up to it.
  const bool store = (opInfo(opInsn.op).flags & kPure) && w.clear(pushes + 2) &&
                     w.op(pushes + 1) == Op::StoreSlot;
  if (pushes == 0 && !store) return 0;  // that is the stack form
  const std::size_t len = pushes + 1 + (store ? 1 : 0);
  r.op = store ? Op::RegStore : Op::RegOp;
  r.a = store ? w.at(pushes + 1).a : 0;
  r.weight = w.wsum(len);
  out.push_back(r);
  return len;
}

/// A short-circuit window threadShortCircuits can rewrite: the first branch
/// at `at` goes to a pad jumping to `dest` with `padWeight`, reusing the
/// instruction `reuse` when one like it already stands before `dest`.
struct Threading {
  std::size_t at;
  std::size_t dest;
  int padWeight;
  std::optional<std::size_t> reuse;
};

/// The window `B L <c1>; reg <c2>; boolnorm; jmp M; L: push.i v; M: jz|jnz T`
/// at i, B any conditional branch, c2 a comparison, and L and M the target
/// of no other branch (`incoming` counts each pc's branches), when its pad
/// has a place: immediately before the pc control reaches from L, or from
/// the target of an unconditional jmp there (the pad then carries that
/// jmp's weight too), and after an instruction that cannot fall through.
/// The batched scheduler runs the lowest pc first, so a pad placed there
/// keeps its lanes in step with the code they rejoin.
std::optional<Threading> threadable(const std::vector<Insn>& code,
                                    const std::vector<int>& incoming, std::size_t i) {
  const std::size_t l = i + 4;
  const std::size_t m = i + 5;
  if (m >= code.size()) return std::nullopt;
  const Insn& second = code[i + 1];
  const Insn& use = code[m];
  const bool shape = isBranch(code[i].op) && !(opInfo(code[i].op).flags & kStops) &&
                     code[i].a == static_cast<std::int32_t>(l) && second.op == Op::RegOp &&
                     (opInfo(regOp(second.c)).flags & kFusableCompare) &&
                     regPops(second.c) == 0 && code[i + 2].op == Op::BoolNorm &&
                     code[i + 3].op == Op::Jmp && code[i + 3].a == static_cast<std::int32_t>(m) &&
                     code[l].op == Op::PushI && (use.op == Op::Jz || use.op == Op::Jnz);
  const int branchWeight = second.weight + code[i + 2].weight + code[i + 3].weight + use.weight;
  if (!shape || incoming[i + 1] + incoming[i + 2] + incoming[i + 3] != 0 || incoming[l] != 1 ||
      incoming[m] != 1 || branchWeight > 255) {
    return std::nullopt;
  }
  // Where the value pushed at L sends control, and the unconditional jmps
  // from there on.
  const bool jumps = (use.op == Op::Jnz) == (code[l].imm != 0);
  std::size_t dest = jumps ? static_cast<std::size_t>(use.a) : m + 1;
  int weight = code[l].weight + use.weight;
  std::optional<Threading> found;
  for (std::size_t hops = 0; dest < code.size() && weight <= 255 && hops < code.size(); ++hops) {
    if (dest > 0 && (opInfo(code[dest - 1].op).flags & kStops)) {
      found = Threading{i, dest, weight, std::nullopt};
    }
    if (code[dest].op != Op::Jmp) break;
    weight += code[dest].weight;
    dest = static_cast<std::size_t>(code[dest].a);
  }
  if (!found) return std::nullopt;
  // Pads of equal weight before one destination are one pad.
  for (std::size_t p = found->dest; p > 0 && code[p - 1].op == Op::Jmp &&
                                    code[p - 1].a == static_cast<std::int32_t>(found->dest);
       --p) {
    if (code[p - 1].weight == found->padWeight) found->reuse = p - 1;
  }
  return found;
}

/// Apply `t`: the first branch goes to the pad, `reg <c2>` becomes `reg.jz`
/// or `reg.jnz T <c2>` carrying the weight of it, boolnorm, jmp and the
/// consumer, and the pad is inserted before its destination; every other
/// branch keeps its instruction.
void applyThreading(FunctionCode& fn, const Threading& t) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  const std::size_t i = t.at;
  const Insn& use = code[i + 5];
  Insn branch = code[i + 1];
  branch.op = use.op == Op::Jz ? Op::RegJz : Op::RegJnz;
  branch.a = use.a;
  branch.weight = static_cast<std::uint8_t>(code[i + 1].weight + code[i + 2].weight +
                                            code[i + 3].weight + use.weight);
  std::vector<Insn> out;
  out.reserve(n + 1);
  std::vector<std::int32_t> newIndexOf(n + 1, -1);
  std::int32_t pad = -1;
  for (std::size_t p = 0; p < n; ++p) {
    if (p == t.dest && !t.reuse) {
      pad = static_cast<std::int32_t>(out.size());
      out.push_back(make(Op::Jmp, static_cast<std::int32_t>(t.dest), 0, 0,
                         static_cast<std::uint8_t>(t.padWeight)));
    }
    if (p > i + 1 && p <= i + 5) continue;  // folded into `branch` or the pad
    newIndexOf[p] = static_cast<std::int32_t>(out.size());
    out.push_back(p == i + 1 ? branch : code[p]);
  }
  newIndexOf[n] = static_cast<std::int32_t>(out.size());
  const std::int32_t first = newIndexOf[i];
  for (std::size_t p = 0; p < out.size(); ++p) {
    Insn& insn = out[p];
    if (!isBranch(insn.op)) continue;
    if (static_cast<std::int32_t>(p) == first) {
      insn.a = t.reuse ? newIndexOf[*t.reuse] : pad;
      continue;
    }
    insn.a = newIndexOf[static_cast<std::size_t>(insn.a)];
    SKELCL_CHECK(insn.a >= 0, "branch into a threaded short-circuit window");
  }
  fn.code = std::move(out);
}

}  // namespace

void peepholeOptimize(FunctionCode& fn) { rewriteWindows(fn, fuse); }

void lowerToRegisters(FunctionCode& fn) { rewriteWindows(fn, lower); }

void threadShortCircuits(FunctionCode& fn) {
  // One window at a time, the last first: an outer `&&` threads before the
  // inner one whose consumer is its first branch, and the inner pad then
  // threads through the outer pad.
  for (;;) {
    const std::vector<Insn>& code = fn.code;
    std::vector<int> incoming(code.size() + 1, 0);
    for (const Insn& insn : code) {
      if (isBranch(insn.op)) ++incoming[static_cast<std::size_t>(insn.a)];
    }
    std::optional<Threading> t;
    for (std::size_t i = code.size(); i-- > 0 && !t;) t = threadable(code, incoming, i);
    if (!t) return;
    applyThreading(fn, *t);
  }
}

}  // namespace skelcl::kc
