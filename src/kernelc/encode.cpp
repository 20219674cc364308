#include "kernelc/encode.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "base/error.hpp"
#include "kernelc/builtins.hpp"

namespace skelcl::kc {

StackEffect stackEffect(const Insn& insn, const std::vector<FunctionCode>& fns) {
  const OpInfo& info = opInfo(insn.op);
  if (!(info.flags & kVarEffect)) return {info.pops, info.pushes};
  if (isRegisterForm(insn.op)) return {regPops(insn.c), insn.op == Op::RegOp ? 1 : 0};
  if (insn.op == Op::CallFn) {
    const FunctionCode& callee = fns.at(static_cast<std::size_t>(insn.a));
    return {static_cast<int>(callee.paramTypes.size()), callee.returnType != types::Void ? 1 : 0};
  }
  const BuiltinDef& def = builtinTable().at(static_cast<std::size_t>(insn.a));
  return {insn.b, def.ret != BType::Void ? 1 : 0};
}

std::vector<bool> branchTargets(const std::vector<Insn>& code) {
  std::vector<bool> target(code.size() + 1, false);
  for (const Insn& insn : code) {
    if (!isBranch(insn.op)) continue;
    SKELCL_CHECK(insn.a >= 0 && static_cast<std::size_t>(insn.a) <= code.size(),
                 "branch target out of range");
    target[static_cast<std::size_t>(insn.a)] = true;
  }
  return target;
}

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
    const StackEffect e = stackEffect(fn.code[pc], fns);
    const int after = height[pc] + e.pushes - e.pops;
    SKELCL_CHECK(after >= 0, "stack underflow in '" + fn.name + "'");
    forEachSuccessor(fn.code, pc, [&](std::size_t next) { propagate(next, after); });
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
    const StackEffect e = stackEffect(fn.code[pc], fns);
    maxPeak = std::max(maxPeak, height[pc] + std::max(0, e.pushes - e.pops));
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
    switch (opInfo(insn.op).operands) {
      case Operands::Imm:
        if (fitsI32(insn.imm)) {
          p.a = static_cast<std::int32_t>(insn.imm);
        } else {
          p.op = Op::PushCI;
          p.k = addPool(static_cast<std::uint64_t>(insn.imm));
        }
        break;
      case Operands::FImm: {
        std::uint64_t bits;
        std::memcpy(&bits, &insn.fimm, sizeof bits);
        p.op = Op::PushCF;
        p.k = addPool(bits);
        break;
      }
      case Operands::PtrImm:
      case Operands::IncSlot:
        // peephole guarantees the immediate fits in 32 bits
        p.b = static_cast<std::int32_t>(insn.imm);
        break;
      case Operands::SlotElem:
        // peephole guarantees the element size fits in 16 bits
        p.c = static_cast<std::uint16_t>(insn.imm);
        break;
      case Operands::CmpTarget:
        p.c = static_cast<std::uint16_t>(insn.b);  // the fused comparison op
        p.b = 0;
        break;
      case Operands::Reg:
      case Operands::RegSlot:
      case Operands::RegTarget:
        // A constant operand's field indexes its bits in the pool.
        p.c = insn.c;
        p.k = regY(insn.c) == Src::Const ? addPool(static_cast<std::uint64_t>(insn.imm)) : insn.k;
        if (regX(insn.c) == Src::Const) p.b = addPool(static_cast<std::uint64_t>(insn.imm));
        break;
      default:
        break;
    }
    fn.packed.push_back(p);
  }
}

bool isAtomic(const Insn& insn) {
  return insn.op == Op::CallBuiltin &&
         builtinTable().at(static_cast<std::size_t>(insn.a)).atomic != AtomicOp::None;
}

// Which kernel parameter a slot or operand-stack value derives from, for the
// atomic deferral proof below: a parameter index, or one of these.
constexpr std::int16_t kNoParam = -1;   ///< derived from no parameter (numbers, constants)
constexpr std::int16_t kAnyParam = -2;  ///< unknown: loaded from memory, or paths disagree

/// Origin effect of one instruction on `slots` and the operand stack `stk`.
/// `access(origin)` sees the pointer of every load and store, `atomic(origin)`
/// the target of every atomic builtin.
template <class Access, class Atomic>
void originStep(const Insn& insn, const std::vector<FunctionCode>& fns,
                std::vector<std::int16_t>& slots, std::vector<std::int16_t>& stk,
                Access&& access, Atomic&& atomic) {
  const auto pop = [&] {
    const std::int16_t v = stk.back();
    stk.pop_back();
    return v;
  };
  const auto slot = [&](std::int32_t s) -> std::int16_t& {
    return slots[static_cast<std::size_t>(s)];
  };
  switch (insn.op) {
    case Op::LoadSlot:
      stk.push_back(slot(insn.a));
      return;
    case Op::LoadSlot2:
      stk.push_back(slot(insn.a));
      stk.push_back(slot(insn.b));
      return;
    case Op::StoreSlot:
      slot(insn.a) = pop();
      return;
    case Op::StoreSlotChecked: {
      const std::int16_t p = pop();
      access(p);
      slot(insn.a) = p;
      return;
    }
    case Op::IncSlotI:
      slot(insn.a) = kNoParam;
      return;
    case Op::LeaFrame:
      stk.push_back(kAnyParam);
      return;
    case Op::LoadI32: case Op::LoadU32: case Op::LoadF32: case Op::LoadF64: case Op::LoadI64:
      access(pop());
      stk.push_back(kAnyParam);
      return;
    case Op::LoadElemI32: case Op::LoadElemU32: case Op::LoadElemF32:
    case Op::LoadElemF64: case Op::LoadElemI64:
      pop();
      access(pop());
      stk.push_back(kAnyParam);
      return;
    case Op::LoadSlotElemI32: case Op::LoadSlotElemU32: case Op::LoadSlotElemF32:
    case Op::LoadSlotElemF64: case Op::LoadSlotElemI64:
      access(slot(insn.a));
      stk.push_back(kAnyParam);
      return;
    case Op::StoreI32: case Op::StoreI64: case Op::StoreF32: case Op::StoreF64:
      pop();
      access(pop());
      return;
    case Op::TeeStoreI32: case Op::TeeStoreI64: case Op::TeeStoreF32: case Op::TeeStoreF64: {
      const std::int16_t v = pop();
      access(pop());
      slot(insn.a) = v;
      return;
    }
    case Op::MemCopy:
      access(pop());
      access(pop());
      return;
    case Op::PtrAdd:
      pop();  // the index; the pointer below keeps its origin
      return;
    case Op::PtrAddImm:
      return;  // the pointer keeps its origin
    case Op::RegOp:
    case Op::RegStore: {
      // Stack operands pop y first.  PtrAdd's result keeps its pointer's
      // origin; every other op's result is a number.
      const auto origin = [&](Src src, std::int32_t s) {
        return src == Src::Stack ? pop() : src == Src::Slot ? slot(s) : kNoParam;
      };
      origin(regY(insn.c), insn.k);  // y, popped first, never passes a pointer on
      const std::int16_t x = origin(regX(insn.c), insn.b);
      const std::int16_t result = regOp(insn.c) == Op::PtrAdd ? x : kNoParam;
      if (insn.op == Op::RegOp) {
        stk.push_back(result);
      } else {
        slot(insn.a) = result;
      }
      return;
    }
    case Op::Dup:
      stk.push_back(stk.back());
      return;
    case Op::CallFn: {
      const FunctionCode& callee = fns.at(static_cast<std::size_t>(insn.a));
      for (std::size_t i = 0; i < callee.paramTypes.size(); ++i) access(pop());
      if (callee.returnType != types::Void) stk.push_back(kAnyParam);
      return;
    }
    case Op::CallBuiltin:
      if (builtinTable().at(static_cast<std::size_t>(insn.a)).atomic != AtomicOp::None) {
        atomic(stk[stk.size() - static_cast<std::size_t>(insn.b)]);
      }
      break;
    default:
      break;
  }
  // The rest derives no pointer and writes no slot (constants, arithmetic,
  // comparisons, conversions, branches including RegJz/RegJnz, builtins):
  // its operands go, numbers come.
  const StackEffect e = stackEffect(insn, fns);
  stk.resize(stk.size() - static_cast<std::size_t>(e.pops));
  stk.insert(stk.end(), static_cast<std::size_t>(e.pushes), kNoParam);
}

/// Prove that deferring the atomics of a call- and frame-free kernel to the
/// end of its batch is unobservable: forward dataflow over the origins of
/// every slot and operand-stack value (parameters start as themselves,
/// other slots as numbers; paths that disagree give kAnyParam).  Every
/// atomic must target one parameter, and every load and store must go
/// through a parameter no atomic targets.  Fills `targets` on success.
bool proveAtomicsDeferrable(const FunctionCode& fn, const std::vector<FunctionCode>& fns,
                            std::vector<int>& targets) {
  const std::size_t n = fn.code.size();
  const auto numSlots = static_cast<std::size_t>(fn.numSlots);
  std::vector<std::vector<std::int16_t>> in(n);  // slots, then the stack
  std::vector<bool> reached(n, false);
  std::vector<std::size_t> work;
  const auto flow = [&](std::size_t pc, const std::vector<std::int16_t>& state) {
    if (pc >= n) return;
    std::vector<std::int16_t>& cur = in[pc];
    if (!reached[pc]) {
      reached[pc] = true;
      cur = state;
      work.push_back(pc);
      return;
    }
    bool changed = false;
    for (std::size_t i = 0; i < cur.size(); ++i) {
      if (cur[i] != state[i] && cur[i] != kAnyParam) {
        cur[i] = kAnyParam;
        changed = true;
      }
    }
    if (changed) work.push_back(pc);
  };
  std::vector<std::int16_t> entry(numSlots, kNoParam);
  for (std::size_t p = 0; p < fn.paramTypes.size() && p < numSlots; ++p) {
    entry[p] = static_cast<std::int16_t>(p);
  }
  flow(0, entry);
  const auto ignore = [](std::int16_t) {};
  std::vector<std::int16_t> slots;
  std::vector<std::int16_t> stk;
  const auto step = [&](std::size_t pc, auto&& access, auto&& atomic) {
    const std::vector<std::int16_t>& state = in[pc];
    slots.assign(state.begin(), state.begin() + static_cast<std::ptrdiff_t>(numSlots));
    stk.assign(state.begin() + static_cast<std::ptrdiff_t>(numSlots), state.end());
    originStep(fn.code[pc], fns, slots, stk, access, atomic);
    slots.insert(slots.end(), stk.begin(), stk.end());
  };
  while (!work.empty()) {
    const std::size_t pc = work.back();
    work.pop_back();
    step(pc, ignore, ignore);
    const std::vector<std::int16_t> out = slots;
    forEachSuccessor(fn.code, pc, [&](std::size_t next) { flow(next, out); });
  }

  bool ok = true;
  std::vector<std::int16_t> accessed;
  for (std::size_t pc = 0; pc < n; ++pc) {
    if (!reached[pc]) continue;
    step(pc, [&](std::int16_t o) { accessed.push_back(o); },
         [&](std::int16_t o) {
           if (o < 0) {
             ok = false;
           } else if (std::find(targets.begin(), targets.end(), o) == targets.end()) {
             targets.push_back(o);
           }
         });
  }
  for (const std::int16_t o : accessed) {
    if (o < 0 || std::find(targets.begin(), targets.end(), o) != targets.end()) ok = false;
  }
  std::sort(targets.begin(), targets.end());
  return ok;
}

/// Backward slot liveness over a batchable kernel's final code, on bitsets
/// of 64 slots per word: fills FunctionCode::entrySlots and, for every
/// conditional branch, the slots written somewhere in the kernel that are
/// live at either successor (splitSlots, splitBegin).  A slot no
/// instruction writes holds its entry bits in every lane, and a dead slot
/// is written before any lane reads it, so a split moves neither.
void computeSlotLiveness(FunctionCode& fn) {
  const std::vector<Insn>& code = fn.code;
  const std::size_t n = code.size();
  const auto numSlots = static_cast<std::size_t>(fn.numSlots);
  const std::size_t words = (numSlots + 63) / 64;
  const auto word = [](std::int32_t s) { return static_cast<std::size_t>(s) / 64; };
  const auto bit = [](std::int32_t s) { return std::uint64_t{1} << (s % 64); };
  // live[pc * words ...]: the slots live before pc; row n, past the end, is empty.
  std::vector<std::uint64_t> live((n + 1) * words, 0);
  std::vector<std::uint64_t> written(words, 0);
  for (const Insn& insn : code) {
    const std::int32_t w = slotUse(insn).write;
    if (w >= 0) written[word(w)] |= bit(w);
  }
  std::vector<std::uint64_t> in(words);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t pc = n; pc-- > 0;) {
      std::fill(in.begin(), in.end(), 0);
      forEachSuccessor(code, pc, [&](std::size_t next) {
        for (std::size_t w = 0; w < words; ++w) in[w] |= live[next * words + w];
      });
      const SlotUse use = slotUse(code[pc]);
      if (use.write >= 0) in[word(use.write)] &= ~bit(use.write);
      for (int r = 0; r < use.reads; ++r) in[word(use.read[r])] |= bit(use.read[r]);
      const auto row = live.begin() + static_cast<std::ptrdiff_t>(pc * words);
      if (!std::equal(in.begin(), in.end(), row)) {
        std::copy(in.begin(), in.end(), row);
        changed = true;
      }
    }
  }
  const auto slotsIn = [&](auto&& has, std::vector<std::int32_t>& out) {
    for (std::int32_t s = 0; s < fn.numSlots; ++s) {
      if (has(word(s)) & bit(s)) out.push_back(s);
    }
  };
  slotsIn([&](std::size_t w) { return live[w]; }, fn.entrySlots);
  fn.splitBegin.assign(n + 1, 0);
  for (std::size_t pc = 0; pc < n; ++pc) {
    fn.splitBegin[pc] = static_cast<std::uint32_t>(fn.splitSlots.size());
    const Insn& insn = code[pc];
    if (!isBranch(insn.op) || (opInfo(insn.op).flags & kStops)) continue;
    const auto taken = static_cast<std::size_t>(insn.a);  // <= n: branchTargets checked it
    slotsIn([&](std::size_t w) {
      return (live[taken * words + w] | live[(pc + 1) * words + w]) & written[w];
    }, fn.splitSlots);
  }
  fn.splitBegin[n] = static_cast<std::uint32_t>(fn.splitSlots.size());
}

/// Work-group-batched execution interleaves the work-items of a group
/// instruction-by-instruction, reordering their memory accesses relative to
/// sequential per-item execution.  Restrict it to kernels where that
/// reordering is unobservable: no calls into other functions (whose bodies
/// we'd have to analyze transitively; tier 2 inlines every call it can, so
/// what remains calls a recursive or frame-carrying function), no frame
/// memory (per-lane frames don't fit the strided arena), no barrier, and
/// atomics only where deferring them is provably unobservable: the result
/// is dropped and proveAtomicsDeferrable holds.
void computeBatchInfo(FunctionCode& fn, const std::vector<FunctionCode>& fns) {
  fn.batchable = false;
  fn.batchFallback = BatchFallback::None;
  fn.atomicArgs.clear();
  fn.entrySlots.clear();
  fn.splitSlots.clear();
  fn.splitBegin.clear();
  if (!fn.isKernel) return;
  const auto fail = [&](BatchFallback reason) { fn.batchFallback = reason; };
  bool frame = fn.frameBytes != 0;
  bool call = false;
  bool barrier = false;
  bool resultUsed = false;
  bool atomics = false;
  const std::vector<bool> target = branchTargets(fn.code);
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    const Insn& insn = fn.code[pc];
    switch (insn.op) {
      case Op::LeaFrame:
      case Op::MemCopy:
        frame = true;
        break;
      case Op::CallFn:
      case Op::Ret:
        call = true;
        break;
      case Op::CallBuiltin:
        if (std::strcmp(builtinTable().at(static_cast<std::size_t>(insn.a)).name,
                        "barrier") == 0) {
          barrier = true;
        } else if (isAtomic(insn)) {
          atomics = true;
          if (pc + 1 >= fn.code.size() || fn.code[pc + 1].op != Op::Drop || target[pc + 1]) {
            resultUsed = true;
          }
        }
        break;
      default:
        break;
    }
  }
  if (frame) return fail(BatchFallback::FrameMemory);
  if (call) return fail(BatchFallback::Call);
  if (barrier) return fail(BatchFallback::Barrier);
  if (resultUsed) return fail(BatchFallback::AtomicResultUsed);
  if (atomics && !proveAtomicsDeferrable(fn, fns, fn.atomicArgs)) {
    fn.atomicArgs.clear();
    return fail(BatchFallback::AtomicTargetAliased);
  }
  fn.batchable = true;
  computeSlotLiveness(fn);
}

}  // namespace

void finalizeFunctions(std::vector<FunctionCode>& fns) {
  for (FunctionCode& fn : fns) {
    fn.maxStack = computeMaxStack(fn, fns);
    packFunction(fn);
    computeBatchInfo(fn, fns);
  }
}

void markAtomicUsers(std::vector<FunctionCode>& fns) {
  for (FunctionCode& fn : fns) {
    fn.usesAtomics = std::any_of(fn.code.begin(), fn.code.end(), isAtomic);
  }
  // usesAtomics holds for every caller of a function that uses atomics.
  for (bool changed = true; changed;) {
    changed = false;
    for (FunctionCode& fn : fns) {
      if (fn.usesAtomics) continue;
      for (const Insn& insn : fn.code) {
        if (insn.op == Op::CallFn && fns.at(static_cast<std::size_t>(insn.a)).usesAtomics) {
          fn.usesAtomics = true;
          changed = true;
          break;
        }
      }
    }
  }
}

}  // namespace skelcl::kc
