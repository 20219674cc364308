#include "kernelc/vm.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "kernelc/diagnostics.hpp"

namespace skelcl::kc {

int CompiledProgram::findKernel(const std::string& name) const {
  const int idx = findFunction(name);
  if (idx < 0 || !functions[static_cast<std::size_t>(idx)].isKernel) return -1;
  return idx;
}

int CompiledProgram::findFunction(const std::string& name) const {
  if (!functionIndex.empty()) {
    const auto it = functionIndex.find(name);
    return it == functionIndex.end() ? -1 : it->second;
  }
  // Hand-assembled programs (tests) may lack the map; fall back to a scan.
  for (std::size_t i = 0; i < functions.size(); ++i) {
    if (functions[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Vm::Vm(const CompiledProgram& program, std::vector<MemRegion> globalRegions,
       std::uint64_t budget)
    : program_(program), budget_(budget) {
  regions_.push_back(MemRegion{});  // region 0: null
  for (const auto& r : globalRegions) regions_.push_back(r);
}

void Vm::allocateItemArenas() {
  if (!frameArena_.empty()) return;
  frameArena_.resize(kFrameArenaBytes);
  if (program_.tier >= 1) {
    stackBuf_.resize(kMaxStack);
    slotArena_.resize(kSlotArenaSlots);
    sp_ = stackBuf_.data();
  } else {
    stack_.reserve(1024);
  }
}

void applyDeferredAtomics(std::span<const DeferredAtomic> log,
                          std::span<const MemRegion> globalRegions) {
  for (const DeferredAtomic& d : log) {
    applyAtomic(d.op, globalRegions[d.region - 1u].data + d.offset, d.a, d.b);
  }
}

void Vm::fault(const std::string& message) const {
  std::string where = currentFunction_ >= 0
                          ? program_.functions[static_cast<std::size_t>(currentFunction_)].name
                          : "<none>";
  throw VmError("device fault in '" + where + "' (work-item " +
                std::to_string(globalId_) + "): " + message);
}

void* Vm::resolve(Ptr p, std::uint32_t bytes) {
  if (p.region <= 0) fault("null pointer dereference");
  if (static_cast<std::size_t>(p.region) >= regions_.size()) {
    fault("dangling pointer (region no longer exists)");
  }
  const MemRegion& region = regions_[static_cast<std::size_t>(p.region)];
  if (static_cast<std::uint64_t>(p.offset) + bytes > region.size) {
    fault("out-of-bounds access at offset " + std::to_string(p.offset) + " + " +
          std::to_string(bytes) + " bytes in a region of " + std::to_string(region.size) +
          " bytes");
  }
  return region.data + p.offset;
}

void Vm::runKernel(int functionIndex, std::span<const Slot> args, std::int64_t globalId,
                   std::int64_t globalSize) {
  const auto& fn = program_.functions.at(static_cast<std::size_t>(functionIndex));
  SKELCL_CHECK(fn.isKernel, "runKernel on a non-kernel function");
  SKELCL_CHECK(args.size() == fn.paramTypes.size(), "kernel argument count mismatch");
  allocateItemArenas();
  globalId_ = globalId;
  globalSize_ = globalSize;
  frameTop_ = 0;
  // Global regions were installed by the constructor and stay put; frame
  // regions pushed beyond them are popped by execute() itself.
  if (program_.tier >= 1) {
    slotTop_ = 0;
    Slot* base = stackBuf_.data();
    std::copy(args.begin(), args.end(), base);
    sp_ = base + args.size();
    execute(functionIndex, std::span<const Slot>(base, args.size()),
            /*expectResult=*/false);
    sp_ = base;
    return;
  }
  stack_.clear();
  for (const Slot& s : args) stack_.push_back(s);
  execute(functionIndex, std::span<const Slot>(stack_.data(), args.size()),
          /*expectResult=*/false);
  stack_.clear();
}

Slot Vm::callFunction(int functionIndex, std::span<const Slot> args) {
  const auto& fn = program_.functions.at(static_cast<std::size_t>(functionIndex));
  SKELCL_CHECK(!fn.isKernel, "callFunction on a kernel");
  SKELCL_CHECK(args.size() == fn.paramTypes.size(), "function argument count mismatch");
  allocateItemArenas();
  globalId_ = 0;
  globalSize_ = 1;
  frameTop_ = 0;
  if (program_.tier >= 1) {
    slotTop_ = 0;
    Slot* base = stackBuf_.data();
    std::copy(args.begin(), args.end(), base);
    sp_ = base + args.size();
    execute(functionIndex, std::span<const Slot>(base, args.size()),
            /*expectResult=*/fn.returnType != types::Void);
    Slot result = fn.returnType != types::Void ? sp_[-1] : Slot{};
    sp_ = base;
    return result;
  }
  stack_.clear();
  for (const Slot& s : args) stack_.push_back(s);
  execute(functionIndex, std::span<const Slot>(stack_.data(), args.size()),
          /*expectResult=*/fn.returnType != types::Void);
  Slot result = fn.returnType != types::Void ? stack_.back() : Slot{};
  stack_.clear();
  return result;
}

void Vm::execute(int functionIndex, std::span<const Slot> args, bool expectResult) {
  if (program_.tier >= 1) {
    executeFast(functionIndex, args, expectResult);
  } else {
    executeRef(functionIndex, args, expectResult);
  }
}

namespace {

/// Evaluate one fused comparison exactly as the standalone opcode would.
inline bool cmpHolds(Op op, const Slot& a, const Slot& b) {
  switch (op) {
    case Op::EqI: return a.i == b.i;
    case Op::NeI: return a.i != b.i;
    case Op::LtI: return a.i < b.i;
    case Op::LeI: return a.i <= b.i;
    case Op::GtI: return a.i > b.i;
    case Op::GeI: return a.i >= b.i;
    case Op::LtU: return static_cast<std::uint32_t>(a.i) < static_cast<std::uint32_t>(b.i);
    case Op::LeU: return static_cast<std::uint32_t>(a.i) <= static_cast<std::uint32_t>(b.i);
    case Op::GtU: return static_cast<std::uint32_t>(a.i) > static_cast<std::uint32_t>(b.i);
    case Op::GeU: return static_cast<std::uint32_t>(a.i) >= static_cast<std::uint32_t>(b.i);
    case Op::LtUL: return static_cast<std::uint64_t>(a.i) < static_cast<std::uint64_t>(b.i);
    case Op::LeUL: return static_cast<std::uint64_t>(a.i) <= static_cast<std::uint64_t>(b.i);
    case Op::GtUL: return static_cast<std::uint64_t>(a.i) > static_cast<std::uint64_t>(b.i);
    case Op::GeUL: return static_cast<std::uint64_t>(a.i) >= static_cast<std::uint64_t>(b.i);
    case Op::EqF: return a.f == b.f;
    case Op::NeF: return a.f != b.f;
    case Op::LtF: return a.f < b.f;
    case Op::LeF: return a.f <= b.f;
    case Op::GtF: return a.f > b.f;
    case Op::GeF: return a.f >= b.f;
    case Op::EqP: return a.p.region == b.p.region && a.p.offset == b.p.offset;
    case Op::NeP: return a.p.region != b.p.region || a.p.offset != b.p.offset;
    default: return false;  // peephole only fuses the ops above
  }
}

/// Pointer arithmetic: the offset wraps mod 2^32 and never faults here;
/// bounds are enforced at the access (Vm::resolve).
inline Ptr ptrPlus(Ptr p, std::int64_t index, std::int64_t elemSize) {
  p.offset = static_cast<std::uint32_t>(static_cast<std::int64_t>(p.offset) +
                                        index * elemSize);
  return p;
}

/// One binary arithmetic op or comparison (isBinaryValueOp) on x and y: the
/// per-item interpreter's one evaluator, for the stack form (with `op` a
/// constant, so the switch folds away) and the register form.  Integer ops
/// wrap at their width; f32 results re-round to float.  `fault(message)`
/// must not return.
template <class Fault>
[[gnu::always_inline]] inline Slot binary(Op op, Slot x, Slot y, Fault&& fault) {
  const std::int64_t a = x.i;
  const std::int64_t b = y.i;
  const auto u32 = [](std::int64_t v) { return static_cast<std::uint32_t>(v); };
  const auto u64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  const auto i32 = [](auto v) { return Slot::fromInt(static_cast<std::int32_t>(v)); };
  const auto i64 = [](auto v) { return Slot::fromInt(static_cast<std::int64_t>(v)); };
  const auto f32 = [&](auto combine) {
    return Slot::fromFloat(
        static_cast<float>(combine(static_cast<float>(x.f), static_cast<float>(y.f))));
  };
  switch (op) {
    case Op::AddI: return i32(a + b);
    case Op::SubI: return i32(a - b);
    case Op::MulI: return i32(a * b);
    case Op::AndI: return i32(a & b);
    case Op::OrI: return i32(a | b);
    case Op::XorI: return i32(a ^ b);
    case Op::ShlI: return i32(static_cast<std::int64_t>(u32(a) << (u32(b) & 31u)));
    case Op::ShrI: return i32(static_cast<std::int32_t>(a) >> (u32(b) & 31u));
    case Op::ShrU: return i32(u32(a) >> (u32(b) & 31u));
    case Op::DivI:
      if (b == 0) fault("integer division by zero");
      return i32(a / b);
    case Op::RemI:
      if (b == 0) fault("integer remainder by zero");
      return i32(a % b);
    case Op::DivU:
      if (u32(b) == 0) fault("integer division by zero");
      return i64(u32(a) / u32(b));
    case Op::RemU:
      if (u32(b) == 0) fault("integer remainder by zero");
      return i64(u32(a) % u32(b));
    case Op::AddL: return i64(u64(a) + u64(b));
    case Op::SubL: return i64(u64(a) - u64(b));
    case Op::MulL: return i64(u64(a) * u64(b));
    case Op::AndL: return i64(a & b);
    case Op::OrL: return i64(a | b);
    case Op::XorL: return i64(a ^ b);
    case Op::ShlL: return i64(u64(a) << (u64(b) & 63u));
    case Op::ShrL: return i64(a >> (u64(b) & 63u));
    case Op::ShrUL: return i64(u64(a) >> (u64(b) & 63u));
    case Op::DivL:
      if (b == 0) fault("integer division by zero");
      // INT64_MIN / -1 wraps, matching 2's-complement overflow
      return i64(b == -1 && a == std::numeric_limits<std::int64_t>::min() ? a : a / b);
    case Op::RemL:
      if (b == 0) fault("integer remainder by zero");
      return i64(b == -1 ? 0 : a % b);
    case Op::DivUL:
      if (b == 0) fault("integer division by zero");
      return i64(u64(a) / u64(b));
    case Op::RemUL:
      if (b == 0) fault("integer remainder by zero");
      return i64(u64(a) % u64(b));
    case Op::AddF32: return f32([](float p, float q) { return p + q; });
    case Op::SubF32: return f32([](float p, float q) { return p - q; });
    case Op::MulF32: return f32([](float p, float q) { return p * q; });
    case Op::DivF32: return f32([](float p, float q) { return p / q; });
    case Op::AddF64: return Slot::fromFloat(x.f + y.f);
    case Op::SubF64: return Slot::fromFloat(x.f - y.f);
    case Op::MulF64: return Slot::fromFloat(x.f * y.f);
    case Op::DivF64: return Slot::fromFloat(x.f / y.f);
    default: return Slot::fromInt(cmpHolds(op, x, y) ? 1 : 0);  // the comparisons
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Fast path: PackedInsn dispatch, raw-pointer stack, slot arena.
// ---------------------------------------------------------------------------

void Vm::executeFast(int functionIndex, std::span<const Slot> args, bool expectResult) {
  static thread_local std::size_t callDepth = 0;
  if (++callDepth > kMaxCallDepth) {
    --callDepth;
    fault("call stack overflow (recursion too deep)");
  }
  struct DepthGuard {
    std::size_t& d;
    ~DepthGuard() { --d; }
  } depthGuard{callDepth};

  const auto& fn = program_.functions[static_cast<std::size_t>(functionIndex)];
  const int savedFunction = currentFunction_;
  currentFunction_ = functionIndex;

  // Locals: a frame carved out of the preallocated slot arena (the reference
  // path heap-allocates a vector here).  Zeroed to match vector<Slot>'s
  // value-initialization, then parameters copied in.
  const std::size_t numSlots = static_cast<std::size_t>(fn.numSlots);
  if (slotTop_ + numSlots > slotArena_.size()) fault("local-slot arena exhausted");
  Slot* slots = slotArena_.data() + slotTop_;
  const std::size_t savedSlotTop = slotTop_;
  slotTop_ += numSlots;
  for (std::size_t s = args.size(); s < numSlots; ++s) slots[s] = Slot{};
  std::copy(args.begin(), args.end(), slots);

  // Frame memory region (for arrays / structs / addressed locals).
  const std::size_t frameRegionId = regions_.size();
  const std::uint64_t savedFrameTop = frameTop_;
  if (fn.frameBytes > 0) {
    const std::uint64_t alignedTop = (frameTop_ + 15) / 16 * 16;
    if (alignedTop + fn.frameBytes > frameArena_.size()) fault("frame arena exhausted");
    std::memset(frameArena_.data() + alignedTop, 0, fn.frameBytes);
    regions_.push_back(MemRegion{frameArena_.data() + alignedTop, fn.frameBytes});
    frameTop_ = alignedTop + fn.frameBytes;
  }
  struct FrameGuard {
    Vm& vm;
    std::size_t regionId;
    std::uint64_t savedFrameTop;
    std::size_t savedSlotTop;
    bool popRegion;
    ~FrameGuard() {
      if (popRegion) {
        vm.regions_.resize(regionId);
        vm.frameTop_ = savedFrameTop;
      }
      vm.slotTop_ = savedSlotTop;
    }
  } frameGuard{*this, frameRegionId, savedFrameTop, savedSlotTop, fn.frameBytes > 0};

  // One stack-overflow check per frame, against the compiler-computed
  // worst-case growth; pushes below run unguarded.
  Slot* const stackLow = stackBuf_.data();
  Slot* const base = sp_;
  if (static_cast<std::size_t>(base - stackLow) + static_cast<std::size_t>(fn.maxStack) >
      kMaxStack) {
    fault("operand stack overflow");
  }

  const PackedInsn* const codeBase = fn.packed.data();
  const std::uint64_t* const pool = fn.pool.data();
  const PackedInsn* ip = codeBase;
  const std::uint64_t budget = instructions_ + budget_;
  Slot* sp = base;

  // Infinite-loop protection: the retired counter advances per instruction
  // (weights preserve naive counts), but the budget comparison happens only
  // on back-edges and calls — straight-line code always terminates.
  const auto checkBudget = [&] {
    if (instructions_ > budget) fault("instruction budget exceeded (infinite loop?)");
  };
  const auto divFault = [this](const char* message) { fault(message); };
  // A register-form operand that is no stack value: a slot, or a constant's
  // pool bits.  (Stack operands pop in the cases below, so `sp` stays out of
  // every lambda.)
  const auto regFixed = [slots, pool](Src src, std::int32_t field) {
    return src == Src::Slot ? slots[field] : std::bit_cast<Slot>(pool[field]);
  };
  const auto regValue = [divFault](std::uint16_t c, Slot x, Slot y) {
    if (regOp(c) == Op::PtrAdd) return Slot::fromPtr(ptrPlus(x.p, y.i, regElemSize(c)));
    return binary(regOp(c), x, y, divFault);
  };

  for (;;) {
    const PackedInsn insn = *ip++;
    instructions_ += insn.weight;

    switch (insn.op) {
      case Op::PushI: *sp++ = Slot::fromInt(insn.a); break;
      case Op::PushCI:
        *sp++ = Slot::fromInt(static_cast<std::int64_t>(pool[insn.k]));
        break;
      case Op::PushCF: {
        double v;
        std::memcpy(&v, &pool[insn.k], sizeof v);
        *sp++ = Slot::fromFloat(v);
        break;
      }
      case Op::PushF:
        fault("unpacked float immediate in packed code");
        break;

      case Op::LoadSlot: *sp++ = slots[insn.a]; break;
      case Op::StoreSlot: slots[insn.a] = *--sp; break;

      case Op::LeaFrame: {
        Ptr p;
        p.region = static_cast<std::int32_t>(frameRegionId);
        p.offset = static_cast<std::uint32_t>(insn.a);
        *sp++ = Slot::fromPtr(p);
        break;
      }

      case Op::LoadI32: {
        const void* addr = resolve(sp[-1].p, 4);
        std::int32_t v;
        std::memcpy(&v, addr, 4);
        sp[-1] = Slot::fromInt(v);
        break;
      }
      case Op::LoadU32: {
        const void* addr = resolve(sp[-1].p, 4);
        std::uint32_t v;
        std::memcpy(&v, addr, 4);
        sp[-1] = Slot::fromInt(static_cast<std::int64_t>(v));
        break;
      }
      case Op::LoadF32: {
        const void* addr = resolve(sp[-1].p, 4);
        float v;
        std::memcpy(&v, addr, 4);
        sp[-1] = Slot::fromFloat(v);
        break;
      }
      case Op::LoadF64: {
        const void* addr = resolve(sp[-1].p, 8);
        double v;
        std::memcpy(&v, addr, 8);
        sp[-1] = Slot::fromFloat(v);
        break;
      }
      case Op::LoadI64: {
        const void* addr = resolve(sp[-1].p, 8);
        std::int64_t v;
        std::memcpy(&v, addr, 8);
        sp[-1] = Slot::fromInt(v);
        break;
      }
      case Op::StoreI32: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 4);
        const auto v = static_cast<std::int32_t>(value.i);
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::StoreI64: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 8);
        std::memcpy(addr, &value.i, 8);
        break;
      }
      case Op::StoreF32: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 4);
        const auto v = static_cast<float>(value.f);
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::StoreF64: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 8);
        std::memcpy(addr, &value.f, 8);
        break;
      }
      case Op::MemCopy: {
        const Ptr src = (*--sp).p;
        const Ptr dst = (*--sp).p;
        const auto bytes = static_cast<std::uint32_t>(insn.a);
        void* d = resolve(dst, bytes);
        const void* s = resolve(src, bytes);
        std::memmove(d, s, bytes);
        break;
      }
      case Op::PtrAdd: {
        const std::int64_t index = (*--sp).i;
        sp[-1] = Slot::fromPtr(ptrPlus(sp[-1].p, index, insn.a));
        break;
      }

      // --- superinstructions ------------------------------------------------
      case Op::PtrAddImm:
        sp[-1] = Slot::fromPtr(ptrPlus(sp[-1].p, insn.b, insn.a));
        break;

#define SKELCL_LOAD_ELEM(OPNAME, CTYPE, BYTES, MAKE)                         \
  case Op::LoadElem##OPNAME: {                                               \
    const std::int64_t index = (*--sp).i;                                    \
    const void* addr = resolve(ptrPlus(sp[-1].p, index, insn.a), BYTES);     \
    CTYPE v;                                                                 \
    std::memcpy(&v, addr, BYTES);                                            \
    sp[-1] = Slot::MAKE(v);                                                  \
    break;                                                                   \
  }                                                                          \
  case Op::LoadSlotElem##OPNAME: {                                           \
    const void* addr =                                                       \
        resolve(ptrPlus(slots[insn.a].p, slots[insn.b].i, insn.c), BYTES);   \
    CTYPE v;                                                                 \
    std::memcpy(&v, addr, BYTES);                                            \
    *sp++ = Slot::MAKE(v);                                                   \
    break;                                                                   \
  }
      SKELCL_LOAD_ELEM(I32, std::int32_t, 4, fromInt)
      SKELCL_LOAD_ELEM(U32, std::uint32_t, 4, fromInt)
      SKELCL_LOAD_ELEM(F32, float, 4, fromFloat)
      SKELCL_LOAD_ELEM(F64, double, 8, fromFloat)
      SKELCL_LOAD_ELEM(I64, std::int64_t, 8, fromInt)
#undef SKELCL_LOAD_ELEM

      case Op::TeeStoreI32: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 4);
        const auto v = static_cast<std::int32_t>(value.i);
        std::memcpy(addr, &v, 4);
        slots[insn.a] = value;
        break;
      }
      case Op::TeeStoreI64: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 8);
        std::memcpy(addr, &value.i, 8);
        slots[insn.a] = value;
        break;
      }
      case Op::TeeStoreF32: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 4);
        const auto v = static_cast<float>(value.f);
        std::memcpy(addr, &v, 4);
        slots[insn.a] = value;
        break;
      }
      case Op::TeeStoreF64: {
        const Slot value = *--sp;
        void* addr = resolve((*--sp).p, 8);
        std::memcpy(addr, &value.f, 8);
        slots[insn.a] = value;
        break;
      }

      case Op::IncSlotI:
        slots[insn.a].i = static_cast<std::int32_t>(slots[insn.a].i + insn.b);
        break;

      case Op::LoadSlot2:
        sp[0] = slots[insn.a];
        sp[1] = slots[insn.b];
        sp += 2;
        break;

      case Op::StoreSlotChecked: {
        const Slot p = *--sp;
        resolve(p.p, static_cast<std::uint32_t>(insn.b));
        slots[insn.a] = p;
        break;
      }

      case Op::CmpJz: {
        const Slot b = *--sp;
        const Slot a = *--sp;
        if (!cmpHolds(static_cast<Op>(insn.c), a, b)) {
          if (insn.a <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
          ip = codeBase + insn.a;
        }
        break;
      }
      case Op::CmpJnz: {
        const Slot b = *--sp;
        const Slot a = *--sp;
        if (cmpHolds(static_cast<Op>(insn.c), a, b)) {
          if (insn.a <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
          ip = codeBase + insn.a;
        }
        break;
      }
      // --- end superinstructions --------------------------------------------

// Binary arithmetic and comparisons, stack form.
#define SKELCL_BINARY(OPNAME)                               \
  case Op::OPNAME:                                          \
    --sp;                                                   \
    sp[-1] = binary(Op::OPNAME, sp[-1], sp[0], divFault);   \
    break;
      SKELCL_BINARY(AddI) SKELCL_BINARY(SubI) SKELCL_BINARY(MulI) SKELCL_BINARY(DivI)
      SKELCL_BINARY(RemI) SKELCL_BINARY(DivU) SKELCL_BINARY(RemU) SKELCL_BINARY(AndI)
      SKELCL_BINARY(OrI) SKELCL_BINARY(XorI) SKELCL_BINARY(ShlI) SKELCL_BINARY(ShrI)
      SKELCL_BINARY(ShrU)
      SKELCL_BINARY(AddL) SKELCL_BINARY(SubL) SKELCL_BINARY(MulL) SKELCL_BINARY(DivL)
      SKELCL_BINARY(RemL) SKELCL_BINARY(DivUL) SKELCL_BINARY(RemUL) SKELCL_BINARY(AndL)
      SKELCL_BINARY(OrL) SKELCL_BINARY(XorL) SKELCL_BINARY(ShlL) SKELCL_BINARY(ShrL)
      SKELCL_BINARY(ShrUL)
      SKELCL_BINARY(AddF32) SKELCL_BINARY(SubF32) SKELCL_BINARY(MulF32) SKELCL_BINARY(DivF32)
      SKELCL_BINARY(AddF64) SKELCL_BINARY(SubF64) SKELCL_BINARY(MulF64) SKELCL_BINARY(DivF64)
      SKELCL_BINARY(EqI) SKELCL_BINARY(NeI) SKELCL_BINARY(LtI) SKELCL_BINARY(LeI)
      SKELCL_BINARY(GtI) SKELCL_BINARY(GeI) SKELCL_BINARY(LtU) SKELCL_BINARY(LeU)
      SKELCL_BINARY(GtU) SKELCL_BINARY(GeU) SKELCL_BINARY(LtUL) SKELCL_BINARY(LeUL)
      SKELCL_BINARY(GtUL) SKELCL_BINARY(GeUL) SKELCL_BINARY(EqF) SKELCL_BINARY(NeF)
      SKELCL_BINARY(LtF) SKELCL_BINARY(LeF) SKELCL_BINARY(GtF) SKELCL_BINARY(GeF)
      SKELCL_BINARY(EqP) SKELCL_BINARY(NeP)
#undef SKELCL_BINARY

      case Op::NegI:
        sp[-1].i = static_cast<std::int32_t>(-sp[-1].i);
        break;
      case Op::NotI:
        sp[-1].i = static_cast<std::int32_t>(~sp[-1].i);
        break;
      case Op::NegL:
        sp[-1].i = static_cast<std::int64_t>(-static_cast<std::uint64_t>(sp[-1].i));
        break;
      case Op::NotL:
        sp[-1].i = ~sp[-1].i;
        break;
      case Op::NegF32:
        sp[-1].f = -static_cast<float>(sp[-1].f);
        break;
      case Op::NegF64:
        sp[-1].f = -sp[-1].f;
        break;

      // --- register form (tier 2) --------------------------------------------
      // Operands come from slots, the constant pool or the stack (y popped
      // first); the result goes to the stack, a slot or a branch decision.
      case Op::RegOp: {
        const Slot y = regY(insn.c) == Src::Stack ? *--sp : regFixed(regY(insn.c), insn.k);
        const Slot x = regX(insn.c) == Src::Stack ? *--sp : regFixed(regX(insn.c), insn.b);
        *sp++ = regValue(insn.c, x, y);
        break;
      }
      case Op::RegStore: {
        const Slot y = regY(insn.c) == Src::Stack ? *--sp : regFixed(regY(insn.c), insn.k);
        const Slot x = regX(insn.c) == Src::Stack ? *--sp : regFixed(regX(insn.c), insn.b);
        slots[insn.a] = regValue(insn.c, x, y);
        break;
      }
      case Op::RegJz:
      case Op::RegJnz: {
        const Slot y = regY(insn.c) == Src::Stack ? *--sp : regFixed(regY(insn.c), insn.k);
        const Slot x = regX(insn.c) == Src::Stack ? *--sp : regFixed(regX(insn.c), insn.b);
        if (cmpHolds(regOp(insn.c), x, y) == (insn.op == Op::RegJnz)) {
          if (insn.a <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
          ip = codeBase + insn.a;
        }
        break;
      }

      case Op::LNot:
        sp[-1].i = sp[-1].i == 0 ? 1 : 0;
        break;

      case Op::I2F32:
        sp[-1] = Slot::fromFloat(
            static_cast<float>(static_cast<std::int64_t>(sp[-1].i)));
        break;
      case Op::I2F64:
        sp[-1] = Slot::fromFloat(static_cast<double>(sp[-1].i));
        break;
      case Op::U2F32:
        sp[-1] = Slot::fromFloat(
            static_cast<float>(static_cast<std::uint32_t>(sp[-1].i)));
        break;
      case Op::U2F64:
        sp[-1] = Slot::fromFloat(
            static_cast<double>(static_cast<std::uint32_t>(sp[-1].i)));
        break;
      case Op::UL2F32:
        sp[-1] = Slot::fromFloat(
            static_cast<float>(static_cast<std::uint64_t>(sp[-1].i)));
        break;
      case Op::UL2F64:
        sp[-1] = Slot::fromFloat(
            static_cast<double>(static_cast<std::uint64_t>(sp[-1].i)));
        break;
      case Op::F2I:
        sp[-1] = Slot::fromInt(floatToInt<std::int32_t>(sp[-1].f));
        break;
      case Op::F2L:
        sp[-1] = Slot::fromInt(floatToInt<std::int64_t>(sp[-1].f));
        break;
      case Op::F2UL:
        sp[-1] = Slot::fromInt(floatToInt<std::uint64_t>(sp[-1].f));
        break;
      case Op::F2U:
        sp[-1] = Slot::fromInt(floatToInt<std::uint32_t>(sp[-1].f));
        break;
      case Op::F64toF32:
        sp[-1].f = static_cast<float>(sp[-1].f);
        break;
      case Op::I2U:
        sp[-1].i = static_cast<std::int64_t>(static_cast<std::uint32_t>(sp[-1].i));
        break;
      case Op::U2I:
        sp[-1].i = static_cast<std::int32_t>(static_cast<std::uint32_t>(sp[-1].i));
        break;
      case Op::BoolNorm:
        sp[-1].i = sp[-1].i != 0 ? 1 : 0;
        break;

      case Op::Jmp:
        if (insn.a <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
        ip = codeBase + insn.a;
        break;
      case Op::Jz:
        if ((*--sp).i == 0) {
          if (insn.a <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
          ip = codeBase + insn.a;
        }
        break;
      case Op::Jnz:
        if ((*--sp).i != 0) {
          if (insn.a <= static_cast<std::int32_t>(ip - codeBase - 1)) checkBudget();
          ip = codeBase + insn.a;
        }
        break;

      case Op::CallFn: {
        checkBudget();
        const auto& callee = program_.functions[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = callee.paramTypes.size();
        const bool hasResult = callee.returnType != types::Void;
        sp_ = sp;
        // The callee pushes its result (if any) at `sp`, above the args; move
        // it down over the consumed arguments.
        executeFast(insn.a, std::span<const Slot>(sp - argc, argc), hasResult);
        if (hasResult) {
          const Slot result = sp[0];
          sp -= argc;
          *sp++ = result;
        } else {
          sp -= argc;
        }
        break;
      }
      case Op::CallBuiltin: {
        checkBudget();
        const BuiltinDef& def = builtinTable()[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = static_cast<std::size_t>(insn.b);
        sp -= argc;
        const Slot result = def.fn(*this, sp);
        if (def.ret != BType::Void) *sp++ = result;
        break;
      }

      case Op::Ret: {
        const Slot result = *--sp;
        sp = base;
        if (expectResult) *sp++ = result;
        sp_ = sp;
        currentFunction_ = savedFunction;
        return;
      }
      case Op::RetVoid:
        sp_ = base;
        currentFunction_ = savedFunction;
        return;

      case Op::Dup:
        sp[0] = sp[-1];
        ++sp;
        break;
      case Op::Drop:
        --sp;
        break;

      case Op::Trap:
        fault("non-void function reached the end without returning a value");
    }
  }
}

// ---------------------------------------------------------------------------
// Reference path: the original guarded interpreter over the Insn IR, kept
// byte-for-byte as the differential baseline (SKELCL_KC_OPT=0).
// ---------------------------------------------------------------------------

void Vm::executeRef(int functionIndex, std::span<const Slot> args, bool expectResult) {
  static thread_local std::size_t callDepth = 0;
  if (++callDepth > kMaxCallDepth) {
    --callDepth;
    fault("call stack overflow (recursion too deep)");
  }
  struct DepthGuard {
    std::size_t& d;
    ~DepthGuard() { --d; }
  } depthGuard{callDepth};

  const auto& fn = program_.functions[static_cast<std::size_t>(functionIndex)];
  const int savedFunction = currentFunction_;
  currentFunction_ = functionIndex;

  // Locals.
  std::vector<Slot> slots(static_cast<std::size_t>(fn.numSlots));
  std::copy(args.begin(), args.end(), slots.begin());

  // Frame memory region (for arrays / structs / addressed locals).
  const std::size_t frameRegionId = regions_.size();
  const std::uint64_t savedFrameTop = frameTop_;
  if (fn.frameBytes > 0) {
    const std::uint64_t alignedTop = (frameTop_ + 15) / 16 * 16;
    if (alignedTop + fn.frameBytes > frameArena_.size()) fault("frame arena exhausted");
    std::memset(frameArena_.data() + alignedTop, 0, fn.frameBytes);
    regions_.push_back(MemRegion{frameArena_.data() + alignedTop, fn.frameBytes});
    frameTop_ = alignedTop + fn.frameBytes;
  }
  struct FrameGuard {
    Vm& vm;
    std::size_t regionId;
    std::uint64_t savedTop;
    bool active;
    ~FrameGuard() {
      if (active) {
        vm.regions_.resize(regionId);
        vm.frameTop_ = savedTop;
      }
    }
  } frameGuard{*this, frameRegionId, savedFrameTop, fn.frameBytes > 0};

  const std::size_t stackBase = stack_.size();

  auto push = [this](Slot s) {
    if (stack_.size() >= kMaxStack) fault("operand stack overflow");
    stack_.push_back(s);
  };
  auto pop = [this]() {
    Slot s = stack_.back();
    stack_.pop_back();
    return s;
  };

  const Insn* code = fn.code.data();
  std::size_t pc = 0;
  std::uint64_t budget = instructions_ + budget_;

  for (;;) {
    const Insn& insn = code[pc++];
    if ((instructions_ += insn.weight) > budget) {
      fault("instruction budget exceeded (infinite loop?)");
    }

    switch (insn.op) {
      case Op::PushI: push(Slot::fromInt(insn.imm)); break;
      case Op::PushF: push(Slot::fromFloat(insn.fimm)); break;

      case Op::LoadSlot: push(slots[static_cast<std::size_t>(insn.a)]); break;
      case Op::StoreSlot: slots[static_cast<std::size_t>(insn.a)] = pop(); break;

      case Op::LeaFrame: {
        Ptr p;
        p.region = static_cast<std::int32_t>(frameRegionId);
        p.offset = static_cast<std::uint32_t>(insn.a);
        push(Slot::fromPtr(p));
        break;
      }

      case Op::LoadI32: {
        const void* addr = resolve(pop().p, 4);
        std::int32_t v;
        std::memcpy(&v, addr, 4);
        push(Slot::fromInt(v));
        break;
      }
      case Op::LoadU32: {
        const void* addr = resolve(pop().p, 4);
        std::uint32_t v;
        std::memcpy(&v, addr, 4);
        push(Slot::fromInt(static_cast<std::int64_t>(v)));
        break;
      }
      case Op::LoadF32: {
        const void* addr = resolve(pop().p, 4);
        float v;
        std::memcpy(&v, addr, 4);
        push(Slot::fromFloat(v));
        break;
      }
      case Op::LoadF64: {
        const void* addr = resolve(pop().p, 8);
        double v;
        std::memcpy(&v, addr, 8);
        push(Slot::fromFloat(v));
        break;
      }
      case Op::LoadI64: {
        const void* addr = resolve(pop().p, 8);
        std::int64_t v;
        std::memcpy(&v, addr, 8);
        push(Slot::fromInt(v));
        break;
      }
      case Op::StoreI32: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 4);
        const auto v = static_cast<std::int32_t>(value.i);
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::StoreI64: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 8);
        std::memcpy(addr, &value.i, 8);
        break;
      }
      case Op::StoreF32: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 4);
        const auto v = static_cast<float>(value.f);
        std::memcpy(addr, &v, 4);
        break;
      }
      case Op::StoreF64: {
        const Slot value = pop();
        void* addr = resolve(pop().p, 8);
        std::memcpy(addr, &value.f, 8);
        break;
      }
      case Op::MemCopy: {
        const Ptr src = pop().p;
        const Ptr dst = pop().p;
        const auto bytes = static_cast<std::uint32_t>(insn.a);
        void* d = resolve(dst, bytes);
        const void* s = resolve(src, bytes);
        std::memmove(d, s, bytes);
        break;
      }
      case Op::PtrAdd: {
        const std::int64_t index = pop().i;
        Ptr p = pop().p;
        p.offset = static_cast<std::uint32_t>(
            static_cast<std::int64_t>(p.offset) + index * insn.a);
        push(Slot::fromPtr(p));
        break;
      }
      case Op::StoreSlotChecked: {
        const Slot p = pop();
        resolve(p.p, static_cast<std::uint32_t>(insn.b));
        slots[static_cast<std::size_t>(insn.a)] = p;
        break;
      }

#define SKELCL_BIN_I(OPNAME, EXPR)                                         \
  case Op::OPNAME: {                                                       \
    const std::int64_t b = pop().i;                                        \
    const std::int64_t a = pop().i;                                        \
    (void)a;                                                               \
    (void)b;                                                               \
    push(Slot::fromInt(static_cast<std::int32_t>(EXPR)));                  \
    break;                                                                 \
  }
      SKELCL_BIN_I(AddI, a + b)
      SKELCL_BIN_I(SubI, a - b)
      SKELCL_BIN_I(MulI, a * b)
      SKELCL_BIN_I(AndI, a & b)
      SKELCL_BIN_I(OrI, a | b)
      SKELCL_BIN_I(XorI, a ^ b)
      SKELCL_BIN_I(ShlI, static_cast<std::int64_t>(static_cast<std::uint32_t>(a)
                                                   << (static_cast<std::uint32_t>(b) & 31u)))
      SKELCL_BIN_I(ShrI, static_cast<std::int32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
      SKELCL_BIN_I(ShrU, static_cast<std::uint32_t>(a) >> (static_cast<std::uint32_t>(b) & 31u))
#undef SKELCL_BIN_I

      case Op::DivI: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer division by zero");
        push(Slot::fromInt(static_cast<std::int32_t>(a / b)));
        break;
      }
      case Op::RemI: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer remainder by zero");
        push(Slot::fromInt(static_cast<std::int32_t>(a % b)));
        break;
      }
      case Op::DivU: {
        const auto b = static_cast<std::uint32_t>(pop().i);
        const auto a = static_cast<std::uint32_t>(pop().i);
        if (b == 0) fault("integer division by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a / b)));
        break;
      }
      case Op::RemU: {
        const auto b = static_cast<std::uint32_t>(pop().i);
        const auto a = static_cast<std::uint32_t>(pop().i);
        if (b == 0) fault("integer remainder by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a % b)));
        break;
      }
      case Op::NegI:
        stack_.back().i = static_cast<std::int32_t>(-stack_.back().i);
        break;
      case Op::NotI:
        stack_.back().i = static_cast<std::int32_t>(~stack_.back().i);
        break;

#define SKELCL_BIN_L(OPNAME, EXPR)                                         \
  case Op::OPNAME: {                                                       \
    const std::int64_t b = pop().i;                                        \
    const std::int64_t a = pop().i;                                        \
    (void)a;                                                               \
    (void)b;                                                               \
    push(Slot::fromInt(static_cast<std::int64_t>(EXPR)));                  \
    break;                                                                 \
  }
      SKELCL_BIN_L(AddL, static_cast<std::uint64_t>(a) + static_cast<std::uint64_t>(b))
      SKELCL_BIN_L(SubL, static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b))
      SKELCL_BIN_L(MulL, static_cast<std::uint64_t>(a) * static_cast<std::uint64_t>(b))
      SKELCL_BIN_L(AndL, a & b)
      SKELCL_BIN_L(OrL, a | b)
      SKELCL_BIN_L(XorL, a ^ b)
      SKELCL_BIN_L(ShlL, static_cast<std::uint64_t>(a) << (static_cast<std::uint64_t>(b) & 63u))
      SKELCL_BIN_L(ShrL, a >> (static_cast<std::uint64_t>(b) & 63u))
      SKELCL_BIN_L(ShrUL, static_cast<std::uint64_t>(a) >> (static_cast<std::uint64_t>(b) & 63u))
#undef SKELCL_BIN_L

      case Op::DivL: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer division by zero");
        if (b == -1 && a == std::numeric_limits<std::int64_t>::min()) {
          push(Slot::fromInt(a));  // wrap, matching 2's-complement overflow
        } else {
          push(Slot::fromInt(a / b));
        }
        break;
      }
      case Op::RemL: {
        const std::int64_t b = pop().i;
        const std::int64_t a = pop().i;
        if (b == 0) fault("integer remainder by zero");
        if (b == -1) {
          push(Slot::fromInt(std::int64_t{0}));
        } else {
          push(Slot::fromInt(a % b));
        }
        break;
      }
      case Op::DivUL: {
        const auto b = static_cast<std::uint64_t>(pop().i);
        const auto a = static_cast<std::uint64_t>(pop().i);
        if (b == 0) fault("integer division by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a / b)));
        break;
      }
      case Op::RemUL: {
        const auto b = static_cast<std::uint64_t>(pop().i);
        const auto a = static_cast<std::uint64_t>(pop().i);
        if (b == 0) fault("integer remainder by zero");
        push(Slot::fromInt(static_cast<std::int64_t>(a % b)));
        break;
      }
      case Op::NegL:
        stack_.back().i =
            static_cast<std::int64_t>(-static_cast<std::uint64_t>(stack_.back().i));
        break;
      case Op::NotL:
        stack_.back().i = ~stack_.back().i;
        break;

#define SKELCL_BIN_F32(OPNAME, OPERATOR)                                            \
  case Op::OPNAME: {                                                                \
    const double b = pop().f;                                                       \
    const double a = pop().f;                                                       \
    push(Slot::fromFloat(static_cast<float>(static_cast<float>(a)                   \
                                                OPERATOR static_cast<float>(b))));  \
    break;                                                                          \
  }
      SKELCL_BIN_F32(AddF32, +)
      SKELCL_BIN_F32(SubF32, -)
      SKELCL_BIN_F32(MulF32, *)
      SKELCL_BIN_F32(DivF32, /)
#undef SKELCL_BIN_F32

#define SKELCL_BIN_F64(OPNAME, OPERATOR)       \
  case Op::OPNAME: {                           \
    const double b = pop().f;                  \
    const double a = pop().f;                  \
    push(Slot::fromFloat(a OPERATOR b));       \
    break;                                     \
  }
      SKELCL_BIN_F64(AddF64, +)
      SKELCL_BIN_F64(SubF64, -)
      SKELCL_BIN_F64(MulF64, *)
      SKELCL_BIN_F64(DivF64, /)
#undef SKELCL_BIN_F64

      case Op::NegF32:
        stack_.back().f = -static_cast<float>(stack_.back().f);
        break;
      case Op::NegF64:
        stack_.back().f = -stack_.back().f;
        break;

#define SKELCL_CMP(OPNAME, TYPE, FIELD, OPERATOR)                  \
  case Op::OPNAME: {                                               \
    const auto b = static_cast<TYPE>(pop().FIELD);                 \
    const auto a = static_cast<TYPE>(pop().FIELD);                 \
    push(Slot::fromInt((a OPERATOR b) ? 1 : 0));                   \
    break;                                                         \
  }
      SKELCL_CMP(EqI, std::int64_t, i, ==)
      SKELCL_CMP(NeI, std::int64_t, i, !=)
      SKELCL_CMP(LtI, std::int64_t, i, <)
      SKELCL_CMP(LeI, std::int64_t, i, <=)
      SKELCL_CMP(GtI, std::int64_t, i, >)
      SKELCL_CMP(GeI, std::int64_t, i, >=)
      SKELCL_CMP(LtU, std::uint32_t, i, <)
      SKELCL_CMP(LeU, std::uint32_t, i, <=)
      SKELCL_CMP(GtU, std::uint32_t, i, >)
      SKELCL_CMP(GeU, std::uint32_t, i, >=)
      SKELCL_CMP(LtUL, std::uint64_t, i, <)
      SKELCL_CMP(LeUL, std::uint64_t, i, <=)
      SKELCL_CMP(GtUL, std::uint64_t, i, >)
      SKELCL_CMP(GeUL, std::uint64_t, i, >=)
      SKELCL_CMP(EqF, double, f, ==)
      SKELCL_CMP(NeF, double, f, !=)
      SKELCL_CMP(LtF, double, f, <)
      SKELCL_CMP(LeF, double, f, <=)
      SKELCL_CMP(GtF, double, f, >)
      SKELCL_CMP(GeF, double, f, >=)
#undef SKELCL_CMP

      case Op::EqP: {
        const Ptr b = pop().p;
        const Ptr a = pop().p;
        push(Slot::fromInt((a.region == b.region && a.offset == b.offset) ? 1 : 0));
        break;
      }
      case Op::NeP: {
        const Ptr b = pop().p;
        const Ptr a = pop().p;
        push(Slot::fromInt((a.region != b.region || a.offset != b.offset) ? 1 : 0));
        break;
      }
      case Op::LNot:
        stack_.back().i = stack_.back().i == 0 ? 1 : 0;
        break;

      case Op::I2F32:
        stack_.back() = Slot::fromFloat(
            static_cast<float>(static_cast<std::int64_t>(stack_.back().i)));
        break;
      case Op::I2F64:
        stack_.back() = Slot::fromFloat(static_cast<double>(stack_.back().i));
        break;
      case Op::U2F32:
        stack_.back() = Slot::fromFloat(
            static_cast<float>(static_cast<std::uint32_t>(stack_.back().i)));
        break;
      case Op::U2F64:
        stack_.back() = Slot::fromFloat(
            static_cast<double>(static_cast<std::uint32_t>(stack_.back().i)));
        break;
      case Op::UL2F32:
        stack_.back() = Slot::fromFloat(
            static_cast<float>(static_cast<std::uint64_t>(stack_.back().i)));
        break;
      case Op::UL2F64:
        stack_.back() = Slot::fromFloat(
            static_cast<double>(static_cast<std::uint64_t>(stack_.back().i)));
        break;
      case Op::F2I:
        stack_.back() = Slot::fromInt(floatToInt<std::int32_t>(stack_.back().f));
        break;
      case Op::F2L:
        stack_.back() = Slot::fromInt(floatToInt<std::int64_t>(stack_.back().f));
        break;
      case Op::F2UL:
        stack_.back() = Slot::fromInt(floatToInt<std::uint64_t>(stack_.back().f));
        break;
      case Op::F2U:
        stack_.back() = Slot::fromInt(floatToInt<std::uint32_t>(stack_.back().f));
        break;
      case Op::F64toF32:
        stack_.back().f = static_cast<float>(stack_.back().f);
        break;
      case Op::I2U:
        stack_.back().i = static_cast<std::int64_t>(static_cast<std::uint32_t>(stack_.back().i));
        break;
      case Op::U2I:
        stack_.back().i = static_cast<std::int32_t>(static_cast<std::uint32_t>(stack_.back().i));
        break;
      case Op::BoolNorm:
        stack_.back().i = stack_.back().i != 0 ? 1 : 0;
        break;

      case Op::Jmp:
        pc = static_cast<std::size_t>(insn.a);
        break;
      case Op::Jz:
        if (pop().i == 0) pc = static_cast<std::size_t>(insn.a);
        break;
      case Op::Jnz:
        if (pop().i != 0) pc = static_cast<std::size_t>(insn.a);
        break;

      case Op::CallFn: {
        const auto& callee = program_.functions[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = callee.paramTypes.size();
        const std::span<const Slot> callArgs(stack_.data() + stack_.size() - argc, argc);
        // The callee pushes its result (if any) above the args; we then move
        // it down over the consumed arguments.
        executeRef(insn.a, callArgs, callee.returnType != types::Void);
        if (callee.returnType != types::Void) {
          const Slot result = stack_.back();
          stack_.resize(stack_.size() - 1 - argc);
          stack_.push_back(result);
        } else {
          stack_.resize(stack_.size() - argc);
        }
        break;
      }
      case Op::CallBuiltin: {
        const BuiltinDef& def = builtinTable()[static_cast<std::size_t>(insn.a)];
        const std::size_t argc = static_cast<std::size_t>(insn.b);
        Slot argv[8];
        for (std::size_t i = 0; i < argc; ++i) {
          argv[argc - 1 - i] = pop();
        }
        const Slot result = def.fn(*this, argv);
        if (def.ret != BType::Void) push(result);
        break;
      }

      case Op::Ret: {
        const Slot result = pop();
        stack_.resize(stackBase);
        if (expectResult) stack_.push_back(result);
        currentFunction_ = savedFunction;
        return;
      }
      case Op::RetVoid:
        stack_.resize(stackBase);
        currentFunction_ = savedFunction;
        return;

      case Op::Dup:
        push(stack_.back());
        break;
      case Op::Drop:
        stack_.pop_back();
        break;

      case Op::Trap:
        fault("non-void function reached the end without returning a value");
        break;

      // The reference interpreter runs the naive pipeline only; tier 1 and 2
      // programs always dispatch through executeFast.
      case Op::PtrAddImm:
      case Op::LoadElemI32: case Op::LoadElemU32: case Op::LoadElemF32:
      case Op::LoadElemF64: case Op::LoadElemI64:
      case Op::LoadSlotElemI32: case Op::LoadSlotElemU32: case Op::LoadSlotElemF32:
      case Op::LoadSlotElemF64: case Op::LoadSlotElemI64:
      case Op::TeeStoreI32: case Op::TeeStoreI64: case Op::TeeStoreF32:
      case Op::TeeStoreF64:
      case Op::IncSlotI: case Op::LoadSlot2: case Op::CmpJz: case Op::CmpJnz:
      case Op::PushCI: case Op::PushCF:
      case Op::RegOp: case Op::RegStore: case Op::RegJz: case Op::RegJnz:
        fault("superinstruction reached the reference interpreter "
              "(recompile without the peephole pass)");
        break;
    }
  }
}

}  // namespace skelcl::kc
