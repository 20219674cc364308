// Stack-machine bytecode produced by the compiler and executed by the VM.
#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "kernelc/types.hpp"

namespace skelcl::kc {

/// What an instruction's operand fields mean.  Each kind fixes how both
/// disassemblers print the operands and which slots the instruction reads
/// and writes.  Fields are Insn's; the packed encoding moves the ones noted.
enum class Operands : std::uint8_t {
  None,
  Imm,        ///< imm: integer constant (packed: a, or PushCI when it does not fit)
  FImm,       ///< fimm: floating constant (packed: PushCF)
  PoolInt,    ///< packed only: pool[k] as int64 (Insn view: a = k, imm = pool[k])
  PoolFloat,  ///< packed only: pool[k] as a double (Insn view: a = k, fimm)
  Num,        ///< a: frame offset, byte count, element size or function index
  SlotRead,   ///< a: slot read
  SlotWrite,  ///< a: slot written
  Target,     ///< a: branch target
  Builtin,    ///< a: builtin id, b: argument count
  PtrImm,     ///< a: element size, imm: constant index (packed: b)
  ElemSize,   ///< a: element size
  SlotElem,   ///< a, b: pointer and index slots read, imm: element size (packed: c)
  Tee,        ///< a: scratch slot written
  IncSlot,    ///< a: slot read and written, imm: delta (packed: b)
  Slot2,      ///< a, b: slots read
  SlotBytes,  ///< a: slot written, b: byte count
  CmpTarget,  ///< a: branch target, b: comparison opcode (packed: c)
  // The register form (regC below): c carries the operation and where its
  // operands come from; b and k are x and y, a slot index or (packed) a pool
  // index, and an Insn holds a constant operand's raw bits in imm.
  Reg,        ///< b, k: operands x, y; c: operation and operand kinds
  RegSlot,    ///< Reg, and a: the slot the result is written to
  RegTarget,  ///< Reg, and a: branch target
};

/// OpInfo::flags bits.  Which pass reads which is in docs/VM.md.
enum OpFlag : std::uint8_t {
  kPure = 1 << 0,            ///< pure and never faults: reg.store may absorb its store
  kStraight = 1 << 1,        ///< straight-line, not pure: the struct-copy scan passes it
  kStops = 1 << 2,           ///< control never falls through to the next instruction
  kReturns = 1 << 3,         ///< leaves the function, returning its `pops` values
  kFusableCompare = 1 << 4,  ///< a comparison CmpJz/CmpJnz can fuse
  kVarEffect = 1 << 5,       ///< pops and pushes depend on the callee or the operand kinds
  kFloatOperands = 1 << 6,   ///< a binary op on floating values: a constant operand is a double
};

// The opcode table: X(op, mnemonic, pops, pushes, flags, operands), one row
// per opcode in opcode-value order.  It generates `Op` and kOpInfo, so an
// opcode's value, name, stack effect, flags and operand kinds are written
// once.  The interpreters (vm.cpp, vm_batch.cpp) keep their own dispatch.
#define SKELCL_KC_OPCODES(X)                                                             \
  /* constants; f32 literals are already float-rounded in fimm */                        \
  X(PushI, "push.i", 0, 1, kPure, Imm)                                                   \
  X(PushF, "push.f", 0, 1, kPure, FImm)                                                  \
  /* locals */                                                                           \
  X(LoadSlot, "load.slot", 0, 1, kPure, SlotRead)                                        \
  X(StoreSlot, "store.slot", 1, 0, kStraight, SlotWrite)                                 \
  /* frame memory: push a pointer to the current frame's memory + a */                   \
  X(LeaFrame, "lea.frame", 0, 1, kStraight, Num)                                         \
  /* memory access: pop ptr, push value; pop value, pop ptr */                           \
  X(LoadI32, "load.i32", 1, 1, kStraight, None)                                          \
  X(LoadU32, "load.u32", 1, 1, kStraight, None)                                          \
  X(LoadF32, "load.f32", 1, 1, kStraight, None)                                          \
  X(LoadF64, "load.f64", 1, 1, kStraight, None)                                          \
  X(LoadI64, "load.i64", 1, 1, kStraight, None)                                          \
  X(StoreI32, "store.i32", 2, 0, kStraight, None)                                        \
  X(StoreF32, "store.f32", 2, 0, kStraight, None)                                        \
  X(StoreF64, "store.f64", 2, 0, kStraight, None)                                        \
  X(StoreI64, "store.i64", 2, 0, kStraight, None)                                        \
  X(MemCopy, "memcopy", 2, 0, kStraight, Num) /* a = bytes; pop src, pop dst */          \
  X(PtrAdd, "ptradd", 2, 1, kPure, Num)       /* a = element size; pop index, pop ptr */ \
  /* 32-bit integer arithmetic, wrap-around; division faults */                          \
  X(AddI, "add.i", 2, 1, kPure, None)                                                    \
  X(SubI, "sub.i", 2, 1, kPure, None)                                                    \
  X(MulI, "mul.i", 2, 1, kPure, None)                                                    \
  X(DivI, "div.i", 2, 1, 0, None)                                                        \
  X(RemI, "rem.i", 2, 1, 0, None)                                                        \
  X(NegI, "neg.i", 1, 1, kPure, None)                                                    \
  X(DivU, "div.u", 2, 1, 0, None)                                                        \
  X(RemU, "rem.u", 2, 1, 0, None)                                                        \
  X(AndI, "and.i", 2, 1, kPure, None)                                                    \
  X(OrI, "or.i", 2, 1, kPure, None)                                                      \
  X(XorI, "xor.i", 2, 1, kPure, None)                                                    \
  X(ShlI, "shl.i", 2, 1, kPure, None)                                                    \
  X(ShrI, "shr.i", 2, 1, kPure, None)                                                    \
  X(ShrU, "shr.u", 2, 1, kPure, None)                                                    \
  X(NotI, "not.i", 1, 1, kPure, None)                                                    \
  /* 64-bit integer arithmetic (long/ulong; slots hold full 64 bits) */                  \
  X(AddL, "add.l", 2, 1, kPure, None)                                                    \
  X(SubL, "sub.l", 2, 1, kPure, None)                                                    \
  X(MulL, "mul.l", 2, 1, kPure, None)                                                    \
  X(DivL, "div.l", 2, 1, 0, None)                                                        \
  X(RemL, "rem.l", 2, 1, 0, None)                                                        \
  X(NegL, "neg.l", 1, 1, kPure, None)                                                    \
  X(DivUL, "div.ul", 2, 1, 0, None)                                                      \
  X(RemUL, "rem.ul", 2, 1, 0, None)                                                      \
  X(AndL, "and.l", 2, 1, kPure, None)                                                    \
  X(OrL, "or.l", 2, 1, kPure, None)                                                      \
  X(XorL, "xor.l", 2, 1, kPure, None)                                                    \
  X(ShlL, "shl.l", 2, 1, kPure, None)                                                    \
  X(ShrL, "shr.l", 2, 1, kPure, None)                                                    \
  X(ShrUL, "shr.ul", 2, 1, kPure, None)                                                  \
  X(NotL, "not.l", 1, 1, kPure, None)                                                    \
  /* floating arithmetic */                                                              \
  X(AddF32, "add.f32", 2, 1, kPure | kFloatOperands, None)                               \
  X(SubF32, "sub.f32", 2, 1, kPure | kFloatOperands, None)                               \
  X(MulF32, "mul.f32", 2, 1, kPure | kFloatOperands, None)                               \
  X(DivF32, "div.f32", 2, 1, kPure | kFloatOperands, None)                               \
  X(NegF32, "neg.f32", 1, 1, kPure, None)                                                \
  X(AddF64, "add.f64", 2, 1, kPure | kFloatOperands, None)                               \
  X(SubF64, "sub.f64", 2, 1, kPure | kFloatOperands, None)                               \
  X(MulF64, "mul.f64", 2, 1, kPure | kFloatOperands, None)                               \
  X(DivF64, "div.f64", 2, 1, kPure | kFloatOperands, None)                               \
  X(NegF64, "neg.f64", 1, 1, kPure, None)                                                \
  /* comparisons push int 0/1; long reuses EqI..GeI, ulong adds LtUL..GeUL */            \
  X(EqI, "eq.i", 2, 1, kPure | kFusableCompare, None)                                    \
  X(NeI, "ne.i", 2, 1, kPure | kFusableCompare, None)                                    \
  X(LtI, "lt.i", 2, 1, kPure | kFusableCompare, None)                                    \
  X(LeI, "le.i", 2, 1, kPure | kFusableCompare, None)                                    \
  X(GtI, "gt.i", 2, 1, kPure | kFusableCompare, None)                                    \
  X(GeI, "ge.i", 2, 1, kPure | kFusableCompare, None)                                    \
  X(LtU, "lt.u", 2, 1, kPure | kFusableCompare, None)                                    \
  X(LeU, "le.u", 2, 1, kPure | kFusableCompare, None)                                    \
  X(GtU, "gt.u", 2, 1, kPure | kFusableCompare, None)                                    \
  X(GeU, "ge.u", 2, 1, kPure | kFusableCompare, None)                                    \
  X(LtUL, "lt.ul", 2, 1, kPure | kFusableCompare, None)                                  \
  X(LeUL, "le.ul", 2, 1, kPure | kFusableCompare, None)                                  \
  X(GtUL, "gt.ul", 2, 1, kPure | kFusableCompare, None)                                  \
  X(GeUL, "ge.ul", 2, 1, kPure | kFusableCompare, None)                                  \
  X(EqF, "eq.f", 2, 1, kPure | kFusableCompare | kFloatOperands, None)                   \
  X(NeF, "ne.f", 2, 1, kPure | kFusableCompare | kFloatOperands, None)                   \
  X(LtF, "lt.f", 2, 1, kPure | kFusableCompare | kFloatOperands, None)                   \
  X(LeF, "le.f", 2, 1, kPure | kFusableCompare | kFloatOperands, None)                   \
  X(GtF, "gt.f", 2, 1, kPure | kFusableCompare | kFloatOperands, None)                   \
  X(GeF, "ge.f", 2, 1, kPure | kFusableCompare | kFloatOperands, None)                   \
  X(EqP, "eq.p", 2, 1, kPure | kFusableCompare, None)                                    \
  X(NeP, "ne.p", 2, 1, kPure | kFusableCompare, None)                                    \
  X(LNot, "lnot", 1, 1, kPure, None)                                                     \
  /* conversions; float->integer saturates (floatToInt below) */                         \
  X(I2F32, "cvt.i.f32", 1, 1, kPure, None)                                               \
  X(I2F64, "cvt.i.f64", 1, 1, kPure, None)                                               \
  X(U2F32, "cvt.u.f32", 1, 1, kPure, None)                                               \
  X(U2F64, "cvt.u.f64", 1, 1, kPure, None)                                               \
  X(UL2F32, "cvt.ul.f32", 1, 1, kPure, None) /* long reuses I2F* */                      \
  X(UL2F64, "cvt.ul.f64", 1, 1, kPure, None)                                             \
  X(F2I, "cvt.f.i", 1, 1, kPure, None)                                                   \
  X(F2U, "cvt.f.u", 1, 1, kPure, None)                                                   \
  X(F2L, "cvt.f.l", 1, 1, kPure, None)                                                   \
  X(F2UL, "cvt.f.ul", 1, 1, kPure, None)                                                 \
  X(F64toF32, "cvt.f64.f32", 1, 1, kPure, None) /* round to float precision */           \
  X(I2U, "cvt.i.u", 1, 1, kPure, None)          /* re-normalize 32-bit views */          \
  X(U2I, "cvt.u.i", 1, 1, kPure, None)                                                   \
  X(BoolNorm, "boolnorm", 1, 1, kPure, None)    /* nonzero -> 1 */                       \
  /* control flow */                                                                     \
  X(Jmp, "jmp", 0, 0, kStops, Target)                                                    \
  X(Jz, "jz", 1, 0, 0, Target)                                                           \
  X(Jnz, "jnz", 1, 0, 0, Target)                                                         \
  /* calls: arguments on the stack, left to right */                                     \
  X(CallFn, "call", 0, 0, kVarEffect, Num)                                               \
  X(CallBuiltin, "call.builtin", 0, 0, kStraight | kVarEffect, Builtin)                  \
  X(Ret, "ret", 1, 0, kStops | kReturns, None)                                           \
  X(RetVoid, "ret.void", 0, 0, kStops | kReturns, None)                                  \
  /* stack */                                                                            \
  X(Dup, "dup", 1, 2, kPure, None)                                                       \
  X(Drop, "drop", 1, 0, kStraight, None)                                                 \
  /* a = trap message index (e.g. missing return), not printed */                        \
  X(Trap, "trap", 0, 0, kStops, None)                                                    \
  /* Superinstructions: never emitted by the compiler proper, only by the */             \
  /* peephole pass.  Each one replaces a fixed window of naive */                        \
  /* instructions and carries its weight, so retired counts and */                       \
  /* simulated time equal the unfused program's. */                                      \
  X(PtrAddImm, "ptradd.imm", 1, 1, kPure, PtrImm) /* pop ptr, push ptr+imm*a */          \
  X(LoadElemI32, "loadelem.i32", 2, 1, 0, ElemSize) /* pop index, pop ptr */             \
  X(LoadElemU32, "loadelem.u32", 2, 1, 0, ElemSize)                                      \
  X(LoadElemF32, "loadelem.f32", 2, 1, 0, ElemSize)                                      \
  X(LoadElemF64, "loadelem.f64", 2, 1, 0, ElemSize)                                      \
  X(LoadElemI64, "loadelem.i64", 2, 1, 0, ElemSize)                                      \
  X(LoadSlotElemI32, "loadslotelem.i32", 0, 1, 0, SlotElem) /* slot[a][slot[b]] */       \
  X(LoadSlotElemU32, "loadslotelem.u32", 0, 1, 0, SlotElem)                              \
  X(LoadSlotElemF32, "loadslotelem.f32", 0, 1, 0, SlotElem)                              \
  X(LoadSlotElemF64, "loadslotelem.f64", 0, 1, 0, SlotElem)                              \
  X(LoadSlotElemI64, "loadslotelem.i64", 0, 1, 0, SlotElem)                              \
  /* pop value, pop ptr, store; slot[a] = value, the naive code's scratch */             \
  X(TeeStoreI32, "teestore.i32", 2, 0, 0, Tee)                                           \
  X(TeeStoreI64, "teestore.i64", 2, 0, 0, Tee)                                           \
  X(TeeStoreF32, "teestore.f32", 2, 0, 0, Tee)                                           \
  X(TeeStoreF64, "teestore.f64", 2, 0, 0, Tee)                                           \
  X(IncSlotI, "incslot.i", 0, 0, kStraight, IncSlot) /* slot[a] += imm, int32 */         \
  X(LoadSlot2, "load.slot2", 0, 2, 0, Slot2)                                             \
  X(CmpJz, "cmp.jz", 2, 0, 0, CmpTarget)   /* branch if the comparison fails */          \
  X(CmpJnz, "cmp.jnz", 2, 0, 0, CmpTarget) /* branch if it holds */                      \
  /* The rewrite pass's struct scalar replacement: for a whole-struct copy */            \
  /* whose destination became slots, pop ptr, fault as a read of b bytes */              \
  /* at it would, slot[a] = ptr. */                                                      \
  X(StoreSlotChecked, "store.slot.checked", 1, 0, 0, SlotBytes)                          \
  /* Constant-pool pushes, produced by the encoder only */                               \
  X(PushCI, "push.ci", 0, 1, 0, PoolInt)                                                 \
  X(PushCF, "push.cf", 0, 1, 0, PoolFloat)                                               \
  /* Register form, tier 2 only (lowerToRegisters): one binary op (regC) on */          \
  /* operands that are slots, constants or the stack top; the stack */                  \
  /* operands are popped.  The result is pushed, written to slot a, or */               \
  /* branched on like cmp.jz / cmp.jnz. */                                              \
  X(RegOp, "reg", 0, 0, kVarEffect, Reg)                                                 \
  X(RegStore, "reg.store", 0, 0, kVarEffect, RegSlot)                                    \
  X(RegJz, "reg.jz", 0, 0, kVarEffect, RegTarget)                                        \
  X(RegJnz, "reg.jnz", 0, 0, kVarEffect, RegTarget)

enum class Op : std::uint8_t {
#define SKELCL_KC_OP(op, name, pops, pushes, flags, operands) op,
  SKELCL_KC_OPCODES(SKELCL_KC_OP)
#undef SKELCL_KC_OP
};

struct OpInfo {
  const char* name;    ///< mnemonic
  std::int8_t pops;    ///< operand-stack values consumed (kVarEffect: 0)
  std::int8_t pushes;  ///< values produced (kVarEffect: 0)
  std::uint8_t flags;  ///< OpFlag bits
  Operands operands;
};

inline constexpr OpInfo kOpInfo[] = {
#define SKELCL_KC_OP(op, name, pops, pushes, flags, operands) \
  {name, pops, pushes, flags, Operands::operands},
    SKELCL_KC_OPCODES(SKELCL_KC_OP)
#undef SKELCL_KC_OP
};

/// Number of opcodes (for tables / exhaustiveness tests).
inline constexpr int kOpCount = static_cast<int>(std::size(kOpInfo));

constexpr const OpInfo& opInfo(Op op) { return kOpInfo[static_cast<std::size_t>(op)]; }

/// The mnemonic; "?" for a value that is no opcode.
constexpr const char* opName(Op op) {
  return static_cast<int>(op) < kOpCount ? opInfo(op).name : "?";
}

/// `op` branches to the instruction index in `a`.
constexpr bool isBranch(Op op) {
  const Operands kind = opInfo(op).operands;
  return kind == Operands::Target || kind == Operands::CmpTarget ||
         kind == Operands::RegTarget;
}

/// A register-form row: RegOp, RegStore, RegJz or RegJnz.
constexpr bool isRegisterForm(Op op) {
  const Operands kind = opInfo(op).operands;
  return kind == Operands::Reg || kind == Operands::RegSlot || kind == Operands::RegTarget;
}

/// The binary arithmetic opcodes and the comparisons: two values popped, one
/// pushed, no operand fields.  The register form carries these and PtrAdd.
constexpr bool isBinaryValueOp(Op op) {
  const OpInfo& info = opInfo(op);
  return info.pops == 2 && info.pushes == 1 && info.operands == Operands::None;
}

/// Where a register-form operand comes from: the operand stack (popped, y
/// before x), a slot, or a constant.
enum class Src : std::uint8_t { Stack, Slot, Const };

/// A register-form instruction's `c`: the operation in bits 0-7, the kinds
/// of x and y in bits 8-9 and 10-11, and for PtrAdd the log2 of the element
/// size in bits 12-15.
constexpr std::uint16_t regC(Op op, Src x, Src y, int sizeLog2 = 0) {
  return static_cast<std::uint16_t>(static_cast<unsigned>(op) |
                                    static_cast<unsigned>(x) << 8 |
                                    static_cast<unsigned>(y) << 10 |
                                    static_cast<unsigned>(sizeLog2) << 12);
}
constexpr Op regOp(std::uint16_t c) { return static_cast<Op>(c & 0xFF); }
constexpr Src regX(std::uint16_t c) { return static_cast<Src>(c >> 8 & 3); }
constexpr Src regY(std::uint16_t c) { return static_cast<Src>(c >> 10 & 3); }
constexpr std::int64_t regElemSize(std::uint16_t c) { return std::int64_t{1} << (c >> 12); }
/// Operand-stack values a register-form instruction pops.
constexpr int regPops(std::uint16_t c) {
  return (regX(c) == Src::Stack ? 1 : 0) + (regY(c) == Src::Stack ? 1 : 0);
}

/// Compiler IR instruction: roomy, easy to pattern-match and disassemble.
/// `weight` is the number of source (naive) instructions this one retires;
/// 1 for everything the compiler emits, >1 for peephole superinstructions
/// and rewrite-pass replacements, and 0 for code the rewrite pass
/// synthesized (struct field loads, inlined-argument binding and zeroing,
/// whose cost a replacement carries), keeping retired counts
/// pipeline-independent.
/// `c` and `k` are the register form's only (Operands::Reg).
struct Insn {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int64_t imm = 0;
  double fimm = 0.0;
  std::uint8_t weight = 1;
  std::uint16_t c = 0;
  std::int32_t k = 0;
};

/// Calls `each(next)` for every instruction control may reach after
/// code[pc]: its branch target, then the next one unless the opcode stops.
template <class F>
void forEachSuccessor(const std::vector<Insn>& code, std::size_t pc, F&& each) {
  const Insn& insn = code[pc];
  if (isBranch(insn.op)) each(static_cast<std::size_t>(insn.a));
  if (!(opInfo(insn.op).flags & kStops)) each(pc + 1);
}

/// The slots an instruction reads (at most two) and writes (at most one),
/// from its operand kind.  A register-form operand is read when its kind is
/// Src::Slot; reg.store writes a.
struct SlotUse {
  std::int32_t read[2] = {0, 0};
  int reads = 0;
  std::int32_t write = -1;
};
constexpr SlotUse slotUse(const Insn& insn) {
  SlotUse use;
  const auto read = [&](std::int32_t s) { use.read[use.reads++] = s; };
  switch (opInfo(insn.op).operands) {
    case Operands::SlotRead: read(insn.a); break;
    case Operands::Slot2: case Operands::SlotElem: read(insn.a); read(insn.b); break;
    case Operands::IncSlot: read(insn.a); use.write = insn.a; break;
    case Operands::SlotWrite: case Operands::Tee: case Operands::SlotBytes:
      use.write = insn.a;
      break;
    case Operands::Reg: case Operands::RegSlot: case Operands::RegTarget:
      if (regX(insn.c) == Src::Slot) read(insn.b);
      if (regY(insn.c) == Src::Slot) read(insn.k);
      if (insn.op == Op::RegStore) use.write = insn.a;
      break;
    default:
      break;
  }
  return use;
}

/// Execution encoding: 16 bytes per instruction (vs 32 for Insn), halving
/// I-cache pressure in the dispatch loop.  Cold 64-bit payloads (big integer
/// immediates, float immediates) move to a side constant pool indexed by `k`;
/// small integer immediates ride inline in `a`/`b`; `c` carries small
/// auxiliary payloads (fused comparison opcode, element sizes, the register
/// form's operation).  Operands says where each kind's fields go.
struct PackedInsn {
  Op op;
  std::uint8_t weight;
  std::uint16_t c;
  std::int32_t a;
  std::int32_t b;
  std::int32_t k;
};
static_assert(sizeof(PackedInsn) == 16, "dispatch encoding must stay 16 bytes");

/// Why a kernel launch does not run on the work-group-batched interpreter
/// (docs/VM.md).  The encoder decides the kernel-level reasons
/// (FunctionCode::batchFallback); the OpenCL layer adds the launch-level ones.
enum class BatchFallback : std::uint8_t {
  None,                 ///< batched
  NotTier2,             ///< compiled below tier 2
  Disabled,             ///< SKELCL_KC_BATCH=0
  FrameMemory,          ///< local arrays, addressed locals or structs kept in memory
  Call,                 ///< a call the inliner could not remove
  Barrier,              ///< barrier()
  AtomicResultUsed,     ///< an atomic builtin's result is read
  AtomicTargetAliased,  ///< an atomic's buffer is also read/written, or unprovable
  SingleItem,           ///< a launch of one work-item
};

/// Short human-readable name ("frame memory", "call", ...; "" for None).
const char* batchFallbackName(BatchFallback reason);

/// One compiled function, ready for execution.
struct FunctionCode {
  std::string name;
  bool isKernel = false;
  TypeId returnType = types::Void;
  std::vector<TypeId> paramTypes;
  int numSlots = 0;           ///< params occupy slots [0, paramTypes.size())
  std::uint32_t frameBytes = 0;  ///< local arrays / addressed locals / structs
  std::vector<Insn> code;

  // Filled by the encoder (kernelc/encode.cpp) for the optimized pipeline.
  int maxStack = 0;  ///< worst-case operand-stack growth, checked once at entry
  std::vector<PackedInsn> packed;   ///< compact dispatch form of `code`
  std::vector<std::uint64_t> pool;  ///< constant pool referenced by `packed`
  /// True when the kernel can run on the work-group-batched interpreter
  /// (Vm::runKernelBatch): no calls into other functions, no frame memory,
  /// no barrier, and every atomic builtin deferrable (`atomicArgs`).
  /// Computed by the encoder, with the reason when false.
  bool batchable = false;
  BatchFallback batchFallback = BatchFallback::None;
  /// Batchable kernels only: the kernel parameters whose buffers atomic
  /// builtins target.  The batched interpreter logs those atomics and
  /// applies them in work-item order; that is unobservable because their
  /// results are dropped and no load or store goes through these
  /// parameters.  A launch must still check that no other argument aliases
  /// one of these buffers.
  std::vector<int> atomicArgs;
  /// Batchable kernels only, from the encoder's slot liveness (docs/VM.md,
  /// "The split rule"): the slots live at entry, which a batch initializes
  /// (a parameter to its argument, a local to zero), and, for the
  /// conditional branch at pc, splitSlots[splitBegin[pc], splitBegin[pc+1]):
  /// the slots written somewhere in the kernel and live at either
  /// successor, which a compaction split partitions.  Every other slot is
  /// dead there or holds the same bits in every lane.
  std::vector<std::int32_t> entrySlots;
  std::vector<std::int32_t> splitSlots;
  std::vector<std::uint32_t> splitBegin;
  /// The function, or a function it calls, uses an atomic builtin.
  bool usesAtomics = false;
};

}  // namespace skelcl::kc
