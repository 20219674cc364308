// Stack-machine bytecode produced by the compiler and executed by the VM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernelc/types.hpp"

namespace skelcl::kc {

enum class Op : std::uint8_t {
  // constants
  PushI,   // push imm (int64)
  PushF,   // push fimm (double; already float-rounded for f32 literals)

  // locals (a = slot index)
  LoadSlot,
  StoreSlot,

  // frame memory (a = byte offset within the current frame's memory region)
  LeaFrame,  // push pointer to frame memory + a

  // memory access (pointer operand(s) on the stack)
  LoadI32, LoadU32, LoadF32, LoadF64,      // pop ptr, push value
  LoadI64,                                 // pop ptr, push 64-bit integer
  StoreI32, StoreF32, StoreF64,            // pop value, pop ptr
  StoreI64,                                // pop 64-bit value, pop ptr
  MemCopy,                                 // a = bytes; pop src, pop dst
  PtrAdd,                                  // a = element size; pop index, pop ptr

  // integer arithmetic (32-bit semantics, wrap-around)
  AddI, SubI, MulI, DivI, RemI, NegI,
  DivU, RemU,
  AndI, OrI, XorI, ShlI, ShrI, ShrU, NotI,

  // 64-bit integer arithmetic (long/ulong; slots hold full 64 bits)
  AddL, SubL, MulL, DivL, RemL, NegL,
  DivUL, RemUL,
  AndL, OrL, XorL, ShlL, ShrL, ShrUL, NotL,

  // floating arithmetic
  AddF32, SubF32, MulF32, DivF32, NegF32,
  AddF64, SubF64, MulF64, DivF64, NegF64,

  // comparisons (push int 0/1)
  EqI, NeI, LtI, LeI, GtI, GeI,
  LtU, LeU, GtU, GeU,
  LtUL, LeUL, GtUL, GeUL,  // unsigned 64-bit (ulong); Eq/Ne/signed reuse EqI..GeI
  EqF, NeF, LtF, LeF, GtF, GeF,
  EqP, NeP,
  LNot,

  // conversions
  I2F32, I2F64, U2F32, U2F64,
  UL2F32, UL2F64,  // full 64-bit unsigned -> float/double (long reuses I2F*)
  F2I,   // double slot -> int32 (truncation)
  F2U,   // double slot -> uint32
  F2L,   // double slot -> int64 (truncation)
  F2UL,  // double slot -> uint64
  F64toF32,  // round slot to float precision
  I2U, U2I,  // re-normalize 32-bit views
  BoolNorm,  // nonzero -> 1

  // control flow (a = target instruction index)
  Jmp, Jz, Jnz,

  // calls
  CallFn,       // a = function index (args on stack, left to right)
  CallBuiltin,  // a = builtin id, b = argc
  Ret,          // pop return value
  RetVoid,

  // stack
  Dup, Drop,

  // diagnostics
  Trap,  // a = trap message index (e.g. missing return)

  // -------------------------------------------------------------------------
  // Superinstructions (emitted by the peephole pass, never by the compiler
  // proper).  Each replaces a fixed window of naive instructions; its `weight`
  // equals the window length so retired-instruction accounting — and thus
  // simulated kernel time — is exactly what the unfused program would report.
  // -------------------------------------------------------------------------
  PtrAddImm,       // a = element size, imm = constant index; pop ptr, push ptr+imm*a
  LoadElemI32,     // a = element size; pop index, pop ptr, push typed load
  LoadElemU32,
  LoadElemF32,
  LoadElemF64,
  LoadElemI64,
  LoadSlotElemI32,  // a = pointer slot, b = index slot, imm = element size;
  LoadSlotElemU32,  // push typed load of slot[a][slot[b]]
  LoadSlotElemF32,
  LoadSlotElemF64,
  LoadSlotElemI64,
  TeeStoreI32,     // a = scratch slot; pop value, pop ptr, typed store,
  TeeStoreI64,     // slot[a] = value (the scratch the naive sequence wrote)
  TeeStoreF32,
  TeeStoreF64,
  IncSlotI,        // a = slot, imm = delta; slot[a] = int32(slot[a] + delta)
  LoadSlot2,       // a, b = slots; push slot[a] then slot[b]
  CmpJz,           // b = comparison Op, a = target; pop rhs, pop lhs, branch if false
  CmpJnz,          // b = comparison Op, a = target; branch if true

  // Emitted by the rewrite pass's struct scalar replacement: stands in for
  // the MemCopy of a whole-struct copy whose destination became slots.
  StoreSlotChecked,  // a = slot, b = bytes; pop ptr, fault exactly as a read
                     // of b bytes at it would, slot[a] = ptr

  // Packed-only constant-pool pushes (produced by the encoder, not the
  // peephole pass): k indexes the function's constant pool.
  PushCI,          // push pool[k] as int64
  PushCF,          // push bit_cast<double>(pool[k])
};

/// Number of opcodes (for tables / exhaustiveness tests).
inline constexpr int kOpCount = static_cast<int>(Op::PushCF) + 1;

const char* opName(Op op);

/// Compiler IR instruction: roomy, easy to pattern-match and disassemble.
/// `weight` is the number of source (naive) instructions this one retires;
/// 1 for everything the compiler emits, >1 for peephole superinstructions,
/// and 0 for code the rewrite pass hoisted out of a loop (the hoisted
/// computation's weight is charged by the in-loop replacement instruction at
/// its original frequency, keeping retired counts pipeline-independent).
struct Insn {
  Op op;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int64_t imm = 0;
  double fimm = 0.0;
  std::uint8_t weight = 1;
};

/// Execution encoding: 16 bytes per instruction (vs 32 for Insn), halving
/// I-cache pressure in the dispatch loop.  Cold 64-bit payloads (big integer
/// immediates, float immediates) move to a side constant pool indexed by `k`;
/// small integer immediates ride inline in `a`/`b`; `c` carries small
/// auxiliary payloads (fused comparison opcode, element sizes).
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
  /// The function, or a function it calls, uses an atomic builtin.
  bool usesAtomics = false;
};

}  // namespace skelcl::kc
