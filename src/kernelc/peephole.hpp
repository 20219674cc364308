// Peephole pass: rewrites hot naive stack idioms into superinstructions, and
// at tier 2 lowers what is left of the arithmetic to the register form.
//
// Every rewrite is observably identical to the naive window it replaces —
// same stack effect, same slot effects, same faults — and carries a `weight`
// equal to the window length, so the retired-instruction count (which drives
// sim::System::reserveKernel timing and sched::measureCost) is exactly what
// the unfused program would report.  Disabled by SKELCL_KC_OPT=0.
#pragma once

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Rewrite `fn.code` in place.  Safe to call on any compiled function;
/// windows containing branch targets are left alone and all jump targets are
/// remapped.
void peepholeOptimize(FunctionCode& fn);

/// Tier 2, after peepholeOptimize: lower straight-line stack windows to the
/// register form (RegOp, RegStore, RegJz, RegJnz; docs/VM.md, "Register
/// form").  A window is the slot loads and constant pushes feeding one binary
/// arithmetic op, comparison, PtrAdd or fused compare-branch, plus the
/// StoreSlot consuming the result when the op cannot fault.  Each
/// instruction carries its window's summed weight, under the same window
/// rules and branch remapping as peepholeOptimize.
void lowerToRegisters(FunctionCode& fn);

/// Tier 2, after lowerToRegisters: a condition built with `&&` or `||`
/// branches on its second comparison directly instead of building a bool
/// (docs/VM.md, "Short-circuit threading").  In the window
/// `B L <c1>; reg <c2>; boolnorm; jmp M; L: push.i v; M: jz|jnz T`, B goes
/// to a pad and `reg <c2>` becomes `reg.jz|reg.jnz T <c2>`, carrying the
/// weight of reg, boolnorm, jmp and the consumer; the pad is a jmp carrying
/// push.i's and the consumer's weight (and any unconditional jmp's it
/// threads through), placed immediately before its destination where
/// nothing falls into it.  So every path retires what it retired before.
/// Windows whose pad has no such place stay as they are.
void threadShortCircuits(FunctionCode& fn);

}  // namespace skelcl::kc
