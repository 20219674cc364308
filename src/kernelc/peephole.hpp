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

}  // namespace skelcl::kc
