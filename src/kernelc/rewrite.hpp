// Rewrite pass: struct scalar replacement and call inlining over the naive
// Insn IR, run before the peephole pass at optimization tier 2 (docs/VM.md).
//
// Struct scalar replacement (R0, in the spirit of Lift's "patterns and
// rewrite rules") turns a struct local that is only copied whole and read by
// field into one slot per field read, so its function loses its frame (and
// can inline and batch).  Loop-invariant hoisting, strength reduction and
// pointer-bias fusion are left out on purpose: on the register form they
// save no dispatches (docs/VM.md, "Why the loop rules went").
//
// Weight invariant (what keeps simulated timings pipeline-independent):
// synthesized instructions carry weight 0, and every in-place replacement
// carries the summed weight of the window it replaces.  Each lane therefore
// retires exactly the counts of the naive program on every control path —
// faults included — with no cost-model recalibration.
#pragma once

#include <vector>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Apply struct scalar replacement to `fn.code` in place until it no longer
/// applies.  May add fresh slots (fn.numSlots grows).  Returns the number of
/// sweeps that rewrote something.
int rewriteOptimize(FunctionCode& fn);

/// Tier-2 call inlining over a whole program, after every function's
/// rewriteOptimize and before peephole.  Splices into its caller the body of
/// each CallFn whose callee is not a kernel, has no frame memory, and has no
/// calls left once its own callees are inlined (so recursion never inlines),
/// with the same weight invariant as struct replacement: the inlined block
/// retires exactly what the call did on every path.  Skeleton kernels thereby
/// lose their call into the user function and become batchable.  Returns the
/// number of call sites inlined.
int inlineCalls(std::vector<FunctionCode>& fns);

}  // namespace skelcl::kc
