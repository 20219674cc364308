// Rewrite pass: rule-based transforms over the naive Insn IR, run before the
// peephole pass at optimization tier 2 (docs/VM.md).
//
// Four rules, in the spirit of Lift's "patterns and rewrite rules":
//   R0  struct scalar replacement — a struct local only copied whole and
//       read by field becomes one slot per field read, so its function
//       loses its frame (and can inline and batch).
//   R1  loop-invariant hoisting   — pure, never-faulting windows whose slots
//       are not written in the innermost loop move to a preheader.
//   R2  strength reduction        — slot*constant multiplies inside a loop
//       with a canonical induction increment become a tracked slot that is
//       bumped by delta*constant per iteration (exact mod 2^32).
//   R3  pointer-bias fusion       — p[i +/- k] indexing precomputes the
//       biased pointer p +/- k*elemSize once at function entry, leaving a
//       window the peephole pass fuses into LoadSlotElem.
//
// Weight invariant (what keeps simulated timings pipeline-independent):
// hoisted/synthesized instructions carry weight 0, and every in-place
// replacement carries the summed weight of the window it replaces.  Each
// lane therefore retires exactly the counts of the naive program on every
// control path — zero-trip loops, breaks, and faults included — with no
// dominance analysis and no cost-model recalibration.
#pragma once

#include <vector>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

/// Rewrite `fn.code` in place until no rule applies (bounded).  May add
/// fresh slots (fn.numSlots grows).  Returns the number of rewrites applied.
int rewriteOptimize(FunctionCode& fn);

/// Tier-2 call inlining over a whole program, after every function's
/// rewriteOptimize and before peephole.  Splices into its caller the body of
/// each CallFn whose callee is not a kernel, has no frame memory, and has no
/// calls left once its own callees are inlined (so recursion never inlines),
/// with the same weight invariant as the rules above: the inlined block
/// retires exactly what the call did on every path.  Skeleton kernels thereby
/// lose their call into the user function and become batchable.  Returns the
/// number of call sites inlined.
int inlineCalls(std::vector<FunctionCode>& fns);

}  // namespace skelcl::kc
