// Peephole pass: rewrites hot naive stack idioms into superinstructions.
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

}  // namespace skelcl::kc
