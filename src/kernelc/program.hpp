// Top-level compile pipeline: source string -> CompiledProgram.
#pragma once

#include <memory>
#include <string>

#include "kernelc/vm.hpp"

namespace skelcl::kc {

/// Pipeline selection for compileProgram.
struct CompileOptions {
  /// Optimization tier (the ladder in docs/VM.md):
  ///   0 — reference: naive Insn stream on the guarded reference interpreter.
  ///       The differential-testing oracle.
  ///   1 — fast: peephole superinstructions + packed 16-byte encoding + fast
  ///       interpreter (PR 4).
  ///   2 — fast + the rewrite pass (kernelc/rewrite.hpp: struct scalar
  ///       replacement and call inlining) before the peephole pass, the
  ///       register form after it, and eligibility for work-group-batched
  ///       execution (Vm::runKernelBatch).
  /// Every tier produces bit-identical outputs and identical
  /// retired-instruction counts; higher tiers only run faster.
  int tier = 2;
};

/// The process-wide default, from the environment: SKELCL_KC_OPT=0 selects
/// the reference pipeline, =1 the fast pipeline without rewrites; anything
/// else (including unset) selects the full tier-2 pipeline.
CompileOptions defaultCompileOptions();

/// Compile a kernel-language translation unit.  Throws CompileError with the
/// full list of diagnostics on failure.  The returned program is immutable
/// and safe to share across threads (each thread runs its own Vm).
std::shared_ptr<const CompiledProgram> compileProgram(const std::string& source);

/// As above with explicit pipeline selection (ignores SKELCL_KC_OPT).
std::shared_ptr<const CompiledProgram> compileProgram(const std::string& source,
                                                      const CompileOptions& options);

}  // namespace skelcl::kc
