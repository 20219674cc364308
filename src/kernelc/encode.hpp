// Final lowering of compiled functions for the optimized pipeline:
//  - computes each function's worst-case operand-stack growth (`maxStack`),
//    letting the VM hoist per-push overflow guards to one check at entry;
//  - packs the 32-byte Insn IR into the 16-byte PackedInsn dispatch encoding,
//    moving cold 64-bit immediates into a per-function constant pool;
//  - decides whether a kernel batches and, when it does, which slots a batch
//    initializes at entry and which a compaction split moves (slot liveness).
// Also the stack and branch facts the rewrite and peephole passes share.
#pragma once

#include <vector>

#include "kernelc/bytecode.hpp"

namespace skelcl::kc {

struct StackEffect {
  int pops = 0;
  int pushes = 0;
};

/// Operand-stack values `insn` pops and pushes: its opcode's OpInfo row, or
/// for a call its callee's signature (a CallFn resolves against `fns`).
StackEffect stackEffect(const Insn& insn, const std::vector<FunctionCode>& fns);

/// For each index of `code` and one past its end: is it a branch target?
/// Throws when a target is out of range.
std::vector<bool> branchTargets(const std::vector<Insn>& code);

/// Finalize every function in `fns` (maxStack, packed encoding, batch
/// eligibility and the batched interpreter's liveness facts).  Call-stack
/// deltas of CallFn instructions are resolved against `fns` itself, so the
/// whole program must be compiled first.
void finalizeFunctions(std::vector<FunctionCode>& fns);

/// Set FunctionCode::usesAtomics on every function that uses an atomic
/// builtin or calls one that does (any tier; the OpenCL layer runs such
/// kernels in work-item order when they are not batched).
void markAtomicUsers(std::vector<FunctionCode>& fns);

/// Operand-stack height before each instruction of `fn` (-1 where
/// unreachable), by forward dataflow over its (reducible, compiler-generated)
/// CFG; CallFn effects resolve against `fns`.  Throws when two paths reach an
/// instruction at different heights, the stack underflows, or control runs
/// off the end.
std::vector<int> stackHeights(const FunctionCode& fn, const std::vector<FunctionCode>& fns);

}  // namespace skelcl::kc
