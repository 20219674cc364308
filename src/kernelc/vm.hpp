// The bytecode virtual machine: executes one work-item (or one host-side
// function call) at a time.  All loads and stores are bounds-checked — unlike
// real OpenCL, which the paper notes "performs no boundary checks" — and the
// executed-instruction count feeds the device cost model in sim::System.
//
// Two interpreter paths share this class (docs/VM.md):
//  - the *fast* path (default) runs the compact 16-byte PackedInsn encoding
//    with a preallocated slot arena, a raw-pointer operand stack guarded once
//    per frame by the compiler-computed maxStack, and infinite-loop budget
//    checks on back-edges and calls only;
//  - the *reference* path (SKELCL_KC_OPT=0) interprets the 32-byte Insn IR
//    with per-push guards and per-call heap-allocated locals, exactly as the
//    original interpreter did.
// Both retire identical instruction counts (superinstructions carry the
// weight of the naive window they replace) and produce bit-identical data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernelc/builtins.hpp"
#include "kernelc/bytecode.hpp"
#include "kernelc/value.hpp"

namespace skelcl::kc {

/// A non-owning view of one memory region the VM may address.
struct MemRegion {
  std::byte* data = nullptr;
  std::uint64_t size = 0;
};

/// An atomic builtin whose application a batched work-item deferred
/// (Vm::runKernelBatch, FunctionCode::atomicArgs): the target word and the
/// builtin's 32-bit arguments (applyAtomic).  16 bytes, as a batch of OSEM's
/// scatter logs some seventy per work-item.
struct DeferredAtomic {
  std::uint32_t offset;  ///< byte offset in the target region
  std::uint16_t region;  ///< region id; 1 is the first global region
  AtomicOp op;
  std::uint8_t lane;     ///< work-item within its batch, the ordering key
  std::uint32_t a;
  std::uint32_t b;
};
static_assert(sizeof(DeferredAtomic) == 16, "the deferred-atomic log stays compact");

/// Apply `log` in order; region id r addresses `globalRegions[r - 1]`.
void applyDeferredAtomics(std::span<const DeferredAtomic> log,
                          std::span<const MemRegion> globalRegions);

/// A compiled program (functions + the type table their bytecode references).
struct CompiledProgram {
  std::vector<FunctionCode> functions;
  std::uint64_t complexity = 0;  ///< token count; drives the compile-cost model
  std::string source;
  /// Optimization tier this program was compiled at (CompileOptions::tier):
  /// 0 reference, 1 fast, 2 fast + rewrite pass + batch eligibility.  The VM
  /// runs tier 0 on the reference interpreter and the packed encoding of
  /// tiers 1 and 2 on the fast one.  Hand-assembled programs default to 0
  /// and set 1 or 2 once finalizeFunctions has encoded them.
  int tier = 0;
  /// name -> index over `functions`, built once at compile time (names are
  /// unique; sema rejects redefinitions).  Empty for hand-assembled programs.
  std::unordered_map<std::string, int> functionIndex;

  /// Index of the kernel with the given name, or -1.
  int findKernel(const std::string& name) const;
  /// Index of any function with the given name, or -1.
  int findFunction(const std::string& name) const;
};

class Vm final : public BuiltinCtx {
 public:
  /// `globalRegions[i]` backs pointer region id `i + 1` (region 0 is null).
  /// `budget` is the per-invocation instruction budget; only tests lower it.
  Vm(const CompiledProgram& program, std::vector<MemRegion> globalRegions,
     std::uint64_t budget = kMaxInstructionsPerItem);

  /// Execute one work-item of a kernel.  `args` are the kernel arguments:
  /// buffer arguments as Ptr slots referring to global regions, scalars by
  /// value.
  void runKernel(int functionIndex, std::span<const Slot> args, std::int64_t globalId,
                 std::int64_t globalSize);

  /// Execute `count` consecutive work-items [gidBase, gidBase + count) of a
  /// kernel in work-group-batched mode: the dispatch loop is inverted so one
  /// opcode decode is amortized over every live work-item ("lane"), operating
  /// on a lane-strided slot arena.  Divergent control flow splits the group
  /// into lane subsets, the lowest-pc subset runs first, and subsets that
  /// reach the same pc merge again (docs/VM.md).  Falls back to per-item
  /// runKernel when the function is not batchable (FunctionCode::batchable)
  /// or the program is below tier 1.  Outputs and retired-instruction
  /// counts are bit-identical to `count` sequential runKernel calls; only
  /// the order in which work-items touch memory changes (which batchability
  /// guarantees is unobservable).  Atomics are logged per lane and applied
  /// in work-item order when the batch ends, unless keepAtomicLog(true).
  /// `count` is capped at kBatchLanes per call.
  void runKernelBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                      std::int64_t count, std::int64_t globalSize);

  /// Keep the deferred atomics of later runKernelBatch calls instead of
  /// applying them, in work-item order, for takeAtomicLog(): a launch split
  /// across host threads applies each chunk's log in chunk order.
  void keepAtomicLog(bool keep) { keepAtomicLog_ = keep; }
  std::vector<DeferredAtomic> takeAtomicLog() { return std::move(atomicLog_); }

  /// Maximum lanes per runKernelBatch call (one simulated work-group).
  static constexpr std::int64_t kBatchLanes = 256;
  /// Kernels with more columns than this (slots plus operand-stack depth)
  /// split divergent groups by lane lists and merge them again; at or below
  /// it, moving the columns costs less than indexed access (docs/VM.md).
  static constexpr int kLaneListColumns = 32;

  /// Call a (non-kernel) function, e.g. for host-side folding in the reduce
  /// skeleton.  Returns its value.
  Slot callFunction(int functionIndex, std::span<const Slot> args);

  /// Executed-instruction counter (accumulates across runs; reset manually).
  /// Superinstructions count as the number of naive instructions they retire,
  /// so this is identical between the fast and reference paths.
  std::uint64_t instructionsExecuted() const { return instructions_; }
  void resetInstructionCount() { instructions_ = 0; }

  /// Batched dispatches (one instruction over one lane group) and, summed
  /// over them, live lanes; they accumulate like instructionsExecuted().
  std::uint64_t batchDispatches() const { return batchDispatches_; }
  std::uint64_t batchLaneSum() const { return batchLaneSum_; }
  /// Divergent branches that split a group, and the columns compaction
  /// splits partitioned among them (slots, stack and the lane->work-item
  /// column; a lane-list split moves none).
  std::uint64_t batchSplits() const { return batchSplits_; }
  /// Lane-list groups that met at one pc and became one (compaction groups
  /// never merge).
  std::uint64_t batchMerges() const { return batchMerges_; }
  std::uint64_t batchColumnsMoved() const { return batchColumnsMoved_; }

  // BuiltinCtx
  std::int64_t globalId() const override { return globalId_; }
  std::int64_t globalSize() const override { return globalSize_; }
  void* resolve(Ptr p, std::uint32_t bytes) override;

  /// Default per-invocation instruction budget; exceeded -> VmError
  /// ("infinite loop").
  static constexpr std::uint64_t kMaxInstructionsPerItem = 1ull << 30;

 private:
  void execute(int functionIndex, std::span<const Slot> args, bool expectResult);
  void executeRef(int functionIndex, std::span<const Slot> args, bool expectResult);
  void executeFast(int functionIndex, std::span<const Slot> args, bool expectResult);
  template <bool kLaneLists>
  void executeBatch(int functionIndex, std::span<const Slot> args, std::int64_t gidBase,
                    std::int64_t count);
  /// Apply (or keep) this batch's deferred atomics in work-item order;
  /// `opsLogged` has bit `op` set for every AtomicOp the batch logged.
  void finishBatchAtomics(std::int32_t lanes, unsigned opsLogged);
  /// Per-item arenas are allocated on first per-item use: a Vm that only
  /// runs batches never touches them.
  void allocateItemArenas();

  [[noreturn]] void fault(const std::string& message) const;

  const CompiledProgram& program_;
  const std::uint64_t budget_;
  std::vector<MemRegion> regions_;  ///< [0] reserved null; then global args; then frames

  // reference path: growable operand stack with per-push guards
  std::vector<Slot> stack_;

  // fast path: fixed operand stack (guarded once per frame via maxStack) and
  // a slot arena replacing per-call heap-allocated locals
  std::vector<Slot> stackBuf_;
  Slot* sp_ = nullptr;
  std::vector<Slot> slotArena_;
  std::size_t slotTop_ = 0;

  // frame memory (local arrays / structs / addressed locals), both paths
  std::vector<std::byte> frameArena_;
  std::uint64_t frameTop_ = 0;

  // batched path: its lane-strided slot, operand-stack and lane-list arenas
  // belong to the host thread, not the Vm (vm_batch.cpp, BatchArenas).
  // deferred atomics: this batch's, in execution order, then (when kept)
  // everything since the last takeAtomicLog, in work-item order
  std::vector<DeferredAtomic> batchAtomics_;
  std::vector<std::uint32_t> atomicOrder_;
  std::vector<DeferredAtomic> atomicLog_;
  bool keepAtomicLog_ = false;

  std::int64_t globalId_ = 0;
  std::int64_t globalSize_ = 1;
  std::uint64_t instructions_ = 0;
  std::uint64_t batchDispatches_ = 0;
  std::uint64_t batchLaneSum_ = 0;
  std::uint64_t batchSplits_ = 0;
  std::uint64_t batchMerges_ = 0;
  std::uint64_t batchColumnsMoved_ = 0;
  int currentFunction_ = -1;

  static constexpr std::size_t kMaxStack = 1 << 16;
  static constexpr std::size_t kMaxCallDepth = 200;
  static constexpr std::size_t kFrameArenaBytes = 1 << 20;
  static constexpr std::size_t kSlotArenaSlots = 1 << 15;
};

}  // namespace skelcl::kc
