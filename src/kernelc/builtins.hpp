// Builtin functions available to kernel code: work-item queries, math, and
// atomics.  The simulated device executes work-items with a work-group size
// of one, so get_local_id(d) == 0 and barrier() is a no-op; this is
// documented in docs/KERNEL_LANGUAGE.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "kernelc/value.hpp"

namespace skelcl::kc {

/// Builtin signature types (program-independent, unlike TypeId for pointers).
enum class BType : std::int8_t { Void, Int, Uint, Float, Double, PtrInt, PtrUint, PtrFloat, PtrDouble };

/// The environment a builtin executes in; implemented by the VM.
class BuiltinCtx {
 public:
  virtual ~BuiltinCtx() = default;

  // Work-item geometry (1D; higher dimensions query as size 1 / id 0).
  virtual std::int64_t globalId() const = 0;
  virtual std::int64_t globalSize() const = 0;

  /// Resolve a device pointer to a host address, bounds-checking `bytes`.
  /// Throws VmError on null/out-of-bounds.
  virtual void* resolve(Ptr p, std::uint32_t bytes) = 0;
};

using BuiltinFn = Slot (*)(BuiltinCtx&, const Slot* args);

/// The read-modify-write an atomic builtin performs on its 32-bit target.
enum class AtomicOp : std::uint8_t { None, AddI, SubI, IncI, MinI, MaxI, CmpXchgI, AddF };

struct BuiltinDef {
  const char* name;
  BType ret;
  std::vector<BType> params;
  BuiltinFn fn;
  AtomicOp atomic = AtomicOp::None;  ///< None for every non-atomic builtin
};

/// Apply `op` to the 32-bit word at `addr` with the builtin's arguments `a`
/// (value, or compare value for CmpXchgI) and `b` (CmpXchgI's new value), as
/// raw 32-bit patterns; plain (non-atomic) memory access, bit-identical to
/// what the atomic builtin stores.  For deferred atomics (Vm::runKernelBatch).
void applyAtomic(AtomicOp op, std::byte* addr, std::uint32_t a, std::uint32_t b);

/// The process-wide builtin table; a builtin id is an index into this table.
const std::vector<BuiltinDef>& builtinTable();

}  // namespace skelcl::kc
