// Builtin functions available to kernel code: work-item queries, math, and
// atomics.  The simulated device executes work-items with a work-group size
// of one, so get_local_id(d) == 0 and barrier() is a no-op; this is
// documented in docs/KERNEL_LANGUAGE.md.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

/// How the batched interpreter runs a builtin over a lane column
/// (docs/VM.md, "Lane loops").  None calls `fn` once per lane; every other
/// kind is one lane loop that calls the same std:: function as `fn`, so
/// results stay bit-identical.  The *F kinds are the float overloads.
enum class BuiltinColumn : std::uint8_t {
  None, GlobalId, SqrtF, FabsF, FloorF, FminF, FmaxF, MinI, MaxI, ClampI
};

struct BuiltinDef {
  const char* name;
  BType ret;
  std::vector<BType> params;
  BuiltinFn fn;
  AtomicOp atomic = AtomicOp::None;  ///< None for every non-atomic builtin
  BuiltinColumn column = BuiltinColumn::None;
};

/// Apply `kOp` to the 32-bit word at `addr` with the builtin's arguments `a`
/// (value, or compare value for CmpXchgI) and `b` (CmpXchgI's new value), as
/// raw 32-bit patterns; plain (non-atomic) memory access, bit-identical to
/// what the atomic builtin stores.  For deferred atomics (Vm::runKernelBatch),
/// whose appliers fix the op once per log when they can.
template <AtomicOp kOp>
void applyAtomicAs(std::byte* addr, std::uint32_t a, [[maybe_unused]] std::uint32_t b) {
  static_assert(kOp != AtomicOp::None);
  std::uint32_t cur;
  std::memcpy(&cur, addr, 4);
  if constexpr (kOp == AtomicOp::AddI) {
    cur += a;
  } else if constexpr (kOp == AtomicOp::SubI) {
    cur -= a;
  } else if constexpr (kOp == AtomicOp::IncI) {
    cur += 1;
  } else if constexpr (kOp == AtomicOp::MinI) {
    if (static_cast<std::int32_t>(a) < static_cast<std::int32_t>(cur)) cur = a;
  } else if constexpr (kOp == AtomicOp::MaxI) {
    if (static_cast<std::int32_t>(a) > static_cast<std::int32_t>(cur)) cur = a;
  } else if constexpr (kOp == AtomicOp::CmpXchgI) {
    if (cur == a) cur = b;
  } else {
    cur = std::bit_cast<std::uint32_t>(std::bit_cast<float>(cur) + std::bit_cast<float>(a));
  }
  std::memcpy(addr, &cur, 4);
}

/// applyAtomicAs with the op chosen at run time; None does nothing.
void applyAtomic(AtomicOp op, std::byte* addr, std::uint32_t a, std::uint32_t b);

/// The process-wide builtin table; a builtin id is an index into this table.
const std::vector<BuiltinDef>& builtinTable();

}  // namespace skelcl::kc
