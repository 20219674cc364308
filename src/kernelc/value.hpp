// Runtime value representation shared by the VM, builtins, and the OpenCL
// layer's argument marshalling.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace skelcl::kc {

/// A device pointer: region 0 is the null region; regions >= 1 index the
/// VM's region table (kernel buffer arguments first, then frame memory).
struct Ptr {
  std::int32_t region = 0;
  std::uint32_t offset = 0;
};

/// One stack/local slot.  Statically typed bytecode knows which member is
/// active; float values are stored as doubles that are exactly representable
/// as float (every f32 operation re-rounds).
union Slot {
  std::int64_t i;
  double f;
  Ptr p;

  Slot() : i(0) {}

  static Slot fromInt(std::int64_t v) {
    Slot s;
    s.i = v;
    return s;
  }
  static Slot fromFloat(double v) {
    Slot s;
    s.f = v;
    return s;
  }
  static Slot fromPtr(Ptr v) {
    Slot s;
    s.i = 0;  // zero the full slot first
    s.p = v;
    return s;
  }
};

/// Float -> integer conversion: the F2I, F2U, F2L and F2UL opcodes and the
/// compiler's folding of the same casts.  OpenCL's convert_<T>_sat rule: NaN
/// gives 0, values outside T's range clamp to its ends, the rest truncate
/// toward zero.  Returns the slot value (T's value; an unsigned T's bits).
template <class T>
std::int64_t floatToInt(double v) {
  using Limits = std::numeric_limits<T>;
  if (std::isnan(v)) return 0;
  if (v <= static_cast<double>(Limits::min())) return static_cast<std::int64_t>(Limits::min());
  if (v >= static_cast<double>(Limits::max())) return static_cast<std::int64_t>(Limits::max());
  return static_cast<std::int64_t>(static_cast<T>(v));
}

}  // namespace skelcl::kc
