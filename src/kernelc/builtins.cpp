#include "kernelc/builtins.hpp"

#include <atomic>
#include <cmath>

#include <algorithm>
#include <bit>
#include <cstring>

namespace skelcl::kc {

namespace {

// --- work-item queries ------------------------------------------------------

Slot bGetGlobalId(BuiltinCtx& ctx, const Slot* args) {
  return Slot::fromInt(args[0].i == 0 ? ctx.globalId() : 0);
}
Slot bGetGlobalSize(BuiltinCtx& ctx, const Slot* args) {
  return Slot::fromInt(args[0].i == 0 ? ctx.globalSize() : 1);
}
Slot bGetLocalId(BuiltinCtx&, const Slot*) { return Slot::fromInt(0); }
Slot bGetLocalSize(BuiltinCtx&, const Slot*) { return Slot::fromInt(1); }
Slot bGetGroupId(BuiltinCtx& ctx, const Slot* args) { return bGetGlobalId(ctx, args); }
Slot bGetNumGroups(BuiltinCtx& ctx, const Slot* args) { return bGetGlobalSize(ctx, args); }
Slot bBarrier(BuiltinCtx&, const Slot*) { return Slot(); }  // work-group size 1

// --- float math (re-round to float precision) -------------------------------

template <double (*F)(double)>
Slot unaryF32(BuiltinCtx&, const Slot* args) {
  return Slot::fromFloat(static_cast<float>(F(args[0].f)));
}
template <double (*F)(double)>
Slot unaryF64(BuiltinCtx&, const Slot* args) {
  return Slot::fromFloat(F(args[0].f));
}
template <double (*F)(double, double)>
Slot binaryF32(BuiltinCtx&, const Slot* args) {
  return Slot::fromFloat(static_cast<float>(F(args[0].f, args[1].f)));
}
template <double (*F)(double, double)>
Slot binaryF64(BuiltinCtx&, const Slot* args) {
  return Slot::fromFloat(F(args[0].f, args[1].f));
}

double dRsqrt(double x) { return 1.0 / std::sqrt(x); }
double dLog2(double x) { return std::log2(x); }

Slot bClampF(BuiltinCtx&, const Slot* args) {
  return Slot::fromFloat(
      static_cast<float>(std::min(std::max(args[0].f, args[1].f), args[2].f)));
}
Slot bClampI(BuiltinCtx&, const Slot* args) {
  return Slot::fromInt(std::min(std::max(args[0].i, args[1].i), args[2].i));
}
Slot bMixF(BuiltinCtx&, const Slot* args) {
  return Slot::fromFloat(
      static_cast<float>(args[0].f + (args[1].f - args[0].f) * args[2].f));
}
Slot bMinI(BuiltinCtx&, const Slot* args) { return Slot::fromInt(std::min(args[0].i, args[1].i)); }
Slot bMaxI(BuiltinCtx&, const Slot* args) { return Slot::fromInt(std::max(args[0].i, args[1].i)); }
Slot bAbsI(BuiltinCtx&, const Slot* args) { return Slot::fromInt(args[0].i < 0 ? -args[0].i : args[0].i); }
Slot bIsNan(BuiltinCtx&, const Slot* args) { return Slot::fromInt(std::isnan(args[0].f) ? 1 : 0); }
Slot bIsInf(BuiltinCtx&, const Slot* args) { return Slot::fromInt(std::isinf(args[0].f) ? 1 : 0); }

// --- bit reinterpretation ----------------------------------------------------

Slot bAsInt(BuiltinCtx&, const Slot* args) {
  const float f = static_cast<float>(args[0].f);
  return Slot::fromInt(static_cast<std::int32_t>(std::bit_cast<std::uint32_t>(f)));
}
Slot bAsFloat(BuiltinCtx&, const Slot* args) {
  const auto bits = static_cast<std::uint32_t>(args[0].i);
  return Slot::fromFloat(std::bit_cast<float>(bits));
}

// --- atomics ------------------------------------------------------------------
//
// Buffer storage is 64-byte aligned and all pointer offsets produced by typed
// loads/stores are multiples of the element size, so atomic_ref alignment
// requirements hold.

Slot bAtomicAddI(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::int32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::int32_t> ref(*addr);
  const std::int32_t old = ref.fetch_add(static_cast<std::int32_t>(args[1].i));
  return Slot::fromInt(old);
}
Slot bAtomicSubI(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::int32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::int32_t> ref(*addr);
  const std::int32_t old = ref.fetch_sub(static_cast<std::int32_t>(args[1].i));
  return Slot::fromInt(old);
}
Slot bAtomicIncI(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::int32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::int32_t> ref(*addr);
  return Slot::fromInt(ref.fetch_add(1));
}
Slot bAtomicMinI(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::int32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::int32_t> ref(*addr);
  const auto val = static_cast<std::int32_t>(args[1].i);
  std::int32_t cur = ref.load();
  while (val < cur && !ref.compare_exchange_weak(cur, val)) {
  }
  return Slot::fromInt(cur);
}
Slot bAtomicMaxI(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::int32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::int32_t> ref(*addr);
  const auto val = static_cast<std::int32_t>(args[1].i);
  std::int32_t cur = ref.load();
  while (val > cur && !ref.compare_exchange_weak(cur, val)) {
  }
  return Slot::fromInt(cur);
}
Slot bAtomicCmpXchgI(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::int32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::int32_t> ref(*addr);
  auto expected = static_cast<std::int32_t>(args[1].i);
  ref.compare_exchange_strong(expected, static_cast<std::int32_t>(args[2].i));
  return Slot::fromInt(expected);  // OpenCL returns the old value
}
/// Float atomic add, emulated with a CAS loop as production OpenCL code does
/// (OpenCL 1.x has no native float atomics; the paper's OSEM kernel needs one
/// for the error-image scatter).
Slot bAtomicAddF(BuiltinCtx& ctx, const Slot* args) {
  auto* addr = static_cast<std::uint32_t*>(ctx.resolve(args[0].p, 4));
  std::atomic_ref<std::uint32_t> ref(*addr);
  const auto delta = static_cast<float>(args[1].f);
  std::uint32_t oldBits = ref.load();
  for (;;) {
    const float oldVal = std::bit_cast<float>(oldBits);
    const std::uint32_t newBits = std::bit_cast<std::uint32_t>(oldVal + delta);
    if (ref.compare_exchange_weak(oldBits, newBits)) return Slot::fromFloat(oldVal);
  }
}

}  // namespace

void applyAtomic(AtomicOp op, std::byte* addr, std::uint32_t a, std::uint32_t b) {
  switch (op) {
    case AtomicOp::AddI: return applyAtomicAs<AtomicOp::AddI>(addr, a, b);
    case AtomicOp::SubI: return applyAtomicAs<AtomicOp::SubI>(addr, a, b);
    case AtomicOp::IncI: return applyAtomicAs<AtomicOp::IncI>(addr, a, b);
    case AtomicOp::MinI: return applyAtomicAs<AtomicOp::MinI>(addr, a, b);
    case AtomicOp::MaxI: return applyAtomicAs<AtomicOp::MaxI>(addr, a, b);
    case AtomicOp::CmpXchgI: return applyAtomicAs<AtomicOp::CmpXchgI>(addr, a, b);
    case AtomicOp::AddF: return applyAtomicAs<AtomicOp::AddF>(addr, a, b);
    case AtomicOp::None: return;
  }
}

namespace {

std::vector<BuiltinDef> makeTable() {
  using P = std::vector<BType>;
  std::vector<BuiltinDef> t;

  // work-item geometry
  t.push_back({"get_global_id", BType::Int, P{BType::Int}, bGetGlobalId, AtomicOp::None,
               BuiltinColumn::GlobalId});
  t.push_back({"get_global_size", BType::Int, P{BType::Int}, bGetGlobalSize});
  t.push_back({"get_local_id", BType::Int, P{BType::Int}, bGetLocalId});
  t.push_back({"get_local_size", BType::Int, P{BType::Int}, bGetLocalSize});
  t.push_back({"get_group_id", BType::Int, P{BType::Int}, bGetGroupId});
  t.push_back({"get_num_groups", BType::Int, P{BType::Int}, bGetNumGroups});
  t.push_back({"barrier", BType::Void, P{BType::Int}, bBarrier});

  // unary math: float overload first (preferred for float args), then
  // double.  COL is the float overload's column kind: it names FN.
#define SKELCL_MATH1(NAME, FN, COL)                                                   \
  t.push_back({NAME, BType::Float, P{BType::Float}, &unaryF32<FN>, AtomicOp::None,    \
               BuiltinColumn::COL});                                                  \
  t.push_back({NAME, BType::Double, P{BType::Double}, &unaryF64<FN>});
  SKELCL_MATH1("sqrt", std::sqrt, SqrtF)
  SKELCL_MATH1("rsqrt", dRsqrt, None)
  SKELCL_MATH1("fabs", std::fabs, FabsF)
  SKELCL_MATH1("exp", std::exp, None)
  SKELCL_MATH1("log", std::log, None)
  SKELCL_MATH1("log2", dLog2, None)
  SKELCL_MATH1("sin", std::sin, None)
  SKELCL_MATH1("cos", std::cos, None)
  SKELCL_MATH1("tan", std::tan, None)
  SKELCL_MATH1("atan", std::atan, None)
  SKELCL_MATH1("floor", std::floor, FloorF)
  SKELCL_MATH1("ceil", std::ceil, None)
  SKELCL_MATH1("round", std::round, None)
#undef SKELCL_MATH1

#define SKELCL_MATH2(NAME, FN, COL)                                                   \
  t.push_back({NAME, BType::Float, P{BType::Float, BType::Float}, &binaryF32<FN>,     \
               AtomicOp::None, BuiltinColumn::COL});                                  \
  t.push_back({NAME, BType::Double, P{BType::Double, BType::Double}, &binaryF64<FN>});
  SKELCL_MATH2("pow", std::pow, None)
  SKELCL_MATH2("atan2", std::atan2, None)
  SKELCL_MATH2("fmod", std::fmod, None)
  SKELCL_MATH2("fmin", std::fmin, FminF)
  SKELCL_MATH2("fmax", std::fmax, FmaxF)
#undef SKELCL_MATH2

  // generic min/max/abs/clamp/mix: integer overloads listed first so that
  // all-integer argument lists pick them
  t.push_back({"min", BType::Int, P{BType::Int, BType::Int}, bMinI, AtomicOp::None,
               BuiltinColumn::MinI});
  t.push_back({"min", BType::Float, P{BType::Float, BType::Float}, &binaryF32<std::fmin>,
               AtomicOp::None, BuiltinColumn::FminF});
  t.push_back({"max", BType::Int, P{BType::Int, BType::Int}, bMaxI, AtomicOp::None,
               BuiltinColumn::MaxI});
  t.push_back({"max", BType::Float, P{BType::Float, BType::Float}, &binaryF32<std::fmax>,
               AtomicOp::None, BuiltinColumn::FmaxF});
  t.push_back({"abs", BType::Int, P{BType::Int}, bAbsI});
  t.push_back({"clamp", BType::Int, P{BType::Int, BType::Int, BType::Int}, bClampI,
               AtomicOp::None, BuiltinColumn::ClampI});
  t.push_back({"clamp", BType::Float, P{BType::Float, BType::Float, BType::Float}, bClampF});
  t.push_back({"mix", BType::Float, P{BType::Float, BType::Float, BType::Float}, bMixF});
  t.push_back({"isnan", BType::Int, P{BType::Float}, bIsNan});
  t.push_back({"isinf", BType::Int, P{BType::Float}, bIsInf});

  // bit reinterpretation
  t.push_back({"as_int", BType::Int, P{BType::Float}, bAsInt});
  t.push_back({"as_float", BType::Float, P{BType::Int}, bAsFloat});

  // atomics
  t.push_back({"atomic_add", BType::Int, P{BType::PtrInt, BType::Int}, bAtomicAddI,
               AtomicOp::AddI});
  t.push_back({"atomic_sub", BType::Int, P{BType::PtrInt, BType::Int}, bAtomicSubI,
               AtomicOp::SubI});
  t.push_back({"atomic_inc", BType::Int, P{BType::PtrInt}, bAtomicIncI, AtomicOp::IncI});
  t.push_back({"atomic_min", BType::Int, P{BType::PtrInt, BType::Int}, bAtomicMinI,
               AtomicOp::MinI});
  t.push_back({"atomic_max", BType::Int, P{BType::PtrInt, BType::Int}, bAtomicMaxI,
               AtomicOp::MaxI});
  t.push_back({"atomic_cmpxchg", BType::Int, P{BType::PtrInt, BType::Int, BType::Int},
               bAtomicCmpXchgI, AtomicOp::CmpXchgI});
  t.push_back({"atomic_add_f", BType::Float, P{BType::PtrFloat, BType::Float}, bAtomicAddF,
               AtomicOp::AddF});

  return t;
}

}  // namespace

const std::vector<BuiltinDef>& builtinTable() {
  static const std::vector<BuiltinDef> table = makeTable();
  return table;
}

}  // namespace skelcl::kc
