// Property-based tests: kernel-language arithmetic must match C++ semantics
// exactly, across randomized operands and the whole operator/type matrix.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>

#include "kernelc_test_util.hpp"
#include "sim/rng.hpp"

using namespace kctest;
using skelcl::sim::Rng;

namespace {

// ---------------------------------------------------------------------------
// Integer binary operators vs. host semantics
// ---------------------------------------------------------------------------

// Each case struct gets a PrintTo that names it by its source spelling.
// Without one, gtest prints the raw object bytes (pointers that move with
// address-space randomization) into --gtest_list_tests, so every build
// would register these cases under new ctest names.

struct IntOpCase {
  const char* op;
  std::int32_t (*eval)(std::int32_t, std::int32_t);
  bool avoidZeroRhs;
};

void PrintTo(const IntOpCase& c, std::ostream* os) { *os << c.op; }

std::int32_t hAdd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::int64_t>(a) + b);
}
std::int32_t hSub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::int64_t>(a) - b);
}
std::int32_t hMul(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::int64_t>(a) * b);
}
std::int32_t hDiv(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::int64_t>(a) / b);
}
std::int32_t hRem(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::int64_t>(a) % b);
}
std::int32_t hAnd(std::int32_t a, std::int32_t b) { return a & b; }
std::int32_t hOr(std::int32_t a, std::int32_t b) { return a | b; }
std::int32_t hXor(std::int32_t a, std::int32_t b) { return a ^ b; }
std::int32_t hShl(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a)
                                   << (static_cast<std::uint32_t>(b) & 31u));
}
std::int32_t hShr(std::int32_t a, std::int32_t b) {
  return a >> (static_cast<std::uint32_t>(b) & 31u);
}

std::string intOpName(const ::testing::TestParamInfo<IntOpCase>& info) {
  static const char* names[] = {"add", "sub", "mul", "div", "rem",
                                "and", "or",  "xor", "shl", "shr"};
  return names[info.index];
}

class IntBinaryOp : public ::testing::TestWithParam<IntOpCase> {};

TEST_P(IntBinaryOp, MatchesHostOnRandomOperands) {
  const IntOpCase& c = GetParam();
  const std::string src =
      std::string("int f(int a, int b) { return a ") + c.op + " b; }";
  Harness h(src);
  Rng rng(0xABCDEF);
  for (int k = 0; k < 300; ++k) {
    const auto a = static_cast<std::int32_t>(rng.nextU64());
    auto b = static_cast<std::int32_t>(rng.nextU64());
    if (c.avoidZeroRhs && b == 0) b = 1;
    if (c.avoidZeroRhs && a == std::numeric_limits<std::int32_t>::min() && b == -1) b = 2;
    const Slot args[] = {Slot::fromInt(a), Slot::fromInt(b)};
    ASSERT_EQ(h.call("f", args).i, c.eval(a, b)) << a << " " << c.op << " " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IntBinaryOp,
    ::testing::Values(IntOpCase{"+", hAdd, false}, IntOpCase{"-", hSub, false},
                      IntOpCase{"*", hMul, false}, IntOpCase{"/", hDiv, true},
                      IntOpCase{"%", hRem, true}, IntOpCase{"&", hAnd, false},
                      IntOpCase{"|", hOr, false}, IntOpCase{"^", hXor, false},
                      IntOpCase{"<<", hShl, false}, IntOpCase{">>", hShr, false}),
    &intOpName);

// ---------------------------------------------------------------------------
// Unsigned semantics
// ---------------------------------------------------------------------------

struct UintOpCase {
  const char* op;
  std::uint32_t (*eval)(std::uint32_t, std::uint32_t);
  bool avoidZeroRhs;
};

void PrintTo(const UintOpCase& c, std::ostream* os) { *os << c.op; }

std::uint32_t uDiv(std::uint32_t a, std::uint32_t b) { return a / b; }
std::uint32_t uRem(std::uint32_t a, std::uint32_t b) { return a % b; }
std::uint32_t uShr(std::uint32_t a, std::uint32_t b) { return a >> (b & 31u); }
std::uint32_t uLt(std::uint32_t a, std::uint32_t b) { return a < b ? 1u : 0u; }
std::uint32_t uGe(std::uint32_t a, std::uint32_t b) { return a >= b ? 1u : 0u; }

std::string uintOpName(const ::testing::TestParamInfo<UintOpCase>& info) {
  static const char* names[] = {"div", "rem", "shr", "lt", "ge"};
  return names[info.index];
}

class UintBinaryOp : public ::testing::TestWithParam<UintOpCase> {};

TEST_P(UintBinaryOp, MatchesHostOnRandomOperands) {
  const UintOpCase& c = GetParam();
  const std::string src =
      std::string("uint f(uint a, uint b) { return (uint)(a ") + c.op + " b); }";
  Harness h(src);
  Rng rng(0x1234);
  for (int k = 0; k < 300; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.nextU64());
    auto b = static_cast<std::uint32_t>(rng.nextU64());
    if (c.avoidZeroRhs && b == 0) b = 1;
    const Slot args[] = {Slot::fromInt(static_cast<std::int64_t>(a)),
                         Slot::fromInt(static_cast<std::int64_t>(b))};
    ASSERT_EQ(static_cast<std::uint32_t>(h.call("f", args).i), c.eval(a, b))
        << a << " " << c.op << " " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, UintBinaryOp,
                         ::testing::Values(UintOpCase{"/", uDiv, true},
                                           UintOpCase{"%", uRem, true},
                                           UintOpCase{">>", uShr, false},
                                           UintOpCase{"<", uLt, false},
                                           UintOpCase{">=", uGe, false}),
                         &uintOpName);

// ---------------------------------------------------------------------------
// Float semantics: every operation rounds to binary32
// ---------------------------------------------------------------------------

struct FloatOpCase {
  const char* op;
  float (*eval)(float, float);
};

void PrintTo(const FloatOpCase& c, std::ostream* os) { *os << c.op; }

float fAdd(float a, float b) { return a + b; }
float fSub(float a, float b) { return a - b; }
float fMul(float a, float b) { return a * b; }
float fDiv(float a, float b) { return a / b; }

std::string floatOpName(const ::testing::TestParamInfo<FloatOpCase>& info) {
  static const char* names[] = {"add", "sub", "mul", "div"};
  return names[info.index];
}

class FloatBinaryOp : public ::testing::TestWithParam<FloatOpCase> {};

TEST_P(FloatBinaryOp, BitExactWithHostFloat) {
  const FloatOpCase& c = GetParam();
  const std::string src =
      std::string("float f(float a, float b) { return a ") + c.op + " b; }";
  Harness h(src);
  Rng rng(0xF10A7);
  for (int k = 0; k < 300; ++k) {
    const auto a = static_cast<float>(rng.uniform(-1e6, 1e6));
    auto b = static_cast<float>(rng.uniform(-1e6, 1e6));
    if (b == 0.0f) b = 1.0f;
    const Slot args[] = {Slot::fromFloat(a), Slot::fromFloat(b)};
    const float got = static_cast<float>(h.call("f", args).f);
    const float expect = c.eval(a, b);
    ASSERT_EQ(got, expect) << a << " " << c.op << " " << b;  // bit-exact
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, FloatBinaryOp,
                         ::testing::Values(FloatOpCase{"+", fAdd}, FloatOpCase{"-", fSub},
                                           FloatOpCase{"*", fMul}, FloatOpCase{"/", fDiv}),
                         &floatOpName);

// ---------------------------------------------------------------------------
// Math builtins against libm (float overloads re-round)
// ---------------------------------------------------------------------------

struct MathCase {
  const char* name;
  double (*ref)(double);
  double lo;
  double hi;
};

void PrintTo(const MathCase& c, std::ostream* os) { *os << c.name; }

class MathBuiltin : public ::testing::TestWithParam<MathCase> {};

TEST_P(MathBuiltin, FloatOverloadMatchesRoundedLibm) {
  const MathCase& c = GetParam();
  const std::string src =
      std::string("float f(float x) { return ") + c.name + "(x); }";
  Harness h(src);
  Rng rng(0x77);
  for (int k = 0; k < 200; ++k) {
    const auto x = static_cast<float>(rng.uniform(c.lo, c.hi));
    const Slot args[] = {Slot::fromFloat(x)};
    const float got = static_cast<float>(h.call("f", args).f);
    const float expect = static_cast<float>(c.ref(static_cast<double>(x)));
    ASSERT_EQ(got, expect) << c.name << "(" << x << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFns, MathBuiltin,
    ::testing::Values(MathCase{"sqrt", std::sqrt, 0.0, 1e6},
                      MathCase{"fabs", std::fabs, -1e6, 1e6},
                      MathCase{"exp", std::exp, -20.0, 20.0},
                      MathCase{"log", std::log, 1e-6, 1e6},
                      MathCase{"sin", std::sin, -10.0, 10.0},
                      MathCase{"cos", std::cos, -10.0, 10.0},
                      MathCase{"floor", std::floor, -1e4, 1e4},
                      MathCase{"ceil", std::ceil, -1e4, 1e4}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Conversion matrix
// ---------------------------------------------------------------------------

TEST(KernelcConversions, IntToFloatAndBack) {
  Harness h("int f(int x) { return (int)(float)x; }");
  for (std::int32_t v : {0, 1, -1, 1 << 20, -(1 << 20), 16777216}) {
    const Slot args[] = {Slot::fromInt(v)};
    EXPECT_EQ(h.call("f", args).i, static_cast<std::int32_t>(static_cast<float>(v)));
  }
}

TEST(KernelcConversions, LargeIntLosesPrecisionInFloatExactlyAsHost) {
  Harness h("int f(int x) { return (int)(float)x; }");
  const std::int32_t v = 16777217;  // 2^24 + 1: not representable in float
  const Slot args[] = {Slot::fromInt(v)};
  EXPECT_EQ(h.call("f", args).i, 16777216);
}

TEST(KernelcConversions, UintToFloat) {
  Harness h("float f(uint x) { return (float)x; }");
  const Slot args[] = {Slot::fromInt(static_cast<std::int64_t>(0xFFFFFFFFu))};
  EXPECT_FLOAT_EQ(static_cast<float>(h.call("f", args).f),
                  static_cast<float>(0xFFFFFFFFu));
}

TEST(KernelcConversions, FloatToUint) {
  Harness h("uint f(float x) { return (uint)x; }");
  const Slot args[] = {Slot::fromFloat(3000000000.0)};
  EXPECT_EQ(static_cast<std::uint32_t>(h.call("f", args).i), 3000000000u);
}

TEST(KernelcConversions, DoubleToFloatRounds) {
  Harness h("float f(double x) { return (float)x; }");
  const double v = 0.1;  // not representable in either; rounds differently
  const Slot args[] = {Slot::fromFloat(v)};
  EXPECT_EQ(static_cast<float>(h.call("f", args).f), static_cast<float>(0.1));
}

TEST(KernelcConversions, IntUintRoundTrip) {
  Harness h("int f(int x) { return (int)(uint)x; }");
  for (std::int32_t v : {-1, -12345, 0, 7}) {
    const Slot args[] = {Slot::fromInt(v)};
    EXPECT_EQ(h.call("f", args).i, v);
  }
}

// ---------------------------------------------------------------------------
// Algorithmic cross-checks (whole programs)
// ---------------------------------------------------------------------------

TEST(KernelcPrograms, GcdMatchesStd) {
  const std::string src = R"(
    int f(int a, int b) {
      while (b != 0) { int t = a % b; a = b; b = t; }
      return a;
    })";
  Harness h(src);
  Rng rng(5);
  for (int k = 0; k < 100; ++k) {
    const auto a = static_cast<std::int32_t>(rng.below(100000)) + 1;
    const auto b = static_cast<std::int32_t>(rng.below(100000)) + 1;
    const Slot args[] = {Slot::fromInt(a), Slot::fromInt(b)};
    ASSERT_EQ(h.call("f", args).i, std::gcd(a, b));
  }
}

TEST(KernelcPrograms, CollatzTerminates) {
  const std::string src = R"(
    int f(int n) {
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        ++steps;
      }
      return steps;
    })";
  Harness h(src);
  const Slot args27[] = {Slot::fromInt(27)};
  EXPECT_EQ(h.call("f", args27).i, 111);
  const Slot args1[] = {Slot::fromInt(1)};
  EXPECT_EQ(h.call("f", args1).i, 0);
}

TEST(KernelcPrograms, InsertionSortInLocalArray) {
  const std::string src = R"(
    __kernel void k(__global int* data, int n) {
      int buf[16];
      for (int i = 0; i < n; ++i) buf[i] = data[i];
      for (int i = 1; i < n; ++i) {
        int key = buf[i];
        int j = i - 1;
        while (j >= 0 && buf[j] > key) { buf[j + 1] = buf[j]; --j; }
        buf[j + 1] = key;
      }
      for (int i = 0; i < n; ++i) data[i] = buf[i];
    })";
  Harness h(src);
  std::vector<std::int32_t> data = {9, -3, 5, 0, 12, 5, -3, 7};
  const Slot args[] = {h.addBuffer(data), Slot::fromInt(8)};
  h.run("k", args, 1);
  std::vector<std::int32_t> expect = data;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(data, expect);
}

TEST(KernelcPrograms, NewtonSqrtConvergesLikeFloatHost) {
  const std::string src = R"(
    float f(float x) {
      float guess = x > 1.0f ? x * 0.5f : 1.0f;
      for (int i = 0; i < 20; ++i) guess = 0.5f * (guess + x / guess);
      return guess;
    })";
  Harness h(src);
  for (float x : {2.0f, 10.0f, 12345.0f, 0.25f}) {
    const Slot args[] = {Slot::fromFloat(x)};
    EXPECT_NEAR(h.call("f", args).f, std::sqrt(x), 1e-3);
  }
}

}  // namespace
