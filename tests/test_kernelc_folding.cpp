// Constant-folding tests: folded programs are semantically identical but
// execute fewer instructions (visible through the simulated-time model).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "kernelc/diagnostics.hpp"
#include "kernelc/program.hpp"
#include "kernelc_test_util.hpp"

using namespace kctest;
using skelcl::kc::FunctionCode;
using skelcl::kc::Op;

namespace {

const FunctionCode& fnOf(const Harness& h, const std::string& name) {
  const int idx = h.program().findFunction(name);
  EXPECT_GE(idx, 0);
  return h.program().functions[static_cast<std::size_t>(idx)];
}

TEST(KernelcFolding, IntExpressionCollapsesToOnePush) {
  Harness h("int f() { return 2 + 3 * 4 - 1; }");
  const FunctionCode& fn = fnOf(h, "f");
  // push, ret, trailing trap
  ASSERT_EQ(fn.code.size(), 3u);
  EXPECT_EQ(fn.code[0].op, Op::PushI);
  EXPECT_EQ(fn.code[0].imm, 13);
  EXPECT_EQ(fn.code[1].op, Op::Ret);
  EXPECT_EQ(h.call("f", {}).i, 13);
}

TEST(KernelcFolding, FloatExpressionFoldsWithFloatRounding) {
  Harness h("float f() { return 0.1f + 0.2f; }");
  const FunctionCode& fn = fnOf(h, "f");
  ASSERT_EQ(fn.code.size(), 3u);
  EXPECT_EQ(fn.code[0].op, Op::PushF);
  EXPECT_EQ(static_cast<float>(h.call("f", {}).f), 0.1f + 0.2f);
}

TEST(KernelcFolding, CastOfLiteralFolds) {
  Harness h("int f() { return (int)2.75f + (int)sizeof(float); }");
  const FunctionCode& fn = fnOf(h, "f");
  ASSERT_EQ(fn.code.size(), 3u);
  EXPECT_EQ(fn.code[0].imm, 6);
}

TEST(KernelcFolding, FloatToBoolFoldsLikeRuntime) {
  // (bool)x is x != 0, so 0.5 and NaN are true and -0.0 is false.
  Harness runtime("int f(float x) { return (int)(bool)x; }");
  const std::pair<const char*, double> cases[] = {
      {"0.5f", 0.5}, {"-0.0f", -0.0}, {"0.0f / 0.0f", std::nan("")}};
  for (const auto& [literal, value] : cases) {
    Harness folded(std::string("int f() { return (int)(bool)(") + literal + "); }");
    ASSERT_EQ(fnOf(folded, "f").code.size(), 3u) << literal;
    const Slot args[] = {Slot::fromFloat(value)};
    EXPECT_EQ(folded.call("f", {}).i, runtime.call("f", args).i) << literal;
  }
}

TEST(KernelcFolding, UnsignedWrapFoldsLikeRuntime) {
  Harness h("uint f() { return 0xFFFFFFFFu + 2u; }");
  EXPECT_EQ(static_cast<std::uint32_t>(h.call("f", {}).i), 1u);
  EXPECT_EQ(fnOf(h, "f").code[0].op, Op::PushI);
}

TEST(KernelcFolding, SignedOverflowWrapsLikeRuntime) {
  // folded and unfolded paths must agree on wrap-around
  Harness folded("int f() { return 2147483647 + 1; }");
  Harness runtime("int f(int x) { return x + 1; }");
  const Slot args[] = {Slot::fromInt(2147483647)};
  EXPECT_EQ(folded.call("f", {}).i, runtime.call("f", args).i);
}

TEST(KernelcFolding, DivisionByZeroIsNotFolded) {
  // The fault must still happen at run time, not at compile time.
  Harness h("int f() { return 1 / 0; }");
  EXPECT_EQ(fnOf(h, "f").code[0].op, Op::PushI);  // operands pushed individually
  EXPECT_GT(fnOf(h, "f").code.size(), 3u);
  EXPECT_THROW(h.call("f", {}), skelcl::kc::VmError);
}

TEST(KernelcFolding, TernaryWithConstantConditionDropsDeadBranch) {
  Harness h("int f() { return 1 ? 42 : 7; }");
  const FunctionCode& fn = fnOf(h, "f");
  ASSERT_EQ(fn.code.size(), 3u);
  EXPECT_EQ(fn.code[0].imm, 42);
}

TEST(KernelcFolding, TernaryWithSideEffectInTakenBranchNotFolded) {
  Harness h("int f() { int x = 0; return 1 ? (x = 5) : 7; }");
  EXPECT_EQ(h.call("f", {}).i, 5);
}

TEST(KernelcFolding, ComparisonOfLiteralsFolds) {
  Harness h("int f() { return (3 < 4) + (2.0f >= 2.0f) + (1 != 1); }");
  const FunctionCode& fn = fnOf(h, "f");
  ASSERT_EQ(fn.code.size(), 3u);
  EXPECT_EQ(fn.code[0].imm, 2);
}

TEST(KernelcFolding, NonConstantSubexpressionsStillPartiallyFold) {
  // (2 * 3) folds; the variable addition does not.
  const std::string src = "int f(int x) { return x + 2 * 3; }";
  // The folder's output, before any pass: load x, push 6, add, ret, trap.
  const auto naive = skelcl::kc::compileProgram(src, skelcl::kc::CompileOptions{0});
  const FunctionCode& fn = naive->functions[0];
  ASSERT_EQ(fn.code.size(), 5u);
  EXPECT_EQ(fn.code[1].op, Op::PushI);
  EXPECT_EQ(fn.code[1].imm, 6);
  // Tier 2 lowers the addition to one register-form instruction on x and 6.
  const auto lowered = skelcl::kc::compileProgram(src, skelcl::kc::CompileOptions{2});
  ASSERT_EQ(lowered->functions[0].code[0].op, Op::RegOp);
  EXPECT_EQ(lowered->functions[0].code[0].imm, 6);
  Harness h(src);
  const Slot args[] = {Slot::fromInt(10)};
  EXPECT_EQ(h.call("f", args).i, 16);
}

TEST(KernelcFolding, FoldingReducesInstructionCount) {
  // The same semantics, written with and without foldable constants: the
  // folded version must execute strictly fewer instructions, which is what
  // makes the optimizer visible in simulated kernel time.
  Harness folded("float f(float x) { return x * (2.0f * 3.14159f * 0.5f); }");
  Harness manual("float f(float x, float a, float b, float c) { return x * (a * b * c); }");
  const Slot fArgs[] = {Slot::fromFloat(2.0)};
  const Slot mArgs[] = {Slot::fromFloat(2.0), Slot::fromFloat(2.0),
                        Slot::fromFloat(3.14159), Slot::fromFloat(0.5)};
  const double r1 = folded.call("f", fArgs).f;
  const double r2 = manual.call("f", mArgs).f;
  EXPECT_FLOAT_EQ(static_cast<float>(r1), static_cast<float>(r2));
  EXPECT_LT(folded.instructions(), manual.instructions());
}

TEST(KernelcFolding, LogicalOperatorsAreNotFolded) {
  // && / || lower to jumps (short-circuit); they still evaluate correctly.
  Harness h("int f() { return 1 && 0; }");
  EXPECT_EQ(h.call("f", {}).i, 0);
}

TEST(KernelcFolding, NegativeLiteralFolds) {
  Harness h("int f() { return -(-5); }");
  const FunctionCode& fn = fnOf(h, "f");
  ASSERT_EQ(fn.code.size(), 3u);
  EXPECT_EQ(fn.code[0].imm, 5);
}

}  // namespace
