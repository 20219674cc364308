// Semantic analysis tests: type errors and diagnostics.
#include <gtest/gtest.h>

#include "kernelc/diagnostics.hpp"
#include "kernelc/program.hpp"

using namespace skelcl::kc;

namespace {

void expectOk(const std::string& src) { EXPECT_NO_THROW(compileProgram(src)) << src; }

void expectError(const std::string& src, const std::string& needle) {
  try {
    compileProgram(src);
    FAIL() << "expected CompileError for:\n" << src;
  } catch (const CompileError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "diagnostic was: " << e.what();
  }
}

TEST(KernelcSema, UndeclaredIdentifier) {
  expectError("int f() { return x; }", "undeclared identifier 'x'");
}

TEST(KernelcSema, RedeclarationInSameScope) {
  expectError("void f() { int a; float a; }", "redeclaration of 'a'");
}

TEST(KernelcSema, ShadowingInInnerScopeIsAllowed) {
  expectOk("int f() { int a = 1; { int a = 2; } return a; }");
}

TEST(KernelcSema, UnknownFunction) {
  expectError("void f() { frobnicate(1); }", "unknown function 'frobnicate'");
}

TEST(KernelcSema, WrongArgumentCount) {
  expectError("int g(int a) { return a; } void f() { g(1, 2); }", "expects 1 arguments");
}

TEST(KernelcSema, RedefinedFunction) {
  expectError("void f() {} void f() {}", "redefinition of function 'f'");
}

TEST(KernelcSema, BuiltinShadowingRejected) {
  expectError("float sqrt(float x) { return x; }", "shadows a builtin");
}

TEST(KernelcSema, KernelMustReturnVoid) {
  expectError("__kernel int k() { return 1; }", "kernel functions must return void");
}

TEST(KernelcSema, KernelCannotBeCalledFromDevice) {
  expectError("__kernel void k() {} void f() { k(); }", "kernels cannot be called");
}

TEST(KernelcSema, VoidVariableRejected) {
  expectError("void f() { void v; }", "void");
}

TEST(KernelcSema, AssignToRValueRejected) {
  expectError("void f() { 1 = 2; }", "not an lvalue");
  expectError("void f(int a, int b) { (a + b) = 2; }", "not an lvalue");
}

TEST(KernelcSema, PointerMinusPointerRejected) {
  expectError("int f(int* a, int* b) { return a - b; }", "pointer");
}

TEST(KernelcSema, DerefNonPointerRejected) {
  expectError("int f(int a) { return *a; }", "dereference a non-pointer");
}

TEST(KernelcSema, SubscriptNonPointerRejected) {
  expectError("int f(int a) { return a[0]; }", "not a pointer or array");
}

TEST(KernelcSema, NonIntegerSubscriptRejected) {
  expectError("int f(int* a, float x) { return a[x]; }", "subscript must be an integer");
}

TEST(KernelcSema, BitwiseOnFloatRejected) {
  expectError("float f(float a, float b) { return a & b; }", "integer operator");
}

TEST(KernelcSema, RemainderOnFloatRejected) {
  expectError("float f(float a) { return a % 2.0f; }", "integer operator");
}

TEST(KernelcSema, ConditionMustBeArithmetic) {
  expectError("void f(int* p) { if (p) { } }", "condition must have arithmetic type");
}

TEST(KernelcSema, PointerComparedToNullLiteral) {
  expectOk("int f(int* p) { return p == 0; }");
}

TEST(KernelcSema, IncompatiblePointerComparisonRejected) {
  expectError("int f(int* a, float* b) { return a == b; }", "incompatible pointer types");
}

TEST(KernelcSema, BreakOutsideLoop) {
  expectError("void f() { break; }", "'break' outside of a loop");
}

TEST(KernelcSema, ContinueOutsideLoop) {
  expectError("void f() { continue; }", "'continue' outside of a loop");
}

TEST(KernelcSema, ReturnValueFromVoid) {
  expectError("void f() { return 1; }", "void function must not return a value");
}

TEST(KernelcSema, MissingReturnValue) {
  expectError("int f() { return; }", "must return a value");
}

TEST(KernelcSema, UnknownStruct) {
  expectError("void f(struct Nope* p) { }", "unknown struct 'Nope'");
}

TEST(KernelcSema, UnknownMember) {
  expectError("typedef struct { float x; } P; float f(P* p) { return p->y; }",
              "no member 'y'");
}

TEST(KernelcSema, DotOnPointerRejected) {
  expectError("typedef struct { float x; } P; float f(P* p) { return p.x; }",
              "'.' requires a struct value");
}

TEST(KernelcSema, ArrowOnValueRejected) {
  expectError("typedef struct { float x; } P; float f(P* p) { P v = *p; return v->x; }",
              "'->' requires a pointer");
}

/// The whole diagnostic, location included: one error, formatted.
void expectOnlyDiagnostic(const std::string& src, const std::string& diagnostic) {
  try {
    compileProgram(src);
    FAIL() << "expected CompileError for:\n" << src;
  } catch (const CompileError& e) {
    ASSERT_EQ(e.diagnostics().size(), 1u) << e.what();
    EXPECT_EQ(e.diagnostics()[0].format(), diagnostic);
  }
}

TEST(KernelcSema, DuplicateStructRejected) {
  expectOnlyDiagnostic("typedef struct { int a; } S; typedef struct { int b; } S;",
                       "1:30: error: duplicate struct 'S'");
}

TEST(KernelcSema, DuplicateStructMemberRejected) {
  expectOnlyDiagnostic("typedef struct { int a; float a; } S;",
                       "1:25: error: duplicate member 'a' in struct 'S'");
}

TEST(KernelcSema, PointerMemberInStructRejected) {
  expectError("typedef struct { int* p; } S;", "pointer members");
}

TEST(KernelcSema, StructParamByValueRejected) {
  expectError("typedef struct { int a; } S; void f(S s) { }",
              "struct parameters must be passed by pointer");
}

TEST(KernelcSema, StructReturnByValueRejected) {
  expectError("typedef struct { int a; } S; S f(S* s) { return *s; }",
              "returning structs by value");
}

TEST(KernelcSema, AddressOfParameterRejected) {
  expectError("void f(int a) { int* p = &a; }", "address of parameter");
}

TEST(KernelcSema, AddressOfLocalAllowed) {
  expectOk("int f() { int a = 3; int* p = &a; return *p; }");
}

TEST(KernelcSema, AddressOfTemporaryRejected) {
  expectError("void f(int a) { int* p = &(a + 1); }", "cannot take the address");
}

TEST(KernelcSema, ArrayInitializerRejected) {
  expectError("void f() { float a[2] = 0; }", "array initializers");
}

TEST(KernelcSema, ZeroSizedArrayRejected) {
  expectError("void f() { float a[0]; }", "array size must be positive");
}

TEST(KernelcSema, ImplicitIntToFloatOk) {
  expectOk("float f(int a) { float x = a; return x + 1; }");
}

TEST(KernelcSema, ImplicitPointerToFloatRejected) {
  expectError("float f(int* p) { float x = p; return x; }", "cannot convert");
}

TEST(KernelcSema, CastPointerToIntRejected) {
  expectError("int f(int* p) { return (int)p; }", "invalid cast");
}

TEST(KernelcSema, PointerReinterpretCastAllowed) {
  expectOk("float f(int* p) { float* q = (float*)p; return q[0] + 0.0f * (float)sizeof(float); }");
}

TEST(KernelcSema, MultipleDiagnosticsCollected) {
  try {
    compileProgram("void f() { return x; } void g() { return y; }");
    FAIL() << "expected CompileError";
  } catch (const CompileError& e) {
    EXPECT_GE(e.diagnostics().size(), 2u);  // one error in each function
  }
}

TEST(KernelcSema, CompoundAssignOnStructRejected) {
  expectError("typedef struct { int a; } S; void f(S* p, S* q) { *p += *q; }",
              "compound assignment");
}

TEST(KernelcSema, ShiftResultTypeFollowsLhs) {
  expectOk("uint f(uint a, int s) { return a >> s; }");
}

}  // namespace
