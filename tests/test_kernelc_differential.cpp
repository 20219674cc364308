// Differential tests across the interpreter tier ladder (docs/VM.md): the
// same source compiled at tier 0 (reference), tier 1 (peephole + packed +
// fast interpreter) and tier 2 (rewrite pass), plus tier 2 run on the
// work-group-batched interpreter, must produce bit-identical buffer
// contents, identical scalar results, and — because superinstructions and
// rewrite replacements carry the weight of the naive windows they replace —
// identical retired-instruction counts (which drive simulated kernel time).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"

using namespace skelcl::kc;

namespace {

/// Run `kernel` from `source` over `n` work-items under every tier (plus the
/// batched interpreter at tier 2), each on its own copy of `data`, and
/// require bitwise-equal buffers and equal instruction counts throughout.
void expectIdentical(const std::string& source, const std::string& kernel,
                     std::vector<float> data, std::int64_t n,
                     std::vector<Slot> extraArgs = {}) {
  const auto ref = compileProgram(source, CompileOptions{0});
  const auto fast = compileProgram(source, CompileOptions{1});
  const auto tier2 = compileProgram(source, CompileOptions{2});
  ASSERT_EQ(ref->tier, 0);
  ASSERT_EQ(fast->tier, 1);
  ASSERT_EQ(tier2->tier, 2);

  const auto run = [&](const CompiledProgram& program, std::vector<float>& buf,
                       std::uint64_t& count, bool batch) {
    std::vector<MemRegion> regions{
        MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
    Ptr p;
    p.region = 1;
    p.offset = 0;
    std::vector<Slot> args{Slot::fromPtr(p)};
    args.insert(args.end(), extraArgs.begin(), extraArgs.end());
    Vm vm(program, regions);
    const int k = program.findKernel(kernel);
    ASSERT_GE(k, 0);
    if (batch) {
      for (std::int64_t gid = 0; gid < n;) {
        const std::int64_t lanes = std::min<std::int64_t>(n - gid, Vm::kBatchLanes);
        vm.runKernelBatch(k, args, gid, lanes, n);
        gid += lanes;
      }
    } else {
      for (std::int64_t gid = 0; gid < n; ++gid) vm.runKernel(k, args, gid, n);
    }
    count = vm.instructionsExecuted();
  };

  struct Leg {
    const char* name;
    const CompiledProgram* program;
    bool batch;
  };
  const Leg legs[] = {
      {"ref", ref.get(), false},
      {"fast", fast.get(), false},
      {"tier2", tier2.get(), false},
      {"batch", tier2.get(), true},
  };
  std::vector<float> bufs[4];
  std::uint64_t counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    bufs[i] = data;
    run(*legs[i].program, bufs[i], counts[i], legs[i].batch);
  }
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(counts[i], counts[0])
        << legs[i].name << ": retired-instruction counts diverged — "
                           "simulated kernel time would change";
    ASSERT_EQ(bufs[i].size(), bufs[0].size());
    EXPECT_EQ(0, std::memcmp(bufs[i].data(), bufs[0].data(),
                             bufs[0].size() * sizeof(float)))
        << legs[i].name << ": buffer contents diverged between pipelines";
  }
}

std::int64_t callBoth(const std::string& source, const std::string& fn,
                      std::vector<Slot> args, std::uint64_t* counts) {
  const auto fast = compileProgram(source, CompileOptions{1});
  const auto ref = compileProgram(source, CompileOptions{0});
  const auto tier2 = compileProgram(source, CompileOptions{2});
  Vm vmFast(*fast, {});
  Vm vmRef(*ref, {});
  Vm vmT2(*tier2, {});
  const Slot a = vmFast.callFunction(fast->findFunction(fn), args);
  const Slot b = vmRef.callFunction(ref->findFunction(fn), args);
  const Slot c = vmT2.callFunction(tier2->findFunction(fn), args);
  counts[0] = vmFast.instructionsExecuted();
  counts[1] = vmRef.instructionsExecuted();
  EXPECT_EQ(a.i, b.i);  // full 64-bit slot compare covers int and float bits
  EXPECT_EQ(c.i, b.i);
  EXPECT_EQ(vmT2.instructionsExecuted(), counts[1]);
  return a.i;
}

TEST(KernelcDifferential, MandelbrotShapedKernel) {
  // The mandel workload shape: per-item escape-time loop with f32 arithmetic,
  // fused compare-and-branch back-edges, and a final store.
  const std::string src = R"(
    __kernel void mandel(__global float* out, int width, int maxIter) {
      int gid = get_global_id(0);
      int px = gid % width;
      int py = gid / width;
      float cr = -2.0f + 3.0f * (float)px / (float)width;
      float ci = -1.5f + 3.0f * (float)py / (float)width;
      float zr = 0.0f; float zi = 0.0f;
      int it = 0;
      while (it < maxIter) {
        float zr2 = zr * zr; float zi2 = zi * zi;
        if (zr2 + zi2 > 4.0f) break;
        zi = 2.0f * zr * zi + ci;
        zr = zr2 - zi2 + cr;
        ++it;
      }
      out[gid] = (float)it;
    }
  )";
  expectIdentical(src, "mandel", std::vector<float>(64, 0.0f), 64,
                  {Slot::fromInt(std::int64_t{8}), Slot::fromInt(std::int64_t{64})});
}

TEST(KernelcDifferential, OsemShapedKernel) {
  // The OSEM workload shape: indexed gather over a buffer with an inner
  // accumulation loop and a guarded division.  Reads come from the upper
  // half of the buffer and writes go to the lower half — work-items must not
  // race on shared data, or execution order (sequential vs batched) would
  // legitimately change the result.
  const std::string src = R"(
    __kernel void project(__global float* data, int n) {
      int gid = get_global_id(0);
      float acc = 0.0f;
      for (int i = 0; i < n; ++i) {
        acc = acc + data[n + (gid + i) % n] * 0.5f;
      }
      if (acc != 0.0f) acc = 1.0f / acc;
      data[gid] = acc;
    }
  )";
  std::vector<float> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 0.25f * static_cast<float>(i + 1);
  expectIdentical(src, "project", data, 32, {Slot::fromInt(std::int64_t{32})});
}

TEST(KernelcDifferential, FrameArraysAndStructs) {
  const std::string src = R"(
    struct Acc { float lo; float hi; };
    __kernel void histo(__global float* out, int n) {
      int gid = get_global_id(0);
      float bins[4];
      for (int b = 0; b < 4; ++b) bins[b] = 0.0f;
      struct Acc acc;
      acc.lo = 0.0f; acc.hi = 0.0f;
      for (int i = 0; i < n; ++i) {
        int b = (gid + i) % 4;
        bins[b] = bins[b] + (float)i;
        if (b < 2) acc.lo = acc.lo + 1.0f; else acc.hi = acc.hi + 1.0f;
      }
      out[gid] = bins[0] + bins[1] * 2.0f + bins[2] * 3.0f + bins[3] * 4.0f
               + acc.lo * 10.0f + acc.hi * 20.0f;
    }
  )";
  expectIdentical(src, "histo", std::vector<float>(16, 0.0f), 16,
                  {Slot::fromInt(std::int64_t{13})});
}

TEST(KernelcDifferential, NestedCallsAndBuiltins) {
  const std::string src = R"(
    float sq(float x) { return x * x; }
    float norm(float a, float b) { return sqrt(sq(a) + sq(b)); }
    __kernel void k(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = norm(out[gid], (float)gid);
    }
  )";
  std::vector<float> data(24);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = 1.5f * static_cast<float>(i) - 7.0f;
  expectIdentical(src, "k", data, 24);
}

TEST(KernelcDifferential, IntegerEdgeCases) {
  // 32-bit wrap-around, shifts, signed/unsigned division, post-increments.
  const std::string src = R"(
    int f(int n) {
      int acc = 0;
      uint u = 0xC0000000;
      for (int i = 1; i <= n; i++) {
        acc = acc + 0x7FFFFFFF / i;
        acc = acc ^ (acc << 3);
        acc = acc + (int)(u >> (i % 31));
        acc = acc - acc % (i + 1);
      }
      return acc;
    }
  )";
  std::uint64_t counts[2];
  callBoth(src, "f", {Slot::fromInt(std::int64_t{17})}, counts);
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(KernelcDifferential, LoopInvariantDivisionStaysInItsZeroTripLoop) {
  // `a / b` is loop-invariant, but division can fault, so no tier may move
  // it out of the loop: with n = 0 and b = 0 no tier divides.
  const std::string src = R"(
    int f(int n, int a, int b) {
      int acc = 0;
      for (int i = 0; i < n; ++i) acc = acc + a / b;
      return acc;
    }
  )";
  std::uint64_t counts[2];
  EXPECT_EQ(callBoth(src, "f", {Slot::fromInt(0), Slot::fromInt(7), Slot::fromInt(0)}, counts),
            0);
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(KernelcDifferential, LongArithmetic) {
  const std::string src = R"(
    long f(long n) {
      long acc = 1;
      for (long i = 1; i < n; i = i + 1) {
        acc = acc * 1103515245 + 12345;
        acc = acc ^ (acc >> 17);
      }
      return acc;
    }
  )";
  std::uint64_t counts[2];
  callBoth(src, "f", {Slot::fromInt(std::int64_t{100})}, counts);
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(KernelcDifferential, InstructionCountsMatchExactly) {
  // A branch-heavy function: every fused compare-and-branch, slot increment,
  // and fused load must retire exactly as many instructions as its window.
  const std::string src = R"(
    int collatz(int n) {
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps++;
      }
      return steps;
    }
  )";
  std::uint64_t counts[2];
  const std::int64_t steps = callBoth(src, "collatz", {Slot::fromInt(std::int64_t{27})}, counts);
  EXPECT_EQ(steps, 111);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0], 0u);
}

TEST(KernelcDifferential, FunctionIndexLookup) {
  // compileProgram builds a name -> index map; lookups must agree with the
  // declaration order and respect the kernel / function distinction.
  const auto program = compileProgram(R"(
    float helper(float x) { return x + 1.0f; }
    __kernel void first(__global float* p) { p[0] = helper(p[0]); }
    __kernel void second(__global float* p) { p[1] = helper(p[1]); }
  )");
  EXPECT_EQ(program->functionIndex.size(), 3u);
  EXPECT_EQ(program->findFunction("helper"), 0);
  EXPECT_EQ(program->findKernel("first"), 1);
  EXPECT_EQ(program->findKernel("second"), 2);
  EXPECT_EQ(program->findKernel("helper"), -1);  // not a kernel
  EXPECT_EQ(program->findFunction("absent"), -1);
  EXPECT_EQ(program->findKernel("absent"), -1);
}

TEST(KernelcDifferential, DuplicateFunctionNamesRejected) {
  // The map assumes unique names; sema must keep rejecting redefinitions for
  // kernels and plain functions alike.
  EXPECT_THROW(compileProgram("int f() { return 1; } int f() { return 2; }"),
               CompileError);
  EXPECT_THROW(compileProgram("__kernel void k(__global float* p) {}\n"
                              "__kernel void k(__global int* q) {}"),
               CompileError);
}

}  // namespace
