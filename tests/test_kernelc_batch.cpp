// Tests for the work-group-batched interpreter (Vm::runKernelBatch,
// docs/VM.md): for every kernel shape — straight-line, uniformly looping,
// heavily divergent (on both sides of the lane-list threshold),
// builtin-calling, scattering with atomics — batched execution must produce
// bit-identical buffer contents and identical retired-instruction counts to
// the same program run one work-item at a time, for any lane count up to
// kBatchLanes.  Non-batchable kernels (frame memory, calls, barriers, used
// or aliased atomics) must fall back to per-item execution transparently,
// and faults must still surface as VmError.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "kernelc/program.hpp"
#include "kernelc/vm.hpp"

using namespace skelcl::kc;

namespace {

struct RunOutcome {
  std::vector<float> data;
  std::uint64_t instructions = 0;
};

/// Run `kernel` over `n` items on a fresh VM; buffer argument first, then
/// `extraArgs`.  `batch` selects runKernelBatch in kBatchLanes chunks.
RunOutcome run(const CompiledProgram& program, const std::string& kernel,
               std::vector<float> data, std::int64_t n, std::vector<Slot> extraArgs,
               bool batch) {
  RunOutcome out;
  out.data = std::move(data);
  std::vector<MemRegion> regions{MemRegion{
      reinterpret_cast<std::byte*>(out.data.data()), out.data.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  std::vector<Slot> args{Slot::fromPtr(p)};
  args.insert(args.end(), extraArgs.begin(), extraArgs.end());

  Vm vm(program, regions);
  const int k = program.findKernel(kernel);
  EXPECT_GE(k, 0);
  if (batch) {
    for (std::int64_t gid = 0; gid < n;) {
      const std::int64_t lanes = std::min<std::int64_t>(n - gid, Vm::kBatchLanes);
      vm.runKernelBatch(k, args, gid, lanes, n);
      gid += lanes;
    }
  } else {
    for (std::int64_t gid = 0; gid < n; ++gid) vm.runKernel(k, args, gid, n);
  }
  out.instructions = vm.instructionsExecuted();
  return out;
}

/// Compile at tier 2 and require the batched run to match the sequential run
/// bit-for-bit, with equal retired-instruction counts.
void expectBatchMatchesSequential(const std::string& source, const std::string& kernel,
                                  std::vector<float> data, std::int64_t n,
                                  std::vector<Slot> extraArgs = {}) {
  const auto program = compileProgram(source, CompileOptions{2});
  const RunOutcome seq = run(*program, kernel, data, n, extraArgs, /*batch=*/false);
  const RunOutcome bat = run(*program, kernel, std::move(data), n, extraArgs,
                             /*batch=*/true);
  EXPECT_EQ(bat.instructions, seq.instructions)
      << "retired-instruction counts diverged — simulated kernel time would change";
  ASSERT_EQ(bat.data.size(), seq.data.size());
  EXPECT_EQ(0, std::memcmp(bat.data.data(), seq.data.data(),
                           seq.data.size() * sizeof(float)))
      << "batched buffer contents diverged from sequential execution";
}

constexpr const char* kEscapeSrc = R"(
  __kernel void escape(__global float* out, int n) {
    int gid = get_global_id(0);
    float zr = 0.0f;
    float c = (float)(gid % 13) * 0.33f - 2.0f;
    int it = 0;
    while (it < n) {
      zr = zr * zr + c;
      if (zr > 4.0f) break;
      ++it;
    }
    out[gid] = (float)it + zr * 0.001f;
  }
)";

TEST(KernelcBatch, DivergentEscapeLoop) {
  // Neighboring lanes escape after different iteration counts, exercising
  // group splits on both the break and the back-edge.
  expectBatchMatchesSequential(kEscapeSrc, "escape", std::vector<float>(300, 0.0f), 300,
                               {Slot::fromInt(64)});
}

TEST(KernelcBatch, CollatzHeavyDivergence) {
  // Trip counts vary wildly per lane (collatz lengths), so groups fragment
  // down to single lanes and must still retire exact per-item counts.
  const std::string src = R"(
    __kernel void collatz(__global float* out) {
      int gid = get_global_id(0);
      int n = gid + 1;
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) n = n / 2; else n = 3 * n + 1;
        steps++;
      }
      out[gid] = (float)steps;
    }
  )";
  expectBatchMatchesSequential(src, "collatz", std::vector<float>(256, 0.0f), 256);
}

TEST(KernelcBatch, EdgeLaneCounts) {
  // 1 lane, a few lanes, one short of a full group, a full group, and a
  // count that needs a full group plus a remainder chunk.
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{255},
                               std::int64_t{256}, std::int64_t{300}}) {
    SCOPED_TRACE(n);
    expectBatchMatchesSequential(kEscapeSrc, "escape",
                                 std::vector<float>(static_cast<std::size_t>(n), 0.0f),
                                 n, {Slot::fromInt(32)});
  }
}

TEST(KernelcBatch, GatherLoopWithBuiltins) {
  // Uniform inner loop gathering from the upper half of the buffer (disjoint
  // from the written lower half — no cross-item races) plus sqrt/fmax
  // builtin calls: the group never splits, staying on the dense all-lanes
  // path end to end.
  const std::string src = R"(
    __kernel void gather(__global float* data, int n) {
      int gid = get_global_id(0);
      float acc = 0.0f;
      for (int i = 0; i < 8; ++i) {
        acc = acc + data[n + (gid + i) % n];
      }
      data[gid] = sqrt(fmax(acc, 0.25f)) + (float)get_global_id(0) * 0.125f;
    }
  )";
  std::vector<float> data(384);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.5f * static_cast<float>(i % 37) - 4.0f;
  }
  expectBatchMatchesSequential(src, "gather", data, 192, {Slot::fromInt(192)});
}

TEST(KernelcBatch, SecondDimensionGlobalIdIsZero) {
  const std::string src = R"(
    __kernel void dims(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = (float)gid + (float)get_global_id(1) * 1000.0f;
    }
  )";
  const auto program = compileProgram(src, CompileOptions{2});
  const RunOutcome bat =
      run(*program, "dims", std::vector<float>(64, -1.0f), 64, {}, true);
  for (std::size_t i = 0; i < bat.data.size(); ++i) {
    EXPECT_EQ(bat.data[i], static_cast<float>(i));
  }
}

TEST(KernelcBatch, NonBatchableKernelFallsBack) {
  // Frame memory (a local array) disqualifies a kernel from batched
  // execution; runKernelBatch must transparently run it per item instead.
  const std::string src = R"(
    __kernel void histo(__global float* out, int n) {
      int gid = get_global_id(0);
      float bins[4];
      for (int b = 0; b < 4; ++b) bins[b] = 0.0f;
      for (int i = 0; i < n; ++i) {
        int b = (gid + i) % 4;
        bins[b] = bins[b] + (float)i;
      }
      out[gid] = bins[0] + bins[1] * 2.0f + bins[2] * 3.0f + bins[3] * 4.0f;
    }
  )";
  const auto program = compileProgram(src, CompileOptions{2});
  const int k = program->findKernel("histo");
  ASSERT_GE(k, 0);
  EXPECT_FALSE(program->functions[static_cast<std::size_t>(k)].batchable);
  expectBatchMatchesSequential(src, "histo", std::vector<float>(40, 0.0f), 40,
                               {Slot::fromInt(9)});
}

TEST(KernelcBatch, BatchableFlagComputedForStraightLineKernels) {
  const auto program = compileProgram(kEscapeSrc, CompileOptions{2});
  const int k = program->findKernel("escape");
  ASSERT_GE(k, 0);
  EXPECT_TRUE(program->functions[static_cast<std::size_t>(k)].batchable);
}

TEST(KernelcBatch, OutOfBoundsFaultsAsVmError) {
  // Lane 63 reads out[2 * gid] past the 64-element buffer; the batched
  // bounds check must fault exactly like the sequential interpreters do.
  const std::string src = R"(
    __kernel void oob(__global float* out) {
      int gid = get_global_id(0);
      out[gid] = out[2 * gid];
    }
  )";
  const auto program = compileProgram(src, CompileOptions{2});
  ASSERT_TRUE(
      program->functions[static_cast<std::size_t>(program->findKernel("oob"))].batchable);
  std::vector<float> buf(64, 1.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  const std::vector<Slot> args{Slot::fromPtr(p)};
  Vm vm(*program, regions);
  EXPECT_THROW(vm.runKernelBatch(0, args, 0, 64, 64), VmError);
}

TEST(KernelcBatch, DivisionByZeroFaultsAsVmError) {
  const std::string src = R"(
    __kernel void divz(__global float* out, int d) {
      int gid = get_global_id(0);
      out[gid] = (float)(100 / (gid - d));
    }
  )";
  const auto program = compileProgram(src, CompileOptions{2});
  std::vector<float> buf(16, 0.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(5)};
  Vm vm(*program, regions);
  EXPECT_THROW(vm.runKernelBatch(0, args, 0, 16, 16), VmError);
}

TEST(KernelcBatch, CountsAccumulateAcrossChunks) {
  // Two half-full chunks on one VM retire exactly what one sequential pass
  // does: the counter is shared and exact, not per-call approximate.
  const auto program = compileProgram(kEscapeSrc, CompileOptions{2});
  const RunOutcome seq =
      run(*program, "escape", std::vector<float>(128, 0.0f), 128, {Slot::fromInt(48)},
          false);
  std::vector<float> buf(128, 0.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  p.offset = 0;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(48)};
  Vm vm(*program, regions);
  const int k = program->findKernel("escape");
  vm.runKernelBatch(k, args, 0, 64, 128);
  vm.runKernelBatch(k, args, 64, 64, 128);
  EXPECT_EQ(vm.instructionsExecuted(), seq.instructions);
  EXPECT_EQ(0, std::memcmp(buf.data(), seq.data.data(), buf.size() * sizeof(float)));
}

// --- reconvergence, against tier 1 -------------------------------------------

/// Tier 1 per item against tier 2 batched, which also checks that the
/// rewrite pass, inlining and reconvergence keep counts and bits.
void expectBatchMatchesTierOne(const std::string& source, const std::string& kernel,
                               std::int64_t n, std::vector<Slot> extraArgs = {}) {
  const auto tier1 = compileProgram(source, CompileOptions{1});
  const auto tier2 = compileProgram(source, CompileOptions{2});
  const std::vector<float> data(static_cast<std::size_t>(n), 0.0f);
  const RunOutcome seq = run(*tier1, kernel, data, n, extraArgs, /*batch=*/false);
  const RunOutcome bat = run(*tier2, kernel, data, n, extraArgs, /*batch=*/true);
  EXPECT_EQ(bat.instructions, seq.instructions);
  EXPECT_EQ(0, std::memcmp(bat.data.data(), seq.data.data(), seq.data.size() * sizeof(float)));
}

/// Columns the batched interpreter keeps per lane for `kernel` at tier 2.
int columns(const std::string& source, const std::string& kernel) {
  const auto program = compileProgram(source, CompileOptions{2});
  const auto& fn = program->functions[static_cast<std::size_t>(program->findKernel(kernel))];
  EXPECT_TRUE(fn.batchable);
  return fn.numSlots + fn.maxStack;
}

/// A collatz walk whose every step branches per lane, with `accumulators`
/// locals updated under bit tests of the current value: the loop body
/// diverges several ways each iteration and only reconvergence keeps lanes
/// together.  Enough accumulators push the kernel past the lane-list
/// threshold.
std::string divergentWalk(int accumulators) {
  std::string src = "__kernel void walk(__global float* out, int salt) {\n"
                    "  int gid = get_global_id(0);\n"
                    "  int m = gid + salt;\n"
                    "  int steps = 0;\n";
  for (int a = 0; a < accumulators; ++a) src += "  float a" + std::to_string(a) + " = 0.0f;\n";
  src += "  while (m > 1) {\n"
         "    if (m % 2 == 0) { m = m / 2; } else { m = 3 * m + 1; if (m > 100000) break; }\n";
  for (int a = 0; a < accumulators; ++a) {
    const std::string v = "a" + std::to_string(a);
    src += "    if (((m >> " + std::to_string(a % 7) + ") & 1) == " + std::to_string(a % 2) +
           ") " + v + " = " + v + " * 0.5f + (float)m; else " + v + " = " + v + " + 0.25f;\n";
  }
  src += "    steps++;\n  }\n  float sum = (float)steps;\n";
  for (int a = 0; a < accumulators; ++a) src += "  sum = sum * 0.75f + a" + std::to_string(a) + ";\n";
  src += "  out[gid] = sum;\n}\n";
  return src;
}

TEST(KernelcBatch, HeavyDivergenceBelowLaneListThresholdMatchesTierOne) {
  const std::string src = divergentWalk(2);
  ASSERT_LE(columns(src, "walk"), Vm::kLaneListColumns);
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{37}, std::int64_t{256},
                               std::int64_t{600}}) {
    SCOPED_TRACE(n);
    expectBatchMatchesTierOne(src, "walk", n, {Slot::fromInt(7)});
  }
}

TEST(KernelcBatch, HeavyDivergenceAboveLaneListThresholdMatchesTierOne) {
  const std::string src = divergentWalk(24);
  ASSERT_GT(columns(src, "walk"), Vm::kLaneListColumns);
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{37}, std::int64_t{256},
                               std::int64_t{600}}) {
    SCOPED_TRACE(n);
    expectBatchMatchesTierOne(src, "walk", n, {Slot::fromInt(7)});
  }
}

TEST(KernelcBatch, LaneListFaultNamesTheWorkItem) {
  // Above the threshold, lanes 0..99 divide by (gid - 40) only after
  // diverging and reconverging; work-item 40 must be the one reported.
  std::string src = divergentWalk(24);
  src.replace(src.find("  out[gid] = sum;"), 0, "  sum = sum + (float)(100 / (gid - 40));\n");
  ASSERT_GT(columns(src, "walk"), Vm::kLaneListColumns);
  const auto program = compileProgram(src, CompileOptions{2});
  std::vector<float> buf(100, 0.0f);
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(buf.data()), buf.size() * sizeof(float)}};
  Ptr p;
  p.region = 1;
  const std::vector<Slot> args{Slot::fromPtr(p), Slot::fromInt(7)};
  Vm vm(*program, regions);
  try {
    vm.runKernelBatch(program->findKernel("walk"), args, 0, 100, 100);
    FAIL() << "no fault";
  } catch (const VmError& e) {
    EXPECT_NE(std::string(e.what()).find("work-item 40)"), std::string::npos) << e.what();
  }
}

// --- atomics ----------------------------------------------------------------

/// Buffers of the atomics kernels: float sums, int counters, read-only input.
struct AtomicBuffers {
  std::vector<float> sums = std::vector<float>(5, 0.0f);
  std::vector<std::int32_t> counts = std::vector<std::int32_t>(4, 0);
  std::vector<float> in;
  std::uint64_t instructions = 0;
};

/// Run `kernel(sums, counts, in, n)` over `n` items, per item or batched.
AtomicBuffers runAtomics(const CompiledProgram& program, const std::string& kernel,
                         std::int64_t n, bool batch) {
  AtomicBuffers b;
  for (std::int64_t i = 0; i < n; ++i) b.in.push_back(1.0f / static_cast<float>(i + 3));
  std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(b.sums.data()), b.sums.size() * 4},
      MemRegion{reinterpret_cast<std::byte*>(b.counts.data()), b.counts.size() * 4},
      MemRegion{reinterpret_cast<std::byte*>(b.in.data()), b.in.size() * 4}};
  std::vector<Slot> args;
  for (std::int32_t r = 1; r <= 3; ++r) {
    Ptr p;
    p.region = r;
    args.push_back(Slot::fromPtr(p));
  }
  args.push_back(Slot::fromInt(n));
  Vm vm(program, regions);
  const int k = program.findKernel(kernel);
  for (std::int64_t gid = 0; gid < n;) {
    const std::int64_t lanes = batch ? std::min<std::int64_t>(n - gid, Vm::kBatchLanes) : 1;
    if (batch) {
      vm.runKernelBatch(k, args, gid, lanes, n);
    } else {
      vm.runKernel(k, args, gid, n);
    }
    gid += lanes;
  }
  b.instructions = vm.instructionsExecuted();
  return b;
}

const FunctionCode& kernelCode(const CompiledProgram& program, const std::string& name) {
  return program.functions[static_cast<std::size_t>(program.findKernel(name))];
}

// Float adds that collide on a few addresses under divergence: float
// addition does not associate, so only work-item order reproduces the
// per-item sums bit for bit.  The integer atomics cover the other ops.
constexpr const char* kScatterSrc = R"(
  __kernel void scatter(__global float* sums, __global int* counts, __global float* in,
                        int n) {
    int gid = get_global_id(0);
    float v = in[gid];
    atomic_add_f(sums + gid % 3, v * 1.7f);
    if (gid % 4 != 1) {
      for (int k = 0; k < gid % 5; ++k) atomic_add_f(sums + (gid * 7 + k) % 5, v / (float)(k + 1));
      atomic_inc(counts);
    } else {
      atomic_sub(counts + 1, gid);
    }
    atomic_max(counts + 2, gid * 37 % 101);
    atomic_min(counts + 3, 50 - gid);
    atomic_cmpxchg(counts + 3, 50 - gid, gid);
  }
)";

TEST(KernelcBatch, CollidingAtomicsMatchTierOneBitForBit) {
  const auto tier1 = compileProgram(kScatterSrc, CompileOptions{1});
  const auto tier2 = compileProgram(kScatterSrc, CompileOptions{2});
  const FunctionCode& fn = kernelCode(*tier2, "scatter");
  ASSERT_TRUE(fn.batchable);
  EXPECT_EQ(fn.atomicArgs, (std::vector<int>{0, 1}));
  for (const std::int64_t n : {std::int64_t{1}, std::int64_t{40}, std::int64_t{700}}) {
    SCOPED_TRACE(n);
    const AtomicBuffers seq = runAtomics(*tier1, "scatter", n, /*batch=*/false);
    const AtomicBuffers bat = runAtomics(*tier2, "scatter", n, /*batch=*/true);
    EXPECT_EQ(bat.instructions, seq.instructions);
    EXPECT_EQ(0, std::memcmp(bat.sums.data(), seq.sums.data(), seq.sums.size() * 4));
    EXPECT_EQ(bat.counts, seq.counts);
  }
}

TEST(KernelcBatch, KeptAtomicLogsAppliedInChunkOrderMatchTierOne) {
  // What a launch split across threads does: the second chunk keeps its log
  // and it is applied after the first chunk's.
  const auto tier1 = compileProgram(kScatterSrc, CompileOptions{1});
  const auto tier2 = compileProgram(kScatterSrc, CompileOptions{2});
  const std::int64_t n = 600;
  const AtomicBuffers seq = runAtomics(*tier1, "scatter", n, /*batch=*/false);

  AtomicBuffers b;
  for (std::int64_t i = 0; i < n; ++i) b.in.push_back(1.0f / static_cast<float>(i + 3));
  const std::vector<MemRegion> regions{
      MemRegion{reinterpret_cast<std::byte*>(b.sums.data()), b.sums.size() * 4},
      MemRegion{reinterpret_cast<std::byte*>(b.counts.data()), b.counts.size() * 4},
      MemRegion{reinterpret_cast<std::byte*>(b.in.data()), b.in.size() * 4}};
  std::vector<Slot> args;
  for (std::int32_t r = 1; r <= 3; ++r) {
    Ptr p;
    p.region = r;
    args.push_back(Slot::fromPtr(p));
  }
  args.push_back(Slot::fromInt(n));
  const int k = tier2->findKernel("scatter");
  Vm second(*tier2, regions);
  second.keepAtomicLog(true);
  for (std::int64_t gid = 300; gid < n; gid += 100) second.runKernelBatch(k, args, gid, 100, n);
  EXPECT_EQ(b.sums, std::vector<float>(5, 0.0f)) << "a kept log must not touch memory";
  Vm first(*tier2, regions);
  for (std::int64_t gid = 0; gid < 300; gid += 150) first.runKernelBatch(k, args, gid, 150, n);
  applyDeferredAtomics(second.takeAtomicLog(), regions);
  EXPECT_EQ(0, std::memcmp(b.sums.data(), seq.sums.data(), seq.sums.size() * 4));
  EXPECT_EQ(b.counts, seq.counts);
}

TEST(KernelcBatch, AliasedAtomicTargetFallsBackToPerItem) {
  // The kernel reads the buffer its atomics add to: deferring the adds
  // would change what it reads.
  const std::string src = R"(
    __kernel void feedback(__global float* sums, __global int* counts, __global float* in,
                           int n) {
      int gid = get_global_id(0);
      atomic_add_f(sums + gid % 2, sums[4] + in[gid]);
      atomic_add_f(sums + 4, 0.5f);
    }
  )";
  const auto tier1 = compileProgram(src, CompileOptions{1});
  const auto tier2 = compileProgram(src, CompileOptions{2});
  const FunctionCode& fn = kernelCode(*tier2, "feedback");
  EXPECT_FALSE(fn.batchable);
  EXPECT_EQ(fn.batchFallback, BatchFallback::AtomicTargetAliased);
  EXPECT_TRUE(fn.atomicArgs.empty());
  const AtomicBuffers seq = runAtomics(*tier1, "feedback", 300, /*batch=*/false);
  const AtomicBuffers bat = runAtomics(*tier2, "feedback", 300, /*batch=*/true);
  EXPECT_EQ(bat.instructions, seq.instructions);
  EXPECT_EQ(0, std::memcmp(bat.sums.data(), seq.sums.data(), seq.sums.size() * 4));
}

TEST(KernelcBatch, UsedAtomicResultFallsBackToPerItem) {
  const std::string src = R"(
    __kernel void ticket(__global float* sums, __global int* counts, __global float* in,
                         int n) {
      int gid = get_global_id(0);
      int t = atomic_inc(counts);
      sums[gid % 5] = (float)t;
    }
  )";
  const auto tier1 = compileProgram(src, CompileOptions{1});
  const auto tier2 = compileProgram(src, CompileOptions{2});
  const FunctionCode& fn = kernelCode(*tier2, "ticket");
  EXPECT_FALSE(fn.batchable);
  EXPECT_EQ(fn.batchFallback, BatchFallback::AtomicResultUsed);
  const AtomicBuffers seq = runAtomics(*tier1, "ticket", 300, /*batch=*/false);
  const AtomicBuffers bat = runAtomics(*tier2, "ticket", 300, /*batch=*/true);
  EXPECT_EQ(bat.instructions, seq.instructions);
  EXPECT_EQ(bat.sums, seq.sums);
  EXPECT_EQ(bat.counts, seq.counts);
}

}  // namespace
