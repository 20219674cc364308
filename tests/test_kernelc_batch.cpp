// Tests for the work-group-batched interpreter (Vm::runKernelBatch,
// docs/VM.md): for every kernel shape — straight-line, uniformly looping,
// heavily divergent (on both sides of the lane-list threshold),
// builtin-calling, scattering with atomics — batched execution must produce
// bit-identical buffer contents and identical retired-instruction counts to
// the same program run one work-item at a time, for any lane count up to
// kBatchLanes.  Non-batchable kernels (frame memory, calls, barriers, used
// or aliased atomics) must fall back to per-item execution transparently,
// and faults must still surface as VmError.  The lane loops' typed paths
// (every fused comparison, the group memory check and its per-lane
// fallback, the column builtins) are driven with adversarial per-lane
// operands in dense and lane-list groups, as are the encoder's slot
// liveness (which slots a batch fills at entry and a split moves), the
// double-precision 32-bit division, the lane-list merges, the per-item
// instruction budget and short-circuit threading.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "kernelc/builtins.hpp"
#include "kernelc/diagnostics.hpp"
#include "kernelc/encode.hpp"
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
    std::string v = "a";  // not `"a" + ...`: GCC 12 -Wrestrict misfires on that at -O3
    v += std::to_string(a);
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

TEST(KernelcBatch, LoweredPointerWriteIntoAtomicTargetFallsBack) {
  // q first copies the `in` parameter, then a lowered slot write
  // (reg.store ptradd) points it into `sums`, which the atomics target.  The
  // deferral proof must see q's new origin: the load through it reads what
  // earlier work-items added, so deferring their adds would change it.
  const std::string src = R"(
    __kernel void carry(__global float* sums, __global int* counts, __global float* in,
                        int n) {
      int gid = get_global_id(0);
      __global float* q = in;
      float v = q[gid];
      q = sums + gid % 3;
      atomic_add_f(sums + (gid + 1) % 3, v + *q);
    }
  )";
  const auto tier1 = compileProgram(src, CompileOptions{1});
  const auto tier2 = compileProgram(src, CompileOptions{2});
  const FunctionCode& fn = kernelCode(*tier2, "carry");
  const bool lowered = std::any_of(fn.packed.begin(), fn.packed.end(), [](const PackedInsn& i) {
    return i.op == Op::RegStore && regOp(i.c) == Op::PtrAdd;
  });
  EXPECT_TRUE(lowered) << "q's second value is no longer a lowered slot write";
  EXPECT_FALSE(fn.batchable);
  EXPECT_EQ(fn.batchFallback, BatchFallback::AtomicTargetAliased);
  const AtomicBuffers seq = runAtomics(*tier1, "carry", 300, /*batch=*/false);
  const AtomicBuffers bat = runAtomics(*tier2, "carry", 300, /*batch=*/true);
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

// --- lane loops: fused comparisons, group memory check, column builtins ------

/// Buffers of one launch as bytes; buffer i is bound as region i + 1.
using Buffers = std::vector<std::vector<std::byte>>;

template <typename T>
std::vector<std::byte> bytesOf(const std::vector<T>& v) {
  std::vector<std::byte> b(v.size() * sizeof(T));
  std::memcpy(b.data(), v.data(), b.size());
  return b;
}

template <typename T>
std::vector<T> valuesOf(const std::vector<std::byte>& b) {
  std::vector<T> v(b.size() / sizeof(T));
  std::memcpy(v.data(), b.data(), v.size() * sizeof(T));
  return v;
}

struct Launch {
  Buffers buffers;
  std::uint64_t instructions = 0;
  std::string fault;  ///< the VmError message, empty when none
  std::uint64_t splits = 0;        ///< Vm::batchSplits
  std::uint64_t merges = 0;        ///< Vm::batchMerges
  std::uint64_t columnsMoved = 0;  ///< Vm::batchColumnsMoved
  std::vector<std::uint64_t> perItem;  ///< per item: each item's retired count
};

/// Run `kernel` over `n` items with every buffer bound in order, then
/// `scalars`: per item, or batched in kBatchLanes chunks, on a Vm with the
/// per-item instruction `budget`.  A fault ends the run and is recorded.
Launch launch(const CompiledProgram& program, const std::string& kernel, Buffers buffers,
              const std::vector<Slot>& scalars, std::int64_t n, bool batch,
              std::uint64_t budget = Vm::kMaxInstructionsPerItem) {
  Launch out;
  out.buffers = std::move(buffers);
  std::vector<MemRegion> regions;
  std::vector<Slot> args;
  for (std::vector<std::byte>& b : out.buffers) {
    regions.push_back(MemRegion{b.data(), b.size()});
    Ptr p;
    p.region = static_cast<std::int32_t>(regions.size());
    args.push_back(Slot::fromPtr(p));
  }
  args.insert(args.end(), scalars.begin(), scalars.end());
  Vm vm(program, regions, budget);
  const int k = program.findKernel(kernel);
  EXPECT_GE(k, 0);
  try {
    for (std::int64_t gid = 0; gid < n;) {
      const std::int64_t lanes = batch ? std::min<std::int64_t>(n - gid, Vm::kBatchLanes) : 1;
      const std::uint64_t before = vm.instructionsExecuted();
      if (batch) {
        vm.runKernelBatch(k, args, gid, lanes, n);
      } else {
        vm.runKernel(k, args, gid, n);
        out.perItem.push_back(vm.instructionsExecuted() - before);
      }
      gid += lanes;
    }
  } catch (const VmError& e) {
    out.fault = e.what();
  }
  out.instructions = vm.instructionsExecuted();
  out.splits = vm.batchSplits();
  out.merges = vm.batchMerges();
  out.columnsMoved = vm.batchColumnsMoved();
  return out;
}

/// Batched against per-item execution of one tier-2 program: the same
/// fault message, or bit-identical buffers and equal retired counts.
Launch expectLaunchMatchesPerItem(const std::string& source, const std::string& kernel,
                                  const Buffers& buffers, const std::vector<Slot>& scalars,
                                  std::int64_t n) {
  const auto program = compileProgram(source, CompileOptions{2});
  EXPECT_TRUE(kernelCode(*program, kernel).batchable) << source;
  const Launch seq = launch(*program, kernel, buffers, scalars, n, /*batch=*/false);
  Launch bat = launch(*program, kernel, buffers, scalars, n, /*batch=*/true);
  EXPECT_EQ(bat.fault, seq.fault) << source;
  if (seq.fault.empty()) {
    EXPECT_EQ(bat.instructions, seq.instructions) << source;
    EXPECT_TRUE(bat.buffers == seq.buffers) << "batched buffers diverged\n" << source;
  }
  return bat;
}

/// `pad` unused float locals: enough of them put a kernel above
/// kLaneListColumns without changing what it computes.
std::string padLocals(int pad) {
  std::string s;
  for (int p = 0; p < pad; ++p) s += "  float pad" + std::to_string(p) + " = 0.0f;\n";
  return s;
}
constexpr int kLaneListPad = 28;

/// Eight per-lane operand values; item gid reads value gid % 8 as its first
/// operand and (gid / 8) % 8 as its second, so 64 items see every pair.
template <typename T>
Buffers operandPairs(const std::vector<T>& values, std::int64_t n) {
  std::vector<T> a;
  std::vector<T> b;
  for (std::int64_t gid = 0; gid < n; ++gid) {
    a.push_back(values[static_cast<std::size_t>(gid % 8)]);
    b.push_back(values[static_cast<std::size_t>(gid / 8 % 8)]);
  }
  return {bytesOf(a), bytesOf(b)};
}

/// The fused comparisons in `program`'s kernel `name`: (opcode, comparison).
std::set<std::pair<Op, Op>> fusedComparisons(const CompiledProgram& program,
                                             const std::string& name) {
  std::set<std::pair<Op, Op>> seen;
  for (const PackedInsn& insn : kernelCode(program, name).packed) {
    if (insn.op == Op::CmpJz || insn.op == Op::CmpJnz) {
      seen.insert({insn.op, static_cast<Op>(insn.c)});
    }
  }
  return seen;
}

/// The register-form compare-branches in `program`'s kernel `name`:
/// (opcode, comparison).
std::set<std::pair<Op, Op>> registerBranches(const CompiledProgram& program,
                                             const std::string& name) {
  std::set<std::pair<Op, Op>> seen;
  for (const PackedInsn& insn : kernelCode(program, name).packed) {
    if (insn.op == Op::RegJz || insn.op == Op::RegJnz) seen.insert({insn.op, regOp(insn.c)});
  }
  return seen;
}

/// `x OP y` as both fused forms: an `if` (cmp.jz) and the left operand of
/// `||` (cmp.jnz), once on the whole batch and once after a divergent
/// split, so lane-list kernels also run them on a partial lane list.  Each
/// runs on the locals x and y, which tier 2 lowers to reg.jz / reg.jnz, and
/// on two computed values, which stay cmp.jz / cmp.jnz.
std::string compareKernel(const std::string& type, const std::string& op, int pad) {
  std::string src = "__kernel void cmp(__global " + (type == "ptr" ? "int" : type) +
                    "* a, __global " + (type == "ptr" ? "int" : type) +
                    "* b, __global int* out) {\n"
                    "  int gid = get_global_id(0);\n" +
                    padLocals(pad);
  if (type == "ptr") {
    // Bit 0 picks the region, the rest the (possibly wrapped) offset.
    src += "  __global int* x = a + (a[gid] >> 1);\n"
           "  if ((a[gid] & 1) != 0) x = b + (a[gid] >> 1);\n"
           "  __global int* y = a + (b[gid] >> 1);\n"
           "  if ((b[gid] & 1) != 0) y = b + (b[gid] >> 1);\n";
  } else {
    src += "  " + type + " x = a[gid];\n  " + type + " y = b[gid];\n";
  }
  const std::string cmp = "x " + op + " y";
  const std::string computed =
      type == "ptr" ? "(x + 0) " + op + " (y + 0)" : "a[gid] " + op + " b[gid]";
  src += "  int r = 0;\n"
         "  if (" + cmp + ") r = 1; else r = 2;\n"
         "  if (" + cmp + " || gid < 0) r = r + 4;\n"
         "  if (" + computed + ") r = r + 32;\n"
         "  if (" + computed + " || gid < 0) r = r + 64;\n"
         "  if (gid % 3 != 0) {\n"
         "    if (" + cmp + ") r = r + 8;\n"
         "    if (" + cmp + " || gid < 0) r = r + 16;\n"
         "    if (" + computed + ") r = r + 128;\n"
         "    if (" + computed + " || gid < 0) r = r + 256;\n"
         "  }\n"
         "  out[gid] = r;\n}\n";
  return src;
}

TEST(KernelcBatch, EveryFusedComparisonMatchesPerItem) {
  const std::int64_t n = 300;  // a full group and a partial one
  const std::vector<std::int32_t> ints{INT_MIN, INT_MIN + 1, -1, 0, 1, 2, INT_MAX - 1, INT_MAX};
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> floats{std::numeric_limits<float>::quiet_NaN(), -0.0f, 0.0f, -inf,
                                  inf, 1.0f, -1.5f, 1e-45f};
  const std::vector<std::uint64_t> ulongs{0,
                                          1,
                                          0xFFFFFFFFull,
                                          0x100000000ull,
                                          0x7FFFFFFFFFFFFFFFull,
                                          0x8000000000000000ull,
                                          0x8000000000000001ull,
                                          0xFFFFFFFFFFFFFFFFull};
  // Pointer operands: bit 0 the buffer, the rest an offset, -1 wrapping it.
  const std::vector<std::int32_t> ptrs{0, 1, 2, 3, 4, 5, -2, -1};
  const std::vector<std::string> all{"==", "!=", "<", "<=", ">", ">="};
  struct Family {
    std::string type;
    std::vector<std::string> ops;
    Buffers operands;
  };
  const std::vector<Family> families{
      {"int", all, operandPairs(ints, n)},
      {"uint", all, operandPairs(ints, n)},
      {"ulong", all, operandPairs(ulongs, n)},
      {"float", all, operandPairs(floats, n)},
      {"ptr", {"==", "!="}, operandPairs(ptrs, n)},
  };
  std::set<std::pair<Op, Op>> covered;
  std::set<std::pair<Op, Op>> coveredRegister;
  for (const Family& f : families) {
    for (const std::string& op : f.ops) {
      for (const int pad : {0, kLaneListPad}) {
        SCOPED_TRACE(f.type + " " + op + " pad " + std::to_string(pad));
        const std::string src = compareKernel(f.type, op, pad);
        if (pad == 0) {
          ASSERT_LE(columns(src, "cmp"), Vm::kLaneListColumns);
        } else {
          ASSERT_GT(columns(src, "cmp"), Vm::kLaneListColumns);
        }
        const auto program = compileProgram(src, CompileOptions{2});
        const auto seen = fusedComparisons(*program, "cmp");
        covered.insert(seen.begin(), seen.end());
        const auto lowered = registerBranches(*program, "cmp");
        coveredRegister.insert(lowered.begin(), lowered.end());
        Buffers buffers = f.operands;
        buffers.push_back(std::vector<std::byte>(static_cast<std::size_t>(n) * 4));
        expectLaunchMatchesPerItem(src, "cmp", buffers, {}, n);
      }
    }
  }
  // Every comparison the peephole fuses, under both branch senses, and
  // every one tier 2 lowers to a register-form compare-branch.
  for (const Op cmp : {Op::EqI, Op::NeI, Op::LtI, Op::LeI, Op::GtI, Op::GeI, Op::LtU, Op::LeU,
                       Op::GtU, Op::GeU, Op::LtUL, Op::LeUL, Op::GtUL, Op::GeUL, Op::EqF,
                       Op::NeF, Op::LtF, Op::LeF, Op::GtF, Op::GeF, Op::EqP, Op::NeP}) {
    for (const Op branch : {Op::CmpJz, Op::CmpJnz}) {
      EXPECT_TRUE(covered.count({branch, cmp}))
          << "no kernel fused comparison " << static_cast<int>(cmp) << " into "
          << static_cast<int>(branch);
    }
    for (const Op branch : {Op::RegJz, Op::RegJnz}) {
      EXPECT_TRUE(coveredRegister.count({branch, cmp}))
          << "no kernel lowered comparison " << opName(cmp) << " into " << opName(branch);
    }
  }
}

/// What a builtin sees of the work-item it runs for.
class ItemCtx final : public BuiltinCtx {
 public:
  std::int64_t gid = 0;
  std::int64_t size = 1;
  std::int64_t globalId() const override { return gid; }
  std::int64_t globalSize() const override { return size; }
  void* resolve(Ptr, std::uint32_t) override { throw VmError("no memory"); }
};

TEST(KernelcBatch, ColumnBuiltinsMatchTheirTableFunctions) {
  // Item gid reads operand k from value (gid / V^k) % V, V = 16 float or 8
  // int values, so 600 items see every pair of floats and 512 triples of
  // ints: NaNs quiet, signaling and with payloads of either sign, zeros of
  // either sign in both orders, infinities, denormals, and equal operands.
  // Float operands arrive as int bits through as_float.
  const std::int64_t n = 600;
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> floats{std::numeric_limits<float>::quiet_NaN(),
                                  std::bit_cast<float>(0x7F800001u),  // signaling
                                  std::bit_cast<float>(0x7FC12345u),  // payload
                                  std::bit_cast<float>(0xFFA00005u),  // negative, signaling
                                  -0.0f, 0.0f, -inf, inf, 1.5f, -2.5f, 0.3f, -1.5f,
                                  std::numeric_limits<float>::denorm_min(),
                                  std::bit_cast<float>(0x807FFFFFu),  // largest negative denormal
                                  std::bit_cast<float>(0x007FFFFFu),
                                  std::numeric_limits<float>::min()};
  const std::vector<std::int32_t> ints{INT_MIN, -7, -1, 0, 1, 2, 7, INT_MAX};
  const std::vector<std::int32_t> dims{0, 1, 2, 0, 0, 1, 0, 3};
  const auto& table = builtinTable();
  std::set<BuiltinColumn> covered;
  for (std::size_t id = 0; id < table.size(); ++id) {
    const BuiltinDef& def = table[id];
    if (def.column == BuiltinColumn::None) continue;
    covered.insert(def.column);
    const bool isFloat = def.ret == BType::Float;
    const std::string type = isFloat ? "float" : "int";
    const std::int64_t values = isFloat ? 16 : 8;
    std::string params;
    std::string call = std::string(def.name) + "(";
    Buffers buffers;
    for (std::size_t k = 0; k < def.params.size(); ++k) {
      ASSERT_EQ(def.params[k], def.ret) << def.name;
      params += "__global int* a" + std::to_string(k) + ", ";
      const std::string arg = "a" + std::to_string(k) + "[gid]";
      call += (k ? ", " : "") + (isFloat ? "as_float(" + arg + ")" : arg);
      std::int64_t stride = 1;
      for (std::size_t j = 0; j < k; ++j) stride *= values;
      std::vector<std::int32_t> words;
      for (std::int64_t gid = 0; gid < n; ++gid) {
        const auto v = static_cast<std::size_t>(gid / stride % values);
        words.push_back(isFloat ? std::bit_cast<std::int32_t>(floats[v])
                                : def.column == BuiltinColumn::GlobalId ? dims[v] : ints[v]);
      }
      buffers.push_back(bytesOf(words));
    }
    call += ")";
    buffers.push_back(std::vector<std::byte>(static_cast<std::size_t>(n) * 4));
    for (const int pad : {0, kLaneListPad}) {
      SCOPED_TRACE(call + " pad " + std::to_string(pad));
      // Once on the whole batch, once on each side of a divergent split.
      const std::string src = "__kernel void col(" + params + "__global " + type +
                              "* out) {\n  int gid = get_global_id(0);\n" + padLocals(pad) +
                              "  " + type + " w = " + call + ";\n  if (gid % 3 != 0) out[gid] = " +
                              call + "; else out[gid] = w;\n}\n";
      const auto program = compileProgram(src, CompileOptions{2});
      bool calls = false;
      for (const PackedInsn& insn : kernelCode(*program, "col").packed) {
        calls = calls || (insn.op == Op::CallBuiltin && insn.a == static_cast<std::int32_t>(id));
      }
      ASSERT_TRUE(calls) << src;
      const Launch bat = expectLaunchMatchesPerItem(src, "col", buffers, {}, n);
      ASSERT_TRUE(bat.fault.empty()) << bat.fault;
      const auto got = valuesOf<std::int32_t>(bat.buffers.back());
      ItemCtx ctx;
      ctx.size = n;
      for (std::int64_t gid = 0; gid < n; ++gid) {
        ctx.gid = gid;
        Slot args[3];
        for (std::size_t k = 0; k < def.params.size(); ++k) {
          const std::int32_t w = valuesOf<std::int32_t>(buffers[k])[static_cast<std::size_t>(gid)];
          args[k] = isFloat ? Slot::fromFloat(std::bit_cast<float>(w)) : Slot::fromInt(w);
        }
        const Slot r = def.fn(ctx, args);
        const std::int32_t want = isFloat
                                      ? std::bit_cast<std::int32_t>(static_cast<float>(r.f))
                                      : static_cast<std::int32_t>(r.i);
        ASSERT_EQ(got[static_cast<std::size_t>(gid)], want) << "work-item " << gid;
      }
    }
  }
  EXPECT_EQ(covered.size(), 9u) << "every column kind has a table entry";
}

// The group memory check: a group whose lanes address two buffers, or one
// lane out of bounds, takes the per-lane loop, which keeps per-item results
// and names the faulting work-item.

TEST(KernelcBatch, GroupAddressingTwoBuffersMatchesPerItem) {
  // Groups merge after the branch only above the lane-list threshold; the
  // `gid % 5` split then runs the accesses on a partial lane list too.
  for (const int pad : {0, kLaneListPad}) {
    SCOPED_TRACE(pad);
    const std::string src =
        "__kernel void two(__global float* inA, __global float* inB, __global float* outA,\n"
        "                  __global float* outB, __global int* cA, __global int* cB) {\n"
        "  int gid = get_global_id(0);\n" + padLocals(pad) +
        "  __global float* src = inA;\n  __global float* dst = outA;\n"
        "  __global int* c = cA;\n"
        "  if ((gid & 1) != 0) { src = inB; dst = outB; c = cB; }\n"
        "  dst[gid] = src[gid] * 2.0f + *(src + gid + 1);\n"
        "  c[gid]++;\n"
        "  if (gid % 5 != 0) { dst[gid + 300] = src[gid + 2]; c[gid + 300]++; }\n"
        "}\n";
    std::vector<float> inA(302);
    std::vector<float> inB(302);
    for (std::size_t i = 0; i < inA.size(); ++i) {
      inA[i] = static_cast<float>(i) * 0.5f;
      inB[i] = -static_cast<float>(i) * 0.25f;
    }
    const std::vector<float> out(600, 0.0f);
    const std::vector<std::int32_t> counts(600, 3);
    for (const std::int64_t n : {std::int64_t{37}, std::int64_t{300}}) {
      expectLaunchMatchesPerItem(
          src, "two",
          {bytesOf(inA), bytesOf(inB), bytesOf(out), bytesOf(out), bytesOf(counts),
           bytesOf(counts)},
          {}, n);
    }
  }
}

TEST(KernelcBatch, OutOfBoundsLaneNamedInDenseAndLaneListGroups) {
  // Work-item `bad` alone reads past the buffer, or at a negative index
  // that wraps the 32-bit offset; the fault must name it, with the per-item
  // message.  The lane-list kernel reads after a split, on a partial list.
  for (const int pad : {0, kLaneListPad}) {
    for (const std::int64_t index : {std::int64_t{1000}, std::int64_t{-1}}) {
      SCOPED_TRACE("pad " + std::to_string(pad) + " index " + std::to_string(index));
      const std::string access = "in[gid == bad ? " + std::to_string(index) + " : gid]";
      const std::string src =
          "__kernel void oob(__global float* in, __global float* out, int bad) {\n"
          "  int gid = get_global_id(0);\n" + padLocals(pad) +
          (pad ? "  if (gid % 3 != 0) out[gid] = " + access + "; else out[gid] = 1.0f;\n"
               : "  out[gid] = " + access + ";\n") +
          "}\n";
      const std::vector<float> in(300, 2.0f);
      const Launch bat = expectLaunchMatchesPerItem(
          src, "oob", {bytesOf(in), bytesOf(in)}, {Slot::fromInt(101)}, 300);
      EXPECT_NE(bat.fault.find("(work-item 101)"), std::string::npos) << bat.fault;
      EXPECT_NE(bat.fault.find(index < 0 ? "offset 4294967292 + 4" : "offset 4000 + 4"),
                std::string::npos)
          << bat.fault;
    }
  }
}

TEST(KernelcBatch, NegativeOffsetsWrapBackIntoBounds) {
  // `in - 4` wraps the 32-bit offset below zero; indexing 4 further wraps
  // it back, as per-item pointer arithmetic does.
  const std::string src = R"(
    __kernel void wrap(__global float* in, __global float* out) {
      int gid = get_global_id(0);
      __global float* before = in - 4;
      out[gid] = before[gid + 4] + *(before + 4 + (gid + 1) % 300);
    }
  )";
  std::vector<float> in(300);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i);
  const Launch bat =
      expectLaunchMatchesPerItem(src, "wrap", {bytesOf(in), bytesOf(in)}, {}, 300);
  EXPECT_TRUE(bat.fault.empty()) << bat.fault;
}

TEST(KernelcBatch, ReversedStridedAndOffsetAddressesMatchPerItem) {
  // Loads, stores (post-increment) and tee-stores at reversed (stride -1),
  // strided (2 and 3), unit-stride and offset-start unit-stride addresses;
  // every output element has one writer.
  const std::string src = R"(
    __kernel void addr(__global float* in, __global float* out, __global int* cnt, int n) {
      int gid = get_global_id(0);
      float rev = in[n - 1 - gid];
      float strided = in[3 * gid];
      float shifted = in[gid + 5];
      float plain = *(in + gid + 2);
      float direct = in[gid];
      out[n - 1 - gid] = rev + plain + direct;
      out[n + 2 * gid] = strided;
      out[3 * n + 5 + gid] = shifted;
      cnt[n - 1 - gid]++;
      cnt[n + 2 * gid]++;
      cnt[3 * n + 5 + gid]++;
    }
  )";
  const auto program = compileProgram(src, CompileOptions{2});
  std::set<Op> ops;
  for (const PackedInsn& insn : kernelCode(*program, "addr").packed) ops.insert(insn.op);
  for (const Op op : {Op::LoadF32, Op::LoadElemF32, Op::LoadSlotElemF32, Op::LoadI32,
                      Op::StoreI32, Op::TeeStoreF32}) {
    EXPECT_TRUE(ops.count(op)) << "kernel lost opcode " << static_cast<int>(op);
  }
  for (const std::int64_t n : {std::int64_t{37}, std::int64_t{256}, std::int64_t{300}}) {
    SCOPED_TRACE(n);
    std::vector<float> in(static_cast<std::size_t>(3 * n + 8));
    for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i) * 0.75f;
    const std::vector<float> out(static_cast<std::size_t>(4 * n + 8), -1.0f);
    const std::vector<std::int32_t> cnt(out.size(), 5);
    const Launch bat = expectLaunchMatchesPerItem(
        src, "addr", {bytesOf(in), bytesOf(out), bytesOf(cnt)}, {Slot::fromInt(n)}, n);
    EXPECT_TRUE(bat.fault.empty()) << bat.fault;
  }
}

// --- register form: every shape of every op, at edge values ------------------

/// A register-form instruction's kind as the edge test counts it: the row
/// (RegOp, RegStore, RegJz, RegJnz; CmpJz/CmpJnz for a compare-branch on two
/// stack values), the op, and where x and y come from.
using RegShape = std::tuple<Op, Op, Src, Src>;

/// The register-form shapes in `program`'s kernel `name`.
std::set<RegShape> regShapes(const CompiledProgram& program, const std::string& name) {
  std::set<RegShape> seen;
  for (const PackedInsn& insn : kernelCode(program, name).packed) {
    if (isRegisterForm(insn.op)) {
      seen.insert({insn.op, regOp(insn.c), regX(insn.c), regY(insn.c)});
    } else if (insn.op == Op::CmpJz || insn.op == Op::CmpJnz) {
      seen.insert({insn.op, static_cast<Op>(insn.c), Src::Stack, Src::Stack});
    }
  }
  return seen;
}

/// `x OP y` for x, y of `type` in every register-form shape: into a local
/// (reg.store) and into memory (reg) with each operand a slot, the constant
/// `k` or a loaded value on the stack, and for a comparison in both branch
/// senses.  The shapes run once after a divergent split (gid % 3 != 0) and
/// once on the whole group; `pad` unused locals lift the kernel above
/// kLaneListColumns.  Output j of item gid is out[gid * 32 + j].
std::string edgeKernel(const std::string& type, const std::string& op, const std::string& k,
                       bool compare, int pad) {
  const std::string r = compare ? "int" : type;
  const auto body = [&](int base) {
    std::string b;
    int j = base;
    const auto put = [&](const std::string& value) {
      b += "  out[o + " + std::to_string(j++) + "] = " + value + ";\n";
    };
    const auto local = [&](const std::string& value) {
      b += "  r = " + value + ";\n";
      put("r");
    };
    local("x " + op + " y");
    local("x " + op + " " + k);
    local(k + " " + op + " y");
    local("a[gid] " + op + " y");
    local("a[gid] " + op + " " + k);
    local("a[gid] " + op + " b[gid]");
    put("x " + op + " y");
    put("x " + op + " " + k);
    put(k + " " + op + " y");
    put("a[gid] " + op + " y");
    put("a[gid] " + op + " " + k);
    if (compare) {
      const std::string conds[] = {"x " + op + " y", "x " + op + " " + k, k + " " + op + " y",
                                   "a[gid] " + op + " y", "a[gid] " + op + " " + k,
                                   "a[gid] " + op + " b[gid]"};
      b += "  r = 0;\n";
      int bit = 1;
      for (const std::string& c : conds) {
        b += "  if (" + c + ") r = r | " + std::to_string(bit) + ";\n";
        b += "  if (" + c + " || gid < 0) r = r | " + std::to_string(bit << 6) + ";\n";
        bit <<= 1;
      }
      put("r");
    }
    return b;
  };
  return "__kernel void edge(__global " + type + "* a, __global " + type + "* b, __global " + r +
         "* out) {\n  int gid = get_global_id(0);\n" + padLocals(pad) + "  " + type +
         " x = a[gid];\n  " + type + " y = b[gid];\n  " + r +
         " r;\n  int o = gid * 32;\n  if (gid % 3 != 0) {\n" + body(0) + "  }\n" + body(16) +
         "}\n";
}

/// Tier 1 per item against tier 2 per item and tier 2 batched, buffers
/// bound first, then `scalars`: the same fault, message and work-item; the
/// same retired count (batched: when no item faults, as a faulting group
/// stops mid-way); bit-identical buffers (batched: when nothing faults).
Launch expectTiersMatch(const std::string& source, const std::string& kernel,
                        const Buffers& buffers, std::int64_t n,
                        const std::vector<Slot>& scalars = {},
                        std::uint64_t budget = Vm::kMaxInstructionsPerItem) {
  const auto tier1 = compileProgram(source, CompileOptions{1});
  const auto tier2 = compileProgram(source, CompileOptions{2});
  EXPECT_TRUE(kernelCode(*tier2, kernel).batchable) << source;
  const Launch ref = launch(*tier1, kernel, buffers, scalars, n, /*batch=*/false, budget);
  const Launch seq = launch(*tier2, kernel, buffers, scalars, n, /*batch=*/false, budget);
  const Launch bat = launch(*tier2, kernel, buffers, scalars, n, /*batch=*/true, budget);
  EXPECT_EQ(seq.fault, ref.fault) << source;
  EXPECT_EQ(bat.fault, ref.fault) << source;
  EXPECT_EQ(seq.instructions, ref.instructions) << source;
  EXPECT_TRUE(seq.buffers == ref.buffers) << "tier-2 per-item buffers diverged\n" << source;
  if (ref.fault.empty()) {
    EXPECT_EQ(bat.instructions, ref.instructions) << source;
    EXPECT_TRUE(bat.buffers == ref.buffers) << "batched buffers diverged\n" << source;
  }
  return bat;
}

/// Runs every operator of one operand type through edgeKernel, dense and
/// above the lane-list threshold, and collects the shapes it lowered to.
/// Item gid reads values[gid % 8] and values[gid / 8 % 8].  Divisions run
/// twice: with every zero divisor replaced by `nonzero`, and with item 101
/// alone dividing by zero, which must fault on it.
template <typename T>
void runEdgeFamily(const std::string& type, const std::vector<T>& values, T nonzero,
                   const std::vector<std::string>& ops, const std::string& k,
                   std::set<RegShape>& covered) {
  const std::int64_t n = 300;  // a full group and a partial one
  std::vector<T> a;
  std::vector<T> b;
  for (std::int64_t gid = 0; gid < n; ++gid) {
    a.push_back(values[static_cast<std::size_t>(gid % 8)]);
    b.push_back(values[static_cast<std::size_t>(gid / 8 % 8)]);
  }
  for (const std::string& op : ops) {
    const bool compare = op == "==" || op == "!=" || op == "<" || op == "<=" || op == ">" ||
                         op == ">=";
    const bool divides = std::is_integral_v<T> && (op == "/" || op == "%");
    const std::size_t outBytes = static_cast<std::size_t>(n) * 32 * (compare ? 4 : sizeof(T));
    for (const int pad : {0, kLaneListPad}) {
      SCOPED_TRACE(type + " " + op + " pad " + std::to_string(pad));
      const std::string src = edgeKernel(type, op, k, compare, pad);
      if (pad == 0) {
        ASSERT_LE(columns(src, "edge"), Vm::kLaneListColumns) << src;
      } else {
        ASSERT_GT(columns(src, "edge"), Vm::kLaneListColumns) << src;
      }
      const auto shapes = regShapes(*compileProgram(src, CompileOptions{2}), "edge");
      covered.insert(shapes.begin(), shapes.end());
      std::vector<T> divisors = b;
      if (divides) std::replace(divisors.begin(), divisors.end(), T{0}, nonzero);
      const Launch clean = expectTiersMatch(
          src, "edge", {bytesOf(a), bytesOf(divisors), std::vector<std::byte>(outBytes)}, n);
      EXPECT_EQ(clean.fault, "") << src;
      if (divides) {
        divisors[101] = 0;
        const Launch faulting = expectTiersMatch(
            src, "edge", {bytesOf(a), bytesOf(divisors), std::vector<std::byte>(outBytes)}, n);
        EXPECT_NE(faulting.fault.find("(work-item 101): integer " +
                                      std::string(op == "/" ? "division" : "remainder") +
                                      " by zero"),
                  std::string::npos)
            << faulting.fault;
      }
    }
  }
}

TEST(KernelcBatch, EveryRegisterFormShapeMatchesTierOneAtEdgeValues) {
  constexpr std::int32_t iMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t iMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t lMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t lMax = std::numeric_limits<std::int64_t>::max();
  const float inf = std::numeric_limits<float>::infinity();
  const double dinf = std::numeric_limits<double>::infinity();
  const std::vector<std::string> compares{"==", "!=", "<", "<=", ">", ">="};
  auto with = [&](std::vector<std::string> ops) {
    ops.insert(ops.end(), compares.begin(), compares.end());
    return ops;
  };
  std::set<RegShape> covered;
  // INT_MIN / -1, zero divisors and shift counts of 32 and more, against
  // the constant -1 (a shift count that masks to 31).
  runEdgeFamily<std::int32_t>("int", {iMin, iMin + 1, -1, 0, 1, 31, 32, iMax}, 7,
                              with({"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}), "(-1)",
                              covered);
  runEdgeFamily<std::uint32_t>("uint", {0, 1, 31, 32, 33, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu},
                               7, with({"/", "%", ">>"}), "((uint)33)", covered);
  runEdgeFamily<std::int64_t>("long", {lMin, lMin + 1, -1, 0, 1, 63, 64, lMax}, 7,
                              with({"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"}),
                              "((long)-1)", covered);
  runEdgeFamily<std::uint64_t>("ulong",
                               {0, 1, 63, 64, 0xFFFFFFFFull, 0x100000000ull,
                                0x8000000000000000ull, 0xFFFFFFFFFFFFFFFFull},
                               7, with({"/", "%", ">>"}), "((ulong)65)", covered);
  runEdgeFamily<float>("float",
                       {std::numeric_limits<float>::quiet_NaN(), -0.0f, 0.0f, -inf, inf, 1.0f,
                        -1.5f, 1e-45f},
                       1.0f, with({"+", "-", "*", "/"}), "(-0.0f)", covered);
  runEdgeFamily<double>("double",
                        {std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, -dinf, dinf, 1.0,
                         std::numeric_limits<double>::max(), 5e-324},
                        1.0, with({"+", "-", "*", "/"}), "(1.5)", covered);

  // Every shape of every op the register form carries: reg and reg.jz/jnz
  // take any op (a compare-branch, a comparison); reg.store takes the ops
  // that cannot fault, and also both operands off the stack.  The compiler
  // converts the count of an unsigned or 64-bit shift, so that count is a
  // folded constant or a value on the stack, never a slot.
  const std::set<Op> convertedCount{Op::ShrU, Op::ShlL, Op::ShrL, Op::ShrUL};
  std::set<Op> ops;
  for (int op = 0; op < kOpCount; ++op) {
    if (isBinaryValueOp(static_cast<Op>(op))) ops.insert(static_cast<Op>(op));
  }
  ops.erase(Op::EqP);  // pointers: below
  ops.erase(Op::NeP);
  const std::vector<std::pair<Src, Src>> sources{{Src::Slot, Src::Slot}, {Src::Slot, Src::Const},
                                                 {Src::Const, Src::Slot}, {Src::Stack, Src::Slot},
                                                 {Src::Stack, Src::Const}};
  for (const Op op : ops) {
    const bool compare = opInfo(op).flags & kFusableCompare;
    for (const auto& [x, y] : sources) {
      if (convertedCount.count(op) && y == Src::Slot) continue;
      EXPECT_TRUE(covered.count({Op::RegOp, op, x, y})) << "reg " << opName(op);
      if (opInfo(op).flags & kPure) {
        EXPECT_TRUE(covered.count({Op::RegStore, op, x, y})) << "reg.store " << opName(op);
      }
      if (compare) {
        EXPECT_TRUE(covered.count({Op::RegJz, op, x, y})) << "reg.jz " << opName(op);
        EXPECT_TRUE(covered.count({Op::RegJnz, op, x, y})) << "reg.jnz " << opName(op);
      }
    }
    if (opInfo(op).flags & kPure) {
      EXPECT_TRUE(covered.count({Op::RegStore, op, Src::Stack, Src::Stack}))
          << "reg.store " << opName(op);
    }
    if (compare) {
      EXPECT_TRUE(covered.count({Op::CmpJz, op, Src::Stack, Src::Stack})) << opName(op);
      EXPECT_TRUE(covered.count({Op::CmpJnz, op, Src::Stack, Src::Stack})) << opName(op);
    }
  }
}

TEST(KernelcBatch, RegisterFormPointerOpsMatchTierOne) {
  // Pointer comparisons (with another pointer, or null) and pointer
  // arithmetic in register form: item gid picks x and y by its operands'
  // bit 0 (buffer) and the rest (offset, -1 wrapping it), as in
  // compareKernel, and reads through the sums it builds.
  const std::int64_t n = 300;
  for (const int pad : {0, kLaneListPad}) {
    SCOPED_TRACE(pad);
    const std::string src =
        "__kernel void ptr(__global int* a, __global int* b, __global int* out) {\n"
        "  int gid = get_global_id(0);\n" + padLocals(pad) +
        "  int i = gid & 3;\n"
        "  __global int* x = a + (a[gid] >> 1);\n"
        "  if ((a[gid] & 1) != 0) x = b + (a[gid] >> 1);\n"
        "  __global int* y = a + (b[gid] >> 1);\n"
        "  if ((b[gid] & 1) != 0) y = b + (b[gid] >> 1);\n"
        "  int r = 0;\n"
        "  if (x == y) r = r | 1;\n"
        "  if (x != y || gid < 0) r = r | 2;\n"
        "  if (x == 0) r = r | 4;\n"
        "  if ((a + 1) == y) r = r | 8;\n"
        "  int e = x == y;\n"
        "  out[gid * 4] = r + e * 16 + (x != y) * 32 + ((a + 1) != y) * 64;\n"
        "  __global int* p = a + i;\n"
        "  __global int* q = (a + 1) + i;\n"
        "  __global int* s = a + (gid & 7);\n"
        "  out[gid * 4 + 1] = *p + *q + *s;\n"
        "  int w = gid * 4 + 3;\n"
        "  out[w] = *s - *q;\n"
        "  if (gid % 3 != 0) {\n"
        "    __global int* t = b + (gid & 5);\n"
        "    out[gid * 4 + 2] = (x == y) + *t + t[i];\n"
        "  }\n"
        "}\n";
    const std::vector<std::int32_t> ptrs{0, 1, 2, 3, 4, 5, -2, -1};
    std::vector<std::int32_t> a;
    std::vector<std::int32_t> b;
    for (std::int64_t gid = 0; gid < n; ++gid) {
      a.push_back(ptrs[static_cast<std::size_t>(gid % 8)]);
      b.push_back(ptrs[static_cast<std::size_t>(gid / 8 % 8)]);
    }
    const auto shapes = regShapes(*compileProgram(src, CompileOptions{2}), "ptr");
    for (const RegShape& want :
         {RegShape{Op::RegJz, Op::EqP, Src::Slot, Src::Slot},
          RegShape{Op::RegJnz, Op::NeP, Src::Slot, Src::Slot},
          RegShape{Op::RegJz, Op::EqP, Src::Slot, Src::Const},
          RegShape{Op::RegJz, Op::EqP, Src::Stack, Src::Slot},
          RegShape{Op::RegStore, Op::EqP, Src::Slot, Src::Slot},
          RegShape{Op::RegOp, Op::NeP, Src::Slot, Src::Slot},
          RegShape{Op::RegOp, Op::NeP, Src::Stack, Src::Slot},
          RegShape{Op::RegStore, Op::PtrAdd, Src::Slot, Src::Slot},
          RegShape{Op::RegStore, Op::PtrAdd, Src::Stack, Src::Slot},
          RegShape{Op::RegStore, Op::PtrAdd, Src::Stack, Src::Stack},
          RegShape{Op::RegOp, Op::PtrAdd, Src::Slot, Src::Slot}}) {
      EXPECT_TRUE(shapes.count(want)) << opName(std::get<0>(want)) << " "
                                      << opName(std::get<1>(want)) << "\n" << src;
    }
    const Launch bat = expectTiersMatch(
        src, "ptr", {bytesOf(a), bytesOf(b), std::vector<std::byte>(n * 16)}, n);
    EXPECT_EQ(bat.fault, "");
  }
}

// Float -> integer casts follow OpenCL's convert_<T>_sat rule on every path
// (constant folding, the reference and fast per-item interpreters, the
// batched one): NaN gives 0, values outside the range clamp to its ends, the
// rest truncate toward zero.  A plain C++ cast is undefined for those
// inputs, and what it gives varies with the interpreter path and host CPU.
struct SaturatingCase {
  float value;
  const char* literal;  ///< the same value as a float expression the compiler folds
  std::int32_t i;
  std::uint32_t u;
  std::int64_t l;
  std::uint64_t ul;
};

const std::vector<SaturatingCase>& saturatingCases() {
  constexpr std::int32_t iMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t iMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::uint32_t uMax = std::numeric_limits<std::uint32_t>::max();
  constexpr std::int64_t lMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t lMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::uint64_t ulMax = std::numeric_limits<std::uint64_t>::max();
  constexpr float nan = std::numeric_limits<float>::quiet_NaN();
  constexpr float inf = std::numeric_limits<float>::infinity();
  static const std::vector<SaturatingCase> cases{
      {nan, "0.0f / 0.0f", 0, 0, 0, 0},
      {inf, "1.0f / 0.0f", iMax, uMax, lMax, ulMax},
      {-inf, "-1.0f / 0.0f", iMin, 0, lMin, 0},
      {1e20f, "1e20f", iMax, uMax, lMax, ulMax},
      {-1e20f, "-1e20f", iMin, 0, lMin, 0},
      {3e9f, "3e9f", iMax, 3000000000u, 3000000000, 3000000000u},
      {-3e9f, "-3e9f", iMin, 0, -3000000000, 0},
      {5e9f, "5e9f", iMax, uMax, 5000000000, 5000000000u},
      {0x1p31f, "2147483648.0f", iMax, 2147483648u, 2147483648, 2147483648u},
      {0x1p32f, "4294967296.0f", iMax, uMax, 4294967296, 4294967296u},
      {0x1p63f, "9223372036854775808.0f", iMax, uMax, lMax, 9223372036854775808u},
      {0x1p64f, "18446744073709551616.0f", iMax, uMax, lMax, ulMax},
      {-0.5f, "-0.5f", 0, 0, 0, 0},
      {4.5f, "4.5f", 4, 4, 4, 4},
  };
  return cases;
}

TEST(KernelcBatch, FloatToIntegerCastsSaturateOnEveryPath) {
  const std::vector<SaturatingCase>& cases = saturatingCases();
  const std::int64_t n = 256;
  std::vector<float> in;
  for (std::int64_t gid = 0; gid < n; ++gid) {
    in.push_back(cases[static_cast<std::size_t>(gid) % cases.size()].value);
  }
  const std::string src = R"(
    __kernel void cvt(__global float* in, __global int* i, __global uint* u,
                      __global long* l, __global ulong* ul) {
      int gid = get_global_id(0);
      float x = in[gid];
      i[gid] = (int)x;
      u[gid] = (uint)x;
      l[gid] = (long)x;
      ul[gid] = (ulong)x;
    }
  )";
  const Buffers buffers{bytesOf(in), std::vector<std::byte>(n * 4), std::vector<std::byte>(n * 4),
                        std::vector<std::byte>(n * 8), std::vector<std::byte>(n * 8)};
  for (const int tier : {0, 1, 2}) {
    for (const bool batch : {false, true}) {
      if (batch && tier < 2) continue;
      SCOPED_TRACE("tier " + std::to_string(tier) + (batch ? " batched" : " per item"));
      const auto program = compileProgram(src, CompileOptions{tier});
      if (batch) {
        ASSERT_TRUE(kernelCode(*program, "cvt").batchable);
      }
      const Launch run = launch(*program, "cvt", buffers, {}, n, batch);
      ASSERT_TRUE(run.fault.empty()) << run.fault;
      const auto i = valuesOf<std::int32_t>(run.buffers[1]);
      const auto u = valuesOf<std::uint32_t>(run.buffers[2]);
      const auto l = valuesOf<std::int64_t>(run.buffers[3]);
      const auto ul = valuesOf<std::uint64_t>(run.buffers[4]);
      for (std::size_t gid = 0; gid < static_cast<std::size_t>(n); ++gid) {
        const SaturatingCase& c = cases[gid % cases.size()];
        SCOPED_TRACE(c.value);
        EXPECT_EQ(i[gid], c.i);
        EXPECT_EQ(u[gid], c.u);
        EXPECT_EQ(l[gid], c.l);
        EXPECT_EQ(ul[gid], c.ul);
      }
    }
  }
}

TEST(KernelcBatch, FoldedFloatToIntegerCastsSaturate) {
  for (const SaturatingCase& c : saturatingCases()) {
    const std::pair<const char*, std::int64_t> casts[] = {
        {"int", c.i},
        {"uint", c.u},
        {"long", c.l},
        {"ulong", static_cast<std::int64_t>(c.ul)},
    };
    for (const auto& [type, slot] : casts) {
      const std::string src = std::string(type) + " f() { return (" + type + ")(" + c.literal +
                              "); }";
      SCOPED_TRACE(src);
      const auto program = compileProgram(src, CompileOptions{0});
      const std::vector<Insn>& code = program->functions[0].code;
      ASSERT_EQ(code[0].op, Op::PushI) << "the cast was not folded";
      EXPECT_EQ(code[0].imm, slot);
    }
  }
}

// --- slot liveness: batch entry and compaction splits -----------------------
//
// A batch initializes only the slots live at kernel entry, and a compaction
// split partitions only the slots its branch's successors may read that
// some instruction writes (FunctionCode::entrySlots, splitSlots).  Each
// kernel below runs tier 1 per item against tier 2 per item and batched,
// in compaction mode and, padded, on lane lists.

/// Is `op` a conditional branch, one whose group may split?
bool conditionalBranch(Op op) { return isBranch(op) && !(opInfo(op).flags & kStops); }

/// The slots the split at conditional branch `pc` of `fn` partitions.
std::vector<std::int32_t> splitSlotsAt(const FunctionCode& fn, std::size_t pc) {
  return {fn.splitSlots.begin() + fn.splitBegin[pc], fn.splitSlots.begin() + fn.splitBegin[pc + 1]};
}

/// Builds kernel `k` from `head` and `body` twice, unpadded (compaction)
/// and padded above kLaneListColumns (lane lists), and hands each source
/// and its pad to `check`.
template <typename Check>
void forBothSplitModes(const std::string& head, const std::string& body, Check check) {
  for (const int pad : {0, kLaneListPad}) {
    SCOPED_TRACE(pad);
    const std::string src = head + "  int gid = get_global_id(0);\n" + padLocals(pad) + body + "}\n";
    if (pad == 0) {
      ASSERT_LE(columns(src, "k"), Vm::kLaneListColumns) << src;
    } else {
      ASSERT_GT(columns(src, "k"), Vm::kLaneListColumns) << src;
    }
    check(src, pad);
  }
}

/// Item gid's value: (gid * 37 + 11) mod 1000, which takes every residue of
/// the small divisors the kernels below branch on, in no lane order.
std::int32_t residue(std::int64_t gid) { return static_cast<std::int32_t>((gid * 37 + 11) % 1000); }

/// `n` items' values and one int output per item.
Buffers residueInputs(std::int64_t n) {
  std::vector<std::int32_t> a;
  for (std::int64_t gid = 0; gid < n; ++gid) a.push_back(residue(gid));
  return {bytesOf(a), std::vector<std::byte>(static_cast<std::size_t>(n) * 4)};
}

TEST(KernelcBatch, ParameterWrittenBeforeADivergentBranchIsSplit) {
  // p is reassigned per lane, then read after the branch in both arms: the
  // split must move it.  q is never written: every lane holds the argument.
  forBothSplitModes(
      "__kernel void k(__global int* a, __global int* out, int p, int q) {\n",
      "  p = p * 3 + a[gid];\n"
      "  int r;\n"
      "  if (a[gid] % 3 == 0) r = p + q; else r = p - q * 2;\n"
      "  out[gid] = r + p * q;\n",
      [](const std::string& src, int) {
        const auto program = compileProgram(src, CompileOptions{2});
        const FunctionCode& fn = kernelCode(*program, "k");
        EXPECT_TRUE(std::count(fn.entrySlots.begin(), fn.entrySlots.end(), 2));
        EXPECT_TRUE(std::count(fn.entrySlots.begin(), fn.entrySlots.end(), 3));
        bool splitsP = false;
        for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
          const std::vector<std::int32_t> split = splitSlotsAt(fn, pc);
          splitsP = splitsP || std::count(split.begin(), split.end(), 2);
          EXPECT_FALSE(std::count(split.begin(), split.end(), 3)) << "q is uniform, pc " << pc;
        }
        EXPECT_TRUE(splitsP);
        const Launch bat = expectTiersMatch(src, "k", residueInputs(300), 300,
                                            {Slot::fromInt(-41), Slot::fromInt(9)});
        EXPECT_EQ(bat.fault, "");
      });
}

TEST(KernelcBatch, LocalReadBeforeWriteIsZeroAfterAnotherKernelDirtiedTheArena) {
  // On odd a[gid], acc and other are read before any write and must read
  // 0, as per item, even though the kernel before it left non-zero values
  // in every column of this thread's arena.
  const std::string dirty =
      "__kernel void dirty(__global int* a, __global int* out) {\n"
      "  int gid = get_global_id(0);\n"
      "  int v0 = a[gid] + 1; int v1 = v0 * 3; int v2 = v1 - 7; int v3 = v2 ^ 5;\n"
      "  int v4 = v3 + v0; int v5 = v4 * 9; int v6 = v5 + 11; int v7 = v6 - v1;\n"
      "  int v8 = v7 * 13; int v9 = v8 + v2; int v10 = v9 | 1; int v11 = v10 + v3;\n"
      "  out[gid] = v0 + v1 + v2 + v3 + v4 + v5 + v6 + v7 + v8 + v9 + v10 + v11;\n"
      "}\n";
  forBothSplitModes(
      "__kernel void k(__global int* a, __global int* out) {\n",
      "  int acc;\n"
      "  int other;\n"
      "  if (a[gid] % 2 == 0) { acc = a[gid] * 5; other = 3; }\n"
      "  out[gid] = acc + gid + other;\n",
      [&](const std::string& src, int pad) {
        const auto program = compileProgram(src, CompileOptions{2});
        const FunctionCode& fn = kernelCode(*program, "k");
        const std::vector<std::int32_t> entry{0, 1, 3 + pad, 4 + pad};
        EXPECT_EQ(fn.entrySlots, entry) << "the buffers, acc and other";
        const std::int64_t n = 300;
        const auto dirtyProgram = compileProgram(dirty, CompileOptions{2});
        for (int round = 0; round < 2; ++round) {
          const Launch d = launch(*dirtyProgram, "dirty", residueInputs(n), {}, n, true);
          ASSERT_EQ(d.fault, "");
          const Launch bat = expectTiersMatch(src, "k", residueInputs(n), n);
          EXPECT_EQ(bat.fault, "");
        }
      });
}

TEST(KernelcBatch, SlotDeadAtTheBranchIsNotSplitAndEachArmWritesItsOwn) {
  // t is live before the branch and after the if, but dead at the branch:
  // each arm writes it before reading it.
  forBothSplitModes(
      "__kernel void k(__global int* a, __global int* out) {\n",
      "  int t = gid * 11;\n"
      "  out[gid] = t;\n"
      "  if (a[gid] % 3 == 0) { t = a[gid] + 1; out[gid] = out[gid] + t * 2; }\n"
      "  else { t = a[gid] - 1; out[gid] = out[gid] + t * 3; }\n"
      "  out[gid] = out[gid] + t;\n",
      [](const std::string& src, int) {
        const auto program = compileProgram(src, CompileOptions{2});
        const FunctionCode& fn = kernelCode(*program, "k");
        // Only gid (slot 2) moves; t is dead at the branch.
        int branches = 0;
        for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
          if (!conditionalBranch(fn.code[pc].op)) continue;
          ++branches;
          EXPECT_EQ(splitSlotsAt(fn, pc), std::vector<std::int32_t>{2}) << "pc " << pc;
        }
        EXPECT_EQ(branches, 1);
        const Launch bat = expectTiersMatch(src, "k", residueInputs(300), 300);
        EXPECT_EQ(bat.fault, "");
      });
}

TEST(KernelcBatch, DivergentBranchWithValuesOnTheOperandStack) {
  // Both ternaries branch with partial sums on the stack (two values, then
  // three), which the split must move with their lanes.
  forBothSplitModes(
      "__kernel void k(__global int* a, __global int* out) {\n",
      "  out[gid] = a[gid] * 2 + (a[gid] % 3 == 0 ? a[gid] + 5 : gid - 7) *\n"
      "             (a[gid] > 500 ? 3 : a[gid]);\n",
      [](const std::string& src, int) {
        const auto program = compileProgram(src, CompileOptions{2});
        const FunctionCode& fn = kernelCode(*program, "k");
        const std::vector<int> height = stackHeights(fn, program->functions);
        std::vector<int> below;  // stack height under each conditional branch
        for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
          if (conditionalBranch(fn.code[pc].op)) {
            below.push_back(height[pc] - stackEffect(fn.code[pc], program->functions).pops);
          }
        }
        EXPECT_EQ(below, (std::vector<int>{2, 3}));
        const Launch bat = expectTiersMatch(src, "k", residueInputs(300), 300);
        EXPECT_EQ(bat.fault, "");
      });
}

TEST(KernelcBatch, NestedDivergenceIntoFiveGroups) {
  // Five paths, one of which divides by gid - bad: with bad = 1000 nothing
  // faults; with bad = the first work-item taking that path, it faults.
  const std::string head = "__kernel void k(__global int* a, __global int* out, int bad) {\n";
  const std::string body =
      "  int v = a[gid];\n"
      "  int r = 0;\n"
      "  if (v % 2 == 0) { if (v % 3 == 0) r = v * 7; else r = v + 100; }\n"
      "  else { if (v % 5 == 0) r = v - 3;\n"
      "         else { if (v % 7 == 0) r = 100 / (gid - bad); else r = 2; } }\n"
      "  out[gid] = r * 3 + v;\n";
  // The first item, in order, whose value is odd, no multiple of 5 but a
  // multiple of 7.
  std::int64_t victim = -1;
  for (std::int64_t gid = 0; gid < 300 && victim < 0; ++gid) {
    const std::int64_t v = residue(gid);
    if (v % 2 != 0 && v % 5 != 0 && v % 7 == 0) victim = gid;
  }
  ASSERT_GE(victim, 0);
  forBothSplitModes(head, body, [&](const std::string& src, int) {
    const Launch clean = expectTiersMatch(src, "k", residueInputs(300), 300, {Slot::fromInt(1000)});
    EXPECT_EQ(clean.fault, "");
    const Launch faulting =
        expectTiersMatch(src, "k", residueInputs(300), 300, {Slot::fromInt(victim)});
    EXPECT_NE(faulting.fault.find("(work-item " + std::to_string(victim) +
                                  "): integer division by zero"),
              std::string::npos)
        << faulting.fault;
  });
}

TEST(KernelcBatch, GeneratedPackKernelLivenessIsPinned) {
  // The clamp-padding halo pack kernel as SkelCL generates it
  // (skeleton_exec.cpp, overlapSource), whose splits dominate cluster_mix's
  // batched time.  Slots: parameters 0-9 (src, pad, total, rows, cols,
  // stride, r, row0, prows, neutral), then i 10, prow 11, col 12, arow 13,
  // crow 14, ccol 15 and the store scratch 16.  Only the parameters it
  // reads are live at entry, and a split moves at most three slots, where
  // it moved all 17.
  const std::string src =
      "float func(__global float* m, int i, int s) {"
      "  return 0.25f * (m[i - s] + m[i - 1] + m[i + 1] + m[i + s]);"
      "}\n"
      "__kernel void skelcl_mo_pack(__global float* skelcl_src, __global float* skelcl_pad, "
      "int skelcl_total, int skelcl_rows, int skelcl_cols, int skelcl_stride, int skelcl_r, "
      "int skelcl_row0, int skelcl_prows, float skelcl_neutral) {\n"
      "  int skelcl_i = get_global_id(0);\n"
      "  if (skelcl_i < skelcl_total) {\n"
      "    int skelcl_prow = skelcl_i / skelcl_stride;\n"
      "    int skelcl_col = skelcl_i % skelcl_stride - skelcl_r;\n"
      "    int skelcl_arow = skelcl_row0 - skelcl_r + skelcl_prow;\n"
      "    if (skelcl_col < 0 || skelcl_col >= skelcl_cols || skelcl_arow < 0 || "
      "skelcl_arow >= skelcl_rows) {\n"
      "      int skelcl_crow = clamp(skelcl_arow, 0, skelcl_rows - 1);\n"
      "      int skelcl_ccol = clamp(skelcl_col, 0, skelcl_cols - 1);\n"
      "      if (skelcl_crow >= skelcl_row0 && skelcl_crow < skelcl_row0 + skelcl_prows) {\n"
      "        skelcl_pad[skelcl_i] = "
      "skelcl_src[(skelcl_crow - skelcl_row0) * skelcl_cols + skelcl_ccol];\n"
      "      } else {\n"
      "        skelcl_pad[skelcl_i] = skelcl_pad[(skelcl_crow - skelcl_row0 + skelcl_r) * "
      "skelcl_stride + skelcl_r + skelcl_ccol];\n"
      "      }\n"
      "    } else if (skelcl_arow >= skelcl_row0 && skelcl_arow < skelcl_row0 + skelcl_prows) "
      "{\n"
      "      skelcl_pad[skelcl_i] = "
      "skelcl_src[(skelcl_arow - skelcl_row0) * skelcl_cols + skelcl_col];\n"
      "    }\n"
      "  }\n}\n";
  const auto program = compileProgram(src, CompileOptions{2});
  const FunctionCode& fn = kernelCode(*program, "skelcl_mo_pack");
  ASSERT_EQ(fn.numSlots, 17);
  EXPECT_EQ(fn.entrySlots, (std::vector<std::int32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
  std::string splits;
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    if (!conditionalBranch(fn.code[pc].op)) continue;
    splits += std::to_string(pc) + " " + opName(fn.code[pc].op) + ":";
    for (const std::int32_t s : splitSlotsAt(fn, pc)) splits += " s" + std::to_string(s);
    splits += "\n";
  }
  // The four-way `||` branches on its first three comparisons directly
  // (pcs 10-12, short-circuit threading): the jnz of each inner `||` became
  // a register-form branch, and their pads (16, 17) feed the push.i 1 of the
  // last, which keeps its bool because its pad would have no place.
  EXPECT_EQ(splits, R"(3 reg.jz: s10
10 reg.jnz: s10 s12 s13
11 reg.jnz: s10 s12 s13
12 reg.jnz: s10 s12 s13
19 jz: s10 s12 s13
30 reg.jz: s10 s14 s15
37 jz: s10 s14 s15
56 reg.jz: s10 s12 s13
63 jz: s10 s12 s13
)");

  // Packing an 8 x 30 part with radius 1 (stride 32): each split moves
  // three slots and laneGid, with nothing on the stack.
  const std::int64_t rows = 8;
  const std::int64_t cols = 30;
  const std::int64_t stride = cols + 2;
  const std::int64_t total = (rows + 2) * stride;
  std::vector<float> part(static_cast<std::size_t>(rows * cols));
  for (std::size_t i = 0; i < part.size(); ++i) part[i] = static_cast<float>(i);
  const Launch bat = expectTiersMatch(
      src, "skelcl_mo_pack", {bytesOf(part), std::vector<std::byte>(total * 4)}, total,
      {Slot::fromInt(total), Slot::fromInt(rows), Slot::fromInt(cols), Slot::fromInt(stride),
       Slot::fromInt(1), Slot::fromInt(0), Slot::fromInt(rows), Slot::fromFloat(0.0)});
  EXPECT_EQ(bat.fault, "");
  EXPECT_EQ(bat.splits, 6u);
  EXPECT_EQ(bat.columnsMoved, 24u) << "all 17 slots and laneGid would be 108";
}

// --- 32-bit division: the double-precision lane loop ------------------------
//
// div.i, rem.i, div.u and rem.u divide in double precision when no lane of
// the group has a zero divisor, a signed operand that is not a sign-extended
// 32-bit value, or INT_MIN / -1; otherwise the exact loop runs.  Batched
// results must match tier 1 bit for bit on every path.

/// x / y and x % y in register form (locals) and stack form (loads), on the
/// whole group and after a split (compacted, or a lane list when padded).
/// Output j of item gid is out[gid * 8 + j].
std::string divisionKernel(const std::string& type, int pad) {
  const auto forms = [](int base) {
    std::string f;
    const char* const exprs[] = {"x / y", "x % y", "a[gid] / b[gid]", "a[gid] % b[gid]"};
    for (int j = 0; j < 4; ++j) {
      f += "    out[o + " + std::to_string(base + j) + "] = " + exprs[j] + ";\n";
    }
    return f;
  };
  return "__kernel void divide(__global " + type + "* a, __global " + type + "* b, __global " +
         type + "* out) {\n  int gid = get_global_id(0);\n" + padLocals(pad) + "  " + type +
         " x = a[gid];\n  " + type + " y = b[gid];\n  int o = gid * 8;\n" + forms(0) +
         "  if (gid % 3 != 0) {\n" + forms(4) + "  }\n}\n";
}

/// The signed or unsigned division opcodes `fn` runs in stack form and in
/// register form.
std::set<std::pair<bool, Op>> divisionForms(const FunctionCode& fn) {
  std::set<std::pair<bool, Op>> seen;
  for (const PackedInsn& insn : fn.packed) {
    const bool reg = isRegisterForm(insn.op);
    const Op op = reg ? regOp(insn.c) : insn.op;
    if (op == Op::DivI || op == Op::RemI || op == Op::DivU || op == Op::RemU) seen.insert({reg, op});
  }
  return seen;
}

/// Random 32-bit pairs, divisors of every magnitude, and the edge pairs:
/// INT_MIN, INT_MAX, +-1, INT_MIN / -1, powers of two and divisors next to
/// the dividend.  Zero divisors become 1.
template <typename T>
std::pair<std::vector<T>, std::vector<T>> divisionPairs() {
  std::vector<T> a;
  std::vector<T> b;
  const auto add = [&](std::int64_t x, std::int64_t y) {
    a.push_back(static_cast<T>(x));
    b.push_back(static_cast<T>(y) == 0 ? T{1} : static_cast<T>(y));
  };
  std::vector<std::int64_t> edges{std::numeric_limits<std::int32_t>::min(),
                                  std::numeric_limits<std::int32_t>::min() + 1,
                                  std::numeric_limits<std::int32_t>::max(),
                                  std::numeric_limits<std::int32_t>::max() - 1,
                                  0xFFFFFFFFll, 0xFFFFFFFEll, 0x80000001ll, -1, 0, 1, 2, 3, -2, -3};
  for (int k = 1; k < 32; ++k) {
    edges.push_back(std::int64_t{1} << k);
    edges.push_back(-(std::int64_t{1} << k));
    edges.push_back((std::int64_t{1} << k) - 1);
    edges.push_back((std::int64_t{1} << k) + 1);
  }
  for (const std::int64_t x : edges) {
    for (const std::int64_t y : edges) add(x, y);
    for (const std::int64_t d : {-2, -1, 1, 2}) add(x, x + d);
    add(x, x);
    add(x, -x);
    add(x, x / 2);
  }
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  const auto next = [&] {  // splitmix64: the same pairs on every host
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t r = next();
    const auto x = static_cast<std::int32_t>(r);
    const auto y = static_cast<std::int32_t>(r >> 32) >> (next() % 32);  // any magnitude
    add(x, y);
  }
  return {a, b};
}

template <typename T>
void checkDivisionFamily(const std::string& type) {
  const auto [a, b] = divisionPairs<T>();
  const auto n = static_cast<std::int64_t>(a.size());
  ASSERT_GE(n, 100000);
  const bool isSigned = std::is_signed_v<T>;
  const std::set<std::pair<bool, Op>> want{
      {false, isSigned ? Op::DivI : Op::DivU}, {false, isSigned ? Op::RemI : Op::RemU},
      {true, isSigned ? Op::DivI : Op::DivU}, {true, isSigned ? Op::RemI : Op::RemU}};
  for (const int pad : {0, kLaneListPad}) {
    SCOPED_TRACE(type + " pad " + std::to_string(pad));
    const std::string src = divisionKernel(type, pad);
    if (pad == 0) {
      ASSERT_LE(columns(src, "divide"), Vm::kLaneListColumns) << src;
    } else {
      ASSERT_GT(columns(src, "divide"), Vm::kLaneListColumns) << src;
    }
    const std::set<std::pair<bool, Op>> seen =
        divisionForms(kernelCode(*compileProgram(src, CompileOptions{2}), "divide"));
    EXPECT_TRUE(std::includes(seen.begin(), seen.end(), want.begin(), want.end()));
    const Launch bat = expectTiersMatch(
        src, "divide", {bytesOf(a), bytesOf(b), std::vector<std::byte>(a.size() * 8 * sizeof(T))},
        n);
    EXPECT_EQ(bat.fault, "");
  }
}

TEST(KernelcBatch, SignedDivisionMatchesTierOneOnRandomAndEdgePairs) {
  checkDivisionFamily<std::int32_t>("int");
}

TEST(KernelcBatch, UnsignedDivisionMatchesTierOneOnRandomAndEdgePairs) {
  checkDivisionFamily<std::uint32_t>("uint");
}

TEST(KernelcBatch, ZeroDivisorFaultsOnItsWorkItemAloneAndInAGroup) {
  // Item k's divisor is 0 and every other item's is valid.  The division
  // runs on item k alone (a group split off by gid == k), on a compacted or
  // lane-list group after a split, and on the whole group; in register and
  // stack form.
  const std::int64_t n = 300;
  for (const std::string type : {"int", "uint"}) {
    for (const std::string op : {"/", "%"}) {
      for (const std::string where : {"gid == k", "gid % 3 != 0", "gid >= 0"}) {
        for (const std::string operands : {"x OP y", "a[gid] OP b[gid]"}) {
          for (const int pad : {0, kLaneListPad}) {
            std::string expr = operands;
            expr.replace(expr.find("OP"), 2, op);
            const std::string src =
                "__kernel void k(__global " + type + "* a, __global " + type + "* b, __global " +
                type + "* out, int k) {\n  int gid = get_global_id(0);\n" + padLocals(pad) + "  " +
                type + " x = a[gid];\n  " + type + " y = b[gid];\n  if (" + where +
                ") out[gid] = " + expr + ";\n}\n";
            SCOPED_TRACE(src);
            for (const std::int64_t k : {std::int64_t{0}, std::int64_t{101}, std::int64_t{257},
                                         std::int64_t{299}}) {
              std::vector<std::int32_t> x(n);
              std::vector<std::int32_t> y(n);
              for (std::int64_t gid = 0; gid < n; ++gid) {
                x[gid] = static_cast<std::int32_t>(gid * 7919 - 1000000);
                y[gid] = static_cast<std::int32_t>(gid % 13 + 1);
              }
              y[k] = 0;
              const Launch bat = expectTiersMatch(
                  src, "k", {bytesOf(x), bytesOf(y), std::vector<std::byte>(n * 4)}, n,
                  {Slot::fromInt(k)});
              const bool reached = where != "gid % 3 != 0" || k % 3 != 0;
              EXPECT_EQ(bat.fault.find("(work-item " + std::to_string(k) + "): integer " +
                                       (op == "/" ? "division" : "remainder") + " by zero") !=
                            std::string::npos,
                        reached)
                  << k << ": " << bat.fault;
            }
          }
        }
      }
    }
  }
}

// --- reconvergence: one waiting group per pc ---------------------------------
//
// A lane-list group that parks at a pc where another group waits merges with
// it on the spot, and a running group that reaches a waiting group's pc
// absorbs it; each lane keeps its own retired count.  Each kernel runs tier 1
// per item against tier 2 per item and batched, in compaction mode and,
// padded, on lane lists.

/// Item gid's input (gid * 37 + 11) mod 256: over 256 items, every value
/// from 0 to 255 once, in no lane order.  One int output per item.
Buffers exitInputs(std::int64_t n) {
  std::vector<std::int32_t> a;
  for (std::int64_t gid = 0; gid < n; ++gid) {
    a.push_back(static_cast<std::int32_t>((gid * 37 + 11) % 256));
  }
  return {bytesOf(a), std::vector<std::byte>(static_cast<std::size_t>(n) * 4)};
}

TEST(KernelcBatch, LanesLeavingALoopAtEveryIterationReconvergeAtItsExit) {
  // 256 lanes leave the loop after 256 different iteration counts.  On lane
  // lists each leaver parks at the exit pc and merges with the lanes already
  // waiting there, and the last one, jumping there alone, absorbs them: one
  // group runs the tail.  Under compaction every leaver stays a group.
  const std::string head = "__kernel void k(__global int* a, __global int* out, int bad) {\n";
  const std::string body =
      "  int stop = a[gid];\n"
      "  int it = 0;\n"
      "  int acc = gid;\n"
      "  while (it < stop) { acc = acc * 3 + it; it = it + 1; }\n"
      "  out[gid] = acc + 100 / (gid - bad);\n";
  forBothSplitModes(head, body, [&](const std::string& src, int pad) {
    const Launch clean = expectTiersMatch(src, "k", exitInputs(256), 256, {Slot::fromInt(1000)});
    EXPECT_EQ(clean.fault, "");
    EXPECT_EQ(clean.splits, 255u) << "one leaver per iteration but the last";
    EXPECT_EQ(clean.merges, pad ? 255u : 0u);
    for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{77}, std::int64_t{255}}) {
      const Launch faulting =
          expectTiersMatch(src, "k", exitInputs(256), 256, {Slot::fromInt(bad)});
      EXPECT_NE(faulting.fault.find("(work-item " + std::to_string(bad) +
                                    "): integer division by zero"),
                std::string::npos)
          << faulting.fault;
    }
  });
}

// --- the instruction budget ----------------------------------------------------
//
// A work-item that retires more than the Vm's per-item budget faults, and the
// fault names it: per item, in a dense batch, after a compaction split, and
// in a lane-list group whose lanes merged, at a pc and on park, with
// different retired counts.

/// Work-item `bad` takes a detour of `spin` iterations, before the loop
/// whose lanes leave it at different iterations or inside it; then every
/// item runs the same 4 000-step tail.  bad < 0: every item spins.
std::string budgetBody(bool detourInsideTheLoop) {
  const std::string spins = "(gid == bad || bad < 0)";
  return std::string("  int stop = a[gid] % 7;\n  int extra = 0;\n") +
         (detourInsideTheLoop
              ? "  if " + spins + " stop = stop + spin;\n"
              : "  if " + spins + " { for (int s = 0; s < spin; ++s) extra = extra + s; }\n") +
         "  int it = 0;\n"
         "  while (it < stop) it = it + 1;\n"
         "  int acc = 0;\n"
         "  for (int j = 0; j < 4000; ++j) acc = acc + j;\n"
         "  out[gid] = acc + it + extra;\n";
}

TEST(KernelcBatch, BudgetFaultNamesTheWorkItemOnEveryPath) {
  const std::string head =
      "__kernel void k(__global int* a, __global int* out, int bad, int spin) {\n";
  const std::int64_t n = 300;
  for (const bool inside : {false, true}) {
    forBothSplitModes(head, budgetBody(inside), [&](const std::string& src, int pad) {
      SCOPED_TRACE(inside ? "detour inside the loop" : "detour before the loop");
      // Every item spins: the first faults, per item and in a dense batch.
      const std::vector<Slot> allSpin{Slot::fromInt(-1), Slot::fromInt(1 << 30)};
      const Launch all = expectTiersMatch(src, "k", residueInputs(n), n, allSpin, 20000);
      EXPECT_NE(all.fault.find("(work-item 0): instruction budget exceeded"), std::string::npos)
          << all.fault;
      // One item's detour puts it alone over a budget half-way between its
      // count and the others' highest.  On lane lists it rejoins the others
      // at the loop's exit (or, from before the loop, at the join and at
      // each exit), and exceeds the budget in the tail: the merged group's
      // own count stays under it, and only that lane's offset goes over.
      const auto tier2 = compileProgram(src, CompileOptions{2});
      for (const std::int64_t bad : {std::int64_t{0}, std::int64_t{101}, std::int64_t{255},
                                     std::int64_t{299}}) {
        SCOPED_TRACE(bad);
        const std::vector<Slot> scalars{Slot::fromInt(bad), Slot::fromInt(2000)};
        const std::vector<std::uint64_t> retired =
            launch(*tier2, "k", residueInputs(n), scalars, n, /*batch=*/false).perItem;
        std::uint64_t others = 0;
        for (std::int64_t gid = 0; gid < n; ++gid) {
          if (gid != bad) others = std::max(others, retired[static_cast<std::size_t>(gid)]);
        }
        ASSERT_GT(retired[static_cast<std::size_t>(bad)], others + 10000);
        const std::uint64_t budget = (retired[static_cast<std::size_t>(bad)] + others) / 2;
        const Launch one = expectTiersMatch(src, "k", residueInputs(n), n, scalars, budget);
        EXPECT_NE(one.fault.find("(work-item " + std::to_string(bad) +
                                 "): instruction budget exceeded"),
                  std::string::npos)
            << one.fault;
        if (pad) {
          EXPECT_GT(one.merges, 0u);
        } else {
          EXPECT_EQ(one.merges, 0u);
          EXPECT_GT(one.splits, 0u);
        }
        // Under the budget of the detour alone, nothing faults.
        const Launch under = expectTiersMatch(src, "k", residueInputs(n), n, scalars,
                                              retired[static_cast<std::size_t>(bad)]);
        EXPECT_EQ(under.fault, "");
      }
    });
  }
}

// --- short-circuit threading ---------------------------------------------------
//
// Tier 2 branches on the second comparison of an `&&` or `||` condition
// directly where the window's pad has a place (threadShortCircuits); every
// path must retire what tier 1 retires and compute the same bits.

TEST(KernelcBatch, ShortCircuitConditionsMatchTierOneOnEveryPath) {
  // `&&` and `||` feeding jz (if, while, for) and jnz (do-while), with an
  // else arm and without, breaking and continuing, chained, mixed, with a
  // stack-form first comparison, and stored as values.
  const std::string head = "__kernel void k(__global int* a, __global int* out) {\n";
  const std::string body =
      "  int v = a[gid];\n"
      "  int x = v % 50;\n"
      "  int y = v / 20;\n"
      "  int r = 0;\n"
      "  if (x < y && y < 30) r = r + 1; else r = r + 2;\n"
      "  if (x < y || y < 30) r = r + 4; else r = r + 8;\n"
      "  if (x > 10 && y > 10) r = r + 16;\n"
      "  if (x > 40 || y < 5) r = r + 32;\n"
      "  if (x < y && y < 40 && x > 3) r = r + 64; else r = r + 128;\n"
      "  if (x < 5 || y < 5 || x == y) r = r + 256; else r = r + 512;\n"
      "  if (x < y || y < 20 && x > 30) r = r + 1024; else r = r + 2048;\n"
      "  if ((x < y || y < 20) && x > 30) r = r + 4096;\n"
      "  if (a[gid] > 500 && y < 30) r = r + 8192; else r = r - 1;\n"
      "  int i = 0;\n"
      "  while (i < x && i < 40) i = i + 1;\n"
      "  r = r + i * 16384;\n"
      "  i = 0;\n"
      "  while (i < x || i < y) i = i + 1;\n"
      "  r = r + i;\n"
      "  int k = 0;\n"
      "  do { k = k + 1; } while (k < x && k < 30);\n"
      "  do { k = k + 1; } while (k < x || k < y);\n"
      "  r = r ^ (k << 20);\n"
      "  for (int j = 0; j < 60; ++j) {\n"
      "    if (j > x || j > y + 20) break;\n"
      "    r = r + 3;\n"
      "  }\n"
      "  for (int j = 0; j < 60; ++j) {\n"
      "    if (j > x && j > y) break;\n"
      "    if (j < x && j < 10) continue;\n"
      "    if (j == y || j == x / 2) continue;\n"
      "    r = r + 5;\n"
      "  }\n"
      "  int t = x < y && y < 30;\n"
      "  int u = x > 40 || y > 40;\n"
      "  out[gid] = r + t * 7 + u * 11;\n";
  forBothSplitModes(head, body, [](const std::string& src, int) {
    const auto count = [](const CompiledProgram& program, Op op) {
      const auto& code = kernelCode(program, "k").code;
      return std::count_if(code.begin(), code.end(),
                           [op](const Insn& insn) { return insn.op == op; });
    };
    const auto tier1 = compileProgram(src, CompileOptions{1});
    const auto tier2 = compileProgram(src, CompileOptions{2});
    EXPECT_LT(count(*tier2, Op::BoolNorm), count(*tier1, Op::BoolNorm)) << "nothing threaded";
    EXPECT_GE(count(*tier2, Op::BoolNorm), 2) << "a stored short-circuit value was threaded";
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{37}, std::int64_t{300}}) {
      const Launch bat = expectTiersMatch(src, "k", residueInputs(n), n);
      EXPECT_EQ(bat.fault, "");
    }
  });
}

}  // namespace
