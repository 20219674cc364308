// Fused skeleton pipelines: correctness against unfused execution across
// device counts and distributions, extra-argument merging, fallback
// triggers, trace semantics — plus regression tests for the three codegen /
// runtime bugs fixed alongside the fusion work (64-bit scalar extras, stale
// partition weights, conflicting extra-argument typedefs).
#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "core/detail/trace.hpp"
#include "core/skelcl.hpp"
#include "docl/docl.hpp"
#include "sched/scheduler.hpp"
#include "sim/rng.hpp"

using namespace skelcl;

namespace {

constexpr const char* kSquare = "float func(float x) { return x * x + 1.0f; }";
constexpr const char* kHalf = "float func(float x) { return x * 0.5f; }";
constexpr const char* kAdd2 = "float func(float a, float b) { return a + b; }";

Vector<float> randomVector(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  Vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(rng.uniform(-8.0, 8.0));
  return v;
}

void expectBitIdentical(const Vector<float>& a, const Vector<float>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a[i];
    const float y = b[i];
    ASSERT_EQ(std::memcmp(&x, &y, sizeof(float)), 0) << "element " << i;
  }
}

// --- fused vs unfused, parameterized over device count ----------------------

// The parameter is the device count; kCluster devices run as a 4-node x
// 2-GPU docl cluster (node-aware partitions, tree collectives).
constexpr int kCluster = 8;

class FusionP : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    if (GetParam() == kCluster) {
      docl::DistributedConfig cfg;
      for (int s = 0; s < 4; ++s) cfg.servers.push_back(sim::SystemConfig::teslaS1070(2));
      docl::initSkelCL(cfg);
    } else {
      init(sim::SystemConfig::teslaS1070(GetParam()));
    }
  }
  void TearDown() override { terminate(); }
};

INSTANTIATE_TEST_SUITE_P(Devices, FusionP, ::testing::Values(1, 2, 4, kCluster),
                         [](const auto& info) {
                           return info.param == kCluster
                                      ? std::string("cluster4x2")
                                      : "gpus" + std::to_string(info.param);
                         });

TEST_P(FusionP, MapMapMatchesUnfusedOnBlock) {
  Vector<float> in = randomVector(1001, 7);

  Pipeline<float> fused;
  fused.map(kSquare).map(kHalf);
  Vector<float> a = fused(in);
  EXPECT_TRUE(fused.lastRunFused());

  Pipeline<float> unfused;
  unfused.map(kSquare).map(kHalf).forceUnfused();
  Vector<float> b = unfused(in);
  EXPECT_FALSE(unfused.lastRunFused());

  expectBitIdentical(a, b);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], (in[i] * in[i] + 1.0f) * 0.5f) << i;
  }
}

TEST_P(FusionP, MapZipMatchesSeparateSkeletons) {
  Vector<float> in = randomVector(800, 11);
  Vector<float> ys = randomVector(800, 13);

  Pipeline<float> p;
  p.map(kSquare).zip(ys, kAdd2);
  Vector<float> a = p(in);
  EXPECT_TRUE(p.lastRunFused());

  Map<float> square(kSquare);
  Zip<float> add(kAdd2);
  Vector<float> b = add(square(in), ys);

  expectBitIdentical(a, b);
}

TEST_P(FusionP, FusedChainOnCopyDistribution) {
  Vector<float> in = randomVector(300, 17);
  in.setDistribution(Distribution::copy());

  Pipeline<float> fused;
  fused.map(kSquare).map(kHalf);
  Vector<float> a = fused(in);
  EXPECT_TRUE(fused.lastRunFused());

  Pipeline<float> unfused;
  unfused.map(kSquare).map(kHalf).forceUnfused();
  Vector<float> b = unfused(in);

  expectBitIdentical(a, b);
}

TEST_P(FusionP, FusedChainOnWeightedBlockDistribution) {
  const int gpus = GetParam();
  std::vector<double> weights(static_cast<std::size_t>(gpus));
  double total = 0.0;
  for (int d = 0; d < gpus; ++d) total += (weights[static_cast<std::size_t>(d)] = d + 1.0);
  for (double& w : weights) w /= total;

  Vector<float> in = randomVector(1234, 19);
  in.setDistribution(Distribution::block(weights));
  Vector<float> ys = randomVector(1234, 23);

  Pipeline<float> fused;
  fused.map(kSquare).zip(ys, kAdd2);
  Vector<float> a = fused(in);
  EXPECT_TRUE(fused.lastRunFused());

  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], in[i] * in[i] + 1.0f + ys[i]) << i;
  }
}

TEST_P(FusionP, MapZipReduceMatchesSeparateSkeletons) {
  Vector<float> in = randomVector(5000, 29);
  Vector<float> ys = randomVector(5000, 31);

  Pipeline<float> p;
  p.map(kHalf).zip(ys, "float func(float a, float b) { return a * b; }");
  const float fusedResult = p.reduce(kAdd2, in);
  EXPECT_TRUE(p.lastRunFused());

  Map<float> half(kHalf);
  Zip<float> mul("float func(float a, float b) { return a * b; }");
  Reduce<float> sum(kAdd2);
  const float reference = sum(mul(half(in), ys));

  EXPECT_EQ(std::memcmp(&fusedResult, &reference, sizeof(float)), 0)
      << fusedResult << " vs " << reference;
}

TEST_P(FusionP, ExtraArgumentsMergeAcrossStages) {
  Vector<float> in = randomVector(512, 37);
  Vector<float> ys = randomVector(512, 41);
  Vector<float> table(4);
  for (std::size_t i = 0; i < table.size(); ++i) table[i] = static_cast<float>(i) + 0.25f;
  table.setDistribution(Distribution::copy());

  Pipeline<float> p;
  p.map("float func(float x, float s) { return x * s; }", 2.5f)
      .zip(ys, "float func(float x, float y, __global float* t, float b) "
               "{ return x + y + t[1] + b; }",
           table, 1.5f);
  Vector<float> a = p(in);
  EXPECT_TRUE(p.lastRunFused());

  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], in[i] * 2.5f + ys[i] + 1.25f + 1.5f) << i;
  }
}

TEST_P(FusionP, HelperFunctionsOfDifferentStagesDoNotCollide) {
  // Both stages define a helper named `twice` with different meanings; the
  // per-stage renaming must keep them apart in the merged kernel.
  Vector<float> in = randomVector(256, 43);
  Pipeline<float> p;
  p.map("float twice(float x) { return 2.0f * x; }\n"
        "float func(float x) { return twice(x); }")
      .map("float twice(float x) { return x + x + 1.0f; }\n"
           "float func(float x) { return twice(x); }");
  Vector<float> a = p(in);
  EXPECT_TRUE(p.lastRunFused());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], 2.0f * in[i] + 2.0f * in[i] + 1.0f) << i;
  }
}

// --- fallback triggers -------------------------------------------------------

TEST_P(FusionP, ObservedIntermediateForcesUnfusedAndMaterializes) {
  Vector<float> in = randomVector(400, 47);
  Vector<float> mid(in.size());

  Pipeline<float> p;
  p.map(kSquare).observe(mid).map(kHalf);
  Vector<float> out = p(in);
  EXPECT_FALSE(p.lastRunFused()) << "observed intermediates must disable fusion";

  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(mid[i], in[i] * in[i] + 1.0f) << i;
    EXPECT_FLOAT_EQ(out[i], (in[i] * in[i] + 1.0f) * 0.5f) << i;
  }
}

TEST_P(FusionP, MismatchedZipDistributionFallsBack) {
  Vector<float> in = randomVector(600, 53);
  in.setDistribution(Distribution::block());
  Vector<float> ys = randomVector(600, 59);
  ys.setDistribution(Distribution::single(0));

  Pipeline<float> p;
  p.map(kSquare).zip(ys, kAdd2);
  Vector<float> out = p(in);
  EXPECT_FALSE(p.lastRunFused())
      << "a zip input with a different distribution must disable fusion";
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i] * in[i] + 1.0f + ys[i]) << i;
  }
}

// --- trace semantics ---------------------------------------------------------

TEST(FusionTrace, SingleFusedStagePerDeviceAndNoIntermediateTransfers) {
  init(sim::SystemConfig::teslaS1070(2));
  Vector<float> in = randomVector(1000, 61);
  Vector<float> ys = randomVector(1000, 67);

  Pipeline<float> p;
  p.map(kSquare).zip(ys, kAdd2);

  trace::clear();
  trace::enable();
  Vector<float> out = p(in);
  EXPECT_TRUE(p.lastRunFused());
  const float sink = out[0];  // forces the output download
  (void)sink;
  trace::disable();

  int fusedRecords = 0, kernelRecords = 0, uploads = 0, downloads = 0;
  for (const auto& r : trace::snapshot()) {
    fusedRecords += r.kind == trace::Record::Kind::Fused;
    kernelRecords += r.kind == trace::Record::Kind::Kernel;
    uploads += r.kind == trace::Record::Kind::Upload;
    downloads += r.kind == trace::Record::Kind::Download;
    if (r.kind == trace::Record::Kind::Fused) {
      EXPECT_NE(r.name.find("fused x2"), std::string::npos) << r.name;
    }
  }
  EXPECT_EQ(fusedRecords, 2) << "one fused kernel per device";
  EXPECT_EQ(kernelRecords, 0) << "no per-stage kernels on the fused path";
  EXPECT_EQ(uploads, 4) << "only the two inputs upload (2 vectors x 2 devices)";
  EXPECT_EQ(downloads, 2) << "only the final output downloads";
  trace::clear();
  terminate();
}

TEST(FusionTrace, UnfusedFallbackLaunchesPerStageKernels) {
  init(sim::SystemConfig::teslaS1070(2));
  Vector<float> in = randomVector(1000, 71);

  Pipeline<float> p;
  p.map(kSquare).map(kHalf).forceUnfused();

  trace::clear();
  trace::enable();
  Vector<float> out = p(in);
  (void)out;
  trace::disable();

  int fusedRecords = 0, kernelRecords = 0;
  for (const auto& r : trace::snapshot()) {
    fusedRecords += r.kind == trace::Record::Kind::Fused;
    kernelRecords += r.kind == trace::Record::Kind::Kernel;
  }
  EXPECT_EQ(fusedRecords, 0);
  EXPECT_EQ(kernelRecords, 4) << "two stages x two devices";
  trace::clear();
  terminate();
}

/// Two GPUs, torn down even when a test body throws.
class TwoGpus : public ::testing::Test {
 protected:
  void SetUp() override { init(sim::SystemConfig::teslaS1070(2)); }
  void TearDown() override { terminate(); }
};

using OneStageTrace = TwoGpus;

TEST_F(OneStageTrace, MapZipIndexMapAndPipelineTraceAsPlainKernels) {
  // Map, Zip and index Map are one-stage chains, and so is a one-stage
  // Pipeline: each launch traces as a plain kernel record named after the
  // skeleton, never as a fused one.
  Vector<float> in = randomVector(1000, 89);
  Vector<float> ys = randomVector(1000, 97);
  const auto kernelNames = [](const auto& call) {
    trace::clear();
    trace::enable();
    call();
    trace::disable();
    std::vector<std::string> names;
    for (const auto& r : trace::snapshot()) {
      EXPECT_NE(r.kind, trace::Record::Kind::Fused) << r.name;
      if (r.kind == trace::Record::Kind::Kernel) names.push_back(r.name);
    }
    return names;
  };
  const std::vector<std::string> maps = {"map dev0", "map dev1"};
  const std::vector<std::string> zips = {"zip dev0", "zip dev1"};

  Map<float> map(kSquare);
  EXPECT_EQ(kernelNames([&] { (void)map(in); }), maps);
  Zip<float> zip(kAdd2);
  EXPECT_EQ(kernelNames([&] { (void)zip(in, ys); }), zips);
  Map<float(Index)> index("float func(int i) { return (float)i; }");
  EXPECT_EQ(kernelNames([&] { (void)index(IndexVector(1000)); }), maps);
  Pipeline<float> mapChain;
  mapChain.map(kSquare);
  EXPECT_EQ(kernelNames([&] { (void)mapChain(in); }), maps);
  EXPECT_TRUE(mapChain.lastRunFused());
  Pipeline<float> zipChain;
  zipChain.zip(ys, kAdd2);
  EXPECT_EQ(kernelNames([&] { (void)zipChain(in); }), zips);
  trace::clear();
}

// --- scheduler cost model ----------------------------------------------------

TEST(FusionSched, PipelineCostSumsStageCosts) {
  const std::vector<std::string> stages = {kSquare, kHalf};
  const auto s0 = sched::measureUserFunction(kSquare);
  const auto s1 = sched::measureUserFunction(kHalf);
  const auto sum = sched::measurePipelineCost(stages);
  EXPECT_DOUBLE_EQ(sum.instructionsPerElement,
                   s0.instructionsPerElement + s1.instructionsPerElement);
}

TEST(FusionSched, AutoScheduleAcceptsPipelines) {
  init(sim::SystemConfig::teslaS1070(2));
  Pipeline<float> p;
  p.map(kSquare).map(kHalf);
  sched::autoSchedule(p.stageSources());
  Vector<float> in = randomVector(300, 73);
  Vector<float> out = p(in);
  EXPECT_TRUE(p.lastRunFused());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], (in[i] * in[i] + 1.0f) * 0.5f) << i;
  }
  terminate();
}

// --- regression: 64-bit scalar additional arguments --------------------------

TEST(ExtraArgRegression, Int64ScalarExtraKeepsValuesBeyondInt32) {
  init(sim::SystemConfig::teslaS1070(2));
  const std::int64_t big = 3000000000LL;  // > INT32_MAX
  ASSERT_GT(big, static_cast<std::int64_t>(std::numeric_limits<std::int32_t>::max()));

  Map<int> probe("int func(int x, long k) {\n"
                 "  if (k == 3000000000l) return x + 1;\n"
                 "  return x - 1;\n"
                 "}");
  Vector<int> v(100);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Vector<int> out = probe(v, big);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) + 1)
        << "the 64-bit extra was truncated before reaching the kernel";
  }
  terminate();
}

TEST(ExtraArgRegression, Uint64ScalarExtraAndLongArithmetic) {
  init(sim::SystemConfig::teslaS1070(1));
  const std::uint64_t big = 10000000000ULL;  // needs > 32 bits

  Map<int> probe("int func(int x, ulong k) {\n"
                 "  ulong half = k / 2ul;\n"
                 "  if (half == 5000000000ul) return x * 2;\n"
                 "  return -1;\n"
                 "}");
  Vector<int> v(16);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Vector<int> out = probe(v, big);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 2 * static_cast<int>(i)) << i;
  }
  terminate();
}

TEST(ExtraArgRegression, Int64ReduceExtraSurvivesHostFold) {
  init(sim::SystemConfig::teslaS1070(2));
  // The extra selects a branch both on the device and in the host fold.
  Reduce<int> sum("int func(int a, int b, long k) {\n"
                  "  if (k == 4000000000l) return a + b;\n"
                  "  return 0;\n"
                  "}");
  Vector<int> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = 1;
  EXPECT_EQ(sum(v, static_cast<std::int64_t>(4000000000LL)), 1000);
  terminate();
}

// --- regression: stale partition weights -------------------------------------

TEST(WeightsRegression, ShortStaleWeightsFallBackToEvenSplit) {
  init(sim::SystemConfig::teslaS1070(4));
  // Weights for a 2-device machine installed on a 4-device one (e.g. kept
  // from a previous configuration): they must be ignored, not crash the
  // partitioner.
  setPartitionWeights({0.7, 0.3});

  Map<int> inc("int func(int x) { return x + 1; }");
  Vector<int> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Vector<int> out = inc(v);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) + 1) << i;
  }
  terminate();
}

TEST(WeightsRegression, WeightsRestingOnDeadDevicesFallBack) {
  init(sim::SystemConfig::teslaS1070(4));
  // All weight on device 3, which dies on its first command.  The survivors
  // carry zero weight, so the runtime must fall back to the unweighted
  // split instead of crashing with an empty partition.
  setPartitionWeights({0.0, 0.0, 0.0, 1.0});
  sim::FaultPlan plan;
  plan.killAfterCommands(3, 0);
  setFaultPlan(std::move(plan));

  Map<int> inc("int func(int x) { return x + 1; }");
  Vector<int> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Vector<int> out = inc(v);
  EXPECT_EQ(aliveDeviceCount(), 3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], static_cast<int>(i) + 1) << i;
  }
  terminate();
}

TEST(WeightsRegression, FusedChainSurvivesDeviceDeathUnderWeights) {
  init(sim::SystemConfig::teslaS1070(4));
  setPartitionWeights({0.4, 0.3, 0.2, 0.1});
  sim::FaultPlan plan;
  plan.killAfterCommands(2, 1);
  setFaultPlan(std::move(plan));

  Vector<float> in = randomVector(2000, 79);
  Pipeline<float> p;
  p.map(kSquare).map(kHalf);
  Vector<float> out = p(in);
  EXPECT_EQ(aliveDeviceCount(), 3);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_FLOAT_EQ(out[i], (in[i] * in[i] + 1.0f) * 0.5f) << i;
  }
  terminate();
}

// --- regression: conflicting extra-argument typedefs -------------------------

struct PairA {
  float a = 0.0f;
  float b = 0.0f;
};
struct PairB {
  float a = 0.0f;
  float b = 0.0f;
  float c = 0.0f;
};

void registerPairsOnce() {
  static const bool done = [] {
    registerKernelType<PairA>("Pair", "typedef struct { float a; float b; } Pair;");
    registerKernelType<PairB>("Pair", "typedef struct { float a; float b; float c; } Pair;");
    return true;
  }();
  (void)done;
}

TEST(TypedefRegression, ConflictingDefinitionsUnderOneNameThrow) {
  registerPairsOnce();
  init(sim::SystemConfig::teslaS1070(1));
  Vector<PairA> pa(4);
  Vector<PairB> pb(4);
  pa.setDistribution(Distribution::copy());
  pb.setDistribution(Distribution::copy());

  Map<float> f("float func(float x, __global Pair* p, __global Pair* q) { return x; }");
  Vector<float> v(8);
  EXPECT_THROW(f(v, pa, pb), UsageError)
      << "two extras registering the same struct name with different layouts "
         "must be rejected, not silently shadowed";
  terminate();
}

TEST(TypedefRegression, SharedTypedefAcrossFusedStagesEmittedOnce) {
  registerPairsOnce();
  init(sim::SystemConfig::teslaS1070(2));
  Vector<PairA> pa(4);
  PairA p0;
  p0.a = 1.5f;
  p0.b = 2.5f;
  pa[0] = p0;
  pa.setDistribution(Distribution::copy());

  // Both stages take the same struct-typed extra: the fused program must
  // contain exactly one Pair typedef (a duplicate would fail to compile).
  Pipeline<float> p;
  p.map("float func(float x, __global Pair* p) { return x + p[0].a; }", pa)
      .map("float func(float x, __global Pair* p) { return x + p[0].b; }", pa);
  Vector<float> in = randomVector(64, 83);
  Vector<float> out = p(in);
  EXPECT_TRUE(p.lastRunFused());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], in[i] + 1.5f + 2.5f) << i;
  }
  terminate();
}

// --- regression: stage renaming touches only the stage's functions ----------

struct Scaled {
  float scale = 0.0f;
};

void registerScaledOnce() {
  static const bool done = [] {
    registerKernelType<Scaled>("Scaled", "typedef struct { float scale; } Scaled;");
    return true;
  }();
  (void)done;
}

using RenameRegression = TwoGpus;

TEST_F(RenameRegression, MembersAndMacrosSurviveStageRenaming) {
  registerScaledOnce();
  Vector<Scaled> params(1);
  Scaled s0;
  s0.scale = 0.75f;
  params[0] = s0;
  params.setDistribution(Distribution::copy());
  Vector<float> in = randomVector(300, 101);

  // A helper named like a field of a registered struct extra.
  const char* const kRegistered =
      "float scale(float x) { return 2.0f * x; }\n"
      "float func(float x, __global Scaled* p) { return scale(x) + p[0].scale; }";
  Map<float> map(kRegistered);
  Vector<float> mapped = map(in, params);
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_FLOAT_EQ(mapped[i], 2.0f * in[i] + 0.75f) << i;
  }
  Pipeline<float> chain;
  chain.map(kRegistered, params);
  expectBitIdentical(chain(in), mapped);
  Reduce<float> sum(kAdd2);
  EXPECT_EQ(chain.reduce(kAdd2, in), sum(mapped));

  // A struct the stage declares itself with a field named like a helper,
  // and a macro that expands to the helper's name.
  Map<float> local(
      "typedef struct { float scale; } Local;\n"
      "#define APPLY scale\n"
      "float scale(float x) { return 2.0f * x; }\n"
      "float func(float x) { Local l; l.scale = 0.75f; return APPLY(x) + l.scale; }");
  expectBitIdentical(local(in), mapped);
}

// --- regression: a stage that fails to compile is a BuildError ---------------

using BuildErrorRegression = TwoGpus;

TEST_F(BuildErrorRegression, BrokenStageRaisesBuildErrorOnEveryPath) {
  Vector<float> in = randomVector(64, 103);
  Vector<float> ys = randomVector(64, 107);
  for (const char* broken : {"float func(float x) { return x +; }",
                             "float notfunc(float x) { return x; }"}) {
    const std::string binary =
        std::string(broken).replace(std::string(broken).find("float x"), 7,
                                    "float x, float y");
    SCOPED_TRACE(broken);
    Map<float> map(broken);
    EXPECT_THROW(map(in), ocl::BuildError);
    Zip<float> zip(binary);
    EXPECT_THROW(zip(in, ys), ocl::BuildError);
    for (const bool unfused : {false, true}) {
      Pipeline<float> mapChain;
      mapChain.map(kSquare).map(broken).forceUnfused(unfused);
      EXPECT_THROW(mapChain(in), ocl::BuildError);
      EXPECT_THROW(mapChain.reduce(kAdd2, in), ocl::BuildError);
      Pipeline<float> zipChain;
      zipChain.zip(ys, binary).forceUnfused(unfused);
      EXPECT_THROW(zipChain(in), ocl::BuildError);
      EXPECT_THROW(zipChain.reduce(kAdd2, in), ocl::BuildError);
    }
  }
}

}  // namespace
