// Tests for the skelcheck differential checker (src/check/) and regression
// tests for the Vector/Distribution bugs it caught.  The checker tests drive
// runProgram(), which executes each program in lockstep against the live
// runtime and the host-side reference model — a passing run means the two
// agreed on error classes, coherence flags, layouts and contents after every
// op.  The regression tests pin the fixed behaviors down directly on the
// Vector API (each one failed before its fix).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "check/generator.hpp"
#include "check/runner.hpp"
#include "check/vector_access.hpp"
#include "core/detail/runtime.hpp"
#include "core/skelcl.hpp"
#include "ocl/queue.hpp"

using namespace skelcl;
using namespace skelcl::check;

namespace {

// --- checker self-tests (no fixture: runProgram inits/terminates itself) ----

TEST(SkelcheckGenerator, Deterministic) {
  EXPECT_EQ(serialize(generate(5, 30)), serialize(generate(5, 30)));
  EXPECT_NE(serialize(generate(5, 30)), serialize(generate(6, 30)));
}

TEST(SkelcheckReplay, SerializeParseRoundTrip) {
  for (std::uint64_t seed : {0ull, 7ull, 23ull}) {
    const Program p = generate(seed, 40);
    const std::string text = serialize(p);
    const Program q = parse(text);
    EXPECT_EQ(serialize(q), text) << "seed " << seed;
  }
}

TEST(SkelcheckReplay, ParseRejectsGarbage) {
  EXPECT_THROW(parse("not a skelcheck file"), std::runtime_error);
  EXPECT_THROW(parse("skelcheck v1\nop kind=nonsense\n"), std::runtime_error);
}

TEST(SkelcheckReplay, CopyCombineAdoptionShrunkRepro) {
  // The shrunk repro for the copy() -> copy(combine) adoption bug, replayed
  // through the full differential checker: on the pre-fix code the system
  // kept first-replica-wins downloads while the model folded, so this
  // program diverged at the probe.
  const char* repro =
      "skelcheck v1\n"
      "config devices=4 elem=i32 n=37 kcopt=1 seed=0 pool=2\n"
      "fill a=0 base=3 step=2\n"
      "setdist a=0 dist=copy\n"
      "map a=0 dst=0 fn=neg inplace=1\n"
      "poke a=0 device=1 base=11 step=1\n"
      "setdist a=0 dist=copy+add\n"
      "probe a=0\n";
  const RunResult res = runProgram(parse(repro));
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(SkelcheckReplay, SessionOpSwitchesPerSessionWeights) {
  // Partition weights are per-session state: session 1 partitions 100
  // elements as 50/17/0/33 while the default session stays at even blocks.
  // The lockstep run compares part layouts after every op, so this diverges
  // if either side leaks weights across sessions or fails to re-plan the
  // cached partition on a session switch.
  const char* repro =
      "skelcheck v1\n"
      "config devices=4 elem=i32 n=100 kcopt=1 seed=0 pool=2\n"
      "fill a=0 base=3 step=2\n"
      "session slot=1 w=3,1,0,2\n"
      "map a=0 dst=1 fn=neg inplace=0\n"
      "probe a=1\n"
      "session slot=0\n"
      "map a=0 dst=1 fn=neg inplace=0\n"
      "probe a=1\n"
      "weights w=0,1,1,0\n"
      "map a=0 dst=1 fn=neg inplace=0\n"
      "session slot=1\n"
      "map a=0 dst=1 fn=neg inplace=0\n"
      "probe a=1\n";
  const Program parsed = parse(repro);
  EXPECT_EQ(serialize(parse(serialize(parsed))), serialize(parsed));
  const RunResult res = runProgram(parsed);
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(SkelcheckReplay, StencilOpsWithKillRecovery) {
  // Hand-written stencil program: a 1D map-overlap with clamp padding, a
  // matrix stencil, and a device kill injected between them — the lockstep
  // run pins the halo-exchange command order and the repartition-and-retry
  // recovery bit-identically against the model.  The in-place map-overlap
  // raises UsageError on both sides (compared, not fatal).
  const char* repro =
      "skelcheck v1\n"
      "config devices=4 elem=i32 n=64 kcopt=1 seed=0 pool=3\n"
      "fill a=0 base=-7 step=3\n"
      "mapoverlap a=0 dst=1 fn=s1sum inplace=0 r=2 pad=1 ci=0 cf=0\n"
      "probe a=1\n"
      "mapoverlap a=1 dst=1 fn=s1diff inplace=1 r=1 pad=0 ci=5 cf=0\n"
      "fault kill=1 after=6\n"
      "matstencil a=0 dst=2 fn=s2sum r=1 pad=0 cols=8 ci=-3 cf=0\n"
      "probe a=2\n"
      "mapoverlap a=2 dst=0 fn=s1sum inplace=0 r=3 pad=0 ci=9 cf=0\n"
      "probe a=0\n"
      "probe a=1\n";
  const Program parsed = parse(repro);
  EXPECT_EQ(serialize(parse(serialize(parsed))), serialize(parsed));
  const RunResult res = runProgram(parsed);
  EXPECT_TRUE(res.ok) << res.message;
}

/// Set by the command hook when any command fails (here: the injected kill).
std::atomic<bool> g_commandFailed{false};

void noteFailedCommand(const ocl::CommandInfo&, const ocl::Event& event) {
  if (event.failed()) g_commandFailed = true;
}

TEST(SkelcheckReplay, StencilOpsAgreeAtEveryKillPosition) {
  // Every fault position in both stencil ranks: device d dies after k
  // commands.  n = 10 on 4 devices gives parts of 3/3/2/2 elements, so the
  // radius-3 map-overlap and the radius-2 matrix stencil (5 rows of 2, parts
  // of one or two rows) read halos across several parts (multi-hop).  For
  // each d, k climbs until the ops finish before the kill fires.
  for (int d = 0; d < 4; ++d) {
    for (int k = 1;; ++k) {
      const std::string text =
          "skelcheck v1\n"
          "config devices=4 elem=i32 n=10 kcopt=1 seed=0 pool=3\n"
          "fault kill=" + std::to_string(d) + " after=" + std::to_string(k) + "\n"
          "fill a=0 base=-7 step=3\n"
          "mapoverlap a=0 dst=1 fn=s1sum inplace=0 r=3 pad=1 ci=0 cf=0\n"
          "probe a=1\n"
          "mapoverlap a=1 dst=2 fn=s1diff inplace=0 r=1 pad=0 ci=5 cf=0\n"
          "probe a=2\n"
          "matstencil a=2 dst=0 fn=s2sum r=2 pad=0 cols=2 ci=-3 cf=0\n"
          "probe a=0\n";
      g_commandFailed = false;
      ocl::setCommandHook(&noteFailedCommand);
      const RunResult res = runProgram(parse(text));
      ocl::setCommandHook(nullptr);
      EXPECT_TRUE(res.ok) << "kill=" << d << " after=" << k << ": " << res.message;
      if (!g_commandFailed) break;
      ASSERT_LT(k, 500) << "kill=" << d << " still fires";
    }
  }
}

TEST(SkelcheckReplay, EmptyVectorsFlowThroughEverySkeleton) {
  // n = 0 is a legal configuration: empty vectors flow through map, zip,
  // scan and both stencils as no-ops, and reduce raises UsageError on both
  // sides — every outcome is compared in lockstep.
  const char* repro =
      "skelcheck v1\n"
      "config devices=4 elem=i32 n=0 kcopt=1 seed=0 pool=2\n"
      "fill a=0 base=1 step=1\n"
      "setdist a=0 dist=block\n"
      "map a=0 dst=1 fn=neg inplace=0\n"
      "zip a=0 b=1 dst=1 fn=add inplace=0\n"
      "scan a=1 dst=0 fn=add inplace=0\n"
      "reduce a=0 fn=add\n"
      "mapoverlap a=0 dst=1 fn=s1sum inplace=0 r=1 pad=0 ci=0 cf=0\n"
      "matstencil a=0 dst=1 fn=s2sum r=1 pad=1 cols=3 ci=0 cf=0\n"
      "probe a=0\n"
      "probe a=1\n";
  const RunResult res = runProgram(parse(repro));
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(SkelcheckReplay, PipeStagesTakeVectorAndSizesExtras) {
  // Pipeline stages with vector (`addv`) and sizes (`adds`) extras, fused,
  // unfused and under a fused reduce; an extra with no distribution and an
  // extra that is the in-place output (UsageError on both sides); and a
  // device kill mid-chain, whose recovery must restore the vector extras.
  const char* repro =
      "skelcheck v1\n"
      "config devices=4 elem=i32 n=64 kcopt=2 seed=0 pool=5\n"
      "fill a=0 base=3 step=2\n"
      "fill a=1 base=-5 step=1\n"
      "fill a=2 base=7 step=-1\n"
      "setdist a=2 dist=copy\n"
      "setdist a=3 dist=block\n"
      "pipe a=0 dst=1 inplace=0 unfused=0 st=m:addv:e2 st=m:adds:e3 st=z:0:add\n"
      "probe a=1\n"
      "pipe a=0 dst=1 inplace=0 unfused=1 st=m:adds:e3 st=m:addv:e2\n"
      "probe a=1\n"
      "pipereduce a=1 fn=add unfused=0 st=m:addv:e2 st=m:adds:e1\n"
      "pipe a=0 dst=1 inplace=0 unfused=0 st=m:addv:e4\n"
      "pipe a=1 dst=1 inplace=1 unfused=0 st=m:neg st=m:addv:e1\n"
      "fault kill=2 after=3\n"
      "pipe a=0 dst=4 inplace=0 unfused=0 st=m:adds:e2 st=m:addv:e2\n"
      "probe a=4\n"
      "probe a=2\n";
  const Program parsed = parse(repro);
  EXPECT_EQ(serialize(parse(serialize(parsed))), serialize(parsed));
  EXPECT_NE(serialize(parsed).find("st=m:addv:e2"), std::string::npos);
  const RunResult res = runProgram(parsed);
  EXPECT_TRUE(res.ok) << res.message;
}

TEST(SkelcheckSmoke, FixedSeedsNoDivergence) {
  // A slice of the CI smoke gate (`skelcheck --smoke` runs 64 seeds); enough
  // here to cover 1/2/4 devices, both element types and both VM pipelines,
  // which generate() derives from the seed alone.
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const RunResult res = runProgram(generate(seed, 30));
    EXPECT_TRUE(res.ok) << "seed " << seed << ": " << res.message;
  }
}

// --- exhaustive distribution-transition matrix ------------------------------
// Every ordered pair of the five distribution kinds, with the data forced
// onto the devices under the first distribution, optionally dirtied (host
// write, or a direct device write on a copy of the data), then probed under
// the second.  runProgram compares contents and every coherence flag against
// the reference model, so this pins the full transition semantics, including
// the copy()/copy(combine) download rules.

DistSpec distSpec(DistKind k) {
  DistSpec d;
  d.kind = k;
  switch (k) {
    case DistKind::Single: d.device = 1; break;
    case DistKind::WBlock: d.weights = {3.0, 1.0, 0.0, 2.0}; break;
    case DistKind::CopyCombine: d.fn = "add"; break;
    default: break;
  }
  return d;
}

Op fillOp(int slot) {
  Op op;
  op.kind = OpKind::Fill;
  op.a = slot;
  op.base = 3;
  op.step = 2;
  return op;
}

Op setDistOp(int slot, DistKind k) {
  Op op;
  op.kind = OpKind::SetDist;
  op.a = slot;
  op.dist = distSpec(k);
  return op;
}

Op mapInPlaceOp(int slot) {
  Op op;
  op.kind = OpKind::Map;
  op.a = slot;
  op.dst = slot;
  op.inPlace = true;
  op.fn = "neg";
  return op;
}

Op writeOp(int slot) {
  Op op;
  op.kind = OpKind::Write;
  op.a = slot;
  op.index = 5;
  op.value = 99;
  return op;
}

Op pokeOp(int slot, int device) {
  Op op;
  op.kind = OpKind::Poke;
  op.a = slot;
  op.device = device;
  op.base = 11;
  op.step = 1;
  return op;
}

Op probeOp(int slot) {
  Op op;
  op.kind = OpKind::Probe;
  op.a = slot;
  return op;
}

TEST(SkelcheckDistMatrix, EveryOrderedTransitionMatchesModel) {
  constexpr DistKind kKinds[] = {DistKind::Single, DistKind::Block, DistKind::WBlock,
                                 DistKind::Copy, DistKind::CopyCombine};
  // 0: clean transition; 1: host write between the distributions (devices
  // stale); 2: device write between them (host stale — the combine path).
  for (int variant = 0; variant < 3; ++variant) {
    for (DistKind from : kKinds) {
      for (DistKind to : kKinds) {
        Program p;
        p.cfg.devices = 4;
        p.cfg.elem = ElemType::I32;
        p.cfg.n = 37;
        p.cfg.poolSize = 2;
        p.ops.push_back(fillOp(0));
        p.ops.push_back(setDistOp(0, from));
        p.ops.push_back(mapInPlaceOp(0));  // forces materialization under `from`
        if (variant == 1) p.ops.push_back(writeOp(0));
        if (variant == 2) p.ops.push_back(pokeOp(0, 0));
        p.ops.push_back(setDistOp(0, to));
        p.ops.push_back(probeOp(0));
        p.ops.push_back(mapInPlaceOp(0));  // re-materialize under `to`
        p.ops.push_back(probeOp(0));
        sanitize(p);
        const RunResult res = runProgram(p);
        EXPECT_TRUE(res.ok) << "variant " << variant << " "
                            << serialize(p) << "\n" << res.message;
      }
    }
  }
}

// --- regression tests for the bugs the checker caught -----------------------

constexpr const char* kAddI = "int func(int a, int b) { return a + b; }";

class SkelcheckRegression : public ::testing::Test {
 protected:
  void SetUp() override { init(sim::SystemConfig::teslaS1070(4)); }
  void TearDown() override { terminate(); }

  /// Give each device's replica of `v` the value `device + 1` everywhere.
  static void divergeReplicas(Vector<int>& v) {
    const auto& parts = v.impl().ensureOnDevices();
    for (std::size_t d = 0; d < parts.size(); ++d) {
      const int val = static_cast<int>(d) + 1;
      for (std::size_t i = 0; i < v.size(); ++i) {
        std::memcpy(parts[d].buffer->data() + i * sizeof(int), &val, sizeof(int));
      }
    }
    v.dataOnDevicesModified();
  }
};

// Bug: ensureOnDevices / ensureOnDevicesNoUpload early-returned when the part
// layout already matched the requested distribution without adopting it, so a
// copy() -> copy(combine) switch (identical layouts) left current_ at plain
// copy and the eventual download used first-replica-wins instead of the fold.
TEST_F(SkelcheckRegression, CopyToCopyCombineAdoptedOnMatchingLayout) {
  Vector<int> v(8);
  v.setDistribution(Distribution::copy());
  divergeReplicas(v);
  v.setDistribution(Distribution::copy(kAddI));
  v.impl().ensureOnDevices();  // layout matches: must adopt, not just return
  EXPECT_EQ(v.impl().currentDistribution().kind(), Distribution::Kind::Copy);
  EXPECT_TRUE(v.impl().currentDistribution().hasCombine());
  EXPECT_EQ(v[0], 1 + 2 + 3 + 4);
  EXPECT_EQ(v[7], 1 + 2 + 3 + 4);
}

// Same bug, host-read path: a direct read after the lazy setDistribution must
// adopt the matching layout inside ensureHostValid and fold.
TEST_F(SkelcheckRegression, HostReadAfterLazyCopyCombineSwitchFolds) {
  Vector<int> v(8);
  v.setDistribution(Distribution::copy());
  divergeReplicas(v);
  v.setDistribution(Distribution::copy(kAddI));
  EXPECT_EQ(v[3], 1 + 2 + 3 + 4);  // no explicit ensureOnDevices in between
}

// And the downgrade direction: copy(combine) -> copy() must stop folding.
TEST_F(SkelcheckRegression, CopyCombineToPlainCopyStopsFolding) {
  Vector<int> v(8);
  v.setDistribution(Distribution::copy(kAddI));
  divergeReplicas(v);
  v.setDistribution(Distribution::copy());
  EXPECT_EQ(v[0], 1);  // first replica wins, no fold
}

// Bug: the combine fold in combineCopiesToHost read staged[p].data() for
// every p >= 1, but zero-sized parts never stage a download — the fold read
// the vector's full byte count through a null pointer.  Zero-sized copy parts
// have no natural construction path, so forge one through the test peer.
TEST_F(SkelcheckRegression, ZeroSizedCopyPartSkippedInCombineFold) {
  Vector<int> v(8);
  v.setDistribution(Distribution::copy(kAddI));
  divergeReplicas(v);
  auto& parts = skelcl::detail::VectorDataTestAccess::partsMut(v.impl());
  ASSERT_EQ(parts.size(), 4u);
  parts[1].size = 0;
  parts[1].buffer.reset();
  // Fold must cover devices 0, 2, 3 and skip the empty part: 1 + 3 + 4.
  EXPECT_EQ(v[0], 1 + 3 + 4);
  EXPECT_EQ(v[7], 1 + 3 + 4);
}

// Bug: the two Distribution::partition overloads validated block weights
// differently — the deviceCount overload demanded exactly one weight per
// device while the device-list overload only required coverage of the ids it
// consults.  Both now share the coverage rule.
TEST(DistributionPartition, WeightValidationUnifiedAcrossOverloads) {
  const Distribution undersized = Distribution::block({1.0, 2.0, 3.0});
  EXPECT_THROW(undersized.partition(100, 4), UsageError);
  EXPECT_THROW(undersized.partition(100, std::vector<int>{0, 1, 2, 3}), UsageError);

  // A covering-but-larger table is fine for both, with identical results.
  const Distribution oversized = Distribution::block({1.0, 1.0, 1.0, 1.0, 5.0});
  const auto a = oversized.partition(100, 4);
  const auto b = oversized.partition(100, std::vector<int>{0, 1, 2, 3});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].device, b[i].device);
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }

  // Undersized tables are fine when the consulted ids stay in range.
  EXPECT_NO_THROW(undersized.partition(100, 2));
  EXPECT_NO_THROW(undersized.partition(100, std::vector<int>{0, 2}));
}

}  // namespace
