// dOpenCL simulation (paper Section V): remote devices appear local, SkelCL
// runs unchanged, and the network cost is visible in the simulated time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <numeric>

#include "core/detail/runtime.hpp"
#include "core/detail/trace.hpp"
#include "core/distribution.hpp"
#include "core/skelcl.hpp"
#include "docl/docl.hpp"

using namespace skelcl;
using namespace skelcl::docl;

namespace {

TEST(Docl, LaboratorySetupExposesEightGpusAndNoLocalDevices) {
  const auto flat = flatten(laboratorySetup());
  EXPECT_EQ(flat.devices.size(), 8u);  // 4 + 2 + 2 GPUs
  EXPECT_EQ(flat.devices[0].name.substr(0, 6), "node0/");
  EXPECT_EQ(flat.devices[4].name.substr(0, 6), "node1/");
  EXPECT_EQ(flat.devices[6].name.substr(0, 6), "node2/");
}

TEST(Docl, LinkIndicesRemappedWithoutCollision) {
  const auto flat = flatten(laboratorySetup());
  // S1070 contributes links 0-1, each dual-GPU server two more
  EXPECT_EQ(flat.links.size(), 6u);
  for (const auto& dev : flat.devices) {
    ASSERT_GE(dev.pcie_link, 0);
    ASSERT_LT(dev.pcie_link, static_cast<int>(flat.links.size()));
  }
  // devices of different nodes never share a link
  EXPECT_NE(flat.devices[3].pcie_link, flat.devices[4].pcie_link);
}

TEST(Docl, EmptyServerListRejected) {
  EXPECT_THROW(flatten(DistributedConfig{}), UsageError);
}

TEST(Docl, SkelClRunsUnchangedOnDistributedDevices) {
  // The drop-in-replacement claim: ordinary SkelCL code over 8 remote GPUs.
  initSkelCL(laboratorySetup());
  EXPECT_EQ(deviceCount(), 8);
  Zip<float> saxpy("float func(float x, float y, float a) { return a * x + y; }");
  const std::size_t n = 4096;
  Vector<float> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(i);
    y[i] = 1.0f;
  }
  Vector<float> out = saxpy(x, y, 3.0f);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FLOAT_EQ(out[i], 3.0f * static_cast<float>(i) + 1.0f);
  }
  terminate();
}

TEST(Docl, NetworkHopMakesRemoteExecutionSlower) {
  auto runMap = [](bool distributed) {
    if (distributed) {
      DistributedConfig cfg;
      cfg.servers.push_back(sim::SystemConfig::teslaS1070(4));
      initSkelCL(cfg);
    } else {
      init(sim::SystemConfig::teslaS1070(4));
    }
    double t = 0.0;
    {
      Map<float(float)> inc("float func(float x) { return x + 1.0f; }");
      Vector<float> v(1 << 16);
      inc(v);  // warm-up compiles the program (excluded, as in the paper)
      finish();
      v.dataOnHostModified();  // force a fresh upload in the timed run
      resetSimClock();
      inc(v);
      finish();
      t = simTimeSeconds();
    }
    terminate();
    return t;
  };
  const double local = runMap(false);
  const double remote = runMap(true);
  EXPECT_GT(remote, 2.0 * local);  // GbE bandwidth + latency dominate
}

TEST(Docl, BandwidthBoundTransfersAtNetworkRate) {
  DistributedConfig cfg;
  cfg.servers.push_back(sim::SystemConfig::teslaS1070(1));
  init(flatten(cfg));  // flatten embeds the NIC topology
  auto& system = detail::Runtime::instance().system();
  const auto span = system.reserveTransfer(0, 117'000'000, 0.0);  // 117 MB
  // ~1 s through the GbE NIC, plus the server-local PCIe leg (~23 ms).
  EXPECT_NEAR(span.duration(), 1.0, 0.05);
  EXPECT_GT(span.duration(), 1.0);
  terminate();
}

TEST(Docl, NodeAwareBlockPartitionApportionsAcrossNodesFirst) {
  const Distribution block = Distribution::block();
  // Two 2-GPU nodes, 10 elements: the node level splits 5/5 exactly, THEN
  // each node rounds internally — so the node boundary lands at 5.  The flat
  // partition rounds across all four devices and puts it at 6.
  const auto tree = block.partition(10, {0, 1, 2, 3}, {0, 0, 1, 1});
  ASSERT_EQ(tree.size(), 4u);
  EXPECT_EQ(tree[0].size + tree[1].size, 5u);  // node0 share
  EXPECT_EQ(tree[2].offset, 5u);               // node boundary
  const auto flat = block.partition(10, {0, 1, 2, 3});
  EXPECT_EQ(flat[2].offset, 6u);

  // One device per node degenerates to the flat partition.
  const auto perNode = block.partition(10, {0, 1, 2, 3}, {0, 1, 2, 3});
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(perNode[i].offset, flat[i].offset);
    EXPECT_EQ(perNode[i].size, flat[i].size);
  }

  // Weighted: node shares follow the summed member weights ({3,1} vs {1,1}
  // -> 5/3 of 8), and the weights then skew the split inside each node.
  const auto weighted =
      Distribution::block({3, 1, 1, 1}).partition(8, {0, 1, 2, 3}, {0, 0, 1, 1});
  EXPECT_EQ(weighted[0].size + weighted[1].size, 5u);
  EXPECT_EQ(weighted[0].size, 4u);  // weight 3 of the node's 4
  EXPECT_EQ(weighted[2].offset, 5u);
}

TEST(Docl, NodeAwareCopyPartitionBroadcastsFullRange) {
  // Copy is a broadcast: node topology changes how the data travels (the
  // tree in materializeParts), never what each device holds.
  const auto parts = Distribution::copy().partition(10, {0, 1, 2, 3}, {0, 0, 1, 1});
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& p : parts) {
    EXPECT_EQ(p.offset, 0u);
    EXPECT_EQ(p.size, 10u);
  }
}

TEST(Docl, NodeAwareBlockPartitionSpansSurvivingDevicesOfDeadNode) {
  // Devices 2 and 3 (tail of node0) are gone: the surviving alive-ordered
  // subset still groups into per-node runs and the split stays balanced.
  const auto parts =
      Distribution::block().partition(12, {0, 1, 4, 5}, {0, 0, 0, 1, 1, 1});
  ASSERT_EQ(parts.size(), 4u);
  for (const auto& p : parts) EXPECT_EQ(p.size, 3u);
  EXPECT_EQ(parts[2].device, 4);
  EXPECT_EQ(parts[2].offset, 6u);  // node boundary at the halfway point
}

TEST(Docl, TreeReduceBitIdenticalToFlatGather) {
  // The two-level tree regroups the fold (chunked device folds, node-local
  // combine, host fold of node values); on exactly-representable values the
  // result must match the flat gather bit for bit.  A fused Pipeline reduce
  // shares the gather, so it takes the tree too: one download per node.
  struct Result {
    float reduce = 0.0f;
    float pipeline = 0.0f;
    int pipelineDownloads = 0;
  };
  auto run = [](bool tree) {
    ::setenv("SKELCL_TREE_COLLECTIVES", tree ? "1" : "0", 1);
    DistributedConfig cfg;
    for (int s = 0; s < 4; ++s) cfg.servers.push_back(sim::SystemConfig::teslaS1070(2));
    initSkelCL(cfg);
    Result r;
    {
      const char* const add = "float func(float a, float b) { return a + b; }";
      Reduce<float> sum(add);
      Vector<float> v(8192);
      // Multiples of 0.25 summing far below 2^24: float addition is exact.
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = 0.25f * static_cast<float>(i % 7);
      }
      r.reduce = sum(v);
      Pipeline<float> twice;
      twice.map("float func(float x) { return 2.0f * x; }");
      trace::enable();
      trace::clear();
      r.pipeline = twice.reduce(add, v);
      for (const trace::Record& rec : trace::snapshot()) {
        if (rec.kind == trace::Record::Kind::Download) ++r.pipelineDownloads;
      }
      trace::disable();
      EXPECT_TRUE(twice.lastRunFused());
    }
    terminate();
    ::unsetenv("SKELCL_TREE_COLLECTIVES");
    return r;
  };
  const Result flat = run(false);
  const Result tree = run(true);
  EXPECT_EQ(std::memcmp(&flat.reduce, &tree.reduce, sizeof(float)), 0)
      << "flat " << flat.reduce << " vs tree " << tree.reduce;
  EXPECT_EQ(std::memcmp(&flat.pipeline, &tree.pipeline, sizeof(float)), 0)
      << "flat " << flat.pipeline << " vs tree " << tree.pipeline;
  // 1170 full 0..6 cycles (sum 5.25 each) plus the leftover {0, 1} pair.
  EXPECT_FLOAT_EQ(flat.reduce, 1170.0f * 5.25f + 0.25f);
  EXPECT_FLOAT_EQ(flat.pipeline, 2.0f * flat.reduce);
  EXPECT_EQ(flat.pipelineDownloads, 8);  // one per device
  EXPECT_EQ(tree.pipelineDownloads, 4);  // one per node
}

TEST(Docl, EmptyVectorRunsThroughClusterSkeleton) {
  // A size-0 vector must survive the whole node-aware path: empty parts on
  // every device, zero-byte transfers charging latency only, empty result.
  DistributedConfig cfg;
  cfg.servers.push_back(sim::SystemConfig::teslaS1070(2));
  cfg.servers.push_back(sim::SystemConfig::teslaS1070(2));
  initSkelCL(cfg);
  {
    Map<int> twice("int func(int x) { return 2 * x; }");
    Vector<int> v(0);
    Vector<int> out = twice(v);
    EXPECT_EQ(out.size(), 0u);
    finish();
    EXPECT_LT(simTimeSeconds(), 0.01);  // no bulk transfer was charged
  }
  terminate();
}

TEST(Docl, ZeroByteTransferChargesLatencyOnly) {
  DistributedConfig cfg;
  cfg.servers.push_back(sim::SystemConfig::teslaS1070(2));
  init(flatten(cfg));
  auto& system = detail::Runtime::instance().system();
  // A bulk transfer occupies the NIC for ~1 s...
  const auto bulk = system.reserveTransfer(0, 117'000'000, 0.0);
  EXPECT_GT(bulk.duration(), 0.9);
  // ...but a zero-byte transfer pays latency only and does NOT queue
  // behind it on any timeline.
  const auto empty = system.reserveTransfer(1, 0, 0.0);
  EXPECT_DOUBLE_EQ(empty.start, 0.0);
  EXPECT_LT(empty.duration(), 1e-3);
  EXPECT_GT(empty.duration(), 0.0);  // NIC + PCIe latency still charged
  terminate();
}

}  // namespace
