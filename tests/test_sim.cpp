// Tests for the simulated-hardware substrate: timelines, system configs,
// transfer/kernel/host cost accounting, link contention.
#include <gtest/gtest.h>

#include "base/error.hpp"
#include "sim/device_spec.hpp"
#include "sim/rng.hpp"
#include "sim/system.hpp"
#include "sim/thread_pool.hpp"
#include "sim/timeline.hpp"

using namespace skelcl;
using namespace skelcl::sim;

namespace {

TEST(Timeline, ReservationsSerialize) {
  Timeline t;
  const auto a = t.reserve(0.0, 1.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
  EXPECT_DOUBLE_EQ(a.end, 1.0);
  const auto b = t.reserve(0.0, 0.5);  // wants to start at 0 but resource is busy
  EXPECT_DOUBLE_EQ(b.start, 1.0);
  EXPECT_DOUBLE_EQ(b.end, 1.5);
}

TEST(Timeline, EarliestRespected) {
  Timeline t;
  const auto a = t.reserve(5.0, 1.0);
  EXPECT_DOUBLE_EQ(a.start, 5.0);
  EXPECT_DOUBLE_EQ(t.availableAt(), 6.0);
}

TEST(Timeline, ResetZeroes) {
  Timeline t;
  t.reserve(0.0, 3.0);
  t.reset();
  EXPECT_DOUBLE_EQ(t.availableAt(), 0.0);
}

TEST(Timeline, NegativeDurationRejected) {
  Timeline t;
  EXPECT_THROW(t.reserve(0.0, -1.0), UsageError);
}

TEST(SystemConfig, TeslaS1070Shapes) {
  for (int n : {1, 2, 4}) {
    const SystemConfig cfg = SystemConfig::teslaS1070(n);
    EXPECT_EQ(static_cast<int>(cfg.devices.size()), n);
    for (const auto& d : cfg.devices) {
      EXPECT_EQ(d.type, DeviceType::GPU);
      EXPECT_EQ(d.cores, 240);
      EXPECT_EQ(d.mem_bytes, 4ull << 30);
    }
  }
  // Two GPUs share each PCIe link, as on the real S1070.
  const SystemConfig cfg4 = SystemConfig::teslaS1070(4);
  EXPECT_EQ(cfg4.devices[0].pcie_link, cfg4.devices[1].pcie_link);
  EXPECT_EQ(cfg4.devices[2].pcie_link, cfg4.devices[3].pcie_link);
  EXPECT_NE(cfg4.devices[0].pcie_link, cfg4.devices[2].pcie_link);
  EXPECT_EQ(cfg4.links.size(), 2u);
}

TEST(SystemConfig, InvalidGpuCountRejected) {
  EXPECT_THROW(SystemConfig::teslaS1070(0), UsageError);
  EXPECT_THROW(SystemConfig::teslaS1070(5), UsageError);
}

TEST(SystemConfig, HeterogeneousLabHasCpuAndTwoGpus) {
  const SystemConfig cfg = SystemConfig::heterogeneousLab();
  ASSERT_EQ(cfg.devices.size(), 3u);
  EXPECT_EQ(cfg.devices[0].type, DeviceType::CPU);
  EXPECT_EQ(cfg.devices[1].type, DeviceType::GPU);
  EXPECT_EQ(cfg.devices[2].type, DeviceType::GPU);
  // clearly different GPU characteristics
  EXPECT_GT(cfg.devices[1].cores, 2 * cfg.devices[2].cores);
}

TEST(System, TransferCostScalesWithBytes) {
  System sys(SystemConfig::teslaS1070(1));
  const auto small = sys.reserveTransfer(0, 1 << 10, 0.0);
  sys.resetClock();
  const auto large = sys.reserveTransfer(0, 1 << 24, 0.0);
  EXPECT_GT(large.duration(), small.duration());
  // 16 MiB over 5.2 GB/s is about 3.2 ms
  EXPECT_NEAR(large.duration(), (1 << 24) / 5.2e9 + 20e-6, 1e-4);
}

TEST(System, SharedLinkContention) {
  // GPUs 0 and 1 share link 0: their transfers serialize.
  System sys(SystemConfig::teslaS1070(2));
  const auto a = sys.reserveTransfer(0, 1 << 20, 0.0);
  const auto b = sys.reserveTransfer(1, 1 << 20, 0.0);
  EXPECT_GE(b.start, a.end);
}

TEST(System, SeparateLinksOverlap) {
  // GPUs 0 and 2 are on different links in the 4-GPU S1070.
  System sys(SystemConfig::teslaS1070(4));
  const auto a = sys.reserveTransfer(0, 1 << 20, 0.0);
  const auto c = sys.reserveTransfer(2, 1 << 20, 0.0);
  EXPECT_DOUBLE_EQ(c.start, 0.0);
  EXPECT_DOUBLE_EQ(a.start, 0.0);
}

TEST(System, KernelCostScalesWithInstructions) {
  System sys(SystemConfig::teslaS1070(1));
  const auto a = sys.reserveKernel(0, 1'000'000, 1024, 1.0, 0.0, 0.0);
  sys.resetClock();
  const auto b = sys.reserveKernel(0, 100'000'000, 1024, 1.0, 0.0, 0.0);
  EXPECT_NEAR(b.duration() / a.duration(), 100.0, 1.0);
}

TEST(System, FewWorkItemsLimitParallelism) {
  // The paper (Section V) notes GPUs are poor at reducing few elements: with
  // fewer work-items than cores, throughput drops proportionally.
  System sys(SystemConfig::teslaS1070(1));
  const auto wide = sys.reserveKernel(0, 1'000'000, 240, 1.0, 0.0, 0.0);
  sys.resetClock();
  const auto narrow = sys.reserveKernel(0, 1'000'000, 4, 1.0, 0.0, 0.0);
  EXPECT_NEAR(narrow.duration() / wide.duration(), 60.0, 1.0);
}

TEST(System, ApiEfficiencyScalesKernelTime) {
  System sys(SystemConfig::teslaS1070(1));
  const auto cuda = sys.reserveKernel(0, 10'000'000, 1024, 1.0, 0.0, 0.0);
  sys.resetClock();
  const auto ocl = sys.reserveKernel(0, 10'000'000, 1024, 0.84, 0.0, 0.0);
  EXPECT_NEAR(ocl.duration() / cuda.duration(), 1.0 / 0.84, 1e-6);
}

TEST(System, HostComputeAdvancesHostClock) {
  System sys(SystemConfig::teslaS1070(1));
  EXPECT_DOUBLE_EQ(sys.hostNow(), 0.0);
  sys.reserveHostCompute(12'000'000'000ull, 0);  // 12 GB touched at 12 GB/s = 1 s
  EXPECT_NEAR(sys.hostNow(), 1.0, 1e-9);
}

TEST(System, HostComputeUsesLargerOfMemOrFlops) {
  System sys(SystemConfig::teslaS1070(1));
  const auto memBound = sys.reserveHostCompute(12'000'000'000ull, 1);
  System sys2(SystemConfig::teslaS1070(1));
  const auto cpuBound = sys2.reserveHostCompute(1, 9'000'000'000ull);
  EXPECT_NEAR(memBound.duration(), 1.0, 1e-9);
  EXPECT_NEAR(cpuBound.duration(), 1.0, 1e-9);
}

TEST(System, PeerTransferUsesBothLinks) {
  System sys(SystemConfig::teslaS1070(4));
  const auto span = sys.reservePeerTransfer(0, 2, 1 << 20, 0.0);
  // down + up, so about twice the single-hop duration
  sys.resetClock();
  const auto one = sys.reserveTransfer(0, 1 << 20, 0.0);
  EXPECT_NEAR(span.duration(), 2 * one.duration(), 1e-6);
}

TEST(System, StatsAccumulateAndReset) {
  System sys(SystemConfig::teslaS1070(1));
  sys.reserveTransfer(0, 1024, 0.0);
  sys.reserveKernel(0, 500, 10, 1.0, 0.0, 0.0);
  EXPECT_EQ(sys.stats().transfers, 1u);
  EXPECT_EQ(sys.stats().bytes_transferred, 1024u);
  EXPECT_EQ(sys.stats().kernel_launches, 1u);
  EXPECT_EQ(sys.stats().instructions_executed, 500u);
  sys.resetClock();
  EXPECT_EQ(sys.stats().transfers, 0u);
}

TEST(System, DeviceIndexValidated) {
  System sys(SystemConfig::teslaS1070(1));
  EXPECT_THROW(sys.device(1), UsageError);
  EXPECT_THROW(sys.device(-1), UsageError);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(1000, [&](std::uint64_t b, std::uint64_t e) {
    for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, BackToBackCallsNeverLoseAChunk) {
  // A worker still finishing one call can take the next call's first queued
  // chunk at once.  When the chunk count was stored only after publishing,
  // that chunk's decrement was overwritten and the caller waited forever
  // (seen after 7k-71k calls of exactly this loop).
  ThreadPool pool(4);
  constexpr std::uint64_t kCalls = 200000;
  std::atomic<std::uint64_t> items{0};
  for (std::uint64_t call = 0; call < kCalls; ++call) {
    pool.parallelFor(8, [&](std::uint64_t b, std::uint64_t e) { items.fetch_add(e - b); });
  }
  EXPECT_EQ(items.load(), 8 * kCalls);
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallelFor(0, [&](std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(100, [](std::uint64_t b, std::uint64_t) {
        if (b == 0) throw std::runtime_error("boom");
      }),
      std::runtime_error);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.nextU64() == b.nextU64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

}  // namespace
