// Matrix<T>, the MapOverlap stencil skeletons (1D and 2D, neutral and clamp
// boundaries, inter-device halo exchange), MapPairs, and the partition /
// health edge cases they exposed: tiny-input partition rounding, degraded
// devices without scheduler weights, and empty/single-element vectors
// through every skeleton.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <tuple>
#include <vector>

#include "core/detail/runtime.hpp"
#include "core/detail/trace.hpp"
#include "core/skelcl.hpp"
#include "sim/rng.hpp"

using namespace skelcl;

namespace {

struct RuntimeGuard {
  explicit RuntimeGuard(sim::SystemConfig config) { init(std::move(config)); }
  ~RuntimeGuard() {
    trace::disable();
    trace::clear();
    if (detail::Runtime::initialized()) terminate();
  }
};

std::vector<float> randomFloats(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-8.0, 8.0));
  return v;
}

// Out-of-range read under a boundary policy (the host reference model).
float at1(const std::vector<float>& v, std::ptrdiff_t i, Padding p, float neutral) {
  const auto n = static_cast<std::ptrdiff_t>(v.size());
  if (i >= 0 && i < n) return v[static_cast<std::size_t>(i)];
  if (p == Padding::Clamp) return v[static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(i, 0, n - 1))];
  return neutral;
}

float at2(const std::vector<float>& m, std::size_t rows, std::size_t cols, std::ptrdiff_t r,
          std::ptrdiff_t c, Padding p, float neutral) {
  const auto nr = static_cast<std::ptrdiff_t>(rows);
  const auto nc = static_cast<std::ptrdiff_t>(cols);
  if (r >= 0 && r < nr && c >= 0 && c < nc) {
    return m[static_cast<std::size_t>(r * nc + c)];
  }
  if (p == Padding::Clamp) {
    const auto cr = std::clamp<std::ptrdiff_t>(r, 0, nr - 1);
    const auto cc = std::clamp<std::ptrdiff_t>(c, 0, nc - 1);
    return m[static_cast<std::size_t>(cr * nc + cc)];
  }
  return neutral;
}

}  // namespace

// ---------------------------------------------------------------------------
// Distribution::partition edge cases (the tiny-input rounding bug)
// ---------------------------------------------------------------------------

TEST(DistributionPartition, TinyAndAwkwardCountsCoverExactly) {
  // (count, deviceCount): every case must produce contiguous, disjoint,
  // exactly covering parts with no zero-size part.  Before the rounding fix,
  // count < deviceCount produced trailing zero-size parts (partition(2, 4)
  // returned 4 parts) whose empty buffers leaked into skeleton plans.
  const std::vector<std::pair<std::size_t, int>> cases = {
      {0, 1}, {0, 4}, {1, 1}, {1, 4}, {2, 4}, {3, 4}, {3, 8},
      {5, 4}, {7, 3}, {100, 4}, {1001, 3}, {4, 4}, {8, 4},
  };
  for (const auto& [count, devices] : cases) {
    const auto parts = Distribution::block().partition(count, devices);
    EXPECT_EQ(parts.size(), std::min(count, static_cast<std::size_t>(devices)))
        << "count=" << count << " devices=" << devices;
    std::size_t offset = 0;
    for (const auto& p : parts) {
      EXPECT_EQ(p.offset, offset) << "count=" << count << " devices=" << devices;
      EXPECT_GT(p.size, 0u) << "count=" << count << " devices=" << devices;
      offset += p.size;
    }
    EXPECT_EQ(offset, count) << "count=" << count << " devices=" << devices;
  }
}

TEST(DistributionPartition, WeightedTinyCounts) {
  // Zero-weight devices never receive a part; positive-weight devices with a
  // share rounding to zero are dropped rather than handed empty parts.
  const auto parts = Distribution::block({0.0, 1.0, 1.0, 0.0}).partition(3, 4);
  std::size_t offset = 0;
  for (const auto& p : parts) {
    EXPECT_TRUE(p.device == 1 || p.device == 2) << p.device;
    EXPECT_EQ(p.offset, offset);
    EXPECT_GT(p.size, 0u);
    offset += p.size;
  }
  EXPECT_EQ(offset, 3u);

  // One element, heavy skew: exactly one part, on the heaviest device.
  const auto one = Distribution::block({0.1, 5.0, 0.1, 0.1}).partition(1, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].device, 1);
  EXPECT_EQ(one[0].size, 1u);
}

TEST(DistributionPartition, ExplicitDeviceListAfterLoss) {
  // Partition over survivors {0, 2, 3}: parts stay contiguous and only name
  // listed devices, even when count < survivor count.
  const std::vector<int> alive = {0, 2, 3};
  for (const std::size_t count : {std::size_t{1}, std::size_t{2}, std::size_t{10}}) {
    const auto parts = Distribution::block().partition(count, alive);
    std::size_t offset = 0;
    for (const auto& p : parts) {
      EXPECT_TRUE(std::find(alive.begin(), alive.end(), p.device) != alive.end());
      EXPECT_EQ(p.offset, offset);
      EXPECT_GT(p.size, 0u);
      offset += p.size;
    }
    EXPECT_EQ(offset, count);
  }
}

// ---------------------------------------------------------------------------
// Degraded device without scheduler weights (the health-folding bug)
// ---------------------------------------------------------------------------

TEST(DegradedShare, UnweightedBlockShrinksOnDegradedDevice0) {
  // A watchdog-degraded device must receive less work even when the session
  // never set scheduler weights: health alone drives the block split.
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  sim::FaultPlan plan;
  plan.hangCommands(0, 1);
  setFaultPlan(std::move(plan));

  Map<int> twice("int func(int x) { return 2 * x; }");
  Vector<int> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<int>(i);
  Vector<int> out = twice(v);  // takes the watchdog strike on device 0
  ASSERT_DOUBLE_EQ(deviceHealth(0), 0.25);
  ASSERT_TRUE(detail::Session::current().partitionWeights().empty());

  Vector<int> out2 = twice(v);
  for (std::size_t i = 0; i < out2.size(); ++i) {
    ASSERT_EQ(out2[i], 2 * static_cast<int>(i)) << i;
  }
  // health 0.25 : 1.0 => 200 : 800 over 1000 elements
  EXPECT_EQ(out2.impl().partSizeOn(0), 200u);
  EXPECT_EQ(out2.impl().partSizeOn(1), 800u);
}

// ---------------------------------------------------------------------------
// Matrix container
// ---------------------------------------------------------------------------

TEST(MatrixContainer, ShapeInitAccessAndSharing) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Matrix<float> m(3, 4);
  EXPECT_EQ(m.rowCount(), 3u);
  EXPECT_EQ(m.columnCount(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m(1, 2) = 7.5f;
  EXPECT_FLOAT_EQ(m(1, 2), 7.5f);

  Matrix<float> alias = m;  // shared handle, like Vector
  alias(1, 2) = 9.0f;
  EXPECT_FLOAT_EQ(m(1, 2), 9.0f);

  std::vector<float> init(6);
  for (std::size_t i = 0; i < 6; ++i) init[i] = static_cast<float>(i);
  Matrix<float> m2(2, 3, init);
  EXPECT_EQ(m2.toStdVector(), init);

  EXPECT_THROW(Matrix<float>(2, 3, std::vector<float>(5)), UsageError);
  EXPECT_THROW(Matrix<float>(2, 0), UsageError);
  Matrix<float> empty(0, 3);  // zero rows is a valid empty matrix
  EXPECT_TRUE(empty.empty());
}

// ---------------------------------------------------------------------------
// MapOverlap 1D
// ---------------------------------------------------------------------------

namespace {

class Stencil1DP : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {
 protected:
  void SetUp() override { init(sim::SystemConfig::teslaS1070(std::get<0>(GetParam()))); }
  void TearDown() override {
    trace::disable();
    trace::clear();
    terminate();
  }
  std::size_t n() const { return std::get<1>(GetParam()); }
};

INSTANTIATE_TEST_SUITE_P(
    DevicesAndSizes, Stencil1DP,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{7},
                                         std::size_t{100}, std::size_t{1001})),
    [](const auto& info) {
      return "gpus" + std::to_string(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

constexpr const char* kSum3 =
    "float func(__global float* in, int i) { return in[i - 1] + in[i] + in[i + 1]; }";

}  // namespace

TEST_P(Stencil1DP, Sum3NeutralMatchesReference) {
  MapOverlap<float(float)> sum3(kSum3, 1, Padding::Neutral, 0.0f);
  const std::vector<float> host = randomFloats(n(), 11);
  Vector<float> in(host);
  Vector<float> out = sum3(in);
  ASSERT_EQ(out.size(), n());
  for (std::size_t i = 0; i < n(); ++i) {
    const auto s = static_cast<std::ptrdiff_t>(i);
    EXPECT_FLOAT_EQ(out[i], at1(host, s - 1, Padding::Neutral, 0.0f) + host[i] +
                                at1(host, s + 1, Padding::Neutral, 0.0f))
        << i;
  }
}

TEST_P(Stencil1DP, Sum3ClampMatchesReference) {
  MapOverlap<float(float)> sum3(kSum3, 1, Padding::Clamp);
  const std::vector<float> host = randomFloats(n(), 12);
  Vector<float> in(host);
  Vector<float> out = sum3(in);
  for (std::size_t i = 0; i < n(); ++i) {
    const auto s = static_cast<std::ptrdiff_t>(i);
    EXPECT_FLOAT_EQ(out[i], at1(host, s - 1, Padding::Clamp, 0.0f) + host[i] +
                                at1(host, s + 1, Padding::Clamp, 0.0f))
        << i;
  }
}

TEST_P(Stencil1DP, Radius3WithScalarExtra) {
  MapOverlap<float(float)> wide(
      "float func(__global float* in, int i, float w) {"
      "  return w * (in[i - 3] + in[i - 1] + in[i] + in[i + 1] + in[i + 3]);"
      "}",
      3, Padding::Neutral, 1.0f);  // neutral 1.0 exercises non-zero padding
  const std::vector<float> host = randomFloats(n(), 13);
  Vector<float> in(host);
  Vector<float> out = wide(in, 0.5f);
  for (std::size_t i = 0; i < n(); ++i) {
    const auto s = static_cast<std::ptrdiff_t>(i);
    const float expect = 0.5f * (at1(host, s - 3, Padding::Neutral, 1.0f) +
                                 at1(host, s - 1, Padding::Neutral, 1.0f) + host[i] +
                                 at1(host, s + 1, Padding::Neutral, 1.0f) +
                                 at1(host, s + 3, Padding::Neutral, 1.0f));
    EXPECT_FLOAT_EQ(out[i], expect) << i;
  }
}

TEST(Stencil1D, MultiHopHaloWhenRadiusSpansSeveralParts) {
  // 8 elements over 4 GPUs -> 2 per device; radius 5 reaches across two
  // whole neighbouring parts plus part of a third, on both sides.
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(4));
  MapOverlap<int(int)> span(
      "int func(__global int* in, int i) { return in[i - 5] + in[i] + in[i + 5]; }", 5,
      Padding::Neutral, 0);
  Vector<int> in(8);
  for (std::size_t i = 0; i < 8; ++i) in[i] = 1 << i;
  Vector<int> out = span(in);
  for (std::size_t i = 0; i < 8; ++i) {
    const int lo = i >= 5 ? in[i - 5] : 0;
    const int hi = i + 5 < 8 ? in[i + 5] : 0;
    EXPECT_EQ(out[i], lo + in[i] + hi) << i;
  }
}

namespace {

/// Trace records of the last stencil call whose stage label starts with
/// `prefix` ("halo get", "overlap edge", ...).
int countLabelled(const char* prefix) {
  int count = 0;
  for (const auto& r : trace::snapshot()) {
    if (r.name.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

}  // namespace

TEST(Stencil1D, HaloExchangeIsTraced) {
  // The contiguous apron: one interior copy per part, halo segments uploaded
  // whole, boundary rows filled by edge commands — never the pack kernel.
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(4));
  trace::enable();
  MapOverlap<float(float)> sum3(kSum3, 1, Padding::Clamp);
  Vector<float> in(randomFloats(64, 15));
  Vector<float> out = sum3(in);
  (void)out.hostData();

  int halos = 0;
  for (const auto& r : trace::snapshot()) {
    if (r.kind == trace::Record::Kind::Halo) ++halos;
  }
  // 4 parts of 16, 3 internal boundaries, one get and one put per direction.
  EXPECT_EQ(halos, 12);
  EXPECT_EQ(countLabelled("halo get"), 6);
  EXPECT_EQ(countLabelled("halo put"), 6);
  EXPECT_EQ(countLabelled("overlap interior"), 4);
  EXPECT_EQ(countLabelled("overlap edge"), 2);  // one clamp copy at each global end
  EXPECT_EQ(countLabelled("overlap pack"), 0);

  // Multi-hop: 8 elements in parts of 2, radius 5.  Every part reads three
  // segments (one upload each), and each out-of-range end of a padded part
  // (5, 3 or 1 elements deep) is one neutral fill.
  trace::clear();
  MapOverlap<int(int)> span(
      "int func(__global int* in, int i) { return in[i - 5] + in[i] + in[i + 5]; }", 5,
      Padding::Neutral, 0);
  Vector<int> small(8);
  for (std::size_t i = 0; i < 8; ++i) small[i] = static_cast<int>(i);
  Vector<int> spanned = span(small);
  (void)spanned.hostData();
  EXPECT_EQ(countLabelled("halo get"), 12);
  EXPECT_EQ(countLabelled("halo put"), 12);
  EXPECT_EQ(countLabelled("overlap edge"), 6);
  EXPECT_EQ(countLabelled("overlap pack"), 0);
}

TEST(Stencil1D, InPlaceIsRejected) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  MapOverlap<float(float)> sum3(kSum3, 1, Padding::Clamp);
  Vector<float> v(randomFloats(64, 14));
  EXPECT_THROW(sum3(out(v), v), UsageError);
}

TEST(Stencil1D, EmptyInputYieldsEmptyOutput) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  MapOverlap<float(float)> sum3(kSum3, 1, Padding::Clamp);
  Vector<float> in(0);
  Vector<float> out = sum3(in);
  EXPECT_EQ(out.size(), 0u);
}

// ---------------------------------------------------------------------------
// MapOverlap 2D
// ---------------------------------------------------------------------------

namespace {

class Stencil2DP
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, std::size_t>> {
 protected:
  void SetUp() override { init(sim::SystemConfig::teslaS1070(std::get<0>(GetParam()))); }
  void TearDown() override {
    trace::disable();
    trace::clear();
    terminate();
  }
  std::size_t rows() const { return std::get<1>(GetParam()); }
  std::size_t cols() const { return std::get<2>(GetParam()); }
};

// Rows include non-divisible heights (3, 7, 33 across 2/4 GPUs) and fewer
// rows than devices (1, 3 on 4 GPUs) so halos cross several parts.
INSTANTIATE_TEST_SUITE_P(
    DevicesAndShapes, Stencil2DP,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(std::size_t{1}, std::size_t{3}, std::size_t{7},
                                         std::size_t{33}),
                       ::testing::Values(std::size_t{1}, std::size_t{5}, std::size_t{17})),
    [](const auto& info) {
      return "gpus" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

// 3x3 Gaussian blur, radius 1 (the paper's stencil showcase).
constexpr const char* kGauss3 =
    "float func(__global float* m, int i, int s) {"
    "  return (m[i - s - 1] + 2.0f * m[i - s] + m[i - s + 1]"
    "        + 2.0f * m[i - 1] + 4.0f * m[i] + 2.0f * m[i + 1]"
    "        + m[i + s - 1] + 2.0f * m[i + s] + m[i + s + 1]) / 16.0f;"
    "}";

float gauss3Ref(const std::vector<float>& m, std::size_t rows, std::size_t cols,
                std::ptrdiff_t r, std::ptrdiff_t c, Padding p, float neutral) {
  auto a = [&](std::ptrdiff_t dr, std::ptrdiff_t dc) {
    return at2(m, rows, cols, r + dr, c + dc, p, neutral);
  };
  return (a(-1, -1) + 2.0f * a(-1, 0) + a(-1, 1) + 2.0f * a(0, -1) + 4.0f * a(0, 0) +
          2.0f * a(0, 1) + a(1, -1) + 2.0f * a(1, 0) + a(1, 1)) /
         16.0f;
}

// 5-point cross at distance 2, radius 2: on a 1- or 2-row part every halo
// access leaves the part.
constexpr const char* kCross2 =
    "float func(__global float* m, int i, int s) {"
    "  return m[i - 2 * s] + m[i - 2] + m[i] + m[i + 2] + m[i + 2 * s];"
    "}";

}  // namespace

TEST_P(Stencil2DP, Gauss3NeutralMatchesReference) {
  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Neutral, 0.0f);
  const std::vector<float> host = randomFloats(rows() * cols(), 21);
  Matrix<float> in(rows(), cols(), host);
  Matrix<float> out = blur(in);
  ASSERT_EQ(out.rowCount(), rows());
  ASSERT_EQ(out.columnCount(), cols());
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      EXPECT_FLOAT_EQ(out(r, c),
                      gauss3Ref(host, rows(), cols(), static_cast<std::ptrdiff_t>(r),
                                static_cast<std::ptrdiff_t>(c), Padding::Neutral, 0.0f))
          << r << "," << c;
    }
  }
}

TEST_P(Stencil2DP, Gauss3ClampMatchesReference) {
  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Clamp);
  const std::vector<float> host = randomFloats(rows() * cols(), 22);
  Matrix<float> in(rows(), cols(), host);
  Matrix<float> out = blur(in);
  for (std::size_t r = 0; r < rows(); ++r) {
    for (std::size_t c = 0; c < cols(); ++c) {
      EXPECT_FLOAT_EQ(out(r, c),
                      gauss3Ref(host, rows(), cols(), static_cast<std::ptrdiff_t>(r),
                                static_cast<std::ptrdiff_t>(c), Padding::Clamp, 0.0f))
          << r << "," << c;
    }
  }
}

TEST_P(Stencil2DP, Radius2CrossBothPaddings) {
  for (const Padding p : {Padding::Neutral, Padding::Clamp}) {
    MapOverlap<float(float)> cross(kCross2, 2, p, 0.5f);
    const std::vector<float> host = randomFloats(rows() * cols(), 23);
    Matrix<float> in(rows(), cols(), host);
    Matrix<float> out = cross(in);
    for (std::size_t r = 0; r < rows(); ++r) {
      for (std::size_t c = 0; c < cols(); ++c) {
        const auto sr = static_cast<std::ptrdiff_t>(r);
        const auto sc = static_cast<std::ptrdiff_t>(c);
        const float expect = at2(host, rows(), cols(), sr - 2, sc, p, 0.5f) +
                             at2(host, rows(), cols(), sr, sc - 2, p, 0.5f) + host[r * cols() + c] +
                             at2(host, rows(), cols(), sr, sc + 2, p, 0.5f) +
                             at2(host, rows(), cols(), sr + 2, sc, p, 0.5f);
        EXPECT_FLOAT_EQ(out(r, c), expect) << r << "," << c;
      }
    }
  }
}

TEST(Stencil2D, HaloExchangeIsTraced) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(4));
  trace::enable();
  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Clamp);
  Matrix<float> in(64, 16, randomFloats(64 * 16, 31));
  Matrix<float> out = blur(in);
  (void)out.hostData();
  trace::disable();

  int halos = 0;
  for (const auto& r : trace::snapshot()) {
    if (r.kind != trace::Record::Kind::Halo) continue;
    ++halos;
    EXPECT_NE(r.name.find("->"), std::string::npos) << r.name;
    EXPECT_GT(r.bytes, 0u) << "halo records are transfers";
  }
  // 4 parts, 3 interior edges, each edge one download + one upload per
  // direction = 4 halo records per edge.
  EXPECT_EQ(halos, 12);

  // Column padding: the pack kernel builds the apron (no interior copy), and
  // halo rows land one upload per row — radius 2 gives 6 segments of 2 rows.
  trace::clear();
  trace::enable();
  MapOverlap<float(float)> wide(
      "float func(__global float* m, int i, int s) { return m[i - 2 * s] + m[i + 2]; }", 2,
      Padding::Neutral, 0.0f);
  Matrix<float> wider = wide(in);
  (void)wider.hostData();
  EXPECT_EQ(countLabelled("halo get"), 6);
  EXPECT_EQ(countLabelled("halo put"), 12);
  EXPECT_EQ(countLabelled("overlap pack"), 4);
  EXPECT_EQ(countLabelled("overlap interior"), 0);
  EXPECT_EQ(countLabelled("overlap edge"), 0);
}

TEST(Stencil2D, SingleDeviceNeedsNoHalo) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(1));
  trace::enable();
  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Clamp);
  Matrix<float> in(32, 8, randomFloats(32 * 8, 32));
  Matrix<float> out = blur(in);
  (void)out.hostData();
  trace::disable();
  for (const auto& r : trace::snapshot()) {
    EXPECT_NE(r.kind, trace::Record::Kind::Halo) << r.name;
  }
}

TEST(Stencil2D, InPlaceIsRejected) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Clamp);
  Matrix<float> m(8, 8, randomFloats(64, 33));
  EXPECT_THROW(blur(m, m), UsageError);
}

TEST(Stencil2D, EmptyMatrixYieldsEmptyOutput) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Neutral, 0.0f);
  Matrix<float> in(0, 5);
  Matrix<float> out = blur(in);
  EXPECT_EQ(out.rowCount(), 0u);
  EXPECT_EQ(out.columnCount(), 5u);
}

// ---------------------------------------------------------------------------
// Stencils under faults
// ---------------------------------------------------------------------------

namespace {

// A few Jacobi sweeps with ping-pong buffers; returns the final bytes.
std::vector<float> jacobiRun(std::size_t rows, std::size_t cols, int sweeps) {
  MapOverlap<float(float)> step(
      "float func(__global float* m, int i, int s) {"
      "  return 0.25f * (m[i - s] + m[i - 1] + m[i + 1] + m[i + s]);"
      "}",
      1, Padding::Clamp);
  std::vector<float> init(rows * cols);
  for (std::size_t i = 0; i < init.size(); ++i) {
    init[i] = static_cast<float>((i * 2654435761u) % 1000) / 500.0f - 1.0f;
  }
  Matrix<float> a(rows, cols, init);
  Matrix<float> b(rows, cols);
  for (int it = 0; it < sweeps; ++it) {
    step(b, a);
    std::swap(a, b);
  }
  return a.toStdVector();
}

}  // namespace

TEST(StencilFaults, DeviceDeathMidJacobiRecoversBitIdentically) {
  // Kill device 2 of 4 after its first few commands: the iteration in flight
  // repartitions over the survivors, re-exchanges halos, and re-executes.
  // The result must be byte-for-byte the run of an undisturbed system —
  // stencil arithmetic is per-element, so ANY device count gives the same
  // bits; compare against a clean 3-GPU run (the survivor count).
  std::vector<float> clean3;
  {
    RuntimeGuard rt(sim::SystemConfig::teslaS1070(3));
    clean3 = jacobiRun(32, 12, 4);
  }
  std::vector<float> killed;
  {
    RuntimeGuard rt(sim::SystemConfig::teslaS1070(4));
    sim::FaultPlan plan;
    plan.killAfterCommands(2, 5);  // dies mid-stencil, after serving halos
    setFaultPlan(std::move(plan));
    killed = jacobiRun(32, 12, 4);
    EXPECT_EQ(aliveDeviceCount(), 3);
  }
  ASSERT_EQ(killed.size(), clean3.size());
  EXPECT_EQ(std::memcmp(killed.data(), clean3.data(), killed.size() * sizeof(float)), 0)
      << "recovered stencil must be bit-identical to the native 3-GPU run";
}

TEST(StencilFaults, WatchdogDegradeMidStencilStillCorrectAndShrinksShare) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  sim::FaultPlan plan;
  plan.hangCommands(1);  // the first device-1 command hangs mid-stencil
  setFaultPlan(std::move(plan));

  MapOverlap<float(float)> blur(kGauss3, 1, Padding::Neutral, 0.0f);
  const std::size_t rows = 40, cols = 8;
  const std::vector<float> host = randomFloats(rows * cols, 41);
  Matrix<float> in(rows, cols, host);
  Matrix<float> out = blur(in);

  EXPECT_EQ(aliveDeviceCount(), 2) << "a hang degrades, never blacklists";
  EXPECT_EQ(degradeCount(1), 1);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      ASSERT_FLOAT_EQ(out(r, c),
                      gauss3Ref(host, rows, cols, static_cast<std::ptrdiff_t>(r),
                                static_cast<std::ptrdiff_t>(c), Padding::Neutral, 0.0f))
          << r << "," << c;
    }
  }
  // The next stencil plans around the straggler: 1.0 : 0.25 over 40 rows.
  Matrix<float> out2 = blur(in);
  (void)out2.hostData();
  EXPECT_EQ(out2.impl().rowVector().partSizeOn(0), 32u);
  EXPECT_EQ(out2.impl().rowVector().partSizeOn(1), 8u);
}

// ---------------------------------------------------------------------------
// MapPairs
// ---------------------------------------------------------------------------

namespace {

class MapPairsP : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { init(sim::SystemConfig::teslaS1070(GetParam())); }
  void TearDown() override { terminate(); }
};

INSTANTIATE_TEST_SUITE_P(Devices, MapPairsP, ::testing::Values(1, 2, 3, 4),
                         [](const auto& info) { return "gpus" + std::to_string(info.param); });

}  // namespace

TEST_P(MapPairsP, OuterDifferenceMatchesReference) {
  MapPairs<float(float, float)> diff("float func(float a, float b) { return a - b; }");
  const std::vector<float> l = randomFloats(37, 51);
  const std::vector<float> r = randomFloats(23, 52);
  Matrix<float> out = diff(Vector<float>(l), Vector<float>(r));
  ASSERT_EQ(out.rowCount(), 37u);
  ASSERT_EQ(out.columnCount(), 23u);
  for (std::size_t i = 0; i < l.size(); ++i) {
    for (std::size_t j = 0; j < r.size(); ++j) {
      EXPECT_FLOAT_EQ(out(i, j), l[i] - r[j]) << i << "," << j;
    }
  }
}

TEST_P(MapPairsP, FewerRowsThanDevicesAndScalarExtra) {
  MapPairs<int(int, int)> f("int func(int a, int b, int k) { return a * k + b; }");
  Vector<int> l(2);
  l[0] = 1;
  l[1] = 2;
  Vector<int> r(3);
  r[0] = 10;
  r[1] = 20;
  r[2] = 30;
  Matrix<int> out(2, 3);
  f(out, l, r, 100);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(out(i, j), l[i] * 100 + r[j]) << i << "," << j;
    }
  }
}

TEST(MapPairs, ShapeErrors) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  MapPairs<float(float, float)> f("float func(float a, float b) { return a + b; }");
  EXPECT_THROW(f(Vector<float>(4), Vector<float>(0)), UsageError);  // no columns
  Matrix<float> wrong(3, 3);
  EXPECT_THROW(f(wrong, Vector<float>(4), Vector<float>(3)), UsageError);
  Matrix<float> empty = f(Vector<float>(0), Vector<float>(3));  // no rows is fine
  EXPECT_EQ(empty.rowCount(), 0u);
}

// ---------------------------------------------------------------------------
// Empty and single-element vectors through every skeleton
// ---------------------------------------------------------------------------

TEST(EmptyVectors, DefinedBehaviorAcrossSkeletons) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(3));
  Vector<float> empty(0);

  Map<float> inc("float func(float x) { return x + 1.0f; }");
  EXPECT_EQ(inc(empty).size(), 0u);

  Zip<float> add("float func(float a, float b) { return a + b; }");
  EXPECT_EQ(add(empty, Vector<float>(0)).size(), 0u);

  Scan<float> psum("float func(float a, float b) { return a + b; }");
  EXPECT_EQ(psum(empty).size(), 0u);

  Pipeline<float> pipe;
  pipe.map("float func(float x) { return 2.0f * x; }");
  EXPECT_EQ(pipe(empty).size(), 0u);

  // Reduce of nothing has no defined value: a usage error, not a crash.
  Reduce<float> sum("float func(float a, float b) { return a + b; }");
  EXPECT_THROW(sum(empty), UsageError);
}

TEST(EmptyVectors, SingleElementAcrossSkeletons) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(4));  // more devices than data
  Vector<float> one(1);
  one[0] = 3.0f;

  Map<float> inc("float func(float x) { return x + 1.0f; }");
  Vector<float> mapped = inc(one);
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_FLOAT_EQ(mapped[0], 4.0f);

  Reduce<float> sum("float func(float a, float b) { return a + b; }");
  EXPECT_FLOAT_EQ(sum(one), 3.0f);

  Scan<float> psum("float func(float a, float b) { return a + b; }");
  Vector<float> scanned = psum(one);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_FLOAT_EQ(scanned[0], 3.0f);

  MapOverlap<float(float)> sum3(kSum3, 1, Padding::Clamp);
  Vector<float> st = sum3(one);
  ASSERT_EQ(st.size(), 1u);
  EXPECT_FLOAT_EQ(st[0], 9.0f);  // clamp: 3 + 3 + 3
}
