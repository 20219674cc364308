// Tests for the OSEM application study: Siddon traversal properties, the
// synthetic scanner, reconstruction convergence, and the equivalence of the
// SkelCL / OpenCL / CUDA implementations with the sequential reference —
// including that their step-1 kernels run batched and that their images do
// not depend on the VM tier, batching or the host thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>

#include "kernelc/bytecode.hpp"
#include "ocl/queue.hpp"
#include "osem/osem.hpp"
#include "osem/siddon.hpp"
#include "sim/rng.hpp"

using namespace skelcl::osem;

namespace {

VolumeSpec smallVolume() {
  VolumeSpec v;
  v.nx = 16;
  v.ny = 16;
  v.nz = 16;
  v.voxel = 2.0f;
  return v;
}

// --- Siddon ------------------------------------------------------------------

TEST(Siddon, AxisAlignedRayCrossesWholeRow) {
  const VolumeSpec vol = smallVolume();
  // a ray through the middle of row iy=8, iz=8, along +x
  Event e{-100.0f, 1.0f, 1.0f, 100.0f, 1.0f, 1.0f};
  const auto path = siddonPath(vol, e);
  ASSERT_EQ(path.size(), 16u);
  float total = 0.0f;
  for (const auto& p : path) {
    EXPECT_NEAR(p.length, 2.0f, 1e-4f);  // voxel size, up to float rounding
    total += p.length;
  }
  EXPECT_NEAR(total, 32.0f, 1e-3f);  // nx * voxel
}

TEST(Siddon, MissingRayProducesEmptyPath) {
  const VolumeSpec vol = smallVolume();
  Event e{-100.0f, 100.0f, 0.0f, 100.0f, 100.0f, 0.0f};  // passes above the box
  EXPECT_TRUE(siddonPath(vol, e).empty());
}

TEST(Siddon, DegenerateZeroLengthEvent) {
  const VolumeSpec vol = smallVolume();
  Event e{1.0f, 1.0f, 1.0f, 1.0f, 1.0f, 1.0f};
  EXPECT_TRUE(siddonPath(vol, e).empty());
}

TEST(Siddon, PathLengthsSumToClippedSegment) {
  // Property: for random rays, sum of per-voxel lengths == clipped length.
  const VolumeSpec vol = smallVolume();
  skelcl::sim::Rng rng(123);
  int nonEmpty = 0;
  for (int k = 0; k < 500; ++k) {
    Event e;
    e.x1 = static_cast<float>(rng.uniform(-60, 60));
    e.y1 = static_cast<float>(rng.uniform(-60, 60));
    e.z1 = static_cast<float>(rng.uniform(-60, 60));
    e.x2 = static_cast<float>(rng.uniform(-60, 60));
    e.y2 = static_cast<float>(rng.uniform(-60, 60));
    e.z2 = static_cast<float>(rng.uniform(-60, 60));
    const auto path = siddonPath(vol, e);
    const float expected = clippedSegmentLength(vol, e);
    float total = 0.0f;
    for (const auto& p : path) total += p.length;
    EXPECT_NEAR(total, expected, 1e-3f + 1e-3f * expected) << "ray " << k;
    nonEmpty += path.empty() ? 0 : 1;
  }
  EXPECT_GT(nonEmpty, 100);  // the sampling box intersects the volume often
}

TEST(Siddon, AllVoxelIndicesInBounds) {
  const VolumeSpec vol = smallVolume();
  skelcl::sim::Rng rng(7);
  for (int k = 0; k < 500; ++k) {
    Event e;
    e.x1 = static_cast<float>(rng.uniform(-50, 50));
    e.y1 = static_cast<float>(rng.uniform(-50, 50));
    e.z1 = static_cast<float>(rng.uniform(-50, 50));
    e.x2 = static_cast<float>(rng.uniform(-50, 50));
    e.y2 = static_cast<float>(rng.uniform(-50, 50));
    e.z2 = static_cast<float>(rng.uniform(-50, 50));
    for (const auto& p : siddonPath(vol, e)) {
      EXPECT_LT(p.voxel, vol.voxels());
      EXPECT_GT(p.length, 0.0f);
    }
  }
}

TEST(Siddon, VoxelsAreVisitedAtMostOnce) {
  const VolumeSpec vol = smallVolume();
  skelcl::sim::Rng rng(99);
  for (int k = 0; k < 200; ++k) {
    Event e;
    e.x1 = static_cast<float>(rng.uniform(-50, 50));
    e.y1 = static_cast<float>(rng.uniform(-50, 50));
    e.z1 = static_cast<float>(rng.uniform(-50, 50));
    e.x2 = -e.x1;
    e.y2 = -e.y1;
    e.z2 = -e.z1;
    const auto path = siddonPath(vol, e);
    std::vector<std::size_t> seen;
    for (const auto& p : path) seen.push_back(p.voxel);
    std::sort(seen.begin(), seen.end());
    EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
  }
}

// --- phantom & scanner ----------------------------------------------------------

TEST(Phantom, ActivityStructure) {
  const VolumeSpec vol = smallVolume();
  Phantom phantom(vol);
  EXPECT_EQ(phantom.image().size(), vol.voxels());
  // center of the cylinder: background activity
  EXPECT_FLOAT_EQ(phantom.activityAt(0.0f, 0.0f, 0.0f), 1.0f);
  // far outside: nothing
  EXPECT_FLOAT_EQ(phantom.activityAt(1000.0f, 0.0f, 0.0f), 0.0f);
  // there are hot (8.0) and cold (0.0) voxels inside the cylinder
  int hot = 0;
  int background = 0;
  for (float a : phantom.image()) {
    if (a == 8.0f) ++hot;
    if (a == 1.0f) ++background;
  }
  EXPECT_GT(hot, 0);
  EXPECT_GT(background, 100);
}

TEST(Scanner, EventsEndOnDetectorCylinder) {
  const VolumeSpec vol = smallVolume();
  Phantom phantom(vol);
  Scanner scanner(60.0f, 80.0f);
  const auto events = scanner.generateEvents(phantom, 200, 5);
  ASSERT_EQ(events.size(), 200u);
  for (const Event& e : events) {
    EXPECT_NEAR(std::sqrt(e.x1 * e.x1 + e.y1 * e.y1), 60.0f, 0.01f);
    EXPECT_NEAR(std::sqrt(e.x2 * e.x2 + e.y2 * e.y2), 60.0f, 0.01f);
    EXPECT_LE(std::fabs(e.z1), 80.0f);
    EXPECT_LE(std::fabs(e.z2), 80.0f);
  }
}

TEST(Scanner, EventsAreDeterministicInSeed) {
  const VolumeSpec vol = smallVolume();
  Phantom phantom(vol);
  Scanner scanner(60.0f, 80.0f);
  const auto a = scanner.generateEvents(phantom, 50, 11);
  const auto b = scanner.generateEvents(phantom, 50, 11);
  const auto c = scanner.generateEvents(phantom, 50, 12);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Event)), 0);
  EXPECT_NE(std::memcmp(a.data(), c.data(), a.size() * sizeof(Event)), 0);
}

TEST(Scanner, MostEventsCrossTheVolume) {
  const VolumeSpec vol = smallVolume();
  Phantom phantom(vol);
  Scanner scanner(60.0f, 80.0f);
  const auto events = scanner.generateEvents(phantom, 300, 21);
  int crossing = 0;
  for (const Event& e : events) {
    if (!siddonPath(vol, e).empty()) ++crossing;
  }
  // emissions happen inside the volume, so nearly every LOR crosses it
  EXPECT_GT(crossing, 290);
}

// --- sequential reconstruction ------------------------------------------------

OsemConfig testConfig() {
  OsemConfig cfg;
  cfg.volume = smallVolume();
  cfg.eventsPerSubset = 1500;
  cfg.numSubsets = 4;
  cfg.iterations = 1;
  cfg.seed = 42;
  return cfg;
}

TEST(OsemSeq, ReconstructionConvergesTowardPhantom) {
  const OsemData data = OsemData::generate(testConfig());
  const auto result = runOsemSeq(data);

  // The reconstruction must correlate with the phantom far better than the
  // flat initial image does (correlation of a constant image is 0).
  const double corr = imageCorrelation(result.image, data.phantom.image());
  EXPECT_GT(corr, 0.55) << "reconstruction does not resemble the phantom";

  // More data must improve the reconstruction.
  OsemConfig big = testConfig();
  big.eventsPerSubset = 4000;
  const OsemData more = OsemData::generate(big);
  const auto better = runOsemSeq(more);
  EXPECT_GT(imageCorrelation(better.image, more.phantom.image()), corr);
}

TEST(OsemSeq, HotSphereRecoversHigherActivityThanBackground) {
  const OsemData data = OsemData::generate(testConfig());
  const auto result = runOsemSeq(data);
  const auto& truth = data.phantom.image();
  double hotMean = 0.0;
  double bgMean = 0.0;
  int hotCount = 0;
  int bgCount = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == 8.0f) {
      hotMean += result.image[i];
      ++hotCount;
    } else if (truth[i] == 1.0f) {
      bgMean += result.image[i];
      ++bgCount;
    }
  }
  ASSERT_GT(hotCount, 0);
  ASSERT_GT(bgCount, 0);
  hotMean /= hotCount;
  bgMean /= bgCount;
  EXPECT_GT(hotMean, 2.0 * bgMean);
}

// --- implementation equivalence -------------------------------------------------

class OsemImpls : public ::testing::Test {
 protected:
  static const OsemData& data() {
    static const OsemData d = OsemData::generate(testConfig());
    return d;
  }
  static const std::vector<float>& reference() {
    static const std::vector<float> ref = runOsemSeq(data()).image;
    return ref;
  }
  static void expectMatchesReference(const std::vector<float>& image) {
    // Atomic scatter ordering and host-combine order perturb float rounding;
    // the images must still agree closely.
    EXPECT_LT(imageNrmse(image, reference()), 2e-3);
  }
};

TEST_F(OsemImpls, SkelClSingleMatchesSequential) {
  expectMatchesReference(runOsemSkelCLSingle(data()).image);
}

TEST_F(OsemImpls, SkelClMultiMatchesSequential) {
  for (int gpus : {1, 2, 4}) {
    expectMatchesReference(runOsemSkelCL(data(), gpus).image);
  }
}

TEST_F(OsemImpls, OclSingleMatchesSequential) {
  expectMatchesReference(runOsemOclSingle(data()).image);
}

TEST_F(OsemImpls, OclMultiMatchesSequential) {
  for (int gpus : {1, 2, 4}) {
    expectMatchesReference(runOsemOcl(data(), gpus).image);
  }
}

TEST_F(OsemImpls, CudaSingleMatchesSequential) {
  expectMatchesReference(runOsemCudaSingle(data()).image);
}

TEST_F(OsemImpls, CudaMultiMatchesSequential) {
  for (int gpus : {1, 2, 4}) {
    expectMatchesReference(runOsemCuda(data(), gpus).image);
  }
}

TEST_F(OsemImpls, AllImplementationsAgreePairwise) {
  const auto skelcl = runOsemSkelCL(data(), 4).image;
  const auto ocl = runOsemOcl(data(), 4).image;
  const auto cuda = runOsemCuda(data(), 4).image;
  EXPECT_LT(imageNrmse(skelcl, ocl), 2e-3);
  EXPECT_LT(imageNrmse(ocl, cuda), 2e-3);
}

TEST_F(OsemImpls, SimulatedTimeOrderingMatchesPaper) {
  // Section IV-C: CUDA fastest; SkelCL within ~5% of OpenCL.
  const auto skelcl = runOsemSkelCL(data(), 2);
  const auto ocl = runOsemOcl(data(), 2);
  const auto cuda = runOsemCuda(data(), 2);
  EXPECT_LT(cuda.secondsPerSubset, ocl.secondsPerSubset);
  EXPECT_LT(cuda.secondsPerSubset, skelcl.secondsPerSubset);
  EXPECT_LT(std::fabs(skelcl.secondsPerSubset - ocl.secondsPerSubset) /
                ocl.secondsPerSubset,
            0.15);
}

TEST_F(OsemImpls, MultiGpuIsFasterThanSingleGpuOnComputeBoundSizes) {
  // At tiny problem sizes the redistribution phase dominates and extra GPUs
  // do not pay off (a real effect the paper's full-size workload avoids);
  // use a compute-bound size for the speedup check.
  OsemConfig cfg = testConfig();
  cfg.eventsPerSubset = 8000;
  cfg.numSubsets = 2;
  const OsemData big = OsemData::generate(cfg);
  const auto one = runOsemSkelCL(big, 1);
  const auto four = runOsemSkelCL(big, 4);
  EXPECT_LT(four.secondsPerSubset, 0.7 * one.secondsPerSubset);
}

// --- batching and determinism of the step-1 scatter ------------------------

/// kernel name -> {launches, batched launches, a fallback reason seen}
std::map<std::string, std::pair<int, int>> g_launches;
std::map<std::string, std::string> g_reasons;

void recordLaunch(const skelcl::ocl::CommandInfo& info, const skelcl::ocl::Event&) {
  if (info.kind != skelcl::ocl::CommandInfo::Kind::Kernel) return;
  auto& [launches, batched] = g_launches[info.kernelName];
  ++launches;
  if (info.batched) {
    ++batched;
  } else {
    g_reasons[info.kernelName] = skelcl::kc::batchFallbackName(info.fallback);
  }
}

/// Sets one environment variable for a scope, restoring it afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST_F(OsemImpls, EveryStepOneLaunchRunsBatched) {
  // SkelCL's map (skelcl_fused, also its step-2 zip) and the raw OpenCL and
  // CUDA osem_step1: the struct copy becomes slots and the scatter's
  // atomics are deferred, so none of them falls back to per-item.
  const ScopedEnv opt("SKELCL_KC_OPT", "2");
  const ScopedEnv batch("SKELCL_KC_BATCH", nullptr);
  g_launches.clear();
  g_reasons.clear();
  skelcl::ocl::setCommandHook(&recordLaunch);
  (void)runOsemSkelCL(data(), 4);
  (void)runOsemOcl(data(), 4);
  (void)runOsemCuda(data(), 4);
  skelcl::ocl::setCommandHook(nullptr);
  for (const char* name : {"skelcl_fused", "osem_step1", "osem_step2"}) {
    const auto it = g_launches.find(name);
    ASSERT_NE(it, g_launches.end()) << name << " never launched";
    EXPECT_EQ(it->second.second, it->second.first)
        << name << " ran per item: " << g_reasons[name];
  }
}

/// FNV-1a over the image's bytes.
std::string imageHash(const std::vector<float>& image) {
  std::uint64_t h = 1469598103934665603ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(image.data());
  for (std::size_t i = 0; i < image.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(h));
  return text;
}

/// The 4-GPU images of all three implementations on a problem small enough
/// for nine runs (the reference tier included), yet split into several
/// host-thread chunks per device at SKELCL_THREADS=4.
std::string hashLine() {
  OsemConfig cfg = testConfig();
  cfg.eventsPerSubset = 600;
  cfg.numSubsets = 2;
  const OsemData data = OsemData::generate(cfg);
  return "osem-image-hash skelcl=" + imageHash(runOsemSkelCL(data, 4).image) +
         " ocl=" + imageHash(runOsemOcl(data, 4).image) +
         " cuda=" + imageHash(runOsemCuda(data, 4).image);
}

TEST(OsemImageHash, PrintsTheFourGpuImagesOfEveryImplementation) {
  // Read by ImageBitIdenticalAcrossTiersBatchingAndThreads from a child
  // process with its own environment.
  std::printf("%s\n", hashLine().c_str());
}

TEST_F(OsemImpls, ImageBitIdenticalAcrossTiersBatchingAndThreads) {
  // The thread pool is sized once per process, so every configuration runs
  // in a child; the float atomics of step 1 must sum in work-item order in
  // all of them.
  const std::string self = std::filesystem::read_symlink("/proc/self/exe").string();
  const std::string want = hashLine();
  for (const char* threads : {"1", "4"}) {
    for (const char* config : {"SKELCL_KC_OPT=0", "SKELCL_KC_OPT=1", "SKELCL_KC_OPT=2",
                               "SKELCL_KC_OPT=2 SKELCL_KC_BATCH=0"}) {
      const std::string env = std::string("SKELCL_THREADS=") + threads + " " + config;
      SCOPED_TRACE(env);
      const std::string cmd = "env -u SKELCL_KC_OPT -u SKELCL_KC_BATCH " + env + " '" + self +
                              "' --gtest_filter=OsemImageHash.* 2>&1";
      FILE* child = popen(cmd.c_str(), "r");
      ASSERT_NE(child, nullptr);
      std::string got;
      char line[512];
      while (std::fgets(line, sizeof line, child) != nullptr) {
        if (std::strncmp(line, "osem-image-hash", 15) == 0) {
          got = line;
          got.pop_back();  // newline
        }
      }
      EXPECT_EQ(pclose(child), 0);
      EXPECT_EQ(got, want);
    }
  }
}

}  // namespace
