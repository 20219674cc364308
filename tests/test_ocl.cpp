// Tests for the simulated OpenCL host API: devices, buffers, programs,
// kernels, queues, events, and the time model they drive.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "kernelc/diagnostics.hpp"
#include "ocl/ocl.hpp"

using namespace skelcl;
using namespace skelcl::ocl;

namespace {

sim::SystemConfig s1070(int n) { return sim::SystemConfig::teslaS1070(n); }

TEST(OclPlatform, EnumeratesDevices) {
  Platform platform(s1070(4));
  EXPECT_EQ(platform.deviceCount(), 4);
  EXPECT_EQ(platform.devices().size(), 4u);
  EXPECT_EQ(platform.device(0).type(), sim::DeviceType::GPU);
  EXPECT_EQ(platform.device(3).name(), "Tesla T10 #3");
}

TEST(OclPlatform, DeviceIndexChecked) {
  Platform platform(s1070(1));
  EXPECT_THROW(platform.device(1), UsageError);
}

TEST(OclContext, RequiresDevices) {
  EXPECT_THROW(Context({}), UsageError);
}

TEST(OclBuffer, AllocationAccounting) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Device& dev = platform.device(0);
  EXPECT_EQ(dev.memoryAllocated(), 0u);
  {
    Buffer buf(ctx, dev, 1024);
    EXPECT_EQ(dev.memoryAllocated(), 1024u);
    EXPECT_EQ(buf.size(), 1024u);
  }
  EXPECT_EQ(dev.memoryAllocated(), 0u);  // released on destruction
}

TEST(OclBuffer, ExhaustionThrows) {
  sim::SystemConfig cfg = s1070(1);
  cfg.devices[0].mem_bytes = 4 << 20;  // pretend a 4 MiB card to keep the test fast
  Platform platform(cfg);
  Context ctx(platform.devices());
  Device& dev = platform.device(0);
  Buffer big(ctx, dev, 3 << 20);
  EXPECT_THROW(Buffer(ctx, dev, 2 << 20), ResourceError);
  Buffer fits(ctx, dev, 512 << 10);
  EXPECT_GT(dev.memoryAllocated(), 3u << 20);
}

TEST(OclBuffer, ZeroSizeRejected) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  EXPECT_THROW(Buffer(ctx, platform.device(0), 0), UsageError);
}

TEST(OclBuffer, MoveTransfersOwnership) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Device& dev = platform.device(0);
  Buffer a(ctx, dev, 256);
  Buffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(dev.memoryAllocated(), 256u);
}

TEST(OclQueue, WriteReadRoundTrip) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Buffer buf(ctx, platform.device(0), 16 * sizeof(float));

  std::vector<float> in(16);
  std::iota(in.begin(), in.end(), 0.0f);
  queue.enqueueWriteBuffer(buf, 0, in.size() * sizeof(float), in.data(), true);

  std::vector<float> out(16, -1.0f);
  queue.enqueueReadBuffer(buf, 0, out.size() * sizeof(float), out.data(), true);
  EXPECT_EQ(in, out);
}

TEST(OclQueue, PartialWriteWithOffset) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Buffer buf(ctx, platform.device(0), 8 * sizeof(float));
  std::vector<float> zero(8, 0.0f);
  queue.enqueueWriteBuffer(buf, 0, 8 * sizeof(float), zero.data(), true);

  const float v = 42.0f;
  queue.enqueueWriteBuffer(buf, 3 * sizeof(float), sizeof(float), &v, true);

  std::vector<float> out(8);
  queue.enqueueReadBuffer(buf, 0, 8 * sizeof(float), out.data(), true);
  EXPECT_FLOAT_EQ(out[3], 42.0f);
  EXPECT_FLOAT_EQ(out[2], 0.0f);
}

TEST(OclQueue, RangeChecked) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Buffer buf(ctx, platform.device(0), 64);
  char data[128] = {};
  EXPECT_THROW(queue.enqueueWriteBuffer(buf, 0, 128, data, true), UsageError);
  EXPECT_THROW(queue.enqueueReadBuffer(buf, 32, 64, data, true), UsageError);
}

TEST(OclQueue, WrongDeviceRejected) {
  Platform platform(s1070(2));
  Context ctx(platform.devices());
  CommandQueue queue0(ctx, platform.device(0));
  Buffer bufOn1(ctx, platform.device(1), 64);
  char data[64] = {};
  EXPECT_THROW(queue0.enqueueWriteBuffer(bufOn1, 0, 64, data, true), UsageError);
}

TEST(OclProgram, BuildAndRunSaxpyKernel) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));

  Program program(ctx,
                  "__kernel void saxpy(__global float* x, __global float* y, float a, int n) {"
                  "  int i = get_global_id(0);"
                  "  if (i < n) y[i] = a * x[i] + y[i];"
                  "}");
  program.build();
  Kernel kernel(program, "saxpy");

  const int n = 1000;
  std::vector<float> x(n), y(n);
  for (int i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = static_cast<float>(i);
    y[static_cast<size_t>(i)] = 1.0f;
  }
  Buffer bx(ctx, platform.device(0), n * sizeof(float));
  Buffer by(ctx, platform.device(0), n * sizeof(float));
  queue.enqueueWriteBuffer(bx, 0, n * sizeof(float), x.data(), true);
  queue.enqueueWriteBuffer(by, 0, n * sizeof(float), y.data(), true);

  kernel.setArg(0, bx);
  kernel.setArg(1, by);
  kernel.setArg(2, 2.0f);
  kernel.setArg(3, n);
  queue.enqueueNDRangeKernel(kernel, n);

  queue.enqueueReadBuffer(by, 0, n * sizeof(float), y.data(), true);
  for (int i = 0; i < n; ++i) {
    EXPECT_FLOAT_EQ(y[static_cast<size_t>(i)], 2.0f * i + 1.0f);
  }
}

TEST(OclProgram, BuildErrorProducesLog) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Program program(ctx, "__kernel void broken(__global float* x) { x[0] = undeclared; }");
  try {
    program.build();
    FAIL() << "expected BuildError";
  } catch (const BuildError& e) {
    EXPECT_NE(std::string(e.log()).find("undeclared"), std::string::npos);
  }
  EXPECT_FALSE(program.built());
  EXPECT_NE(program.buildLog().find("undeclared"), std::string::npos);
}

TEST(OclProgram, BuildChargesHostTimeOnce) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Program program(ctx, "__kernel void k(__global float* x) { x[get_global_id(0)] = 1.0f; }");
  program.build();
  const double after = platform.system().hostNow();
  EXPECT_GT(after, 0.0);
  program.build();  // idempotent: no second charge
  EXPECT_DOUBLE_EQ(platform.system().hostNow(), after);
  EXPECT_GT(program.buildTimeSeconds(), 0.0);
}

TEST(OclKernel, CreateBeforeBuildRejected) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Program program(ctx, "__kernel void k(__global float* x) { }");
  EXPECT_THROW(Kernel(program, "k"), UsageError);
}

TEST(OclKernel, UnknownNameRejected) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Program program(ctx, "__kernel void k(__global float* x) { x[0] = 1.0f; }");
  program.build();
  EXPECT_THROW(Kernel(program, "nope"), UsageError);
}

TEST(OclKernel, ArgTypeMismatchRejected) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  Program program(ctx, "__kernel void k(__global float* x, int n) { x[0] = (float)n; }");
  program.build();
  Kernel kernel(program, "k");
  Buffer buf(ctx, platform.device(0), 64);
  EXPECT_THROW(kernel.setArg(0, 5), UsageError);    // scalar to pointer param
  EXPECT_THROW(kernel.setArg(1, buf), UsageError);  // buffer to scalar param
  EXPECT_THROW(kernel.setArg(2, 5), UsageError);    // out of range
}

TEST(OclKernel, UnsetArgRejectedAtLaunch) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Program program(ctx, "__kernel void k(__global float* x, int n) { x[0] = (float)n; }");
  program.build();
  Kernel kernel(program, "k");
  Buffer buf(ctx, platform.device(0), 64);
  kernel.setArg(0, buf);
  EXPECT_THROW(queue.enqueueNDRangeKernel(kernel, 1), UsageError);
}

TEST(OclKernel, ScalarConversionRoundsToParamType) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Program program(ctx, "__kernel void k(__global float* out, float a) { out[0] = a; }");
  program.build();
  Kernel kernel(program, "k");
  Buffer buf(ctx, platform.device(0), sizeof(float));
  kernel.setArg(0, buf);
  kernel.setArg(1, 3.14159265358979);  // double -> float param
  queue.enqueueNDRangeKernel(kernel, 1);
  float out = 0;
  queue.enqueueReadBuffer(buf, 0, sizeof(float), &out, true);
  EXPECT_FLOAT_EQ(out, 3.14159265f);
}

TEST(OclQueue, EventsAreOrderedInQueue) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Buffer buf(ctx, platform.device(0), 1 << 20);
  std::vector<char> data(1 << 20);
  const Event a = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  const Event b = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  EXPECT_GE(b.profilingStart(), a.profilingEnd());
  EXPECT_GT(a.duration(), 0.0);
}

TEST(OclQueue, ExplicitDependenciesRespected) {
  Platform platform(s1070(4));
  Context ctx(platform.devices());
  CommandQueue q0(ctx, platform.device(0));
  CommandQueue q2(ctx, platform.device(2));  // different PCIe link
  Buffer b0(ctx, platform.device(0), 1 << 20);
  Buffer b2(ctx, platform.device(2), 1 << 20);
  std::vector<char> data(1 << 20);

  const Event a = q0.enqueueWriteBuffer(b0, 0, data.size(), data.data());
  const Event dep[] = {a};
  const Event b = q2.enqueueWriteBuffer(b2, 0, data.size(), data.data(), false, dep);
  EXPECT_GE(b.profilingStart(), a.profilingEnd());
}

TEST(OclQueue, IndependentDevicesOverlap) {
  Platform platform(s1070(4));
  Context ctx(platform.devices());
  CommandQueue q0(ctx, platform.device(0));
  CommandQueue q2(ctx, platform.device(2));
  Buffer b0(ctx, platform.device(0), 1 << 20);
  Buffer b2(ctx, platform.device(2), 1 << 20);
  std::vector<char> data(1 << 20);
  const Event a = q0.enqueueWriteBuffer(b0, 0, data.size(), data.data());
  const Event b = q2.enqueueWriteBuffer(b2, 0, data.size(), data.data());
  // Different links: the two uploads overlap in simulated time.
  EXPECT_LT(b.profilingStart(), a.profilingEnd());
}

TEST(OclQueue, FinishAdvancesHostClock) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Buffer buf(ctx, platform.device(0), 1 << 22);
  std::vector<char> data(1 << 22);
  const Event e = queue.enqueueWriteBuffer(buf, 0, data.size(), data.data());
  EXPECT_LT(platform.system().hostNow(), e.profilingEnd());
  queue.finish();
  EXPECT_DOUBLE_EQ(platform.system().hostNow(), e.profilingEnd());
}

TEST(OclQueue, CopyBufferAcrossDevices) {
  Platform platform(s1070(2));
  Context ctx(platform.devices());
  CommandQueue q0(ctx, platform.device(0));
  Buffer src(ctx, platform.device(0), 4 * sizeof(int));
  Buffer dst(ctx, platform.device(1), 4 * sizeof(int));
  std::vector<int> data = {1, 2, 3, 4};
  q0.enqueueWriteBuffer(src, 0, sizeof(int) * 4, data.data(), true);
  q0.enqueueCopyBuffer(src, dst, 0, 0, 4 * sizeof(int));
  std::vector<int> out(4, 0);
  CommandQueue q1(ctx, platform.device(1));
  q1.enqueueReadBuffer(dst, 0, 4 * sizeof(int), out.data(), true);
  EXPECT_EQ(out, data);
}

TEST(OclQueue, FillBuffer) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Buffer buf(ctx, platform.device(0), 16);
  queue.enqueueFillBuffer(buf, std::byte{0}, 0, 16);
  std::vector<char> out(16, 'x');
  queue.enqueueReadBuffer(buf, 0, 16, out.data(), true);
  for (char c : out) EXPECT_EQ(c, 0);
}

TEST(OclQueue, CudaApiFasterThanOpenCl) {
  // The same kernel and data: the CUDA-profile queue must come out ~20%
  // faster, per the paper's Section IV-C measurement.
  auto run = [](Api api) {
    Platform platform(sim::SystemConfig::teslaS1070(1));
    Context ctx(platform.devices());
    CommandQueue queue(ctx, platform.device(0), api);
    Program program(ctx,
                    "__kernel void k(__global float* x) {"
                    "  int i = get_global_id(0); float s = 0.0f;"
                    "  for (int j = 0; j < 200; ++j) s += (float)j;"
                    "  x[i] = s; }");
    program.build();
    platform.system().resetClock();
    Kernel kernel(program, "k");
    Buffer buf(ctx, platform.device(0), 1024 * sizeof(float));
    kernel.setArg(0, buf);
    const Event e = queue.enqueueNDRangeKernel(kernel, 1024);
    return e.duration();
  };
  const double cuda = run(Api::Cuda);
  const double opencl = run(Api::OpenCL);
  EXPECT_GT(opencl, cuda);
  EXPECT_NEAR(opencl / cuda, 1.0 / 0.84, 0.05);
}

TEST(OclQueue, KernelFaultPropagates) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Program program(ctx, "__kernel void k(__global float* x) { x[1000000] = 1.0f; }");
  program.build();
  Kernel kernel(program, "k");
  Buffer buf(ctx, platform.device(0), 64);
  kernel.setArg(0, buf);
  EXPECT_THROW(queue.enqueueNDRangeKernel(kernel, 1), kc::VmError);
}

// --- why a launch did not batch ------------------------------------------------

CommandInfo g_lastKernel;

void recordKernel(const CommandInfo& info, const Event&) {
  if (info.kind == CommandInfo::Kind::Kernel) g_lastKernel = info;
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

/// Launch `kernel(a, b)` over `items` work-items and return what the
/// command hook saw.  `aliased` binds buffer `a` to both arguments.
CommandInfo launch(const std::string& source, std::uint64_t items, bool aliased = false) {
  Platform platform(s1070(1));
  Context ctx(platform.devices());
  CommandQueue queue(ctx, platform.device(0));
  Program program(ctx, source);
  program.build();
  Kernel kernel(program, "k");
  Buffer a(ctx, platform.device(0), 64 * sizeof(float));
  Buffer b(ctx, platform.device(0), 64 * sizeof(float));
  const std::vector<float> zeros(64, 0.0f);
  queue.enqueueWriteBuffer(a, 0, a.size(), zeros.data(), true);
  queue.enqueueWriteBuffer(b, 0, b.size(), zeros.data(), true);
  kernel.setArg(0, a);
  kernel.setArg(1, aliased ? a : b);
  g_lastKernel = CommandInfo{};
  setCommandHook(&recordKernel);
  queue.enqueueNDRangeKernel(kernel, items);
  setCommandHook(nullptr);
  return g_lastKernel;
}

TEST(OclQueue, KernelLaunchReportsWhyItDidNotBatch) {
  const ScopedEnv opt("SKELCL_KC_OPT", "2");
  const ScopedEnv batch("SKELCL_KC_BATCH", nullptr);
  const std::string plain =
      "__kernel void k(__global float* a, __global float* b) {"
      "  int i = get_global_id(0); b[i] = a[i] + 1.0f; }";
  const std::string scatter =
      "__kernel void k(__global float* a, __global float* b) {"
      "  int i = get_global_id(0); atomic_add_f(a + i % 4, b[i]); }";
  struct Case {
    const char* name;
    std::string source;
    std::uint64_t items;
    bool aliased;
    kc::BatchFallback want;
  };
  const std::vector<Case> cases = {
      {"batched", plain, 64, false, kc::BatchFallback::None},
      {"deferred atomics", scatter, 64, false, kc::BatchFallback::None},
      {"frame memory",
       "__kernel void k(__global float* a, __global float* b) {"
       "  int i = get_global_id(0); float t[2]; t[i % 2] = a[i]; b[i] = t[0]; }",
       64, false, kc::BatchFallback::FrameMemory},
      {"call",
       "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }"
       "__kernel void k(__global float* a, __global float* b) {"
       "  int i = get_global_id(0); b[i] = (float)fact(i % 5); }",
       64, false, kc::BatchFallback::Call},
      {"barrier",
       "__kernel void k(__global float* a, __global float* b) {"
       "  int i = get_global_id(0); barrier(0); b[i] = a[i]; }",
       64, false, kc::BatchFallback::Barrier},
      {"atomic result used",
       "__kernel void k(__global float* a, __global float* b) {"
       "  int i = get_global_id(0); b[i] = atomic_add_f(a, 1.0f); }",
       64, false, kc::BatchFallback::AtomicResultUsed},
      {"atomic target read by the kernel",
       "__kernel void k(__global float* a, __global float* b) {"
       "  int i = get_global_id(0); atomic_add_f(a + 1, a[0] + b[i]); }",
       64, false, kc::BatchFallback::AtomicTargetAliased},
      {"atomic target bound to another argument", scatter, 64, true,
       kc::BatchFallback::AtomicTargetAliased},
      {"single item", plain, 1, false, kc::BatchFallback::SingleItem},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const CommandInfo info = launch(c.source, c.items, c.aliased);
    EXPECT_EQ(info.batched, c.want == kc::BatchFallback::None);
    EXPECT_EQ(kc::batchFallbackName(info.fallback), std::string(kc::batchFallbackName(c.want)));
  }
  {
    const ScopedEnv off("SKELCL_KC_BATCH", "0");
    const CommandInfo info = launch(plain, 64);
    EXPECT_FALSE(info.batched);
    EXPECT_EQ(info.fallback, kc::BatchFallback::Disabled);
  }
  {
    const ScopedEnv tier1("SKELCL_KC_OPT", "1");
    const CommandInfo info = launch(plain, 64);
    EXPECT_FALSE(info.batched);
    EXPECT_EQ(info.fallback, kc::BatchFallback::NotTier2);
  }
}

}  // namespace
