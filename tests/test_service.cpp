// Tests for the Session/SharedDeviceState split and the multi-tenant
// service (docs/SERVICE.md): concurrent sessions must be bit-identical to
// serial execution, per-session scheduler state must not leak between
// tenants, device death must blacklist for *all* sessions, VRAM quotas must
// hit only the offending session, and the trace collector must reset between
// init/terminate cycles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/detail/session.hpp"
#include "core/detail/trace.hpp"
#include "core/service.hpp"
#include "core/skelcl.hpp"

using namespace skelcl;

namespace {

/// init/terminate guard so a failing assertion cannot leak a runtime into
/// the next test.
struct RuntimeGuard {
  explicit RuntimeGuard(sim::SystemConfig config) { init(std::move(config)); }
  ~RuntimeGuard() { terminate(); }
};

constexpr const char* kMapSrc = "float func(float x) { return x * 1.5f + 0.25f; }";
constexpr const char* kAddSrc = "int func(int a, int b) { return a + b; }";

std::vector<float> mapInput(std::size_t n, int salt) {
  std::vector<float> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = static_cast<float>((i * 13 + static_cast<std::size_t>(salt)) % 101) * 0.5f;
  }
  return in;
}

std::vector<int> scanInput(std::size_t n, int salt) {
  std::vector<int> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = static_cast<int>((i + static_cast<std::size_t>(salt)) % 17) - 8;
  }
  return in;
}

}  // namespace

// --- concurrent sessions are bit-identical to serial runs -------------------

TEST(SessionConcurrency, MapReduceScanMatchSerialBitIdentically) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  const std::size_t n = 4096;
  const int rounds = 8;

  // Serial reference, on the default session.
  std::vector<std::vector<float>> mapRef;
  std::vector<int> reduceRef;
  std::vector<std::vector<int>> scanRef;
  {
    Map<float(float)> map(kMapSrc);
    Reduce<int(int)> reduce(kAddSrc);
    Scan<int> scan(kAddSrc);
    for (int r = 0; r < rounds; ++r) {
      Vector<float> mv(mapInput(n, r));
      mapRef.push_back(map(mv).toStdVector());
      Vector<int> rv(scanInput(n, r));
      reduceRef.push_back(reduce(rv));
      Vector<int> sv(scanInput(n, r));
      scanRef.push_back(scan(sv).toStdVector());
    }
  }

  // Three tenant threads run the same workloads concurrently.
  std::vector<std::vector<float>> mapGot(static_cast<std::size_t>(rounds));
  std::vector<int> reduceGot(static_cast<std::size_t>(rounds));
  std::vector<std::vector<int>> scanGot(static_cast<std::size_t>(rounds));
  auto mapClient = std::thread([&] {
    SessionScope scope(createSession({"map-tenant", 1.0, 0}));
    Map<float(float)> map(kMapSrc);
    for (int r = 0; r < rounds; ++r) {
      Vector<float> v(mapInput(n, r));
      mapGot[static_cast<std::size_t>(r)] = map(v).toStdVector();
    }
  });
  auto reduceClient = std::thread([&] {
    SessionScope scope(createSession({"reduce-tenant", 1.0, 0}));
    Reduce<int(int)> reduce(kAddSrc);
    for (int r = 0; r < rounds; ++r) {
      Vector<int> v(scanInput(n, r));
      reduceGot[static_cast<std::size_t>(r)] = reduce(v);
    }
  });
  auto scanClient = std::thread([&] {
    SessionScope scope(createSession({"scan-tenant", 1.0, 0}));
    Scan<int> scan(kAddSrc);
    for (int r = 0; r < rounds; ++r) {
      Vector<int> v(scanInput(n, r));
      scanGot[static_cast<std::size_t>(r)] = scan(v).toStdVector();
    }
  });
  mapClient.join();
  reduceClient.join();
  scanClient.join();

  for (int r = 0; r < rounds; ++r) {
    const auto i = static_cast<std::size_t>(r);
    ASSERT_EQ(mapGot[i].size(), mapRef[i].size());
    EXPECT_EQ(0, std::memcmp(mapGot[i].data(), mapRef[i].data(),
                             mapRef[i].size() * sizeof(float)))
        << "map round " << r << " not bit-identical";
    EXPECT_EQ(reduceGot[i], reduceRef[i]) << "reduce round " << r;
    EXPECT_EQ(scanGot[i], scanRef[i]) << "scan round " << r;
  }
}

TEST(SessionConcurrency, ServiceMapJobsMatchSerialBitIdentically) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  const std::size_t n = 512;
  const int jobs = 24;

  std::vector<std::vector<float>> ref;
  {
    Map<float(float)> map(kMapSrc);
    for (int j = 0; j < jobs; ++j) {
      Vector<float> v(mapInput(n, j));
      ref.push_back(map(v).toStdVector());
    }
  }

  Service service;
  auto a = service.createSession({"a", 1.0, 0});
  auto b = service.createSession({"b", 2.0, 0});
  std::vector<Service::Handle> handles;
  for (int j = 0; j < jobs; ++j) {
    handles.push_back(service.submitMap(j % 2 == 0 ? a : b, kMapSrc, mapInput(n, j)));
  }
  for (int j = 0; j < jobs; ++j) {
    handles[static_cast<std::size_t>(j)].wait();
    const auto& got = handles[static_cast<std::size_t>(j)].output();
    ASSERT_EQ(got.size(), ref[static_cast<std::size_t>(j)].size());
    EXPECT_EQ(0, std::memcmp(got.data(), ref[static_cast<std::size_t>(j)].data(),
                             got.size() * sizeof(float)))
        << "service job " << j << " not bit-identical (batched vs alone)";
  }
  service.drain();  // stats are recorded when a batch retires, after handles fire
  const auto statsA = service.stats(*a);
  const auto statsB = service.stats(*b);
  EXPECT_EQ(statsA.jobsCompleted + statsB.jobsCompleted, static_cast<std::uint64_t>(jobs));
  EXPECT_GT(a->deviceTimeUsed(), 0.0);
  EXPECT_GT(b->deviceTimeUsed(), 0.0);
}

// --- latency stats stay bounded ---------------------------------------------

/// The q-quantile as bench_service defines it: sorted values[floor(q*(n-1))].
double exactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
}

TEST(ServiceStats, LatencyHistogramIsFixedSizeAndQuantilesLandWithinOneBucket) {
  // A tenant's stats hold no heap storage, so they keep their size however
  // many jobs complete.
  static_assert(std::is_trivially_copyable_v<Service::TenantStats>);

  // Spread over nine decades: every quantile lands in (or next to) the
  // bucket of the exact value.
  LogHistogram h;
  std::vector<double> values;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(1e-8 * std::pow(10.0, 9.0 * ((i * 7919) % 100000) / 100000.0));
    h.add(values.back());
  }
  EXPECT_EQ(h.count(), values.size());
  for (const double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_LE(std::abs(LogHistogram::bucketOf(h.quantile(q)) -
                       LogHistogram::bucketOf(exactQuantile(values, q))),
              1)
        << "q " << q;
  }

  // Through the service: every completed job is counted, and p50/p95/p99
  // match the handles' own latencies to one bucket.
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto tenant = service.createSession({"t", 1.0, 0});
  std::vector<Service::Handle> handles;
  for (int j = 0; j < 300; ++j) {
    handles.push_back(service.submitMap(tenant, kMapSrc, mapInput(32, j)));
  }
  std::vector<double> latencies;
  for (const Service::Handle& handle : handles) {
    handle.wait();
    latencies.push_back(handle.latencySeconds());
  }
  service.drain();
  const Service::TenantStats stats = service.stats(*tenant);
  EXPECT_EQ(stats.latency.count(), 300u);
  for (const double q : {0.50, 0.95, 0.99}) {
    EXPECT_LE(std::abs(LogHistogram::bucketOf(stats.latency.quantile(q)) -
                       LogHistogram::bucketOf(exactQuantile(latencies, q))),
              1)
        << "q " << q;
  }
}

// --- per-session scheduler state does not leak ------------------------------

TEST(SessionIsolation, PartitionWeightsDoNotLeakAcrossSessions) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  auto a = createSession({"a", 1.0, 0});
  auto b = createSession({"b", 1.0, 0});
  a->setPartitionWeights({1.0, 3.0});

  EXPECT_TRUE(b->partitionWeights().empty());
  EXPECT_TRUE(b->applicablePartitionWeights().empty());
  EXPECT_EQ(a->applicablePartitionWeights(), (std::vector<double>{1.0, 3.0}));

  // The same vector plans differently under each session: lopsided under a,
  // even under b — and the plan cache must not serve a's plan to b.
  Vector<float> v(1000);
  v.setDistribution(Distribution::block());
  EXPECT_EQ(v.impl().partSizeOn(*a, 0), 250u);
  EXPECT_EQ(v.impl().partSizeOn(*a, 1), 750u);
  EXPECT_EQ(v.impl().partSizeOn(*b, 0), 500u);
  EXPECT_EQ(v.impl().partSizeOn(*b, 1), 500u);
  EXPECT_EQ(v.impl().partSizeOn(*a, 1), 750u);  // and back

  // The thread-current session routes skelcl::setPartitionWeights.
  {
    SessionScope scope(b);
    setPartitionWeights({1.0, 1.0});
  }
  EXPECT_EQ(b->partitionWeights(), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(a->partitionWeights(), (std::vector<double>{1.0, 3.0}));
}

// --- device death is shared; every session recovers -------------------------

TEST(SessionFaults, DeviceDeathBlacklistsForAllSessionsAndBothRecover) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  sim::FaultPlan plan;
  plan.killAfterCommands(1, 6);  // dies mid-run, during one tenant's job
  setFaultPlan(std::move(plan));

  auto a = createSession({"a", 1.0, 0});
  auto b = createSession({"b", 1.0, 0});
  const std::size_t n = 2048;
  const std::vector<int> in = scanInput(n, 3);
  const int expect = std::accumulate(in.begin(), in.end(), 0);

  // Reduce keeps upload, kernel and the partials download inside the
  // recovery-wrapped skeleton entry, so the injected death can land on any
  // command and still be survivable (the inputs' host copies are valid).
  auto runRounds = [&](std::shared_ptr<Session> session, int rounds) {
    SessionScope scope(std::move(session));
    Reduce<int(int)> sum(kAddSrc);
    for (int r = 0; r < rounds; ++r) {
      Vector<int> v(in);
      const int got = sum(v);
      ASSERT_EQ(got, expect) << "round " << r;
    }
  };

  std::thread ta([&] { runRounds(a, 4); });
  std::thread tb([&] { runRounds(b, 4); });
  ta.join();
  tb.join();

  // The blacklist is shared device state: both tenants see one survivor.
  EXPECT_EQ(aliveDeviceCount(), 1);
  EXPECT_EQ(a->aliveDevices(), (std::vector<int>{0}));
  EXPECT_EQ(b->aliveDevices(), (std::vector<int>{0}));

  // And both keep working after the loss.
  runRounds(a, 1);
  runRounds(b, 1);
}

// --- VRAM quotas hit only the offending session -----------------------------

TEST(SessionQuota, BreachRaisesForOffendingSessionOnly) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  auto small = createSession({"small", 1.0, 64 * 1024});
  auto big = createSession({"big", 1.0, 0});

  const std::size_t n = 1 << 16;  // 256 KiB of floats: over small's quota
  {
    SessionScope scope(small);
    Map<float(float)> map(kMapSrc);
    Vector<float> v(mapInput(n, 0));
    EXPECT_THROW(map(v), ResourceError);  // QuotaError is a ResourceError
    EXPECT_THROW(map(v), QuotaError);
  }
  // The failed charge was rolled back and nothing was left half-allocated.
  EXPECT_EQ(small->vramUsed(), 0u);

  {
    // A job within the quota still works for the same session...
    SessionScope scope(small);
    Map<float(float)> map(kMapSrc);
    Vector<float> v(mapInput(128, 1));
    EXPECT_EQ(map(v).toStdVector().size(), 128u);
  }
  {
    // ...and the unlimited session is unaffected by the breach.
    SessionScope scope(big);
    Map<float(float)> map(kMapSrc);
    Vector<float> v(mapInput(n, 2));
    Vector<float> out = map(v);
    EXPECT_EQ(out.toStdVector().size(), n);
    EXPECT_GT(big->vramUsed(), 0u);  // its vectors are resident, charged to it
  }
  EXPECT_EQ(big->vramUsed(), 0u);  // dropping the vectors released the charge
}

TEST(SessionQuota, ServicePropagatesUnserviceableQuotaBreach) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto small = service.createSession({"small", 1.0, 16 * 1024});
  auto big = service.createSession({"big", 1.0, 0});

  // This job alone can never fit: after queueing it once, the service must
  // fail it with QuotaError — and only it.
  auto doomed = service.submitMap(small, kMapSrc, mapInput(1 << 14, 0));
  auto fine = service.submitMap(big, kMapSrc, mapInput(1 << 14, 1));
  EXPECT_THROW(doomed.wait(), QuotaError);
  EXPECT_NO_THROW(fine.wait());
  EXPECT_EQ(fine.output().size(), std::size_t{1} << 14);
}

// --- lifecycle: shutdown, stopped submits, wait-twice ------------------------

TEST(ServiceLifecycle, SubmitAfterShutdownThrowsServiceStoppedError) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto s = service.createSession({"tenant", 1.0, 0});

  auto before = service.submitMap(s, kMapSrc, mapInput(256, 0));
  service.shutdown();
  EXPECT_NO_THROW(before.wait()) << "shutdown drains queued jobs first";
  EXPECT_EQ(before.output().size(), 256u);

  EXPECT_THROW(service.submitMap(s, kMapSrc, mapInput(256, 1)), ServiceStoppedError);
  EXPECT_THROW(service.submit(s, [] {}), ServiceStoppedError);
  EXPECT_NO_THROW(service.shutdown()) << "shutdown is idempotent";
}

TEST(ServiceLifecycle, WaitTwiceRethrowsTheSameError) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto small = service.createSession({"small", 1.0, 16 * 1024});

  // Unserviceable quota breach: the error must come back on *every* wait,
  // not just the first.
  auto doomed = service.submitMap(small, kMapSrc, mapInput(1 << 14, 0));
  EXPECT_THROW(doomed.wait(), QuotaError);
  EXPECT_THROW(doomed.wait(), QuotaError);
  EXPECT_THROW(doomed.output(), QuotaError);
}

TEST(ServiceLifecycle, EmptyMapJobCompletesWithEmptyOutput) {
  // An all-empty batch concatenates into a vector with no host buffer; the
  // copy into it must not touch a null pointer (UBSan job).
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto s = service.createSession({"tenant", 1.0, 0});
  auto h = service.submitMap(s, kMapSrc, {});
  EXPECT_NO_THROW(h.wait());
  EXPECT_TRUE(h.output().empty());
}

// --- cancellation ------------------------------------------------------------

TEST(ServiceCancel, CancelBeforeIssueCompletesWithCancelledError) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto s = service.createSession({"tenant", 1.0, 0});

  // Paused, the executor cannot pick the job up: cancel must win the race.
  service.pause();
  auto h = service.submitMap(s, kMapSrc, mapInput(512, 0));
  EXPECT_TRUE(h.cancel());
  EXPECT_FALSE(h.cancel()) << "second cancel finds the job already done";
  service.resume();
  EXPECT_THROW(h.wait(), CancelledError);
  EXPECT_THROW(h.wait(), CancelledError) << "wait-twice rethrows the cancellation";

  // The session keeps working after a cancellation.
  auto ok = service.submitMap(s, kMapSrc, mapInput(512, 1));
  EXPECT_NO_THROW(ok.wait());
  EXPECT_EQ(ok.output().size(), 512u);
}

TEST(ServiceCancel, CancelAfterCompletionReturnsFalse) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto s = service.createSession({"tenant", 1.0, 0});
  auto h = service.submitMap(s, kMapSrc, mapInput(256, 0));
  h.wait();
  EXPECT_FALSE(h.cancel());
  EXPECT_EQ(h.output().size(), 256u) << "a late cancel must not clobber the result";
}

TEST(ServiceCancel, WaitForTimesOutWhilePausedThenDelivers) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto s = service.createSession({"tenant", 1.0, 0});
  service.pause();
  auto h = service.submitMap(s, kMapSrc, mapInput(256, 0));
  EXPECT_FALSE(h.waitFor(0.01)) << "paused service: the job cannot finish";
  service.resume();
  EXPECT_TRUE(h.waitFor(30.0));
  EXPECT_EQ(h.output().size(), 256u);
}

// --- deadlines ---------------------------------------------------------------

TEST(ServiceDeadline, ExpiredDeadlineFailsTheJobBeforeItRuns) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service service;
  auto s = service.createSession({"tenant", 1.0, 0});

  service.pause();
  // The burner advances the simulated clock; FIFO order guarantees it runs
  // first (a non-map job is never batched with the map job behind it).
  auto burner = service.submit(s, [] {
    Map<float(float)> map(kMapSrc);
    Vector<float> v(mapInput(4096, 7));
    map(v).hostData();
    finish();
  });
  Service::SubmitOptions opts;
  opts.deadlineSeconds = 1e-9;  // expired by the time the burner finishes
  auto late = service.submitMap(s, kMapSrc, mapInput(256, 0), opts);
  service.resume();

  EXPECT_NO_THROW(burner.wait());
  EXPECT_THROW(late.wait(), DeadlineError);

  // A generous deadline passes untouched.
  Service::SubmitOptions roomy;
  roomy.deadlineSeconds = 1e6;
  auto fine = service.submitMap(s, kMapSrc, mapInput(256, 1), roomy);
  EXPECT_NO_THROW(fine.wait());
}

// --- circuit breaker: poison jobs stay isolated ------------------------------

TEST(ServiceBreaker, PoisonJobFailsAloneWhileOtherTenantsComplete) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  constexpr const char* kPoison = "float func(float x) { return undefined_symbol; }";
  Service service;
  auto bad = service.createSession({"bad", 1.0, 0});
  auto good = service.createSession({"good", 1.0, 0});

  auto poison = service.submitMap(bad, kPoison, mapInput(256, 0));
  std::vector<Service::Handle> fine;
  for (int j = 0; j < 6; ++j) {
    fine.push_back(service.submitMap(good, kMapSrc, mapInput(256, j)));
  }

  // The poison job surfaces its *real* error (after the breaker's retry
  // budget), not a breaker artifact.
  try {
    poison.wait();
    FAIL() << "a job with a non-compiling kernel must fail";
  } catch (const CircuitOpenError&) {
    FAIL() << "the first failure must surface the compile error itself";
  } catch (const Error&) {
  }

  // Everyone else is untouched.
  for (auto& h : fine) {
    EXPECT_NO_THROW(h.wait());
    EXPECT_EQ(h.output().size(), 256u);
  }

  // The same source on the same session now fails fast.
  EXPECT_THROW(service.submitMap(bad, kPoison, mapInput(256, 9)).wait(),
               CircuitOpenError);
  // A different source on the same session, and the same source on another
  // session, are separate breaker keys.
  EXPECT_NO_THROW(service.submitMap(bad, kMapSrc, mapInput(256, 10)).wait());
  try {
    service.submitMap(good, kPoison, mapInput(256, 11)).wait();
    FAIL() << "good's first poison attempt should surface the compile error";
  } catch (const CircuitOpenError&) {
    FAIL() << "breaker state must be per (session, source)";
  } catch (const Error&) {
  }
}

// --- quantum preemption: oversized jobs are sliced ---------------------------

TEST(ServicePreemption, OversizedMapJobIsSlicedIntoQuanta) {
  RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
  Service::Options options;
  options.quantumElements = 1024;
  Service service(options);
  auto heavy = service.createSession({"heavy", 1.0, 0});
  auto light = service.createSession({"light", 1.0, 0});

  const std::size_t big = 5000;  // 5 quanta of 1024
  std::vector<float> in = mapInput(big, 0);
  trace::enable();
  auto bigJob = service.submitMap(heavy, kMapSrc, in);
  auto smallJob = service.submitMap(light, kMapSrc, mapInput(256, 1));

  bigJob.wait();
  smallJob.wait();
  service.drain();
  trace::disable();

  // Each quantum is its own skeleton launch: the oversized job must show up
  // as several kernel records under the heavy session, not one.
  int heavyKernels = 0;
  for (const auto& r : trace::snapshot()) {
    const bool kernel = r.kind == trace::Record::Kind::Kernel ||
                        r.kind == trace::Record::Kind::Fused;
    heavyKernels += kernel && r.session == heavy->id();
  }
  trace::clear();
  EXPECT_GE(heavyKernels, 5) << "the oversized job must run as multiple quanta";

  // Slicing must not change the result: compare against a direct Map run.
  Map<float(float)> map(kMapSrc);
  Vector<float> v(in);
  const std::vector<float> ref = map(v).toStdVector();
  const auto& got = bigJob.output();
  ASSERT_EQ(got.size(), ref.size());
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), ref.size() * sizeof(float)))
      << "sliced execution must be bit-identical to a single run";
}

// --- the compile cache keys on (tier, source), not source alone -------------

TEST(SessionProgramCache, TierIsPartOfTheCacheKey) {
  // skelcheck flips SKELCL_KC_OPT between programs; a cache keyed by source
  // alone would hand a tier-1 program to a tier-0 request (regression test
  // for exactly that staleness bug).
  struct EnvGuard {
    std::string saved;
    bool had;
    EnvGuard() {
      const char* v = std::getenv("SKELCL_KC_OPT");
      had = v != nullptr;
      if (had) saved = v;
    }
    ~EnvGuard() {
      if (had) ::setenv("SKELCL_KC_OPT", saved.c_str(), 1);
      else ::unsetenv("SKELCL_KC_OPT");
    }
  } guard;

  detail::SharedDeviceState state(sim::SystemConfig::teslaS1070(1));
  ::setenv("SKELCL_KC_OPT", "1", 1);
  const auto fast = state.hostProgram(kAddSrc);
  EXPECT_EQ(fast->tier, 1);

  ::setenv("SKELCL_KC_OPT", "0", 1);
  const auto ref = state.hostProgram(kAddSrc);
  EXPECT_EQ(ref->tier, 0) << "stale tier-1 program served for a tier-0 request";
  EXPECT_NE(fast.get(), ref.get());

  // Same tier again: the cache must still hit.
  const auto refAgain = state.hostProgram(kAddSrc);
  EXPECT_EQ(ref.get(), refAgain.get());

  // The device-program cache distinguishes tiers the same way.
  const char* kernelSrc = "__kernel void k(__global float* p) { p[get_global_id(0)] = 1.0f; }";
  const auto devRef = state.programForSource(kernelSrc);
  ::setenv("SKELCL_KC_OPT", "2", 1);
  const auto devT2 = state.programForSource(kernelSrc);
  EXPECT_NE(devRef.get(), devT2.get());
  EXPECT_EQ(devT2.get(), state.programForSource(kernelSrc).get());
}

// --- the trace collector resets between init/terminate cycles ---------------

TEST(TraceLifecycle, RecordsDoNotSurviveTerminateInitCycle) {
  trace::clear();
  trace::enable();
  {
    RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
    Map<float(float)> map(kMapSrc);
    Vector<float> v(mapInput(256, 0));
    map(v).toStdVector();
    EXPECT_FALSE(trace::snapshot().empty());
  }
  // Records survive terminate (a trace can still be written afterwards)...
  EXPECT_FALSE(trace::snapshot().empty());
  {
    // ...but a new init starts a new run: stale records must not bleed in.
    RuntimeGuard rt(sim::SystemConfig::teslaS1070(2));
    EXPECT_TRUE(trace::snapshot().empty());
    EXPECT_TRUE(trace::enabled()) << "init resets records, not the enable switch";
  }
  trace::disable();
  trace::clear();
}
