// Multi-tenant skeleton service benchmark (docs/SERVICE.md).
//
// Thousands of small map jobs are submitted by 8 concurrent tenant threads
// and by the same tenants serialized one after another.  The concurrent
// service wins because the admission scheduler fuses consecutive small jobs
// of one tenant into a single kernel enqueue, amortizing the per-launch
// overhead that dominates at this job size.  Reported per tenant: job count,
// p50/p95/p99 latency (simulated seconds from submission to completion, read
// from the service's latency histograms, so within one ~9% bucket) and
// the share of device time received.  A final 2:1 share-weight run checks
// the fair-share property: device time divides in the ratio of the weights.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detail/trace.hpp"
#include "core/service.hpp"
#include "core/skelcl.hpp"

using namespace skelcl;

namespace {

constexpr const char* kSource = "float func(float x) { return 2.0f * x + 1.0f; }";

std::vector<float> jobInput(std::size_t n, int tenant, int job) {
  std::vector<float> in(n);
  for (std::size_t i = 0; i < n; ++i) {
    in[i] = static_cast<float>((i * 31 + static_cast<std::size_t>(tenant) * 7 +
                                static_cast<std::size_t>(job)) % 97);
  }
  return in;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

struct RunResult {
  double seconds = 0.0;                      // simulated wall time of the run
  std::vector<Service::TenantStats> tenants; // per-tenant stats
  std::vector<double> deviceTime;            // per-tenant device seconds
};

/// `tenants` client threads submit `jobsPerTenant` map jobs of `jobSize`
/// floats each through one Service, then wait for their handles.
RunResult runConcurrent(int tenants, int jobsPerTenant, std::size_t jobSize) {
  resetSimClock();
  RunResult result;
  Service service;
  std::vector<std::shared_ptr<Session>> sessions;
  for (int t = 0; t < tenants; ++t) {
    SessionOptions opts;
    opts.name = "tenant" + std::to_string(t);
    sessions.push_back(service.createSession(opts));
  }
  const double start = simTimeSeconds();
  std::vector<std::thread> clients;
  for (int t = 0; t < tenants; ++t) {
    clients.emplace_back([&, t] {
      std::vector<Service::Handle> handles;
      handles.reserve(static_cast<std::size_t>(jobsPerTenant));
      for (int j = 0; j < jobsPerTenant; ++j) {
        handles.push_back(service.submitMap(sessions[static_cast<std::size_t>(t)],
                                            kSource, jobInput(jobSize, t, j)));
      }
      for (auto& h : handles) h.wait();
    });
  }
  for (auto& c : clients) c.join();
  service.drain();
  result.seconds = simTimeSeconds() - start;
  for (int t = 0; t < tenants; ++t) {
    result.tenants.push_back(service.stats(*sessions[static_cast<std::size_t>(t)]));
    result.deviceTime.push_back(sessions[static_cast<std::size_t>(t)]->deviceTimeUsed());
  }
  return result;
}

/// Fair-share check: two saturating tenants with share weights 2:1 submit the
/// same number of identical jobs.  While *both* have backlog, stride
/// scheduling gives the heavy tenant twice the device time — measured the
/// instant the heavy tenant drains, by a sentinel job that the FIFO session
/// queue places right after the heavy tenant's last real job (on the executor
/// thread, so the snapshot is deterministic).  Waiting until everything
/// drains instead would always yield 1:1 — every job runs eventually.
double fairShareRatio(int jobsPerTenant, std::size_t jobSize) {
  resetSimClock();
  Service::Options options;
  options.batchMaxJobs = 4;  // finer scheduling granularity than the default
  Service service(options);
  auto heavy = service.createSession({"heavy", 2.0, 0});
  auto light = service.createSession({"light", 1.0, 0});
  for (int j = 0; j < jobsPerTenant; ++j) {
    service.submitMap(heavy, kSource, jobInput(jobSize, 0, j));
    service.submitMap(light, kSource, jobInput(jobSize, 1, j));
  }
  double heavyTime = 0.0, lightTime = 0.0;
  service
      .submit(heavy,
              [&] {
                heavyTime = heavy->deviceTimeUsed();
                lightTime = light->deviceTimeUsed();
              })
      .wait();
  service.drain();
  return heavyTime / lightTime;
}

/// The serialized baseline: the same tenants and jobs, but each tenant runs
/// its jobs to completion before the next tenant starts, one enqueue per job
/// (no batching) — the throughput a one-tenant-at-a-time deployment gets.
RunResult runSerialized(int tenants, int jobsPerTenant, std::size_t jobSize) {
  resetSimClock();
  RunResult result;
  const double start = simTimeSeconds();
  for (int t = 0; t < tenants; ++t) {
    auto session = createSession({"serial" + std::to_string(t), 1.0, 0});
    SessionScope scope(session);
    Service::TenantStats stats;
    Map<float(float)> map(kSource);
    for (int j = 0; j < jobsPerTenant; ++j) {
      const double submitted = simTimeSeconds();
      Vector<float> in(jobInput(jobSize, t, j));
      Vector<float> out = map(in);
      out.hostData();  // consume the result, as the service does
      finish();
      ++stats.jobsCompleted;
      ++stats.batchesRun;
      stats.latency.add(simTimeSeconds() - submitted);
    }
    result.tenants.push_back(std::move(stats));
    result.deviceTime.push_back(session->deviceTimeUsed());
  }
  result.seconds = simTimeSeconds() - start;
  return result;
}

/// Straggler (gray-failure) scenario: device 0 turns into a persistent 8x
/// straggler while the tenants keep submitting.  With the watchdog the
/// runtime aborts the slow commands at their deadline, degrades device 0 and
/// blacklists it after three strikes, so only the first job pays; without the
/// watchdog every job's device-0 half just runs 8x slower.  Runs in its own
/// init/terminate bracket so degrade state cannot leak between variants.
struct StragglerRun {
  double p99 = 0.0;
  double seconds = 0.0;
  std::vector<std::vector<float>> outputs;  ///< tenant-major, job-minor
};

StragglerRun runStraggler(bool watchdog, int tenants, int jobsPerTenant,
                          std::size_t jobSize) {
  init(sim::SystemConfig::teslaS1070(2));
  setWatchdogEnabled(watchdog);
  StragglerRun r;
  {
    // Warm the program cache before the fault so both variants pay it equally.
    Map<float(float)> warm(kSource);
    Vector<float> v(jobInput(jobSize, 0, 0));
    warm(v).hostData();
    finish();

    sim::FaultPlan plan;
    plan.slowDevice(0, 8.0);  // every command, until the plan is replaced
    setFaultPlan(std::move(plan));

    resetSimClock();
    Service service;
    std::vector<std::shared_ptr<Session>> sessions;
    for (int t = 0; t < tenants; ++t) {
      sessions.push_back(service.createSession({"slow" + std::to_string(t), 1.0, 0}));
    }
    const double start = simTimeSeconds();
    r.outputs.resize(static_cast<std::size_t>(tenants * jobsPerTenant));
    std::vector<double> latencies;
    std::mutex collect;
    std::vector<std::thread> clients;
    for (int t = 0; t < tenants; ++t) {
      clients.emplace_back([&, t] {
        std::vector<Service::Handle> handles;
        handles.reserve(static_cast<std::size_t>(jobsPerTenant));
        for (int j = 0; j < jobsPerTenant; ++j) {
          handles.push_back(service.submitMap(sessions[static_cast<std::size_t>(t)],
                                              kSource, jobInput(jobSize, t, j)));
        }
        for (int j = 0; j < jobsPerTenant; ++j) {
          handles[static_cast<std::size_t>(j)].wait();
          std::lock_guard<std::mutex> lock(collect);
          r.outputs[static_cast<std::size_t>(t * jobsPerTenant + j)] =
              handles[static_cast<std::size_t>(j)].output();
          latencies.push_back(handles[static_cast<std::size_t>(j)].latencySeconds());
        }
      });
    }
    for (auto& c : clients) c.join();
    service.drain();
    r.seconds = simTimeSeconds() - start;
    r.p99 = percentile(latencies, 0.99);
  }
  terminate();
  return r;
}

void printRun(const char* title, const RunResult& r, int jobs) {
  std::printf("%s: %d jobs in %.3f simulated ms -> %.0f jobs/s\n", title, jobs,
              r.seconds * 1e3, static_cast<double>(jobs) / r.seconds);
  std::printf("  %-9s %6s %8s %12s %12s %12s %14s\n", "tenant", "jobs", "batches",
              "p50 (us)", "p95 (us)", "p99 (us)", "device (ms)");
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const auto& s = r.tenants[t];
    std::printf("  tenant%-3zu %6llu %8llu %12.1f %12.1f %12.1f %14.3f\n", t,
                static_cast<unsigned long long>(s.jobsCompleted),
                static_cast<unsigned long long>(s.batchesRun),
                s.latency.quantile(0.50) * 1e6, s.latency.quantile(0.95) * 1e6,
                s.latency.quantile(0.99) * 1e6, r.deviceTime[t] * 1e3);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int tenants = 8;
  const int jobsPerTenant = smoke ? 40 : 250;
  const std::size_t jobSize = 256;  // small: launch overhead dominates

  init(sim::SystemConfig::teslaS1070(2));
  // SKELCL_TRACE=out.json records every command with its session id;
  // chrome://tracing shows one lane group per tenant.
  trace::enableFromEnv();
  int failures = 0;
  {
    std::printf("multi-tenant service: %d tenants x %d map jobs of %zu floats\n\n",
                tenants, jobsPerTenant, jobSize);

    // Warm the shared program cache so neither run pays clBuildProgram.
    {
      Map<float(float)> warm(kSource);
      Vector<float> v(jobInput(jobSize, 0, 0));
      warm(v).hostData();
      finish();
    }

    const RunResult serial = runSerialized(tenants, jobsPerTenant, jobSize);
    printRun("serialized (one enqueue per job)", serial, tenants * jobsPerTenant);
    std::printf("\n");

    const RunResult conc = runConcurrent(tenants, jobsPerTenant, jobSize);
    printRun("concurrent (fair-share + batching)", conc, tenants * jobsPerTenant);

    const double speedup = serial.seconds / conc.seconds;
    std::printf("\naggregate throughput: %.2fx the serialized baseline\n", speedup);
    if (speedup < 2.0) {
      std::printf("FAIL: expected >= 2x\n");
      ++failures;
    }

    const double ratio = fairShareRatio(jobsPerTenant, jobSize);
    std::printf("\nfair share with 2:1 weights: device time ratio %.2f (want ~2)\n", ratio);
    if (ratio < 1.5 || ratio > 2.7) {
      std::printf("FAIL: fair-share ratio out of range\n");
      ++failures;
    }
  }
  if (trace::flushToEnvPath()) {
    std::printf("trace written to $SKELCL_TRACE (open in chrome://tracing)\n");
  }
  terminate();

  // Gray-failure scenario: persistent 8x straggler on device 0.
  const int stragglerJobs = smoke ? 20 : 100;
  std::printf("\nstraggler scenario: dev0 a persistent 8x straggler, %d tenants x %d jobs\n",
              tenants, stragglerJobs);
  const StragglerRun guarded = runStraggler(true, tenants, stragglerJobs, jobSize);
  const StragglerRun unguarded = runStraggler(false, tenants, stragglerJobs, jobSize);
  std::printf("  %-28s %12s %14s\n", "variant", "p99 (us)", "total (ms)");
  std::printf("  %-28s %12.1f %14.3f\n", "watchdog on (degrade)", guarded.p99 * 1e6,
              guarded.seconds * 1e3);
  std::printf("  %-28s %12.1f %14.3f\n", "watchdog off (ride it out)",
              unguarded.p99 * 1e6, unguarded.seconds * 1e3);
  const double p99Ratio = unguarded.p99 / guarded.p99;
  std::printf("  p99 improvement with watchdog: %.2fx\n", p99Ratio);
  if (p99Ratio < 3.0) {
    std::printf("FAIL: expected the watchdog to improve straggler p99 >= 3x\n");
    ++failures;
  }
  bool identical = guarded.outputs.size() == unguarded.outputs.size();
  for (std::size_t i = 0; identical && i < guarded.outputs.size(); ++i) {
    identical = guarded.outputs[i].size() == unguarded.outputs[i].size() &&
                std::memcmp(guarded.outputs[i].data(), unguarded.outputs[i].data(),
                            guarded.outputs[i].size() * sizeof(float)) == 0;
  }
  std::printf("  job results with vs without watchdog: %s\n",
              identical ? "bit-identical" : "DIFFER");
  if (!identical) ++failures;

  return failures == 0 ? 0 : 1;
}
