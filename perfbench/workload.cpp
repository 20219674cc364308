// perfbench workload harness: runs one benchmark workload in this process.
//
// The harness only calls the library's public entry points and times them
// from the outside.  It reports on stdout, one JSON object per line, flushed
// at once so the parent (run.py) keeps every finished op even if the process
// dies on the next one:
//
//   {"event":"ready",...}              set-up done: data, init, warm-up op;
//                                      build type, compiler
//   {"event":"op","ok":true,...}       one timed op: wall_s, sim_s, and the
//                                      process's peak RSS after it
//   {"event":"layers","metrics":{..}}  per-layer numbers (--mode trace)
//   {"event":"done"}
//
// usage: perfbench_workload --workload osem|cluster_mix|service [--seed N]
//          [--mode run|setup|trace] [--seconds S] [--smoke]
//          [--fault wrong|abort|hang|abort_at_exit]
//
// --mode setup exits right after "ready"; --seconds 0 runs exactly one op;
// --smoke shrinks every input; --fault breaks the second op, or the exit
// after "done", on purpose (the self-test uses it to show that failures are
// counted).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/detail/trace.hpp"
#include "core/service.hpp"
#include "core/skelcl.hpp"
#include "docl/docl.hpp"
#include "kernelc/program.hpp"
#include "osem/osem.hpp"
#include "osem/osem_kernels.hpp"

using namespace skelcl;

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double elapsed(Clock::time_point from, Clock::time_point to = Clock::now()) {
  return std::chrono::duration<double>(to - from).count();
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5)];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set of this process image.  (getrusage's ru_maxrss would
/// carry over the parent's peak across fork and exec.)
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

[[noreturn]] void wrongOutput(const std::string& what) {
  throw std::runtime_error("wrong output: " + what);
}

bool bitEqual(const float* a, const float* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// --- JSON lines --------------------------------------------------------------

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + '"';
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

class Line {
 public:
  explicit Line(const char* event) { add("event", jsonString(event)); }
  Line& num(const std::string& key, double v) { return add(key, jsonNumber(v)); }
  Line& str(const std::string& key, const std::string& v) { return add(key, jsonString(v)); }
  Line& flag(const std::string& key, bool v) { return add(key, v ? "true" : "false"); }
  Line& object(const std::string& key, const Metrics& m) {
    std::string body;
    for (const auto& [k, v] : m) {
      body += (body.empty() ? "" : ",") + jsonString(k) + ':' + jsonNumber(v);
    }
    return add(key, '{' + body + '}');
  }
  void print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  Line& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + jsonString(key) + ':' + raw;
    return *this;
  }
  std::string body_;
};

// --- spans -------------------------------------------------------------------

/// One call into a layer, timed from the outside on both clocks.
struct Span {
  std::string layer;
  std::string name;
  int op = -1;      ///< traced op index; kSetupOp / kExtrasOp otherwise
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  double start = 0.0, end = 0.0;        ///< wall seconds
  double simStart = 0.0, simEnd = 0.0;  ///< simulated seconds
  double wall() const { return end - start; }
  double sim() const { return simEnd - simStart; }
};

constexpr int kSetupOp = -1;
constexpr int kExtrasOp = -2;

/// Spans kept in memory until the run ends.  While disabled a scope costs
/// one branch, so untraced ops run the same code as traced ones.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans& owner, const char* layer, const char* name) : owner_(owner) {
      if (!owner_.enabled) return;
      index_ = static_cast<int>(owner_.spans.size());
      Span s;
      s.layer = layer;
      s.name = name;
      s.op = owner_.op;
      s.parent = owner_.open_.empty() ? -1 : owner_.open_.back();
      s.simStart = simTimeSeconds();
      s.start = elapsed(owner_.origin_);
      owner_.spans.push_back(std::move(s));
      owner_.open_.push_back(index_);
    }
    ~Scope() {
      if (index_ < 0) return;
      Span& s = owner_.spans[static_cast<std::size_t>(index_)];
      s.end = elapsed(owner_.origin_);
      s.simEnd = simTimeSeconds();
      owner_.open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& owner_;
    int index_ = -1;
  };

  Scope scope(const char* layer, const char* name) { return Scope(*this, layer, name); }

  bool enabled = false;
  int op = kSetupOp;  ///< stamped on spans opened from now on
  std::vector<Span> spans;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<int> open_;
};

// --- workloads ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  std::string mode = "run";
  double seconds = 10.0;
  bool smoke = false;
  std::string fault;
};

class Workload {
 public:
  explicit Workload(const Options& opts, Spans& spans) : opts_(opts), spans_(spans) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Data generation, runtime init and the warm-up op (codegen + compile).
  virtual void setup() = 0;
  /// Output checks against a reference too costly for every op; run once
  /// after set-up is timed and before the timed ops.
  virtual void verifyOnce() {}
  /// One op; throws on a wrong output.  `corrupt` damages the result before
  /// the check.  Returns the op's simulated seconds.
  virtual double op(bool corrupt) = 0;
  /// Per-op numbers only this workload has: the hooks bracket a traced op
  /// that took `wall` seconds.
  virtual void beforeTracedOp() {}
  virtual void afterTracedOp(double /*wall*/, Metrics& /*perOp*/) {}
  /// Traced-run extras (Fig. 3 phase split, service open loop).
  virtual void extras(Metrics& /*out*/) {}
  /// Sources timed through kc::compileProgram for kernelc.compile_s.
  virtual std::vector<std::string> compileSources() const = 0;
  /// NIC link per device (-1 = local), for the docl.* numbers.
  virtual std::vector<int> nicLinks() const { return {}; }

 protected:
  const Options& opts_;
  Spans& spans_;
  bool initialized_ = false;  ///< the runtime is up; the destructor ends it
};

// osem: the paper's Listing 3 on 4 simulated GPUs (Fig. 4b).
class OsemWorkload final : public Workload {
 public:
  using Workload::Workload;
  ~OsemWorkload() override {
    if (initialized_) terminate();
  }

  void setup() override {
    osem::OsemConfig cfg;
    const int edge = opts_.smoke ? 16 : 48;
    cfg.volume.nx = cfg.volume.ny = cfg.volume.nz = edge;
    cfg.eventsPerSubset = opts_.smoke ? 500 : 15000;
    cfg.numSubsets = 3;
    cfg.seed = opts_.seed;
    data_ = osem::OsemData::generate(cfg);
    init(sim::SystemConfig::teslaS1070(4));
    initialized_ = true;
    auto s = spans_.scope("osem", "run");
    first_ = osem::runOsemSkelCLPreInitialized(*data_).image;
  }

  void verifyOnce() override {
    const double nrmse = osem::imageNrmse(first_, osem::runOsemSeq(*data_).image);
    if (!(nrmse <= 2e-3)) wrongOutput("osem NRMSE vs sequential " + std::to_string(nrmse));
  }

  double op(bool corrupt) override {
    resetSimClock();
    osem::OsemResult r;
    {
      auto s = spans_.scope("osem", "run");
      r = osem::runOsemSkelCLPreInitialized(*data_);
    }
    if (corrupt) r.image[0] += 1.0f;
    if (r.image.size() != first_.size() ||
        !bitEqual(r.image.data(), first_.data(), first_.size())) {
      wrongOutput("osem image differs from the first op");
    }
    return r.secondsPerSubset;
  }

  /// Fig. 3's phase-split loop (bench_fig3_phases): one barrier per phase.
  void extras(Metrics&) override {
    const osem::VolumeSpec& vol = data_->volume();
    Map<int(Index)> mapComputeC(osem::step1UserFunctionSource());
    Zip<float> zipUpdate(osem::step2UserFunctionSource());
    Vector<float> f(vol.voxels());
    std::fill(f.begin(), f.end(), 1.0f);
    const int reps = opts_.smoke ? 1 : 2 * data_->config.numSubsets;
    for (int rep = 0; rep < reps; ++rep) {
      const int l = rep % data_->config.numSubsets;
      resetSimClock();
      Vector<osem::Event> events(
          std::vector<osem::Event>(data_->subset(l), data_->subset(l) + data_->subsetSize()));
      IndexVector index(data_->subsetSize());
      events.setDistribution(Distribution::block());
      index.setDistribution(Distribution::block());
      f.setDistribution(Distribution::copy());
      Vector<float> c(vol.voxels());
      c.setDistribution(Distribution::copy("float func(float a, float b) { return a + b; }"));
      {
        auto s = spans_.scope("osem", "upload");
        events.impl().ensureOnDevices();
        f.impl().ensureOnDevices();
        c.impl().ensureOnDevices();
        finish();
      }
      {
        auto s = spans_.scope("osem", "step1");
        mapComputeC(index, events, events.offsets(), events.sizes(), f, c, vol.nx, vol.ny,
                    vol.nz, vol.voxel);
        c.dataOnDevicesModified();
        finish();
      }
      {
        auto s = spans_.scope("osem", "redistribute");
        f.setDistribution(Distribution::block());
        c.setDistribution(Distribution::block());
        f.impl().ensureOnDevices();
        c.impl().ensureOnDevices();
        finish();
      }
      {
        auto s = spans_.scope("osem", "step2");
        zipUpdate(out(f), f, c);
        finish();
      }
      {
        auto s = spans_.scope("osem", "download");
        (void)f[0];
        finish();
      }
    }
  }

  std::vector<std::string> compileSources() const override {
    return {osem::rawKernelsSource()};
  }

 private:
  std::optional<osem::OsemData> data_;
  std::vector<float> first_;
};

// cluster_mix: a skeleton mix on a dOpenCL cluster of 4 nodes x 4 GPUs.
constexpr const char* kHeavy =
    "float func(float x) { float s = x;"
    " for (int i = 0; i < 64; ++i) s = s * 0.5f + 1.0f; return s; }";
constexpr const char* kTriple = "float func(float x) { return 3.0f * x; }";
constexpr const char* kAdd = "float func(float a, float b) { return a + b; }";
constexpr const char* kJacobi =
    "float func(__global float* m, int i, int s) {"
    "  return 0.25f * (m[i - s] + m[i - 1] + m[i + 1] + m[i + s]);"
    "}";
constexpr int kSweeps = 4;  // even: the result lands in `c`

class ClusterMix final : public Workload {
 public:
  using Workload::Workload;
  ~ClusterMix() override {
    state_.reset();
    if (initialized_) terminate();
  }

  void setup() override {
    // The seed picks the sizes too, so simulated time differs between seeds.
    n_ = opts_.smoke ? 4096 : (std::size_t{1} << 18) - 8 * (opts_.seed % 128);
    rows_ = opts_.smoke ? 32 : 512 - opts_.seed % 16;
    cols_ = opts_.smoke ? 32 : 512;
    std::mt19937_64 rng(opts_.seed);
    // Integer-valued inputs below 16 (256 on the grid): every sum, prefix and
    // Jacobi average is exact in fp32, so any reduction shape is bit-exact.
    std::vector<float> v(n_), w(n_), grid(rows_ * cols_);
    for (auto& x : v) x = static_cast<float>(rng() % 16);
    for (auto& x : w) x = static_cast<float>(rng() % 16);
    for (auto& x : grid) x = static_cast<float>(rng() % 256);
    computeReferences(v, w, grid);

    for (int node = 0; node < 4; ++node) {
      cluster_.servers.push_back(sim::SystemConfig::teslaS1070(4));
    }
    docl::initSkelCL(cluster_);
    initialized_ = true;
    state_ = std::make_unique<State>(v, w, rows_, cols_, grid);
    (void)round(false);
  }

  double op(bool corrupt) override { return round(corrupt); }

  std::vector<std::string> compileSources() const override {
    return {kHeavy, kTriple, kAdd, kJacobi};
  }

  std::vector<int> nicLinks() const override {
    std::vector<int> links;
    for (const auto& d : docl::flatten(cluster_).devices) links.push_back(d.nic_link);
    return links;
  }

 private:
  struct State {
    State(const std::vector<float>& v0, const std::vector<float>& w0, std::size_t rows,
          std::size_t cols, const std::vector<float>& grid)
        : v(v0), w(w0), a(rows, cols, grid), b(rows, cols), c(rows, cols) {
      pipe.map(kTriple).zip(w, kAdd);
    }
    Map<float(float)> heavy{kHeavy};
    Pipeline<float> pipe;
    Reduce<float> sum{kAdd};
    Scan<float> prefix{kAdd};
    MapOverlap<float(float)> jacobi{kJacobi, 1, Padding::Clamp};
    Vector<float> v, w;
    Matrix<float> a, b, c;
  };

  void computeReferences(const std::vector<float>& v, const std::vector<float>& w,
                         const std::vector<float>& grid) {
    heavyRef_.resize(n_);
    scanRef_.resize(n_);
    double pipe = 0.0, sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      float s = v[i];
      for (int k = 0; k < 64; ++k) s = s * 0.5f + 1.0f;
      heavyRef_[i] = s;
      pipe += 3.0 * v[i] + w[i];
      sum += v[i];
      scanRef_[i] = static_cast<float>(sum);
    }
    pipeRef_ = static_cast<float>(pipe);
    sumRef_ = static_cast<float>(sum);
    gridRef_ = grid;
    std::vector<float> next(grid.size());
    const auto at = [&](long r, long c) {
      r = std::clamp(r, 0L, static_cast<long>(rows_) - 1);
      c = std::clamp(c, 0L, static_cast<long>(cols_) - 1);
      return gridRef_[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)];
    };
    for (int sweep = 0; sweep < kSweeps; ++sweep) {
      for (long r = 0; r < static_cast<long>(rows_); ++r) {
        for (long c = 0; c < static_cast<long>(cols_); ++c) {
          next[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)] =
              0.25f * (at(r - 1, c) + at(r, c - 1) + at(r, c + 1) + at(r + 1, c));
        }
      }
      gridRef_.swap(next);
    }
  }

  /// One round; every skeleton call ends at a barrier so its span carries
  /// its own simulated time, traced or not.
  double round(bool corrupt) {
    State& st = *state_;
    resetSimClock();
    std::vector<float> mapped;
    {
      auto s = spans_.scope("core", "map");
      mapped = st.heavy(st.v).toStdVector();
      finish();
    }
    float piped = 0.0f, summed = 0.0f;
    {
      auto s = spans_.scope("core", "pipeline_reduce");
      piped = st.pipe.reduce(kAdd, st.v);
      finish();
    }
    {
      auto s = spans_.scope("core", "reduce");
      summed = st.sum(st.v);
      finish();
    }
    std::vector<float> scanned;
    {
      auto s = spans_.scope("core", "scan");
      scanned = st.prefix(st.v).toStdVector();
      finish();
    }
    std::vector<float> grid;
    {
      auto s = spans_.scope("core", "stencil");
      st.jacobi(st.b, st.a);
      for (int sweep = 1; sweep < kSweeps; ++sweep) {
        if (sweep % 2 == 1) st.jacobi(st.c, st.b);
        else st.jacobi(st.b, st.c);
      }
      grid = st.c.toStdVector();
      finish();
    }
    const double sim = simTimeSeconds();
    if (corrupt) mapped[0] += 1.0f;
    if (!bitEqual(mapped.data(), heavyRef_.data(), n_)) wrongOutput("heavy map");
    if (!bitEqual(&piped, &pipeRef_, 1)) wrongOutput("pipeline reduce");
    if (!bitEqual(&summed, &sumRef_, 1)) wrongOutput("reduce");
    if (!bitEqual(scanned.data(), scanRef_.data(), n_)) wrongOutput("scan");
    if (!bitEqual(grid.data(), gridRef_.data(), grid.size())) wrongOutput("jacobi");
    return sim;
  }

  std::size_t n_ = 0, rows_ = 0, cols_ = 0;
  std::vector<float> heavyRef_, scanRef_, gridRef_;
  float pipeRef_ = 0.0f, sumRef_ = 0.0f;
  docl::DistributedConfig cluster_;
  std::unique_ptr<State> state_;
};

// service: 8 tenants submitting small map jobs to one Service on 2 GPUs.
constexpr const char* kJobSources[2] = {
    "float func(float x) { return 2.0f * x + 1.0f; }",
    "float func(float x) { return x * x - 3.0f; }",
};
constexpr int kTenants = 8;
constexpr int kSourceRun = 16;  // consecutive same-source jobs: one full batch
// Offered rate of phase B, jobs per second: about a third of the open-loop
// capacity.  Jobs that arrive one by one mostly run one per launch, so that
// capacity (~7.5 k jobs/s on a 4-core 2.1 GHz Xeon VM at one host thread:
// p99 climbs from 6 k, the generator falls 0.3-0.6 s behind at 9 k) is far
// below the batched backlog drain (svc.jobs_per_s, ~28 k jobs/s).
constexpr double kOfferedRate = 2500.0;

class ServiceWorkload final : public Workload {
 public:
  using Workload::Workload;
  ~ServiceWorkload() override {
    service_.reset();
    sessions_.clear();
    if (initialized_) terminate();
  }

  void setup() override {
    // Each tenant alternates user sources every kSourceRun jobs, so the
    // batching is the same for every seed; the seed trims the job size
    // (249..256 floats) so simulated time still differs a little.
    std::mt19937_64 rng(opts_.seed);
    const int perTenant = opts_.smoke ? 4 : 128;
    const std::size_t jobSize = 256 - opts_.seed % 8;
    for (int j = 0; j < perTenant; ++j) {
      for (int t = 0; t < kTenants; ++t) {
        Job job;
        job.tenant = t;
        job.source = (t + j / kSourceRun) % 2;
        job.input.resize(jobSize);
        job.expected.resize(jobSize);
        for (std::size_t i = 0; i < jobSize; ++i) {
          const float x = static_cast<float>(rng() % 64);
          job.input[i] = x;
          job.expected[i] = job.source == 0 ? 2.0f * x + 1.0f : x * x - 3.0f;
        }
        jobs_.push_back(std::move(job));
      }
    }
    init(sim::SystemConfig::teslaS1070(2));
    initialized_ = true;
    service_ = std::make_unique<Service>();
    for (int t = 0; t < kTenants; ++t) {
      sessions_.push_back(
          service_->createSession({"tenant" + std::to_string(t), t == 0 ? 2.0 : 1.0, 0}));
    }
    (void)op(false);
  }

  /// Phase A: the whole backlog is queued while the executor is paused, so
  /// batching (and hence simulated time) does not depend on thread timing.
  double op(bool corrupt) override {
    resetSimClock();
    std::vector<Service::Handle> handles;
    handles.reserve(jobs_.size());
    {
      auto s = spans_.scope("service", "submit");
      service_->pause();
      for (const Job& job : jobs_) handles.push_back(submit(job));
      service_->resume();
    }
    {
      auto s = spans_.scope("service", "wait");
      for (std::size_t k = 0; k < jobs_.size(); ++k) {
        check(handles[k].output(), jobs_[k], corrupt && k == 0);
      }
    }
    return simTimeSeconds();
  }

  void beforeTracedOp() override { before_ = totals(); }

  void afterTracedOp(double wall, Metrics& perOp) override {
    const Totals after = totals();
    const double launches = static_cast<double>(after.batches - before_.batches);
    perOp["svc.jobs_per_s"] = static_cast<double>(jobs_.size()) / wall;
    perOp["svc.jobs_per_launch"] = static_cast<double>(after.jobs - before_.jobs) / launches;
    perOp["svc.wall_us_per_launch"] = wall * 1e6 / launches;
  }

  /// Phase B: an open loop at a fixed offered rate.  Latency runs from each
  /// job's due time, so a stalled generator shows as latency too.
  void extras(Metrics& out) override {
    struct Pending {
      Service::Handle handle;
      Clock::time_point due;
      const Job* job = nullptr;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Pending> pending;
    bool generatorDone = false;
    std::vector<double> latency, simLatency, late;
    std::exception_ptr collectError, generateError;
    std::thread collector([&] {
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(mutex);
          ready.wait(lock, [&] { return !pending.empty() || generatorDone; });
          if (pending.empty()) return;
          p = std::move(pending.front());
          pending.pop_front();
        }
        try {
          check(p.handle.output(), *p.job, false);
          latency.push_back(elapsed(p.due));
          simLatency.push_back(p.handle.latencySeconds());
        } catch (...) {
          if (!collectError) collectError = std::current_exception();
        }
      }
    });
    const double duration = opts_.smoke ? 0.02 : 2.0;
    const auto start = Clock::now();
    try {
      for (std::size_t i = 0;; ++i) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(static_cast<double>(i) /
                                                                   kOfferedRate));
        if (elapsed(start, due) > duration) break;
        std::this_thread::sleep_until(due);
        late.push_back(elapsed(due));
        const Job& job = jobs_[i % jobs_.size()];
        Pending p{submit(job), due, &job};
        {
          std::lock_guard<std::mutex> lock(mutex);
          pending.push_back(std::move(p));
        }
        ready.notify_one();
      }
    } catch (...) {
      generateError = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      generatorDone = true;
    }
    ready.notify_one();
    collector.join();
    if (generateError) std::rethrow_exception(generateError);
    if (collectError) std::rethrow_exception(collectError);
    out["svc.lat_p50_ms"] = median(latency) * 1e3;
    out["svc.lat_p99_ms"] = percentile(latency, 0.99) * 1e3;
    out["svc.sim_lat_p50_ms"] = median(simLatency) * 1e3;
    out["svc.gen_late_ms"] = percentile(late, 0.99) * 1e3;
  }

  std::vector<std::string> compileSources() const override {
    return {kJobSources[0], kJobSources[1]};
  }

 private:
  struct Job {
    int tenant = 0;
    int source = 0;
    std::vector<float> input, expected;
  };

  struct Totals {
    std::uint64_t jobs = 0, batches = 0;
  };

  Totals totals() const {
    Totals t;
    for (const auto& session : sessions_) {
      const Service::TenantStats stats = service_->stats(*session);
      t.jobs += stats.jobsCompleted;
      t.batches += stats.batchesRun;
    }
    return t;
  }

  Service::Handle submit(const Job& job) {
    return service_->submitMap(sessions_[static_cast<std::size_t>(job.tenant)],
                               kJobSources[job.source], job.input);
  }

  static void check(const std::vector<float>& got, const Job& job, bool corrupt) {
    std::vector<float> expected = job.expected;
    if (corrupt) expected[0] += 1.0f;
    if (got.size() != expected.size() || !bitEqual(got.data(), expected.data(), got.size())) {
      wrongOutput("service job of tenant " + std::to_string(job.tenant));
    }
  }

  std::vector<Job> jobs_;
  std::unique_ptr<Service> service_;
  std::vector<std::shared_ptr<Session>> sessions_;
  Totals before_;
};

std::unique_ptr<Workload> makeWorkload(const Options& opts, Spans& spans) {
  if (opts.workload == "osem") return std::make_unique<OsemWorkload>(opts, spans);
  if (opts.workload == "cluster_mix") return std::make_unique<ClusterMix>(opts, spans);
  if (opts.workload == "service") return std::make_unique<ServiceWorkload>(opts, spans);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

// --- op loop and traced run --------------------------------------------------

/// One op, with the requested fault injected into the second.  Fills `line`
/// and, when the op passed its checks, appends its wall time to `walls`.
bool runOne(Workload& wl, const Options& opts, int index, Line& line,
            std::vector<double>& walls) {
  const bool faulty = index == 1 && !opts.fault.empty();
  if (faulty && opts.fault == "abort") std::abort();
  if (faulty && opts.fault == "hang") std::this_thread::sleep_for(std::chrono::hours(1));
  bool ok = false;
  const auto t0 = Clock::now();
  try {
    const double sim = wl.op(faulty && opts.fault == "wrong");
    const double wall = elapsed(t0);
    walls.push_back(wall);
    line.flag("ok", true).num("wall_s", wall).num("sim_s", sim).num("rss_mb", peakRssMb());
    ok = true;
  } catch (const std::exception& e) {
    line.flag("ok", false).str("error", e.what());
  }
  return ok;
}

/// Runs ops until `seconds` have passed (at least one).  Returns the wall
/// time of every op that passed its checks.
std::vector<double> runOps(Workload& wl, const Options& opts, double seconds, int& index) {
  std::vector<double> walls;
  const auto start = Clock::now();
  do {
    Line line("op");
    runOne(wl, opts, index++, line, walls);
    line.print();
  } while (elapsed(start) < seconds);
  return walls;
}

struct OpCounters {
  double instr = 0, launches = 0, transfers = 0, bytes = 0;
  double kernelBusy = 0, transferBusy = 0, hostBusy = 0, nicBytes = 0, nicRecords = 0;
};

OpCounters countersOf(const sim::Stats& stats, const std::vector<trace::Record>& records,
                      const std::vector<int>& nicLinks) {
  using K = trace::Record::Kind;
  OpCounters c;
  c.instr = static_cast<double>(stats.instructions_executed);
  c.launches = static_cast<double>(stats.kernel_launches);
  c.transfers = static_cast<double>(stats.transfers);
  c.bytes = static_cast<double>(stats.bytes_transferred);
  for (const trace::Record& r : records) {
    const double busy = r.end - r.start;
    const bool transfer = r.kind == K::Upload || r.kind == K::Download || r.kind == K::Copy ||
                          r.kind == K::Fill || r.kind == K::Halo;
    if (r.kind == K::Kernel || r.kind == K::Fused) c.kernelBusy += busy;
    if (transfer) c.transferBusy += busy;
    if (r.kind == K::Host) c.hostBusy += busy;
    // Only host<->device traffic crosses a NIC: device-side fills and
    // peer copies (which stay on a node's PCIe) do not.
    const bool hostLink = r.kind == K::Upload || r.kind == K::Download || r.kind == K::Halo;
    const bool remote = r.device >= 0 && static_cast<std::size_t>(r.device) < nicLinks.size() &&
                        nicLinks[static_cast<std::size_t>(r.device)] >= 0;
    if (hostLink && remote) {
      c.nicBytes += static_cast<double>(r.bytes);
      c.nicRecords += 1;
    }
  }
  return c;
}

/// The traced run: untraced ops for half the time (the overhead baseline),
/// traced ops for the other half, then compile timing and the workload's
/// extras.  Every number is a median over ops (or repetitions).
Metrics tracedRun(Workload& wl, const Options& opts, Spans& spans) {
  int index = 0;
  const std::vector<double> untraced = runOps(wl, opts, opts.seconds / 2, index);

  spans.enabled = true;
  trace::enable();
  std::map<std::string, std::vector<double>> perOp;
  std::vector<double> traced;
  const auto start = Clock::now();
  do {
    spans.op = index;
    trace::clear();
    wl.beforeTracedOp();
    const std::size_t root = spans.spans.size();
    Line line("op");
    bool ok = false;
    {
      auto s = spans.scope("bench", "op");
      ok = runOne(wl, opts, index++, line, traced);
    }
    line.print();
    if (!ok) continue;
    const double wall = spans.spans[root].wall();
    const OpCounters c = countersOf(simStats(), trace::snapshot(), wl.nicLinks());
    double inLibrary = 0.0;  // wall spent inside calls into the library
    Metrics self;            // span duration minus its children, per layer
    for (std::size_t i = root; i < spans.spans.size(); ++i) {
      const Span& s = spans.spans[i];
      self[s.layer] += s.wall();
      if (s.parent < 0) continue;
      self[spans.spans[static_cast<std::size_t>(s.parent)].layer] -= s.wall();
      if (s.parent == static_cast<int>(root)) inLibrary += s.wall();
      perOp[s.layer + "." + s.name + ".wall_s"].push_back(s.wall());
      perOp[s.layer + "." + s.name + ".sim_s"].push_back(s.sim());
    }
    for (const auto& [layer, t] : self) perOp["self." + layer + ".wall_s"].push_back(t);
    Metrics m;
    m["kernelc.instr"] = c.instr;
    m["kernelc.instr_per_s"] = c.instr / inLibrary;
    m["ocl.launches"] = c.launches;
    m["ocl.transfers"] = c.transfers;
    m["ocl.bytes"] = c.bytes;
    m["sim.kernel_busy_s"] = c.kernelBusy;
    m["sim.transfer_busy_s"] = c.transferBusy;
    m["sim.host_busy_s"] = c.hostBusy;
    m["docl.nic_bytes"] = c.nicBytes;
    m["docl.nic_records"] = c.nicRecords;
    wl.afterTracedOp(wall, m);
    for (const auto& [k, v] : m) perOp[k].push_back(v);
  } while (elapsed(start) < opts.seconds / 2);
  trace::disable();

  Metrics out;
  for (const auto& [k, v] : perOp) out[k] = median(v);
  if (!traced.empty() && !untraced.empty()) {
    out["trace.overhead_ratio"] = median(traced) / median(untraced);
  }

  // Cold call: a layer call's first (set-up) duration minus its warm median.
  for (const Span& s : spans.spans) {
    const std::string key = s.layer + "." + s.name;
    if (s.op == kSetupOp && out.count(key + ".wall_s") && !out.count(key + ".cold_call_s")) {
      out[key + ".cold_call_s"] = s.wall() - out[key + ".wall_s"];
    }
  }

  spans.op = kExtrasOp;
  std::vector<double> compile;
  for (int rep = 0; rep < (opts.smoke ? 1 : 5); ++rep) {
    const auto t0 = Clock::now();
    for (const std::string& src : wl.compileSources()) {
      auto s = spans.scope("kernelc", "compileProgram");
      (void)kc::compileProgram(src);
    }
    compile.push_back(elapsed(t0));
  }
  out["kernelc.compile_s"] = median(compile);

  const std::size_t first = spans.spans.size();
  wl.extras(out);
  std::map<std::string, std::vector<double>> phases;
  for (std::size_t i = first; i < spans.spans.size(); ++i) {
    const Span& s = spans.spans[i];
    phases[s.layer + "." + s.name + ".wall_s"].push_back(s.wall());
    phases[s.layer + "." + s.name + ".sim_s"].push_back(s.sim());
  }
  for (const auto& [k, v] : phases) out[k] = median(v);
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") o.workload = value();
    else if (arg == "--seed") o.seed = std::stoull(value());
    else if (arg == "--mode") o.mode = value();
    else if (arg == "--seconds") o.seconds = std::stod(value());
    else if (arg == "--fault") o.fault = value();
    else if (arg == "--smoke") o.smoke = true;
    else throw std::invalid_argument("unknown argument " + arg);
  }
  if (o.mode != "run" && o.mode != "setup" && o.mode != "trace") {
    throw std::invalid_argument("unknown mode " + o.mode);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opts = parse(argc, argv);
    Spans spans;
    spans.enabled = opts.mode == "trace";  // traces the warm-up op: cold calls
    std::unique_ptr<Workload> wl = makeWorkload(opts, spans);
    wl->setup();
    Line("ready").str("build_type", PERFBENCH_BUILD_TYPE).str("compiler", PERFBENCH_COMPILER).print();
    if (opts.mode == "setup") return 0;
    spans.enabled = false;
    wl->verifyOnce();
    if (opts.mode == "trace") {
      Line("layers").object("metrics", tracedRun(*wl, opts, spans)).print();
    } else {
      int index = 0;
      (void)runOps(*wl, opts, opts.seconds, index);
    }
    Line("done").print();
    if (opts.fault == "abort_at_exit") std::abort();
    return 0;
  } catch (const std::exception& e) {
    Line("error").str("error", e.what()).print();
    return 1;
  }
}
