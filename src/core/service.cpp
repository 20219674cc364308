#include "core/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <utility>

#include "core/detail/runtime.hpp"
#include "core/skeletons.hpp"
#include "core/vector.hpp"
#include "ocl/ocl.hpp"

namespace skelcl {

// One queued unit of work.  Completion state is guarded by the job's own
// mutex so a client can wait() without touching the service's queue lock.
struct Service::Job {
  std::shared_ptr<detail::Session> session;
  Service* service = nullptr;  ///< for Handle::cancel; valid while the service lives

  // Generic jobs carry a closure; map jobs carry (source, input) and are
  // eligible for same-session batching.
  std::function<void()> work;
  std::string source;
  std::vector<float> input;
  std::vector<float> result;  ///< for sliced map jobs, also the progress cursor
  bool isMap = false;
  bool noBatch = false;  ///< requeued after a batched failure: retry alone

  // Quota queueing: VRAM usage of the session at the last QuotaError.  A
  // retry is pointless unless usage dropped below this in the meantime.
  bool quotaFailed = false;
  std::uint64_t quotaFailedUsed = 0;

  double deadlineSeconds = 0.0;  ///< 0 = none; simulated-time budget to start
  double submitSimTime = 0.0;
  double doneSimTime = 0.0;

  mutable std::mutex m;
  mutable std::condition_variable cv;
  bool done = false;
  std::exception_ptr error;
};

namespace {
// A failure is *deterministic* when re-running the identical job must fail the
// same way (bad kernel source, API misuse): those count toward the circuit
// breaker.  Injected device faults, quota/allocation pressure and lost data
// are environment-dependent — retrying later can genuinely succeed.
bool deterministicFailure(const std::exception_ptr& error) {
  try {
    std::rethrow_exception(error);
  } catch (const ocl::CommandError&) {
    return false;
  } catch (const ResourceError&) {
    return false;
  } catch (const DataLossError&) {
    return false;
  } catch (...) {
    return true;
  }
}

std::string breakerKeyFor(const detail::Session& session, const std::string& source) {
  return std::to_string(session.id()) + '\n' + source;
}
}  // namespace

void Service::Handle::wait() const {
  SKELCL_CHECK(job_ != nullptr, "empty service handle");
  std::unique_lock<std::mutex> lock(job_->m);
  job_->cv.wait(lock, [&] { return job_->done; });
  if (job_->error) std::rethrow_exception(job_->error);
}

bool Service::Handle::waitFor(double wallSeconds) const {
  SKELCL_CHECK(job_ != nullptr, "empty service handle");
  std::unique_lock<std::mutex> lock(job_->m);
  if (!job_->cv.wait_for(lock, std::chrono::duration<double>(wallSeconds),
                         [&] { return job_->done; })) {
    return false;
  }
  if (job_->error) std::rethrow_exception(job_->error);
  return true;
}

bool Service::Handle::cancel() const {
  SKELCL_CHECK(job_ != nullptr, "empty service handle");
  {
    // Completed jobs never touch the service pointer, so a handle outliving
    // its (shut-down) service can still call cancel() safely.
    std::lock_guard<std::mutex> lock(job_->m);
    if (job_->done) return false;
  }
  return job_->service->cancelJob(job_);
}

const std::vector<float>& Service::Handle::output() const {
  SKELCL_CHECK(job_ != nullptr, "empty service handle");
  // Failed jobs must not masquerade as empty results: block like wait() and
  // rethrow the job's error, so output() is always safe to call directly.
  std::unique_lock<std::mutex> lock(job_->m);
  job_->cv.wait(lock, [&] { return job_->done; });
  if (job_->error) std::rethrow_exception(job_->error);
  return job_->result;
}

double Service::Handle::latencySeconds() const {
  SKELCL_CHECK(job_ != nullptr, "empty service handle");
  return job_->doneSimTime - job_->submitSimTime;
}

Service::Service(Options options) : options_(std::move(options)) {
  SKELCL_CHECK(detail::Runtime::initialized(), "call skelcl::init before starting a Service");
  executor_ = std::thread([this] { executorLoop(); });
}

Service::~Service() { shutdown(); }

void Service::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void Service::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void Service::shutdown() {
  resume();  // a paused service must still drain
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;  // idempotent: a prior shutdown already joined
    stop_ = true;
  }
  work_cv_.notify_all();
  executor_.join();
}

std::shared_ptr<detail::Session> Service::createSession(detail::SessionOptions options) {
  auto session = detail::Runtime::instance().createSession(std::move(options));
  std::lock_guard<std::mutex> lock(mutex_);
  queues_[session->id()].session = session;
  return session;
}

double Service::simNow(detail::Session& session) {
  // The sim clock is device state: read it under the shared lock (client
  // threads call this while the executor advances time).
  std::lock_guard<std::recursive_mutex> lock(session.shared().mutex());
  return session.system().hostNow();
}

Service::Handle Service::submit(std::shared_ptr<detail::Session> session,
                                std::function<void()> work, SubmitOptions opts) {
  SKELCL_CHECK(session != nullptr, "submit needs a session");
  SKELCL_CHECK(opts.deadlineSeconds >= 0.0, "deadline must be non-negative");
  auto job = std::make_shared<Job>();
  job->session = session;
  job->service = this;
  job->work = std::move(work);
  job->deadlineSeconds = opts.deadlineSeconds;
  job->submitSimTime = simNow(*session);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw ServiceStoppedError("submit after Service::shutdown");
    auto& q = queues_[session->id()];
    q.session = session;
    q.jobs.push_back(job);
  }
  work_cv_.notify_one();
  return Handle(job);
}

Service::Handle Service::submitMap(std::shared_ptr<detail::Session> session,
                                   std::string userSource, std::vector<float> input,
                                   SubmitOptions opts) {
  SKELCL_CHECK(session != nullptr, "submitMap needs a session");
  SKELCL_CHECK(opts.deadlineSeconds >= 0.0, "deadline must be non-negative");
  auto job = std::make_shared<Job>();
  job->session = session;
  job->service = this;
  job->isMap = true;
  job->source = std::move(userSource);
  job->input = std::move(input);
  job->deadlineSeconds = opts.deadlineSeconds;
  job->submitSimTime = simNow(*session);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) throw ServiceStoppedError("submitMap after Service::shutdown");
    auto& q = queues_[session->id()];
    q.session = session;
    q.jobs.push_back(job);
  }
  work_cv_.notify_one();
  return Handle(job);
}

Service::Handle Service::submit(std::shared_ptr<detail::Session> session,
                                std::function<void()> work) {
  return submit(std::move(session), std::move(work), SubmitOptions());
}

Service::Handle Service::submitMap(std::shared_ptr<detail::Session> session,
                                   std::string userSource, std::vector<float> input) {
  return submitMap(std::move(session), std::move(userSource), std::move(input),
                   SubmitOptions());
}

bool Service::cancelJob(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = queues_.find(job->session->id());
    if (it == queues_.end()) return false;
    auto& jobs = it->second.jobs;
    auto jit = std::find(jobs.begin(), jobs.end(), job);
    if (jit == jobs.end()) return false;  // running or already done
    jobs.erase(jit);
  }
  // Complete outside mutex_: completeJob takes the shared device lock for the
  // sim clock, and the executor holds that lock while calling back into
  // mutex_-guarded requeue paths.
  completeJob(*job, std::make_exception_ptr(
                        CancelledError("job cancelled before it ran")));
  idle_cv_.notify_all();
  return true;
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    if (in_flight_ > 0) return false;
    for (const auto& [id, q] : queues_) {
      if (!q.jobs.empty()) return false;
    }
    return true;
  });
}

Service::TenantStats Service::stats(const detail::Session& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = queues_.find(session.id());
  return it == queues_.end() ? TenantStats{} : it->second.stats;
}

// --- executor ---------------------------------------------------------------

Service::TenantQueue* Service::pickTenantLocked() {
  // Stride scheduling: smallest virtual device time goes first.  Deferred
  // (quota-blocked) tenants only run when nobody else can.
  TenantQueue* best = nullptr;
  double bestVt = std::numeric_limits<double>::infinity();
  for (int pass = 0; pass < 2 && best == nullptr; ++pass) {
    const bool allowDeferred = pass == 1;
    for (auto& [id, q] : queues_) {
      if (q.jobs.empty()) continue;
      if (q.deferred && !allowDeferred) continue;
      const double w = std::max(q.session->shareWeight(), 1e-9);
      const double vt = q.session->deviceTimeUsed() / w;
      if (vt < bestVt) {
        bestVt = vt;
        best = &q;
      }
    }
  }
  return best;
}

std::vector<std::shared_ptr<Service::Job>> Service::popBatchLocked(TenantQueue& q) {
  std::vector<std::shared_ptr<Job>> batch;
  batch.push_back(q.jobs.front());
  q.jobs.pop_front();
  const Job& head = *batch.front();
  if (!head.isMap || head.noBatch) return batch;
  // Oversized map jobs run alone, one preemption quantum per turn.
  if (head.input.size() > options_.quantumElements) return batch;
  std::size_t elements = head.input.size();
  while (!q.jobs.empty() && batch.size() < options_.batchMaxJobs) {
    const Job& next = *q.jobs.front();
    if (!next.isMap || next.noBatch || next.source != head.source) break;
    if (elements + next.input.size() > options_.batchMaxElements) break;
    elements += next.input.size();
    batch.push_back(q.jobs.front());
    q.jobs.pop_front();
  }
  return batch;
}

void Service::executorLoop() {
  for (;;) {
    std::unique_lock<std::mutex> lock(mutex_);
    work_cv_.wait(lock, [&] {
      return stop_ || (!paused_ && pickTenantLocked() != nullptr);
    });
    // stop_ overrides pause: shutdown must make progress.
    TenantQueue* q = (stop_ || !paused_) ? pickTenantLocked() : nullptr;
    if (q == nullptr) {
      if (stop_) {
        // Normally the queues are empty here (shutdown drains first); fail
        // any straggler submissions instead of leaving waiters hanging.
        std::vector<std::shared_ptr<Job>> leftovers;
        for (auto& [id, tq] : queues_) {
          leftovers.insert(leftovers.end(), tq.jobs.begin(), tq.jobs.end());
          tq.jobs.clear();
        }
        lock.unlock();
        auto error = std::make_exception_ptr(
            ServiceStoppedError("service stopped before the job ran"));
        for (auto& job : leftovers) completeJob(*job, error);
        idle_cv_.notify_all();
        return;
      }
      continue;
    }
    auto batch = popBatchLocked(*q);
    in_flight_ += batch.size();
    lock.unlock();

    runBatch(batch);

    lock.lock();
    // A batch completing may have released VRAM: quota-blocked tenants get
    // another chance.
    for (auto& [id, tq] : queues_) tq.deferred = false;
    std::size_t completed = 0;
    for (auto& job : batch) {
      if (job == nullptr) continue;  // requeued, still pending
      ++completed;
      auto& tq = queues_[job->session->id()];
      ++tq.stats.jobsCompleted;
      tq.stats.latency.add(job->doneSimTime - job->submitSimTime);
    }
    if (completed > 0) ++queues_[q->session->id()].stats.batchesRun;
    in_flight_ -= batch.size();
    lock.unlock();
    idle_cv_.notify_all();
    work_cv_.notify_one();
  }
}

void Service::completeJob(Job& job, std::exception_ptr error) {
  job.doneSimTime = simNow(*job.session);
  {
    std::lock_guard<std::mutex> lock(job.m);
    job.error = std::move(error);
    job.done = true;
  }
  job.cv.notify_all();
}

bool Service::breakerOpenFor(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = breaker_.find(key);
  return it != breaker_.end() && it->second >= options_.breakerThreshold;
}

void Service::noteBreakerResult(const std::string& key, bool deterministicFailure) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (deterministicFailure) {
    ++breaker_[key];
  } else {
    breaker_.erase(key);  // success (or environment failure) closes the breaker
  }
}

// Runs one batch outside the queue lock.  Entries that get requeued (quota
// queueing, quarantine, preemption) are nulled out so the caller does not
// count them as completed.
void Service::runBatch(std::vector<std::shared_ptr<Job>>& batch) {
  auto session = batch.front()->session;

  // Deadline admission: a job's budget is simulated time from submission to
  // the executor *starting* it.  Expired jobs fail here, before any device
  // work; they stay non-null in the batch so stats count the miss.
  std::vector<std::shared_ptr<Job>> live;
  live.reserve(batch.size());
  {
    const double now = simNow(*session);
    for (auto& job : batch) {
      if (job->deadlineSeconds > 0.0 &&
          now - job->submitSimTime > job->deadlineSeconds) {
        completeJob(*job, std::make_exception_ptr(DeadlineError(
                              "deadline of " + std::to_string(job->deadlineSeconds) +
                              "s expired before the job started")));
      } else {
        live.push_back(job);
      }
    }
  }
  if (live.empty()) return;

  const bool mapBatch = live.front()->isMap;
  const std::string bkey =
      mapBatch ? breakerKeyFor(*session, live.front()->source) : std::string();
  if (mapBatch && breakerOpenFor(bkey)) {
    auto error = std::make_exception_ptr(CircuitOpenError(
        "circuit breaker open: this kernel source already failed " +
        std::to_string(options_.breakerThreshold) +
        " times deterministically for session '" + session->name() + "'"));
    for (auto& job : live) completeJob(*job, error);
    return;
  }

  // Put `jobs` back at the head of the session's queue and null them in the
  // batch: the caller treats null entries as still pending.
  auto requeueFront = [&](const std::vector<std::shared_ptr<Job>>& jobs, bool defer) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto& q = queues_[session->id()];
      if (defer) q.deferred = true;
      for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) q.jobs.push_front(*it);
    }
    for (const auto& j : jobs) {
      auto bit = std::find(batch.begin(), batch.end(), j);
      if (bit != batch.end()) *bit = nullptr;
    }
  };

  detail::SessionScope scope(session);
  try {
    if (mapBatch) {
      Job& head = *live.front();
      if (live.size() == 1 && head.input.size() > options_.quantumElements) {
        // Preemption: run one bounded quantum, then yield the executor.  The
        // result vector doubles as the progress cursor, so the job resumes
        // where it left off; map is elementwise, so the sliced run is
        // bit-identical to a monolithic one.
        if (!runMapQuantum(*session, head)) {
          head.noBatch = true;
          requeueFront({live.front()}, false);
          return;
        }
      } else {
        runMapBatch(*session, live);
      }
    } else {
      live.front()->work();
    }
  } catch (const QuotaError&) {
    // Queue-on-quota: park the jobs at the head of their queue and let other
    // tenants run; fail only when the session's VRAM usage has not dropped
    // since the last attempt (waiting cannot help).
    const std::uint64_t usedNow = session->vramUsed();
    std::exception_ptr error = std::current_exception();
    std::vector<std::shared_ptr<Job>> requeue;
    for (auto& job : live) {
      const bool canWait = options_.queueOnQuota &&
                           (!job->quotaFailed || usedNow < job->quotaFailedUsed);
      if (canWait) {
        job->quotaFailed = true;
        job->quotaFailedUsed = usedNow;
        job->noBatch = true;  // retry one at a time: a smaller footprint may fit
        requeue.push_back(job);
      } else {
        completeJob(*job, error);
      }
    }
    if (!requeue.empty()) requeueFront(requeue, true);
    return;
  } catch (...) {
    std::exception_ptr error = std::current_exception();
    if (live.size() > 1) {
      // Poison-job quarantine: one member poisoned the fused launch, but we
      // cannot tell which.  Retry every member alone — the innocents
      // complete, only the poison job ends up failing (and charging the
      // breaker) by itself.
      for (auto& job : live) job->noBatch = true;
      requeueFront(live, false);
      return;
    }
    Job& job = *live.front();
    if (mapBatch && deterministicFailure(error)) {
      noteBreakerResult(bkey, true);
      if (!breakerOpenFor(bkey)) {
        // Charge a breaker strike and retry; the job fails for good (with
        // its real error) on the strike that opens the breaker.
        job.noBatch = true;
        requeueFront({live.front()}, false);
        return;
      }
    }
    completeJob(job, error);
    return;
  }
  if (mapBatch) noteBreakerResult(bkey, false);
  for (auto& job : live) completeJob(*job, nullptr);
}

void Service::runMapBatch(detail::Session&, std::vector<std::shared_ptr<Job>>& batch) {
  // Concatenate the batch into one vector and launch the user function once:
  // map is elementwise, so the fused run is bit-identical to running each
  // job alone — only the launch/transfer overhead is amortized.
  std::size_t total = 0;
  for (const auto& job : batch) total += job->input.size();
  Vector<float> input(total);
  float* in = input.begin();  // null for an all-empty batch
  for (const auto& job : batch) in = std::copy(job->input.begin(), job->input.end(), in);
  Map<float(float)> map(batch.front()->source);
  Vector<float> output = map(input);
  const float* out = output.hostData();
  for (auto& job : batch) {
    job->result.assign(out, out + job->input.size());
    out += job->input.size();
  }
  // The batch's vectors die here, releasing their VRAM charge before the
  // next admission decision.
}

// One preemption quantum of an oversized map job: run the next
// quantumElements-sized slice and append it to the result.  Returns true
// when the job is finished.
bool Service::runMapQuantum(detail::Session&, Job& job) {
  const std::size_t begin = job.result.size();
  const std::size_t len = std::min(options_.quantumElements, job.input.size() - begin);
  Vector<float> input(len);
  std::memcpy(input.begin(), job.input.data() + begin, len * sizeof(float));
  Map<float(float)> map(job.source);
  Vector<float> output = map(input);
  const float* out = output.hostData();
  job.result.insert(job.result.end(), out, out + len);
  return job.result.size() == job.input.size();
}

}  // namespace skelcl
