// Multi-tenant skeleton service (docs/SERVICE.md).
//
// N client threads (tenants) submit skeleton jobs concurrently; one executor
// thread issues them against the shared device pool.  Serializing issue on a
// single thread is what makes concurrent runs bit-identical to serial ones —
// the scheduling freedom is *which tenant goes next*, decided by weighted
// fair sharing of simulated device time:
//
//  * admission order: among sessions with queued work, run the one with the
//    smallest virtual device time `deviceTimeUsed() / shareWeight()` (stride
//    scheduling).  Under sustained load, device time converges to the ratio
//    of the share weights.
//  * batching: consecutive queued map jobs of the same session over the same
//    user source are concatenated into ONE kernel enqueue, amortizing the
//    per-launch overhead that dominates small jobs.
//  * VRAM quotas: a job that would breach its session's quota is put back at
//    the head of its queue and other tenants run first (queueing); it fails
//    with QuotaError only when waiting provably cannot help (the session's
//    VRAM usage did not drop since the last attempt).
//
// Gray-failure hardening (docs/ROBUSTNESS.md):
//
//  * deadlines: SubmitOptions::deadlineSeconds bounds how long (simulated) a
//    job may sit queued; an expired job fails with DeadlineError instead of
//    occupying devices.
//  * cancellation: Handle::cancel() withdraws a still-queued job
//    (CancelledError); Handle::waitFor() bounds the client's wall-clock wait.
//  * preemption: a map job larger than Options::quantumElements runs one
//    bounded quantum per executor turn and goes back to the head of its
//    queue in between, so one huge job cannot monopolize the executor
//    (results stay bit-identical: map is elementwise).
//  * circuit breaker: after Options::breakerThreshold deterministic failures
//    of one (session, kernel source), further identical jobs fail fast with
//    CircuitOpenError instead of burning device time.
//  * poison quarantine: when a fused batch fails, its members are requeued
//    and retried alone, so only the genuinely poisonous job errors — the
//    innocent jobs it was batched with still complete.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/histogram.hpp"
#include "core/detail/session.hpp"

namespace skelcl {

class Service {
 public:
  struct Options {
    /// Max queued map jobs fused into one enqueue.
    std::size_t batchMaxJobs = 16;
    /// Jobs whose combined element count exceeds this are not fused further.
    std::size_t batchMaxElements = std::size_t{1} << 16;
    /// Queue quota-breaching jobs (default) instead of failing them outright.
    bool queueOnQuota = true;
    /// Preemption: map jobs with more elements than this run one quantum of
    /// at most quantumElements per executor turn, requeueing in between.
    std::size_t quantumElements = std::size_t{1} << 14;
    /// Deterministic failures of one (session, kernel source) before its
    /// circuit breaker opens and identical jobs fail fast (CircuitOpenError).
    int breakerThreshold = 3;
  };

  /// Per-submission options (deadlines today; room to grow).
  struct SubmitOptions {
    /// Fail the job with DeadlineError if the executor has not started it
    /// within this many *simulated* seconds of submission (0 = no deadline).
    /// Checked at issue time — a job already running is never killed.
    double deadlineSeconds = 0.0;
  };

  struct Job;  // internal; defined in service.cpp's view of the world

  /// Completion handle of a submitted job.
  class Handle {
   public:
    Handle() = default;

    /// Block until the job ran; rethrows the job's error, if any.
    void wait() const;
    /// Like wait(), but gives up after `wallSeconds` of real time; returns
    /// false on timeout (job still pending), true on completion (after
    /// rethrowing the job's error, if any).
    bool waitFor(double wallSeconds) const;
    /// Withdraw the job if it is still queued: it completes immediately with
    /// CancelledError and returns true.  Returns false when the job already
    /// ran, is running right now, or was cancelled before.  Only valid while
    /// the service that issued this handle is alive.
    bool cancel() const;
    /// Map-job result (empty for generic jobs).  Blocks until the job ran
    /// and rethrows its error, like wait() — a failed job never reads as an
    /// empty result.
    const std::vector<float>& output() const;
    /// Simulated seconds from submission to completion (valid after wait()).
    double latencySeconds() const;

   private:
    friend class Service;
    explicit Handle(std::shared_ptr<Job> job) : job_(std::move(job)) {}
    std::shared_ptr<Job> job_;
  };

  /// Per-tenant accounting, exposed for benches and tests.
  struct TenantStats {
    std::uint64_t jobsCompleted = 0;
    std::uint64_t batchesRun = 0;  ///< enqueues (≤ jobsCompleted when batching)
    /// Simulated seconds from submission to completion of every completed
    /// job, in a fixed-size histogram: a long-running service keeps
    /// constant memory per tenant.
    LogHistogram latency;
  };

  /// The runtime must be initialized (skelcl::init) before constructing.
  Service() : Service(Options()) {}
  explicit Service(Options options);
  ~Service();  ///< drains queued jobs, then stops the executor

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Create a tenant session registered with this service.
  std::shared_ptr<detail::Session> createSession(detail::SessionOptions options = {});

  /// Submit an arbitrary job: `work` runs on the executor thread with
  /// `session` current (skeletons inside it execute under that session).
  /// Throws ServiceStoppedError after shutdown().
  Handle submit(std::shared_ptr<detail::Session> session, std::function<void()> work,
                SubmitOptions opts);
  Handle submit(std::shared_ptr<detail::Session> session, std::function<void()> work);

  /// Submit a small map job `output[i] = func(input[i])`; eligible for
  /// same-session batching.  Throws ServiceStoppedError after shutdown().
  Handle submitMap(std::shared_ptr<detail::Session> session, std::string userSource,
                   std::vector<float> input, SubmitOptions opts);
  Handle submitMap(std::shared_ptr<detail::Session> session, std::string userSource,
                   std::vector<float> input);

  /// Block until every job submitted so far has completed.
  void drain();

  /// Stop the executor from picking new work (queued jobs stay queued; the
  /// batch in flight finishes).  Lets tests and clients line up submissions
  /// and cancellations deterministically.
  void pause();
  /// Undo pause().
  void resume();

  /// Drain queued work, then stop the executor for good: later submits throw
  /// ServiceStoppedError.  Idempotent; the destructor calls it.
  void shutdown();

  TenantStats stats(const detail::Session& session) const;

 private:
  struct TenantQueue {
    std::shared_ptr<detail::Session> session;
    std::deque<std::shared_ptr<Job>> jobs;
    bool deferred = false;  ///< quota-blocked; other tenants go first
    TenantStats stats;
  };

  void executorLoop();
  TenantQueue* pickTenantLocked();
  std::vector<std::shared_ptr<Job>> popBatchLocked(TenantQueue& q);
  void runBatch(std::vector<std::shared_ptr<Job>>& batch);
  void runMapBatch(detail::Session& session, std::vector<std::shared_ptr<Job>>& batch);
  bool runMapQuantum(detail::Session& session, Job& job);
  bool cancelJob(const std::shared_ptr<Job>& job);
  bool breakerOpenFor(const std::string& key) const;
  void noteBreakerResult(const std::string& key, bool deterministicFailure);
  void completeJob(Job& job, std::exception_ptr error);
  double simNow(detail::Session& session);

  Options options_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< executor: work arrived / stopping
  std::condition_variable idle_cv_;   ///< drain(): a batch finished
  std::map<int, TenantQueue> queues_; ///< keyed by session id
  std::map<std::string, int> breaker_; ///< (session id + source) -> consecutive deterministic failures
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  bool paused_ = false;
  std::thread executor_;
};

}  // namespace skelcl
