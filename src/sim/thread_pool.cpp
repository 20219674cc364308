#include "sim/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>

namespace skelcl::sim {

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The calling thread participates in parallelFor, so spawn one fewer.
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallelFor(std::uint64_t count,
                             const std::function<void(std::uint64_t, std::uint64_t)>& body) {
  if (count == 0) return;
  const unsigned parts = size();
  if (parts == 1 || count < 2 * parts) {
    body(0, count);
    return;
  }

  const std::uint64_t chunk = (count + parts - 1) / parts;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Chunks not yet finished.  Set before any chunk is published, because a
  // worker still draining an earlier call can start one the moment it is
  // queued; decremented and signalled under done_mutex, because the caller
  // destroys these locals as soon as it sees zero.
  auto remaining = static_cast<unsigned>((count + chunk - 1) / chunk);
  std::mutex done_mutex;
  std::condition_variable done_cv;

  auto run_chunk = [&](std::uint64_t begin, std::uint64_t end) {
    try {
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(done_mutex);
    if (--remaining == 0) done_cv.notify_all();
  };

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::uint64_t begin = chunk; begin < count; begin += chunk) {
      const std::uint64_t end = std::min(begin + chunk, count);
      tasks_.emplace([&, begin, end] { run_chunk(begin, end); });
    }
  }
  cv_.notify_all();
  run_chunk(0, chunk);  // the first chunk runs on the caller

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("SKELCL_THREADS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) return static_cast<unsigned>(n);
    }
    return 0u;
  }());
  return pool;
}

}  // namespace skelcl::sim
