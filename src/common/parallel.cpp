#include "adaflow/common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace adaflow {

namespace {

constexpr int kMaxWorkers = 512;

/// Persistent pool: workers sleep until a job is published, grab iterations
/// via the job's atomic counter, then report completion. Every run() gets its
/// own Job block, so a worker late to leave job g only drains g's spent
/// counter and never touches job g+1.
class Pool {
 public:
  explicit Pool(int n) { spawn(n); }

  ~Pool() { stop(); }

  int worker_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Joins every worker and restarts the pool at \p n threads (including the
  /// caller). Callers guarantee no parallel_for is in flight.
  void resize(int n) {
    if (n == worker_count()) {
      return;
    }
    stop();
    spawn(n);
  }

  void run(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
    if (count <= 0) {
      return;
    }
    if (count == 1 || workers_.empty()) {
      for (std::int64_t i = 0; i < count; ++i) {
        fn(i);
      }
      return;
    }
    const std::shared_ptr<Job> job(new Job{&fn, count, {0}, {count}, nullptr});
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job_ = job;
    }
    cv_.notify_all();
    drain(*job);  // the caller participates
    // Wait for stragglers still inside fn().
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&job] { return job->remaining.load() == 0; });
    if (job->error) {
      std::rethrow_exception(job->error);
    }
  }

 private:
  /// One run() call. fn is only called while run() waits: a worker that
  /// arrives after the last iteration finds next >= total.
  struct Job {
    const std::function<void(std::int64_t)>* fn;
    std::int64_t total;
    std::atomic<std::int64_t> next;
    std::atomic<std::int64_t> remaining;
    std::exception_ptr error;  ///< first exception fn threw (guarded by mutex_)
  };

  void spawn(int n) {
    // The caller thread also works, so spawn n-1 helpers. New workers have
    // already seen the current job, so they wait for the next one.
    for (int i = 1; i < std::clamp(n, 1, kMaxWorkers); ++i) {
      workers_.emplace_back([this, seen = job_] { worker_loop(seen); });
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
      w.join();
    }
    workers_.clear();
    shutdown_ = false;  // every worker has been joined
  }

  void drain(Job& job) {
    for (std::int64_t i = job.next.fetch_add(1); i < job.total; i = job.next.fetch_add(1)) {
      try {
        (*job.fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        job.error = job.error ? job.error : std::current_exception();
      }
      if (job.remaining.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_cv_.notify_all();
      }
    }
  }

  void worker_loop(std::shared_ptr<Job> job) {
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return shutdown_ || job_ != job; });
        if (shutdown_) {
          return;
        }
        job = job_;
      }
      drain(*job);
    }
  }

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;  ///< the latest published job
  bool shutdown_ = false;
};

Pool& pool() {
  static Pool p(default_worker_count());
  return p;
}

}  // namespace

int default_worker_count() {
  if (const char* env = std::getenv("ADAFLOW_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) {
      return v > kMaxWorkers ? kMaxWorkers : static_cast<int>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw > kMaxWorkers ? kMaxWorkers : hw);
}

void parallel_for(std::int64_t count, const std::function<void(std::int64_t)>& fn) {
  pool().run(count, fn);
}

int parallel_worker_count() { return pool().worker_count(); }

void set_worker_count(int workers) {
  pool().resize(workers <= 0 ? default_worker_count() : workers);
}

}  // namespace adaflow
