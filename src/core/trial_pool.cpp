#include "core/trial_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "support/contracts.h"

namespace rumor {

// One in-flight run(): the shared cursor the workers claim chunks from, and
// the completion/exception bookkeeping.
struct TrialPool::Job {
  std::int64_t tasks = 0;
  std::int64_t chunk = 1;
  int workers = 1;
  const std::function<void(std::int64_t, int)>* fn = nullptr;
  std::atomic<std::int64_t> cursor{0};
  std::atomic<int> active{0};  // helpers still inside work()
  std::atomic<bool> cancelled{false};
  std::exception_ptr error;     // first exception, guarded by the pool mutex
  std::mutex* pool_mutex = nullptr;
};

namespace {
// The pool whose job this thread is currently executing, if any. Lets a
// nested run() on the *same* pool degrade to inline execution (identical
// results — task outputs are index-addressed) instead of deadlocking, while
// nested use of a *different* pool (an engine's rebuild pool inside a shared
// trial worker) still runs parallel.
thread_local const TrialPool* t_current_pool = nullptr;
}  // namespace

TrialPool& TrialPool::shared() {
  static TrialPool pool;
  return pool;
}

TrialPool::~TrialPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : helpers_) t.join();
}

void TrialPool::ensure_helpers(int count) {
  while (static_cast<int>(helpers_.size()) < count) {
    const int index = static_cast<int>(helpers_.size());
    helpers_.emplace_back([this, index]() { helper_main(index); });
  }
}

void TrialPool::work(Job& job, int worker) {
  for (;;) {
    if (job.cancelled.load(std::memory_order_relaxed)) return;
    const std::int64_t begin = job.cursor.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.tasks) return;
    const std::int64_t end = std::min(begin + job.chunk, job.tasks);
    for (std::int64_t task = begin; task < end; ++task) {
      try {
        (*job.fn)(task, worker);
      } catch (...) {
        job.cancelled.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(*job.pool_mutex);
        if (job.error == nullptr) job.error = std::current_exception();
        return;
      }
    }
  }
}

void TrialPool::helper_main(int helper_index) {
  std::uint64_t seen = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&]() { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = generation_;
      // Helper h serves as worker h+1; helpers beyond the job's worker count
      // sit this one out.
      if (job_ == nullptr || helper_index + 1 >= job_->workers) continue;
      job = job_;
      job->active.fetch_add(1, std::memory_order_relaxed);
    }
    t_current_pool = this;
    work(*job, helper_index + 1);
    t_current_pool = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      job->active.fetch_sub(1, std::memory_order_relaxed);
    }
    done_.notify_all();
  }
}

void TrialPool::run(std::int64_t tasks, int workers, std::int64_t chunk,
                    const std::function<void(std::int64_t, int)>& fn) {
  DG_REQUIRE(tasks >= 0, "task count must be non-negative");
  DG_REQUIRE(workers >= 1, "need at least one worker");
  DG_REQUIRE(workers <= kMaxThreads, "worker count exceeds TrialPool::kMaxThreads");
  DG_REQUIRE(chunk >= 1, "chunk size must be positive");
  if (tasks == 0) return;
  if (tasks < workers) workers = static_cast<int>(tasks);

  // A nested run() from inside one of this pool's own jobs executes inline
  // (the worker slot is already taken; blocking on it would deadlock).
  // Results are unchanged — outputs are index-addressed.
  if (t_current_pool == this) {
    for (std::int64_t task = 0; task < tasks; ++task) fn(task, 0);
    return;
  }
  // Concurrent multi-worker run() calls from distinct outside threads queue
  // up here: they share the helpers and the job_ slot. A one-worker run
  // touches only its stack-local Job and this thread's t_current_pool, so it
  // proceeds without the lock.
  std::unique_lock<std::mutex> run_lock(run_mutex_, std::defer_lock);
  if (workers > 1) run_lock.lock();

  Job job;
  job.tasks = tasks;
  job.chunk = chunk;
  job.workers = workers;
  job.fn = &fn;
  job.pool_mutex = &mutex_;

  if (workers > 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    ensure_helpers(workers - 1);
    job_ = &job;
    ++generation_;
    wake_.notify_all();
  }

  // The caller is worker 0.
  const TrialPool* previous = t_current_pool;
  t_current_pool = this;
  work(job, 0);
  t_current_pool = previous;

  if (workers > 1) {
    std::unique_lock<std::mutex> lock(mutex_);
    // Helpers that never observed this generation will skip it; only wait for
    // the ones that entered. Clearing job_ before waiting is safe because
    // entry is gated on the same mutex.
    job_ = nullptr;
    done_.wait(lock, [&]() { return job.active.load(std::memory_order_relaxed) == 0; });
  }
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

}  // namespace rumor
