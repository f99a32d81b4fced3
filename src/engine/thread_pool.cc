#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace xk::engine {

ThreadPool::ThreadPool(int num_threads) {
  XK_CHECK_GT(num_threads, 0);
  queues_.resize(static_cast<size_t>(num_threads));
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0 && active_ == 0; });
}

bool ThreadPool::PopTask(int worker, std::function<void()>* task) {
  std::deque<std::function<void()>>& own = queues_[static_cast<size_t>(worker)];
  if (!own.empty()) {
    *task = std::move(own.front());
    own.pop_front();
    return true;
  }
  // Steal from the back of a sibling's deque (oldest-first keeps the victim's
  // locality on its recent submissions).
  const size_t n = queues_.size();
  for (size_t d = 1; d < n; ++d) {
    std::deque<std::function<void()>>& victim =
        queues_[(static_cast<size_t>(worker) + d) % n];
    if (!victim.empty()) {
      *task = std::move(victim.back());
      victim.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int worker) {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || pending_ > 0; });
      if (pending_ == 0) {
        if (shutdown_) return;
        continue;
      }
      XK_CHECK(PopTask(worker, &task));
      --pending_;
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_;
      if (pending_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

void ParallelFor(size_t n, int width,
                 const std::function<void(size_t item, size_t runner)>& body) {
  const size_t runners = std::min(n, static_cast<size_t>(std::max(width, 1)));
  if (runners <= 1) {
    for (size_t i = 0; i < n; ++i) body(i, 0);
    return;
  }
  // Batch state outlives the call: a runner task still queued when the
  // caller returns must find `closed` set and leave `body` (on the caller's
  // stack) alone.
  struct Batch {
    std::mutex mutex;
    std::condition_variable done;
    int running = 0;
    bool closed = false;
    std::atomic<size_t> next{0};
  };
  auto batch = std::make_shared<Batch>();
  auto run = [&body, n](Batch* b, size_t runner) {
    for (size_t i = b->next.fetch_add(1); i < n; i = b->next.fetch_add(1)) {
      body(i, runner);
    }
  };
  for (size_t r = 1; r < runners; ++r) {
    ThreadPool::Shared().Submit([batch, run, r] {
      {
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (batch->closed) return;
        ++batch->running;
      }
      run(batch.get(), r);
      std::lock_guard<std::mutex> lock(batch->mutex);
      if (--batch->running == 0) batch->done.notify_all();
    });
  }
  run(batch.get(), 0);
  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->closed = true;
  batch->done.wait(lock, [&] { return batch->running == 0; });
}

}  // namespace xk::engine
