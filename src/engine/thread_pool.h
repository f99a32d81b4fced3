// Copyright (c) the XKeyword authors.
//
// Work-stealing thread pool. Two uses: the serving layer's query workers
// (one pool per QueryService), and the process-wide pool behind ParallelFor,
// on which the top-k plan loop runs the partitions of one plan and the
// sharded full-result path runs its slice groups. Tasks are submitted
// round-robin to per-worker deques; a worker drains its own deque FIFO and,
// when empty, steals from the back of a sibling's deque.

#ifndef XK_ENGINE_THREAD_POOL_H_
#define XK_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xk::engine {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, sized by hardware concurrency and created on
  /// first use. Queries never create threads of their own.
  static ThreadPool& Shared();

  /// Enqueues a task onto the next worker's deque (round-robin); idle workers
  /// steal it if its owner is busy.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop(int worker);
  /// Pops the next task: own deque front first, then steal from the back of
  /// another worker's deque. Returns false if every deque is empty.
  bool PopTask(int worker, std::function<void()>* task);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<std::deque<std::function<void()>>> queues_;  // one per worker
  std::vector<std::thread> threads_;
  size_t next_queue_ = 0;  // round-robin submit cursor
  size_t pending_ = 0;     // tasks queued across all deques
  int active_ = 0;
  bool shutdown_ = false;
};

/// Runs body(item, runner) for every item in [0, n), with up to `width`
/// runners in flight: the calling thread is runner 0, and runners 1.. are
/// tasks on ThreadPool::Shared(). Runners claim items in ascending order, one
/// at a time, so per-runner state indexed by `runner` (< width) needs no
/// locking. Returns once every item is done; the wait covers only this
/// batch, and a runner task that starts after the caller finished the last
/// item does nothing. With width <= 1 or n <= 1 everything runs inline and
/// the shared pool is never touched.
void ParallelFor(size_t n, int width,
                 const std::function<void(size_t item, size_t runner)>& body);

}  // namespace xk::engine

#endif  // XK_ENGINE_THREAD_POOL_H_
