// Persistent fixed-size worker pool with a single shared FIFO queue.
//
// The parallel sorting networks fork coarse slabs of comparator passes, so
// a plain mutex-protected queue is contention-free in practice — no work
// stealing needed.  The pool is created once (Global()) and reused by every
// sort in every join, replacing the thread-per-task cost of std::async.
//
// Fork-join discipline: tasks are grouped in a TaskGroup; Wait() *helps* by
// running queued tasks on the waiting thread until the group drains.
// Helping makes nested parallel regions deadlock-free even when every
// worker is itself blocked in a Wait: some thread always finds runnable
// work, so the task DAG keeps making progress.
//
// No-throw contract: pool tasks MUST NOT throw.  Tasks run on whichever
// thread picks them up — a worker, or a helping waiter inside RunOneTask —
// so an escaping exception could unwind a bystander's stack (or, with no
// handler on a worker, std::terminate with zero context).  The pool
// enforces the contract: task invocation is wrapped, and an escaping
// exception aborts with an OBLIVDB_CHECK-style diagnostic naming the task's
// label and the exception message.  This includes the library's own
// internal fault unwind (common/status.h): helpers suspend the thread's
// cancellation/recovery scopes while running a task, so environmental
// faults raised inside a task abort loudly instead of tunnelling into an
// unrelated caller.

#ifndef OBLIVDB_COMMON_THREAD_POOL_H_
#define OBLIVDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace oblivdb {

class ThreadPool {
 public:
  using Task = std::function<void()>;

  // Spawns `workers` threads (at least one).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  // Enqueues a task for any worker (or a helping waiter) to run.  `label`
  // (static storage duration) names the task in the no-throw-contract
  // diagnostic if it ever throws.
  void Submit(Task task, const char* label = "unnamed");

  // Fault-injection admission probe for a parallel fan-out: false models a
  // failed task spawn (fault site "pool_spawn", common/fault.h), and the
  // caller degrades to its sequential tier instead of submitting.  Submit
  // itself never fails — once admitted, tasks always run — so correctness
  // never depends on the probe's answer, only the execution tier does.
  bool TrySpawnProbe();

  // Runs one queued task on the calling thread; returns false if the queue
  // was empty.  This is the helping primitive TaskGroup::Wait builds on.
  bool RunOneTask();

  // Count of tasks finished so far.  A waiter samples it *before* checking
  // its own completion condition and passes it to WaitForActivity, so a
  // completion that lands in between is never slept through.
  uint64_t completions() const {
    return completions_.load(std::memory_order_acquire);
  }

  // Blocks (bounded) until new work is queued or a task finishes after
  // `seen` = completions(), so a waiter with nothing to help with neither
  // spins at full CPU nor sleeps past the task it waits for.
  void WaitForActivity(uint64_t seen);

  // Process-wide pool, created on first use and reused across all parallel
  // sorts.  Worker count: the OBLIVDB_THREADS environment variable when set
  // to a positive integer (the deterministic pin for benches and CI — every
  // sort fans out to the pool's width, so reproducible runs need a
  // reproducible pool; OBLIVDB_THREADS=1 runs every sort sequentially),
  // otherwise
  // hardware_concurrency().
  static ThreadPool& Global();

 private:
  struct QueuedTask {
    Task task;
    const char* label = "unnamed";
  };

  void WorkerLoop();

  // Invokes a task under the no-throw contract (see the header comment),
  // then counts the completion and wakes the waiters.
  void RunTask(QueuedTask& item);

  std::mutex mu_;
  std::condition_variable cv_;            // workers: work available / stop
  std::condition_variable activity_cv_;   // waiters: queue grew or task done
  std::deque<QueuedTask> queue_;
  bool stopping_ = false;
  // Incremented under mu_, so a waiter's predicate check and its sleep are
  // atomic with respect to a completion.
  std::atomic<uint64_t> completions_{0};
  std::vector<std::thread> workers_;
};

// Fork-join scope.  Run() enqueues a task counted against this group;
// Wait() blocks until every task Run through the group has finished,
// executing queued work (from any group — helping is global) meanwhile.
// The destructor waits, so a TaskGroup can never outlive its tasks.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(ThreadPool::Task task, const char* label = "unnamed");
  void Wait();

 private:
  ThreadPool& pool_;
  std::atomic<uint64_t> pending_{0};
};

}  // namespace oblivdb

#endif  // OBLIVDB_COMMON_THREAD_POOL_H_
