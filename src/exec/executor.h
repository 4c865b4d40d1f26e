// Deferred task-graph executor (paper §II-C): the host-side analogue of
// Legion's event-based execution pipeline.
//
// Tasks are submitted with explicit dependence edges (derived from region
// requirements by dep_graph.h) and retire on a pool of worker threads as
// their predecessors complete. Three properties the rest of the system
// relies on:
//
//  * Deferred: submission never blocks. Work drains on the workers, or on
//    any thread that calls wait()/flush() — waiting threads *help* execute
//    ready tasks instead of sleeping, so nested waits (an auto-scheduler
//    proxy simulation running on a worker and flushing its own runtime)
//    cannot deadlock.
//  * Work-stealing: each worker owns a deque; it pushes and pops its own
//    work LIFO (cache affinity for chains it just enabled) and steals FIFO
//    from siblings and from the shared inbox when its deque runs dry.
//  * Serial fallback: a pool with one context spawns no threads at all —
//    every task runs on the submitting thread inside wait()/flush(), in
//    submission-respecting dependence order (SPDISTAL_EXEC_THREADS=1).
//
// Exceptions thrown by task bodies are captured and re-thrown at the next
// wait()/flush() boundary (deferred errors, as in Legion): a simulated
// OutOfMemoryError surfaces to whoever synchronizes with the launch.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace spdistal::exec {

using TaskId = uint64_t;

// Number of execution contexts used when a Runtime does not request an
// explicit count: $SPDISTAL_EXEC_THREADS (1..64), else hardware_concurrency
// clamped to [1, 8]. A value of 1 means fully serial (no worker threads).
int default_exec_threads();

// A shared pool of worker threads executing opaque items. `contexts` counts
// execution contexts including the helping submitter: a pool with N contexts
// spawns N-1 threads.
class WorkerPool {
 public:
  // Process-wide pool sized by default_exec_threads(); shared by every
  // Runtime that does not request a private pool, so nested runtimes (e.g.
  // auto-scheduler proxy simulations) never multiply threads.
  static std::shared_ptr<WorkerPool> shared();
  static std::shared_ptr<WorkerPool> create(int contexts);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int contexts() const { return contexts_; }
  uint64_t steals() const;

  using Item = std::function<void()>;

  // The pool mutex guards both the queues and any client (Executor) state
  // whose changes must wake help_until() predicates.
  std::unique_lock<std::mutex> lock() { return std::unique_lock(mu_); }
  // Enqueues an item; caller must hold lock(). Items pushed from a worker
  // land on that worker's own deque, others on the shared inbox.
  void push_locked(Item item);
  // Wakes threads blocked in help_until (call with lock held after changing
  // predicate-visible state).
  void notify_locked() { cv_.notify_all(); }
  // Items currently queued (inbox + all worker deques); caller holds lock().
  // Feeds the exec.queued counter track.
  size_t queued_locked() const {
    size_t n = 0;
    for (const auto& q : queues_) n += q.size();
    return n;
  }
  // Runs ready items until pred() holds; pred is evaluated under the pool
  // mutex. Blocks (interruptibly) when no item is ready anywhere.
  void help_until(const std::function<bool()>& pred);

 private:
  explicit WorkerPool(int contexts);
  // Pops one item (own deque LIFO, inbox FIFO, then steal siblings FIFO);
  // caller holds mu_. Returns false when nothing is ready.
  bool pop_locked(Item& out);
  void worker_main(int index);

  std::mutex mu_;
  std::condition_variable cv_;
  // queues_[0] is the shared inbox (non-worker submitters); queues_[1 + w]
  // belongs to worker w.
  std::vector<std::deque<Item>> queues_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
  int contexts_ = 1;
  uint64_t steals_ = 0;
};

class Executor;

// Completion handle for a submitted task. Futures are plain values; waiting
// helps execute and re-throws deferred errors. A Future must not outlive
// the Executor (Runtime) that issued it.
class Future {
 public:
  Future() = default;

  bool valid() const { return ex_ != nullptr; }
  bool ready() const;
  // Blocks (helping) until the task retires; re-throws the first deferred
  // error captured by the executor, if any.
  void wait();

 private:
  friend class Executor;
  Future(Executor* ex, TaskId id) : ex_(ex), id_(id) {}
  Executor* ex_ = nullptr;
  TaskId id_ = 0;
};

// The task graph of one client (one Runtime): nodes, dependence edges, and
// retirement bookkeeping over a (usually shared) WorkerPool.
class Executor {
 public:
  explicit Executor(std::shared_ptr<WorkerPool> pool = WorkerPool::shared());
  ~Executor();  // drains all tasks; swallows deferred errors

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int contexts() const { return pool_->contexts(); }
  WorkerPool& pool() { return *pool_; }

  // Two-phase submission: create() mints the id (so dependence trackers can
  // reference tasks before they are eligible), add_dep() wires edges, and
  // commit() makes the task runnable. A dep that already retired is counted
  // as satisfied.
  TaskId create(std::string name, std::function<void()> fn);
  void add_dep(TaskId task, TaskId dep);
  void commit(TaskId task);
  // One-shot convenience.
  TaskId submit(std::string name, std::function<void()> fn,
                const std::vector<TaskId>& deps = {});
  Future future(TaskId id) { return Future(this, id); }

  bool done(TaskId id) const;
  // Helps execute until `id` retires; re-throws the first deferred error.
  void wait(TaskId id);
  // Helps execute until every submitted task retired; re-throws deferred
  // errors.
  void flush();

  struct Stats {
    uint64_t created = 0;
    uint64_t retired = 0;
    uint64_t edges = 0;
  };
  Stats stats() const;

 private:
  struct Node {
    std::string name;
    std::function<void()> fn;
    std::vector<TaskId> succs;
    int pending = 0;
    bool committed = false;
    bool running = false;
  };

  void enqueue_locked(TaskId id);
  void run_node(TaskId id);
  void rethrow_deferred_locked(std::unique_lock<std::mutex>& lk);

  std::shared_ptr<WorkerPool> pool_;
  // Live (created, not yet retired) nodes. A task id absent from the map
  // with id < next_ has retired.
  std::map<TaskId, Node> nodes_;
  TaskId next_ = 1;
  uint64_t outstanding_ = 0;
  std::exception_ptr error_;
  Stats stats_;
};

}  // namespace spdistal::exec
