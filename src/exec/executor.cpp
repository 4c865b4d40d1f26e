#include "exec/executor.h"

#include <algorithm>

#include "common/error.h"
#include "common/knobs.h"
#include "common/str_util.h"
#include "obs/obs.h"

namespace spdistal::exec {

namespace {
// Worker index of the current thread within its pool, or -1 for foreign
// (host) threads. Workers of different pools never share a thread, so one
// slot suffices.
thread_local int tls_worker_index = -1;
}  // namespace

int default_exec_threads() {
  const knobs::Value& env = knobs::get(knobs::Knob::ExecThreads);
  if (env.set) return static_cast<int>(env.integer);
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::min(8u, std::max(1u, hw)));
}

std::shared_ptr<WorkerPool> WorkerPool::shared() {
  static std::shared_ptr<WorkerPool> pool = create(default_exec_threads());
  return pool;
}

std::shared_ptr<WorkerPool> WorkerPool::create(int contexts) {
  return std::shared_ptr<WorkerPool>(new WorkerPool(std::max(1, contexts)));
}

WorkerPool::WorkerPool(int contexts) : contexts_(contexts) {
  queues_.resize(static_cast<size_t>(contexts_));  // inbox + one per worker
  for (int w = 0; w + 1 < contexts_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    cv_.notify_all();
  }
  for (auto& t : threads_) t.join();
}

uint64_t WorkerPool::steals() const {
  std::lock_guard<std::mutex> lk(const_cast<std::mutex&>(mu_));
  return steals_;
}

void WorkerPool::push_locked(Item item) {
  const int w = tls_worker_index;
  const size_t q = (w >= 0 && static_cast<size_t>(w + 1) < queues_.size())
                       ? static_cast<size_t>(w + 1)
                       : 0;
  queues_[q].push_back(std::move(item));
  cv_.notify_one();
}

bool WorkerPool::pop_locked(Item& out) {
  const int w = tls_worker_index;
  const bool is_worker =
      w >= 0 && static_cast<size_t>(w + 1) < queues_.size();
  const size_t own = is_worker ? static_cast<size_t>(w + 1) : 0;
  // A worker pops its own deque newest-first (LIFO keeps just-enabled
  // chains hot). The shared inbox is always drained oldest-first, so
  // non-worker (helping) threads — including the serial fallback — run
  // independent tasks in submission order.
  if (is_worker && !queues_[own].empty()) {
    out = std::move(queues_[own].back());
    queues_[own].pop_back();
    return true;
  }
  // Steal oldest first from the inbox, then from siblings.
  for (size_t k = 0; k < queues_.size(); ++k) {
    const size_t q = (own + k) % queues_.size();
    if (queues_[q].empty()) continue;
    out = std::move(queues_[q].front());
    queues_[q].pop_front();
    if (is_worker && q != own) {
      ++steals_;
      static obs::Counter& steal_metric =
          obs::Metrics::global().counter("exec.steals");
      steal_metric.add(1);
    }
    return true;
  }
  return false;
}

void WorkerPool::worker_main(int index) {
  tls_worker_index = index;
  if (obs::enabled()) {
    obs::TraceRecorder::global().name_host_thread(
        strprintf("worker-%d", index));
  }
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    Item item;
    if (pop_locked(item)) {
      lk.unlock();
      item();
      item = nullptr;  // destroy closure outside the lock
      lk.lock();
      continue;
    }
    if (stop_) return;
    cv_.wait(lk);
  }
}

void WorkerPool::help_until(const std::function<bool()>& pred) {
  std::unique_lock<std::mutex> lk(mu_);
  while (!pred()) {
    Item item;
    if (pop_locked(item)) {
      lk.unlock();
      item();
      item = nullptr;
      lk.lock();
      continue;
    }
    SPDISTAL_CHECK(!stop_, "WorkerPool stopped with waiters pending");
    cv_.wait(lk);
  }
}

// --- Executor -----------------------------------------------------------------

Executor::Executor(std::shared_ptr<WorkerPool> pool)
    : pool_(std::move(pool)) {
  SPD_ASSERT(pool_ != nullptr, "Executor requires a pool");
}

Executor::~Executor() {
  try {
    flush();
  } catch (...) {
    // Deferred errors surface at wait()/flush(); a destructor drain only
    // guarantees no task outlives the graph.
  }
}

TaskId Executor::create(std::string name, std::function<void()> fn) {
  static obs::Counter& created_metric =
      obs::Metrics::global().counter("exec.created");
  static obs::Gauge& outstanding_metric =
      obs::Metrics::global().gauge("exec.outstanding");
  auto lk = pool_->lock();
  const TaskId id = next_++;
  Node& n = nodes_[id];
  n.name = std::move(name);
  n.fn = std::move(fn);
  ++outstanding_;
  ++stats_.created;
  created_metric.add(1);
  outstanding_metric.set(static_cast<int64_t>(outstanding_));
  if (obs::TraceRecorder::global().active()) {
    // Counter-track samples (ph:"C"): queue-depth and outstanding-task
    // graphs on the host timeline. Pool lock held; the pool->recorder lock
    // order is one-way, so this cannot deadlock.
    obs::TraceRecorder::global().host_counter(
        "exec", "exec.outstanding", static_cast<int64_t>(outstanding_));
    obs::TraceRecorder::global().host_counter(
        "exec", "exec.queued", static_cast<int64_t>(pool_->queued_locked()));
  }
  return id;
}

void Executor::add_dep(TaskId task, TaskId dep) {
  if (dep == 0 || dep == task) return;
  auto lk = pool_->lock();
  auto it = nodes_.find(task);
  SPD_ASSERT(it != nodes_.end() && !it->second.committed,
             "add_dep on a committed or retired task");
  auto dit = nodes_.find(dep);
  if (dit == nodes_.end()) return;  // dep already retired
  dit->second.succs.push_back(task);
  ++it->second.pending;
  ++stats_.edges;
}

void Executor::commit(TaskId task) {
  auto lk = pool_->lock();
  auto it = nodes_.find(task);
  SPD_ASSERT(it != nodes_.end() && !it->second.committed,
             "commit on unknown or already-committed task");
  it->second.committed = true;
  if (it->second.pending == 0) enqueue_locked(task);
}

TaskId Executor::submit(std::string name, std::function<void()> fn,
                        const std::vector<TaskId>& deps) {
  const TaskId id = create(std::move(name), std::move(fn));
  for (TaskId d : deps) add_dep(id, d);
  commit(id);
  return id;
}

void Executor::enqueue_locked(TaskId id) {
  Node& n = nodes_[id];
  SPDISTAL_DCHECK(!n.running, "task " << n.name << " enqueued twice");
  n.running = true;
  pool_->push_locked([this, id] { run_node(id); });
}

void Executor::run_node(TaskId id) {
  static obs::Counter& retired_metric =
      obs::Metrics::global().counter("exec.retired");
  static obs::Gauge& outstanding_metric =
      obs::Metrics::global().gauge("exec.outstanding");
  const bool tracing = obs::TraceRecorder::global().active();
  std::function<void()> fn;
  std::string label;
  {
    auto lk = pool_->lock();
    auto it = nodes_.find(id);
    SPDISTAL_DCHECK(it != nodes_.end(), "run_node on retired task " << id);
    fn = std::move(it->second.fn);
    if (tracing) label = it->second.name;  // copied only while recording
  }
  const double t0 = tracing ? obs::wall_us() : 0.0;
  std::exception_ptr err;
  try {
    if (fn) fn();
  } catch (...) {
    err = std::current_exception();
  }
  fn = nullptr;
  if (tracing) {
    obs::TraceRecorder::global().host_span("exec", label, t0,
                                           obs::wall_us() - t0);
  }
  {
    auto lk = pool_->lock();
    if (err && !error_) error_ = err;
    auto it = nodes_.find(id);
    std::vector<TaskId> succs = std::move(it->second.succs);
    nodes_.erase(it);
    --outstanding_;
    ++stats_.retired;
    retired_metric.add(1);
    outstanding_metric.set(static_cast<int64_t>(outstanding_));
    for (TaskId s : succs) {
      auto sit = nodes_.find(s);
      SPDISTAL_DCHECK(sit != nodes_.end(),
                      "successor " << s << " retired before predecessor "
                                   << id);
      if (--sit->second.pending == 0 && sit->second.committed) {
        enqueue_locked(s);
      }
    }
    if (obs::TraceRecorder::global().active()) {
      obs::TraceRecorder::global().host_counter(
          "exec", "exec.outstanding", static_cast<int64_t>(outstanding_));
      obs::TraceRecorder::global().host_counter(
          "exec", "exec.queued",
          static_cast<int64_t>(pool_->queued_locked()));
    }
    pool_->notify_locked();
  }
}

bool Executor::done(TaskId id) const {
  auto* self = const_cast<Executor*>(this);
  auto lk = self->pool_->lock();
  return id < next_ && nodes_.find(id) == nodes_.end();
}

void Executor::rethrow_deferred_locked(std::unique_lock<std::mutex>& lk) {
  if (!error_) return;
  std::exception_ptr err = error_;
  error_ = nullptr;
  lk.unlock();
  std::rethrow_exception(err);
}

void Executor::wait(TaskId id) {
  pool_->help_until(
      [this, id] { return id < next_ && nodes_.find(id) == nodes_.end(); });
  auto lk = pool_->lock();
  rethrow_deferred_locked(lk);
}

void Executor::flush() {
  pool_->help_until([this] { return outstanding_ == 0; });
  auto lk = pool_->lock();
  rethrow_deferred_locked(lk);
}

Executor::Stats Executor::stats() const {
  auto* self = const_cast<Executor*>(this);
  auto lk = self->pool_->lock();
  return stats_;
}

bool Future::ready() const { return !valid() || ex_->done(id_); }

void Future::wait() {
  if (valid()) ex_->wait(id_);
}

}  // namespace spdistal::exec
