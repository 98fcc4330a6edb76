#include "src/mc/mc.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <sstream>

#include "src/common/rng.h"
#include "src/sync/sync.h"
#include "src/sync/witness.h"

namespace ss {
namespace {

// Thrown inside managed tasks to unwind them once the execution is over (failure seen
// or deadlock being cleaned up).
struct McKilled {};
// Thrown by McFail.
struct McFailureEx {
  std::string message;
};

enum class TaskState : uint8_t {
  kRunnable,
  kBlockedMutex,
  kBlockedCv,
  kBlockedJoin,
  kFinished,
};

struct Task {
  uint64_t id = 0;
  Thread thread;
  // Per-task baton. Leaf mode: these locks *implement* the scheduling points, so
  // routing them back through SchedHooks would recurse; they stay native but remain
  // visible to the lock-order witness like every other ss primitive.
  Mutex m{MutexAttr{"mc.task.baton", lockrank::kSched, /*leaf=*/true}};
  CondVar cv{CondVarAttr{/*leaf=*/true}};
  bool can_run = false;

  TaskState state = TaskState::kRunnable;
  uintptr_t wait_obj = 0;    // mutex or condvar id
  uintptr_t cv_mutex = 0;    // mutex to reacquire after a condvar wait
  uint64_t wait_join = 0;    // task id being joined
  bool started = false;
};

// One execution's scheduling policy.
class Strategy {
 public:
  virtual ~Strategy() = default;
  // Picks an index into `runnable` (task ids, ascending).
  virtual size_t Pick(const std::vector<uint64_t>& runnable, size_t step) = 0;
  virtual void OnSpawn(uint64_t task_id) {}
};

class RandomStrategy : public Strategy {
 public:
  explicit RandomStrategy(uint64_t seed) : rng_(seed) {}
  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    return static_cast<size_t>(rng_.Below(runnable.size()));
  }

 private:
  Rng rng_;
};

class PctStrategy : public Strategy {
 public:
  PctStrategy(uint64_t seed, int depth, size_t horizon) : rng_(seed) {
    for (int i = 1; i < depth; ++i) {
      change_points_.insert(rng_.Below(horizon));
    }
  }
  void OnSpawn(uint64_t task_id) override {
    priority_[task_id] = rng_.NextDouble();
  }
  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    size_t best = 0;
    for (size_t i = 1; i < runnable.size(); ++i) {
      if (priority_[runnable[i]] > priority_[runnable[best]]) {
        best = i;
      }
    }
    if (change_points_.count(step) != 0) {
      // Demote the currently-highest task below everything else.
      priority_[runnable[best]] = next_low_;
      next_low_ -= 1.0;
      best = 0;
      for (size_t i = 1; i < runnable.size(); ++i) {
        if (priority_[runnable[i]] > priority_[runnable[best]]) {
          best = i;
        }
      }
    }
    return best;
  }

 private:
  Rng rng_;
  std::map<uint64_t, double> priority_;
  std::set<size_t> change_points_;
  double next_low_ = -1.0;
};

// Deterministic replay of a recorded schedule (task ids in scheduling order). Picks
// the recorded task when it is runnable, the first runnable task otherwise.
class ReplayStrategy : public Strategy {
 public:
  explicit ReplayStrategy(const std::vector<uint32_t>* schedule) : schedule_(schedule) {}

  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    if (step < schedule_->size()) {
      const uint64_t want = (*schedule_)[step];
      for (size_t i = 0; i < runnable.size(); ++i) {
        if (runnable[i] == want) {
          return i;
        }
      }
    }
    return 0;
  }

 private:
  const std::vector<uint32_t>* schedule_;
};

// Systematic enumeration: a schedule prefix to replay, then first-choice defaults; the
// driver advances the prefix like an odometer.
class DfsStrategy : public Strategy {
 public:
  struct Node {
    size_t chosen = 0;
    size_t num_choices = 0;
  };

  explicit DfsStrategy(std::vector<Node>* path) : path_(path) {}

  size_t Pick(const std::vector<uint64_t>& runnable, size_t step) override {
    if (step < path_->size()) {
      Node& node = (*path_)[step];
      node.num_choices = runnable.size();
      return std::min(node.chosen, runnable.size() - 1);
    }
    path_->push_back(Node{0, runnable.size()});
    return 0;
  }

 private:
  std::vector<Node>* path_;
};

class McRuntime : public SchedHooks {
 public:
  McRuntime(Strategy* strategy, size_t max_steps, bool check_lock_order = true)
      : strategy_(strategy), max_steps_(max_steps), check_lock_order_(check_lock_order) {}

  // --- Driver side --------------------------------------------------------------------

  // Runs `body` as task 0 and schedules until every task finished. Fills result fields.
  void Run(const std::function<void()>& body, McResult* result) {
    const uint64_t witness_before = LockWitness::Global().violation_count();
    SetActiveSchedHooks(this);
    SpawnInternal(body);
    PassBaton(PickNext());
    WaitForSchedulerTurn();
    SetActiveSchedHooks(nullptr);
    // Reap threads.
    for (auto& task : tasks_) {
      task->thread.Join();
    }
    // Lock-order violations observed during this execution are counterexamples in
    // their own right, even when the explored schedule happened not to deadlock: the
    // failing schedule replays to the same inversion.
    if (check_lock_order_ && !failed_ &&
        LockWitness::Global().violation_count() > witness_before) {
      failed_ = true;
      error_ = "lock-order violation: " + LockWitness::Global().LastMessage();
    }
    result->total_steps += steps_;
    if (failed_) {
      result->ok = false;
      ++result->failures;
      if (result->error.empty()) {
        result->error = error_;
        result->deadlock = deadlock_;
        result->failing_schedule = trace_;
      }
    }
  }

  bool failed() const { return failed_; }

  // --- SchedHooks ------------------------------------------------------------------------

  void MutexLock(uintptr_t mutex_id) override {
    Task* self = Current();
    while (true) {
      SchedPoint(self);
      auto it = mutex_owner_.find(mutex_id);
      if (it == mutex_owner_.end()) {
        mutex_owner_[mutex_id] = self->id;
        return;
      }
      self->state = TaskState::kBlockedMutex;
      self->wait_obj = mutex_id;
      YieldToScheduler(self);
    }
  }

  void MutexUnlock(uintptr_t mutex_id) override {
    // Reached from destructors (LockGuard) — possibly during exception unwinding — so
    // this must never throw McKilled.
    Task* self = Current();
    mutex_owner_.erase(mutex_id);
    WakeBlocked(TaskState::kBlockedMutex, mutex_id);
    SchedPointNoKill(self);
  }

  void CondWait(uintptr_t cv_id, uintptr_t mutex_id) override {
    Task* self = Current();
    mutex_owner_.erase(mutex_id);
    WakeBlocked(TaskState::kBlockedMutex, mutex_id);
    self->state = TaskState::kBlockedCv;
    self->wait_obj = cv_id;
    self->cv_mutex = mutex_id;
    YieldToScheduler(self);
    // Woken: reacquire the mutex.
    MutexLock(mutex_id);
  }

  void CondNotifyOne(uintptr_t cv_id) override {
    // Conservative: wake every waiter (condition variables are used with predicate
    // loops, so spurious wakeups are benign and this keeps scheduling deterministic).
    CondNotifyAll(cv_id);
  }

  void CondNotifyAll(uintptr_t cv_id) override {
    // Also reachable from destructors; never throws.
    Task* self = Current();
    WakeBlocked(TaskState::kBlockedCv, cv_id);
    SchedPointNoKill(self);
  }

  void SharedAccess(uintptr_t cell_id) override { SchedPoint(Current()); }

  void Yield() override { SchedPoint(Current()); }

  uint64_t Spawn(std::function<void()> body) override {
    Task* self = Current();
    const uint64_t id = SpawnInternal(std::move(body));
    SchedPoint(self);
    return id;
  }

  void Join(uint64_t token) override {
    // Thread::~Thread joins, possibly during exception unwinding; never throws. During
    // poisoned teardown it returns immediately — the target task is force-woken by the
    // scheduler and unwinds on its own (shared state must be owned via shared_ptr,
    // which all harness bodies follow).
    Task* self = Current();
    while (true) {
      if (poisoned_) {
        return;
      }
      SchedPointNoKill(self);
      if (poisoned_) {
        return;
      }
      Task* target = FindTask(token);
      if (target == nullptr || target->state == TaskState::kFinished) {
        return;
      }
      self->state = TaskState::kBlockedJoin;
      self->wait_join = token;
      YieldToScheduler(self);
    }
  }

  // Called by McFail via the thread-local current task.
  [[noreturn]] void FailCurrent(const std::string& message) {
    if (!failed_) {
      failed_ = true;
      error_ = message;
    }
    poisoned_ = true;
    throw McFailureEx{message};
  }

 private:
  static thread_local Task* current_task_;

  Task* Current() { return current_task_; }

  Task* FindTask(uint64_t id) {
    for (auto& task : tasks_) {
      if (task->id == id) {
        return task.get();
      }
    }
    return nullptr;
  }

  uint64_t SpawnInternal(std::function<void()> body) {
    auto task = std::make_unique<Task>();
    task->id = next_id_++;
    Task* raw = task.get();
    if (strategy_ != nullptr) {
      strategy_->OnSpawn(raw->id);
    }
    tasks_.push_back(std::move(task));
    raw->thread = Thread::SpawnNative([this, raw, body = std::move(body)]() {
      current_task_ = raw;
      WaitForBaton(raw);
      try {
        if (poisoned_) {
          throw McKilled{};
        }
        body();
      } catch (const McKilled&) {
        // Normal teardown of a poisoned execution.
      } catch (const McFailureEx&) {
        // Failure already recorded by FailCurrent.
      } catch (const std::exception& e) {
        if (!failed_) {
          failed_ = true;
          error_ = std::string("uncaught exception: ") + e.what();
        }
        poisoned_ = true;
      }
      raw->state = TaskState::kFinished;
      // Unblock joiners.
      for (auto& t : tasks_) {
        if (t->state == TaskState::kBlockedJoin && t->wait_join == raw->id) {
          t->state = TaskState::kRunnable;
        }
      }
      PassBaton(PickNext());
    });
    return raw->id;
  }

  void WakeBlocked(TaskState state, uintptr_t obj) {
    for (auto& task : tasks_) {
      if (task->state == state && task->wait_obj == obj) {
        task->state = TaskState::kRunnable;
      }
    }
  }

  // A scheduling point: hand control back to the scheduler and wait to be rescheduled.
  void SchedPoint(Task* self) {
    if (poisoned_) {
      throw McKilled{};
    }
    YieldToScheduler(self);
    if (poisoned_) {
      throw McKilled{};
    }
  }

  // Scheduling point for paths reachable from (noexcept) destructors: identical
  // scheduling behaviour, but during poisoned teardown it simply returns.
  void SchedPointNoKill(Task* self) {
    if (poisoned_) {
      return;
    }
    YieldToScheduler(self);
  }

  // Takes the scheduling step on the calling task's own thread: a step costs one
  // thread handoff, and none when the strategy picks the yielding task again.
  void YieldToScheduler(Task* self) {
    Task* next = PickNext();
    if (next == self) {
      return;
    }
    PassBaton(next);
    WaitForBaton(self);
  }

  void WaitForBaton(Task* task) {
    LockGuard lock(task->m);
    while (!task->can_run) {
      task->cv.Wait(task->m);
    }
    task->can_run = false;
  }

  void GiveBaton(Task* task) {
    {
      LockGuard lock(task->m);
      task->can_run = true;
    }
    task->cv.NotifyOne();
  }

  // Runs `next`, or wakes the driver when `next` is null (every task finished).
  void PassBaton(Task* next) {
    if (next != nullptr) {
      GiveBaton(next);
      return;
    }
    {
      LockGuard lock(sched_m_);
      sched_turn_ = true;
    }
    sched_cv_.NotifyOne();
  }

  void WaitForSchedulerTurn() {
    LockGuard lock(sched_m_);
    while (!sched_turn_) {
      sched_cv_.Wait(sched_m_);
    }
    sched_turn_ = false;
  }

  // One scheduling step, taken by whichever thread holds the baton (the driver
  // starting the execution, a task at a scheduling point, or a finishing task):
  // returns the task to run next, or null once every task has finished.
  Task* PickNext() {
    while (true) {
      std::vector<uint64_t> runnable;
      bool all_finished = true;
      for (auto& task : tasks_) {
        if (task->state != TaskState::kFinished) {
          all_finished = false;
        }
        if (task->state == TaskState::kRunnable) {
          runnable.push_back(task->id);
        }
      }
      if (all_finished) {
        return nullptr;
      }
      if (poisoned_ && runnable.empty()) {
        // Force-wake blocked tasks so they unwind via McKilled.
        for (auto& task : tasks_) {
          if (task->state != TaskState::kFinished) {
            task->state = TaskState::kRunnable;
            runnable.push_back(task->id);
          }
        }
      } else if (runnable.empty()) {
        // Deadlock: live tasks exist but none can run.
        failed_ = true;
        deadlock_ = true;
        std::ostringstream out;
        out << "deadlock:";
        for (auto& task : tasks_) {
          if (task->state == TaskState::kFinished) {
            continue;
          }
          out << " task" << task->id
              << (task->state == TaskState::kBlockedMutex  ? "(mutex)"
                  : task->state == TaskState::kBlockedCv   ? "(condvar)"
                                                           : "(join)");
        }
        error_ = out.str();
        poisoned_ = true;
        continue;
      }
      if (steps_ >= max_steps_ && !poisoned_) {
        failed_ = true;
        error_ = "step budget exceeded (possible livelock)";
        poisoned_ = true;
      }
      size_t pick = poisoned_ ? 0 : strategy_->Pick(runnable, steps_);
      Task* chosen = FindTask(runnable[pick]);
      trace_.push_back(static_cast<uint32_t>(chosen->id));
      ++steps_;
      return chosen;
    }
  }

  Strategy* strategy_;
  size_t max_steps_;
  // When set, an execution fails if the lock-order witness records any new violation
  // during it — lock-order cycles become model-checking counterexamples.
  bool check_lock_order_;
  std::vector<std::unique_ptr<Task>> tasks_;
  uint64_t next_id_ = 0;
  std::map<uintptr_t, uint64_t> mutex_owner_;

  Mutex sched_m_{MutexAttr{"mc.sched", lockrank::kSched, /*leaf=*/true}};
  CondVar sched_cv_{CondVarAttr{/*leaf=*/true}};
  bool sched_turn_ = false;

  size_t steps_ = 0;
  std::vector<uint32_t> trace_;
  bool failed_ = false;
  bool deadlock_ = false;
  bool poisoned_ = false;
  std::string error_;

 public:
  McRuntime(const McRuntime&) = delete;
  McRuntime& operator=(const McRuntime&) = delete;
  ~McRuntime() override = default;
};

thread_local Task* McRuntime::current_task_ = nullptr;

McRuntime*& ActiveRuntime() {
  static McRuntime* active = nullptr;
  return active;
}

}  // namespace

void McFail(const std::string& message) {
  McRuntime* runtime = ActiveRuntime();
  if (runtime == nullptr) {
    // Outside a model-checked run (e.g. a plain unit test): abort loudly.
    throw std::runtime_error("MC_CHECK failed outside McExplore: " + message);
  }
  runtime->FailCurrent(message);
}

McResult McExplore(const std::function<void()>& body, const McOptions& options) {
  McResult result;
  if (options.strategy == McOptions::Strategy::kDfs) {
    std::vector<DfsStrategy::Node> path;
    for (size_t i = 0; i < options.iterations; ++i) {
      DfsStrategy strategy(&path);
      McRuntime runtime(&strategy, options.max_steps, options.check_lock_order);
      ActiveRuntime() = &runtime;
      runtime.Run(body, &result);
      ActiveRuntime() = nullptr;
      ++result.executions;
      if (!result.ok && options.stop_on_failure) {
        return result;
      }
      // Advance the odometer: find the deepest node with an unexplored sibling.
      while (!path.empty()) {
        DfsStrategy::Node& last = path.back();
        if (last.chosen + 1 < last.num_choices) {
          ++last.chosen;
          break;
        }
        path.pop_back();
      }
      if (path.empty()) {
        result.exhausted = true;
        return result;
      }
    }
    return result;
  }

  Rng seeder(options.seed);
  for (size_t i = 0; i < options.iterations; ++i) {
    const uint64_t exec_seed = seeder.Next();
    std::unique_ptr<Strategy> strategy;
    if (options.strategy == McOptions::Strategy::kPct) {
      strategy = std::make_unique<PctStrategy>(exec_seed, options.pct_depth,
                                               /*horizon=*/4096);
    } else {
      strategy = std::make_unique<RandomStrategy>(exec_seed);
    }
    McRuntime runtime(strategy.get(), options.max_steps, options.check_lock_order);
    ActiveRuntime() = &runtime;
    runtime.Run(body, &result);
    ActiveRuntime() = nullptr;
    ++result.executions;
    if (!result.ok && options.stop_on_failure) {
      return result;
    }
  }
  return result;
}

McResult McReplay(const std::function<void()>& body, const std::vector<uint32_t>& schedule,
                  size_t max_steps) {
  McResult result;
  ReplayStrategy strategy(&schedule);
  McRuntime runtime(&strategy, max_steps);
  ActiveRuntime() = &runtime;
  runtime.Run(body, &result);
  ActiveRuntime() = nullptr;
  ++result.executions;
  return result;
}

}  // namespace ss
