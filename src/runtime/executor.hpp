// Work-conserving executor for a planned run.
//
// The scheduler's planner decides every job's fabric and modeled cycles;
// the executor only runs the encode work on host threads. The encoded
// bits depend on nothing but each stream's job order, so a host thread is
// not tied to a fabric: a planned job becomes runnable once the previous
// planned job of its stream has finished, and any idle worker takes the
// earliest-planned runnable job. One mutex and one condition variable
// guard the hand-off; nothing times out or spins.
//
// Workers are numbered 0..threads(): `threads()` host threads start with
// the executor, and the thread that calls finish() joins them as worker
// `threads()` once the plan is complete. A job lives in a node that
// exists only until the job has run, so a stream with nothing pending
// holds no allocation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fabric_pool.hpp"
#include "runtime/job.hpp"

namespace dsra::runtime {

/// Everything the planner decided about one job: the task, the fabric
/// the plan put it on, the context and its DCT implementation (null for
/// the ME context), what the fabric paid to prepare the context, and the
/// job's modeled cycles. A traced or monitored run keeps these in plan
/// order as its one record of the jobs: trace rows and spans join it by
/// plan index, and the health pass walks it.
struct PlannedJob {
  FrameTask task;
  int fabric_id = -1;
  const std::string* context = nullptr;
  const dct::DctImplementation* impl = nullptr;
  PrepareResult prep;
  /// Cycle at which the job's data dependencies were met; the gap up to
  /// start_cycles is time spent waiting for its fabric.
  std::uint64_t ready_cycles = 0;
  std::uint64_t start_cycles = 0;
  std::uint64_t end_cycles = 0;
  /// Cycles the job waited for the physical configuration port while a
  /// co-tenant slot was loading a context (part of ready..start).
  std::uint64_t port_wait_cycles = 0;
};

class Executor {
 public:
  /// Runs the job at plan index @p index on worker @p worker
  /// (0..threads()). A throw aborts the run: no further job starts and
  /// finish() rethrows it.
  using Run = std::function<void(int worker, std::size_t index, const PlannedJob& job)>;

  /// Start @p threads worker threads for jobs of @p streams streams.
  Executor(int threads, std::size_t streams, Run run);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Unblocks and joins the workers when the planner threw before finish().
  ~Executor();

  /// Append @p jobs, planned in this order, after every job pushed so
  /// far: the n-th job pushed has plan index n.
  void push(const std::vector<PlannedJob>& jobs);

  /// The plan is complete: work as one more worker until every job has
  /// run, join the threads, and rethrow the first job's error.
  void finish();

  /// Host threads the executor started; the finish() caller is worker
  /// threads(), so there are threads() + 1 workers.
  [[nodiscard]] int threads() const { return static_cast<int>(threads_.size()); }

 private:
  struct Node {
    std::size_t seq = 0;  ///< plan index
    PlannedJob job;
    std::unique_ptr<Node> next;  ///< the stream's next waiting job
  };
  /// A stream's jobs that wait for its in-flight one, in plan order.
  struct Stream {
    bool in_flight = false;  ///< a job of the stream is runnable or running
    std::unique_ptr<Node> waiting;
    Node* last = nullptr;
  };

  /// Take and run the earliest-planned runnable job until the run drains
  /// or aborts.
  void work(int worker);
  /// Push @p node onto the runnable heap; the caller holds m_.
  void make_runnable(std::unique_ptr<Node> node);
  /// Stop every worker after its current job and join the threads.
  void abort_and_join();

  Run run_;
  std::mutex m_;
  std::condition_variable wake_;
  std::vector<std::unique_ptr<Node>> runnable_;  ///< min-heap on seq, guarded by m_
  std::vector<Stream> streams_;                  ///< guarded by m_
  std::size_t next_seq_ = 0;                     ///< guarded by m_
  int running_ = 0;                              ///< jobs being run, guarded by m_
  bool planned_all_ = false;                     ///< guarded by m_
  bool abort_ = false;                           ///< guarded by m_
  std::exception_ptr error_;                     ///< guarded by m_
  std::vector<std::thread> threads_;
};

}  // namespace dsra::runtime
