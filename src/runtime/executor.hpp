// Lock-free executor for a planned run.
//
// The planner decides every job's fabric and modeled cycles; the executor
// only runs the encode work on host threads. The encoded bits depend on
// nothing but each stream's job order, so any host thread may run any
// job. The planner writes each planning instant's jobs into one plan
// array, sized once for the run (the run's record of its jobs), and
// publishes them with one atomic add. Workers claim plan indices in order
// with one fetch_add: a claimer runs its job when the job's stream is
// idle, and otherwise leaves it to the stream's running worker through
// the stream's pending counter and claims again. So each stream's jobs
// run one at a time in plan order, no worker idles while a published job
// could run, and a worker waits only once it has caught up with the
// planner. The job path takes no lock and allocates nothing.
//
// Workers are numbered 0..threads(): `threads()` host threads start with
// the executor, and the thread that calls finish() joins them as worker
// `threads()` once the plan is complete.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fabric_pool.hpp"
#include "runtime/job.hpp"

namespace dsra::runtime {

/// Everything the planner decided about one job: the task, the fabric
/// the plan put it on, the context and its DCT implementation (null for
/// the ME context), what the fabric paid to prepare the context, and the
/// job's modeled cycles. The executor keeps these in plan order as the
/// run's one record of its jobs: trace rows and spans join it by plan
/// index, and the health pass walks it.
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
};

class Executor {
 public:
  /// Runs the job at plan index @p index on worker @p worker
  /// (0..threads()). A throw aborts the run: no further job starts and
  /// finish() rethrows it.
  using Run = std::function<void(int worker, std::size_t index, const PlannedJob& job)>;

  /// Start @p threads worker threads for a run of at most @p jobs jobs of
  /// @p streams streams.
  Executor(int threads, std::size_t streams, Run run, std::size_t jobs);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Without finish() (the planner threw): stops every worker after its
  /// current job and joins the threads.
  ~Executor();

  /// Append @p jobs, planned in this order, after every job pushed so far
  /// (the n-th job pushed has plan index n), and publish them to the
  /// workers. Throws std::logic_error past the job count the executor was
  /// sized for.
  void push(const std::vector<PlannedJob>& jobs);

  /// The plan is complete: work as one more worker until every job has
  /// run, join the threads, and rethrow the first job's error.
  void finish();

  /// The jobs pushed so far, in plan order: the run's record once
  /// finish() has returned.
  [[nodiscard]] std::span<const PlannedJob> jobs() const { return {plan_.data(), pushed_}; }

  /// Host threads the executor started; the finish() caller is worker
  /// threads(), so there are threads() + 1 workers.
  [[nodiscard]] int threads() const { return static_cast<int>(threads_.size()); }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};
  /// The published word's top bit: no job will be published any more.
  static constexpr std::uint32_t kClosed = std::uint32_t{1} << 31;

  /// One stream's hand-off state, on its own cache line.
  struct alignas(64) Stream {
    /// Claimed jobs of the stream not yet run.
    std::atomic<std::size_t> pending{0};
    /// Its first job; the planner sets it before publishing that job.
    std::size_t first = kNone;
    /// The last job run; touched only by the stream's running worker.
    std::size_t last_run = kNone;
  };

  /// Claim plan indices and run or hand off their jobs until the run
  /// drains or aborts.
  void work(int worker);
  /// Wait until plan index @p index is published; false once the run is
  /// closed short of it.
  bool wait_published(std::size_t index);
  /// Run @p stream's jobs in plan order while claims on it are pending;
  /// false when the run aborted.
  bool run_stream(int worker, Stream& stream);
  /// Publish no more jobs and wake the waiting workers.
  void close();
  /// Stop every worker after its current job and join the threads.
  void abort_and_join();

  Run run_;
  std::vector<PlannedJob> plan_;   ///< sized once; entries below published_ are immutable
  std::vector<std::size_t> next_;  ///< each job's stream's next job, linked before publishing
  std::vector<Stream> streams_;
  std::vector<std::size_t> tail_;  ///< planner only: each stream's last pushed job
  std::size_t pushed_ = 0;         ///< planner only
  /// Jobs published, plus kClosed; changed only by atomic adds and ors.
  alignas(64) std::atomic<std::uint32_t> published_{0};
  alignas(64) std::atomic<std::size_t> next_claim_{0};
  std::atomic<bool> abort_{false};
  std::exception_ptr error_;  ///< written by the worker that set abort_ first
  std::vector<std::thread> threads_;
};

}  // namespace dsra::runtime
