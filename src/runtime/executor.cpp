#include "runtime/executor.hpp"

#include <algorithm>
#include <stdexcept>

namespace dsra::runtime {

Executor::Executor(int threads, std::size_t streams, Run run, std::size_t jobs)
    : run_(std::move(run)), streams_(streams), tail_(streams, kNone) {
  if (jobs >= kClosed)
    throw std::length_error("executor: a plan of " + std::to_string(jobs) + " jobs");
  plan_.resize(jobs);
  next_.resize(jobs, kNone);
  threads_.reserve(static_cast<std::size_t>(std::max(threads, 0)));
  try {
    for (int worker = 0; worker < threads; ++worker)
      threads_.emplace_back([this, worker] { work(worker); });
  } catch (...) {
    abort_and_join();
    throw;
  }
}

Executor::~Executor() { abort_and_join(); }

void Executor::push(const std::vector<PlannedJob>& jobs) {
  if (jobs.size() > plan_.size() - pushed_)
    throw std::logic_error("executor: " + std::to_string(pushed_ + jobs.size()) +
                           " jobs pushed to a plan of " + std::to_string(plan_.size()));
  for (const PlannedJob& job : jobs) {
    const std::size_t index = pushed_++;
    plan_[index] = job;
    const auto stream = static_cast<std::size_t>(job.task.stream_id);
    std::size_t& tail = tail_[stream];
    if (tail == kNone)
      streams_[stream].first = index;
    else
      next_[tail] = index;
    tail = index;
  }
  published_.fetch_add(static_cast<std::uint32_t>(jobs.size()), std::memory_order_release);
  published_.notify_all();
}

void Executor::finish() {
  close();
  work(threads());
  for (std::thread& t : threads_) t.join();
  if (error_) std::rethrow_exception(error_);
}

void Executor::close() {
  published_.fetch_or(kClosed, std::memory_order_release);
  published_.notify_all();
}

void Executor::abort_and_join() {
  abort_.store(true, std::memory_order_relaxed);
  close();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

void Executor::work(int worker) {
  for (;;) {
    const std::size_t index = next_claim_.fetch_add(1, std::memory_order_relaxed);
    if (!wait_published(index)) return;  // every published job is claimed
    Stream& stream = streams_[static_cast<std::size_t>(plan_[index].task.stream_id)];
    // A busy stream's running worker takes the job over.
    if (stream.pending.fetch_add(1, std::memory_order_acq_rel) != 0) continue;
    if (!run_stream(worker, stream)) return;
  }
}

bool Executor::wait_published(std::size_t index) {
  for (;;) {
    const std::uint32_t word = published_.load(std::memory_order_acquire);
    if (index < (word & ~kClosed)) return true;
    if ((word & kClosed) != 0) return false;
    published_.wait(word, std::memory_order_acquire);
  }
}

bool Executor::run_stream(int worker, Stream& stream) {
  // The stream's next unrun job: the claims counted in pending cover it,
  // and the last runner's decrement to 0 ordered its last_run before our
  // increment.
  std::size_t job = stream.last_run == kNone ? stream.first : next_[stream.last_run];
  for (;;) {
    if (abort_.load(std::memory_order_relaxed)) return false;
    try {
      run_(worker, job, plan_[job]);
    } catch (...) {
      if (!abort_.exchange(true)) error_ = std::current_exception();
      close();
      return false;  // pending stays above 0: no one runs the stream again
    }
    stream.last_run = job;
    if (stream.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) return true;
    // Read the next link only after the decrement: the claim that kept
    // pending above 0 acquired a publish covering the next job, and its
    // increment is what orders the planner's link write before this read.
    job = next_[job];
  }
}

}  // namespace dsra::runtime
