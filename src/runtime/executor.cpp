#include "runtime/executor.hpp"

#include <algorithm>

namespace dsra::runtime {

namespace {

/// Heap order of the runnable jobs: the earliest-planned one on top.
constexpr auto planned_later = [](const auto& a, const auto& b) { return a->seq > b->seq; };

}  // namespace

Executor::Executor(int threads, std::size_t streams, Run run)
    : run_(std::move(run)), streams_(streams) {
  threads_.reserve(static_cast<std::size_t>(std::max(threads, 0)));
  try {
    for (int worker = 0; worker < threads; ++worker)
      threads_.emplace_back([this, worker] { work(worker); });
  } catch (...) {
    abort_and_join();
    throw;
  }
}

Executor::~Executor() {
  abort_and_join();
  // Unlink each left-over chain from its head: destroying a long chain
  // through nested unique_ptrs would recurse once per node.
  for (Stream& s : streams_)
    while (s.waiting) s.waiting = std::move(s.waiting->next);
}

void Executor::push(const std::vector<PlannedJob>& jobs) {
  std::lock_guard lock(m_);
  if (abort_) return;  // a job failed: nothing more will run
  for (const PlannedJob& job : jobs) {
    std::unique_ptr<Node> node(new Node{next_seq_++, job, nullptr});
    Stream& s = streams_[static_cast<std::size_t>(job.task.stream_id)];
    if (!s.in_flight) {
      s.in_flight = true;
      make_runnable(std::move(node));
      wake_.notify_one();
    } else if (s.last == nullptr) {
      s.waiting = std::move(node);
      s.last = s.waiting.get();
    } else {
      s.last->next = std::move(node);
      s.last = s.last->next.get();
    }
  }
}

void Executor::finish() {
  {
    std::lock_guard lock(m_);
    planned_all_ = true;
  }
  wake_.notify_all();
  work(threads());
  for (std::thread& t : threads_) t.join();
  if (error_) std::rethrow_exception(error_);
}

void Executor::abort_and_join() {
  {
    std::lock_guard lock(m_);
    abort_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_)
    if (t.joinable()) t.join();
}

void Executor::make_runnable(std::unique_ptr<Node> node) {
  runnable_.push_back(std::move(node));
  std::push_heap(runnable_.begin(), runnable_.end(), planned_later);
}

void Executor::work(int worker) {
  std::unique_lock lock(m_);
  for (;;) {
    wake_.wait(lock,
               [&] { return abort_ || !runnable_.empty() || (planned_all_ && running_ == 0); });
    if (abort_ || runnable_.empty()) return;  // aborted, or every job has run
    std::pop_heap(runnable_.begin(), runnable_.end(), planned_later);
    std::unique_ptr<Node> node = std::move(runnable_.back());
    runnable_.pop_back();
    ++running_;
    // A job its stream's completion made runnable may be left behind
    // when this worker took an earlier-planned one: pass it on.
    if (!runnable_.empty()) wake_.notify_one();
    lock.unlock();

    const auto stream = static_cast<std::size_t>(node->job.task.stream_id);
    try {
      run_(worker, node->seq, node->job);
    } catch (...) {
      lock.lock();
      --running_;
      if (!error_) error_ = std::current_exception();
      abort_ = true;
      wake_.notify_all();
      return;
    }
    node.reset();

    lock.lock();
    --running_;
    Stream& s = streams_[stream];
    if (s.waiting) {
      std::unique_ptr<Node> next = std::move(s.waiting);
      s.waiting = std::move(next->next);
      if (!s.waiting) s.last = nullptr;
      make_runnable(std::move(next));
    } else {
      s.in_flight = false;
    }
    if (planned_all_ && running_ == 0 && runnable_.empty()) wake_.notify_all();
  }
}

}  // namespace dsra::runtime
