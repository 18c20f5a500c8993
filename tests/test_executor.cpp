// Lock-free executor: an idle worker takes another fabric's job, each
// stream's jobs run in plan order and one at a time under host jitter,
// each under its plan index, a failing job stops its stream and surfaces
// from finish(), the thread that calls finish() works once the plan is
// complete, a busy stream never blocks the worker that claimed its job,
// destruction without finish() starts no further job, the plan array
// records every job once in push order, and it refuses jobs past its
// size. The jobs here are fakes: the executor only sees stream ids and
// plan order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/executor.hpp"

namespace dsra::runtime {
namespace {

using namespace std::chrono_literals;

/// A bound that turns a missing hand-off into a failure, not a hang.
constexpr auto kHandOffBound = 10s;

PlannedJob job_of(int stream, int frame, int fabric) {
  PlannedJob job;
  job.task.stream_id = stream;
  job.task.frame_index = frame;
  job.fabric_id = fabric;
  return job;
}

TEST(Executor, IdleWorkerTakesAJobPlannedOnABusyFabric) {
  // Both jobs are planned on fabric 0. Stream 0's job waits until stream
  // 1's has started, which only a worker not tied to fabric 0 can start.
  std::mutex m;
  std::condition_variable cv;
  bool second_started = false;
  bool first_saw_second = false;
  Executor executor(2, 2, [&](int, std::size_t, const PlannedJob& job) {
    std::unique_lock lock(m);
    if (job.task.stream_id == 1) {
      second_started = true;
      cv.notify_all();
      return;
    }
    first_saw_second = cv.wait_for(lock, kHandOffBound, [&] { return second_started; });
  }, 2);
  executor.push({job_of(0, 0, 0), job_of(1, 0, 0)});
  executor.finish();
  EXPECT_TRUE(first_saw_second);
}

TEST(Executor, EachStreamRunsInPlanOrderOneJobAtATime) {
  constexpr int kStreams = 24;
  constexpr int kJobs = 20;
  std::vector<std::atomic<int>> next_frame(kStreams);
  std::vector<std::atomic<bool>> running(kStreams);
  std::atomic<int> out_of_order{0};
  std::atomic<int> overlapping{0};
  std::atomic<int> wrong_index{0};
  std::atomic<int> ran{0};
  Executor executor(3, kStreams, [&](int, std::size_t index, const PlannedJob& job) {
    const auto s = static_cast<std::size_t>(job.task.stream_id);
    if (running[s].exchange(true)) ++overlapping;
    if (index != job.task.wait_dispatches) ++wrong_index;
    if (next_frame[s].load() != job.task.frame_index) ++out_of_order;
    // Jitter: a pseudo-random 0-99 us, fixed per job.
    const auto mix = static_cast<std::uint32_t>(job.task.stream_id * 7919 +
                                                job.task.frame_index * 104729);
    std::this_thread::sleep_for(std::chrono::microseconds((mix * 2654435761u >> 7) % 100));
    next_frame[s].store(job.task.frame_index + 1);
    running[s].store(false);
    ++ran;
  }, kStreams * kJobs);

  // The plan interleaves the streams at random and arrives in batches of
  // 1-8 jobs on random fabrics, with pauses, as a planner hands it over.
  std::mt19937 rng(1234);
  std::vector<int> planned(kStreams, 0);
  std::vector<PlannedJob> batch;
  int left = kStreams * kJobs;
  std::uint64_t position = 0;  ///< carried in wait_dispatches, to check the plan index
  while (left > 0) {
    batch.clear();
    const int size = std::uniform_int_distribution<int>(1, 8)(rng);
    for (int j = 0; j < size && left > 0; ++j) {
      int s = std::uniform_int_distribution<int>(0, kStreams - 1)(rng);
      while (planned[static_cast<std::size_t>(s)] == kJobs) s = (s + 1) % kStreams;
      batch.push_back(job_of(s, planned[static_cast<std::size_t>(s)]++,
                             std::uniform_int_distribution<int>(0, 3)(rng)));
      batch.back().task.wait_dispatches = position++;
      --left;
    }
    executor.push(batch);
    if (rng() % 4 == 0) std::this_thread::sleep_for(std::chrono::microseconds(rng() % 200));
  }
  executor.finish();
  EXPECT_EQ(ran.load(), kStreams * kJobs);
  EXPECT_EQ(out_of_order.load(), 0);
  EXPECT_EQ(overlapping.load(), 0);
  EXPECT_EQ(wrong_index.load(), 0);
  for (const std::atomic<int>& n : next_frame) EXPECT_EQ(n.load(), kJobs);
}

TEST(Executor, AThrowingJobStopsItsStreamAndFinishRethrows) {
  std::mutex m;
  std::set<std::pair<int, int>> ran;
  Executor executor(2, 3, [&](int, std::size_t, const PlannedJob& job) {
    if (job.task.stream_id == 0 && job.task.frame_index == 1)
      throw std::runtime_error("encode failed");
    std::lock_guard lock(m);
    ran.emplace(job.task.stream_id, job.task.frame_index);
  }, 12);
  std::vector<PlannedJob> plan;
  for (int f = 0; f < 4; ++f)
    for (int s = 0; s < 3; ++s) plan.push_back(job_of(s, f, s));
  executor.push(plan);
  // finish() joins every thread before it rethrows.
  EXPECT_THROW(executor.finish(), std::runtime_error);
  EXPECT_EQ(ran.count({0, 0}), 1u);
  EXPECT_EQ(ran.count({0, 2}), 0u);
  EXPECT_EQ(ran.count({0, 3}), 0u);
}

TEST(Executor, CallingThreadWorksOnceThePlanIsComplete) {
  // One worker thread, whose job waits until the calling thread has run
  // one: only a caller that joins as worker threads() lets it finish.
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  std::condition_variable cv;
  bool caller_ran = false;
  bool thread_saw_caller = true;
  Executor executor(1, 2, [&](int worker, std::size_t, const PlannedJob&) {
    std::unique_lock lock(m);
    if (std::this_thread::get_id() == caller) {
      EXPECT_EQ(worker, 1);
      caller_ran = true;
      cv.notify_all();
      return;
    }
    EXPECT_EQ(worker, 0);
    if (!cv.wait_for(lock, kHandOffBound, [&] { return caller_ran; })) thread_saw_caller = false;
  }, 2);
  executor.push({job_of(0, 0, 0), job_of(1, 0, 1)});
  executor.finish();
  EXPECT_EQ(executor.threads(), 1);
  EXPECT_TRUE(caller_ran);
  EXPECT_TRUE(thread_saw_caller);
}

TEST(Executor, ABusyStreamNeverBlocksTheClaimer) {
  // Two workers. Stream 0's first job waits until stream 1's job has
  // started. The worker that claims stream 0's second job must leave it
  // to the stream's running worker and go on to stream 1's job; one that
  // blocked until its stream's previous job finished would stall here
  // until kHandOffBound.
  std::mutex m;
  std::condition_variable cv;
  bool other_started = false;
  bool first_saw_other = false;
  std::vector<int> stream0_frames;
  Executor executor(1, 2, [&](int, std::size_t, const PlannedJob& job) {
    std::unique_lock lock(m);
    if (job.task.stream_id == 1) {
      other_started = true;
      cv.notify_all();
      return;
    }
    stream0_frames.push_back(job.task.frame_index);
    if (job.task.frame_index == 0)
      first_saw_other = cv.wait_for(lock, kHandOffBound, [&] { return other_started; });
  }, 3);
  executor.push({job_of(0, 0, 0), job_of(0, 1, 0), job_of(1, 0, 1)});
  executor.finish();
  EXPECT_TRUE(first_saw_other);
  EXPECT_EQ(stream0_frames, (std::vector<int>{0, 1}));
}

/// Counts the threads that ran a job and have since exited.
struct ExitCounter {
  std::atomic<int>* exited = nullptr;
  ~ExitCounter() {
    if (exited != nullptr) exited->fetch_add(1);
  }
};

TEST(Executor, DestroyingWithoutFinishStartsNoFurtherJob) {
  // Stream 0's first job runs until a worker thread has exited, which only
  // destruction makes one do; stream 0's two later jobs wait behind it,
  // and stream 1's job lets the other worker run a job first. The plan is
  // then dropped without finish(), as when the planner throws.
  std::atomic<int> exited{0};
  std::atomic<bool> first_started{false};
  std::atomic<bool> other_ran{false};
  std::atomic<bool> first_saw_exit{false};
  std::atomic<int> later_started{0};
  {
    Executor executor(2, 2, [&](int, std::size_t, const PlannedJob& job) {
      thread_local ExitCounter counter;
      counter.exited = &exited;
      if (job.task.stream_id == 1) {
        other_ran = true;
        return;
      }
      if (job.task.frame_index > 0) {
        ++later_started;
        return;
      }
      first_started = true;
      const auto deadline = std::chrono::steady_clock::now() + kHandOffBound;
      while (exited.load() == 0 && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(1ms);
      first_saw_exit = exited.load() > 0;
    }, 4);
    executor.push({job_of(0, 0, 0), job_of(0, 1, 0), job_of(0, 2, 0), job_of(1, 0, 1)});
    const auto deadline = std::chrono::steady_clock::now() + kHandOffBound;
    while (!(first_started && other_ran) && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(1ms);
    ASSERT_TRUE(first_started && other_ran);
  }
  EXPECT_TRUE(first_saw_exit);
  EXPECT_EQ(later_started.load(), 0);
  EXPECT_EQ(exited.load(), 2) << "destruction joins every worker thread";
}

TEST(Executor, TheRecordListsEveryPushedJobOnceInPushOrder) {
  std::atomic<int> ran{0};
  constexpr int kBatches = 40;
  constexpr int kMaxBatch = 6;
  Executor executor(3, 5, [&](int, std::size_t, const PlannedJob&) { ++ran; },
                    kBatches * kMaxBatch);
  std::mt19937 rng(77);
  std::vector<PlannedJob> pushed;
  std::vector<int> frames(5, 0);
  for (int batch = 0; batch < kBatches; ++batch) {
    std::vector<PlannedJob> jobs;
    const int size = std::uniform_int_distribution<int>(1, kMaxBatch)(rng);
    for (int j = 0; j < size; ++j) {
      const int s = std::uniform_int_distribution<int>(0, 4)(rng);
      jobs.push_back(job_of(s, frames[static_cast<std::size_t>(s)]++, s % 2));
      jobs.back().task.wait_dispatches = pushed.size() + jobs.size();
    }
    executor.push(jobs);
    pushed.insert(pushed.end(), jobs.begin(), jobs.end());
  }
  executor.finish();
  EXPECT_EQ(ran.load(), static_cast<int>(pushed.size()));
  const std::span<const PlannedJob> record = executor.jobs();
  ASSERT_EQ(record.size(), pushed.size());
  for (std::size_t i = 0; i < record.size(); ++i) {
    EXPECT_EQ(record[i].task.stream_id, pushed[i].task.stream_id) << i;
    EXPECT_EQ(record[i].task.frame_index, pushed[i].task.frame_index) << i;
    EXPECT_EQ(record[i].task.wait_dispatches, pushed[i].task.wait_dispatches) << i;
    EXPECT_EQ(record[i].fabric_id, pushed[i].fabric_id) << i;
  }
}

TEST(Executor, PushingPastTheSizedJobCountThrows) {
  std::atomic<int> ran{0};
  Executor executor(1, 2, [&](int, std::size_t, const PlannedJob&) { ++ran; }, 3);
  executor.push({job_of(0, 0, 0), job_of(1, 0, 0)});
  EXPECT_THROW(executor.push({job_of(0, 1, 0), job_of(1, 1, 0)}), std::logic_error);
  executor.push({job_of(0, 1, 0)});
  executor.finish();
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(executor.jobs().size(), 3u);
}

}  // namespace
}  // namespace dsra::runtime
