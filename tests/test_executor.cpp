// Work-conserving executor: an idle worker takes another fabric's job,
// each stream's jobs run in plan order and one at a time under host
// jitter, each under its plan index, a failing job stops its stream and
// surfaces from finish(), and
// the thread that calls finish() works once the plan is complete. The
// jobs here are fakes: the executor only sees stream ids and plan order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <random>
#include <set>
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
  });
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
  });

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
  });
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
  });
  executor.push({job_of(0, 0, 0), job_of(1, 0, 1)});
  executor.finish();
  EXPECT_EQ(executor.threads(), 1);
  EXPECT_TRUE(caller_ran);
  EXPECT_TRUE(thread_saw_caller);
}

}  // namespace
}  // namespace dsra::runtime
