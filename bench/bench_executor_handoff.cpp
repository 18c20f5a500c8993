// Executor hand-off cost: what running a fixed plan costs beyond its jobs.
//
// A fleet_churn-sized fake plan — 44,000 jobs over 4,000 streams, each
// stream's 11 jobs at seeded random places in plan order — is pushed to
// the executor in batches of 5, as the planner hands jobs over, and run
// by 3 threads plus the caller. Two job kinds:
//
//  * no-op jobs: the makespan over the job count is the hand-off's own
//    cost per job;
//  * 2 us spin jobs: the makespan against its ideal, jobs x 2 us over the
//    workers the host can run at once. The bar holds it at <= 2x.
//
// Each figure is the minimum over the rounds. Every job checks that it is
// its stream's next one, so a job run twice, skipped or out of order
// fails the order bar.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/executor.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kStreams = 4000;
constexpr int kJobsPerStream = 11;
constexpr std::size_t kJobs = std::size_t{kStreams} * kJobsPerStream;
constexpr std::size_t kBatch = 5;
constexpr int kThreads = 3;  ///< plus the caller of finish()
constexpr int kRounds = 9;
constexpr auto kSpin = std::chrono::microseconds(2);
constexpr std::uint64_t kSeed = 24;

/// The plan: stream k's j-th job is its j-th occurrence, placed at random.
std::vector<PlannedJob> make_plan() {
  std::vector<int> order;
  order.reserve(kJobs);
  for (int s = 0; s < kStreams; ++s) order.insert(order.end(), kJobsPerStream, s);
  std::mt19937_64 rng(kSeed);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<int> planned(kStreams, 0);
  std::vector<PlannedJob> plan(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    plan[i].task.stream_id = order[i];
    plan[i].task.frame_index = planned[static_cast<std::size_t>(order[i])]++;
  }
  return plan;
}

struct Round {
  double makespan_ms = 0.0;
  int order_violations = 0;
};

/// Run @p plan once: start the executor, push the plan in batches, finish.
Round run_once(const std::vector<PlannedJob>& plan, bool spin) {
  std::vector<int> next_frame(kStreams, 0);  // each stream's jobs run one at a time
  std::vector<char> violated(kStreams, 0);
  const auto start = Clock::now();
  {
    Executor executor(kThreads, kStreams,
                      [&](int, std::size_t, const PlannedJob& job) {
                        const auto s = static_cast<std::size_t>(job.task.stream_id);
                        if (next_frame[s]++ != job.task.frame_index) violated[s] = 1;
                        if (spin)
                          for (const auto until = Clock::now() + kSpin; Clock::now() < until;) {
                          }
                      },
                      kJobs);
    std::vector<PlannedJob> batch;
    for (std::size_t i = 0; i < kJobs; i += kBatch) {
      batch.assign(plan.begin() + static_cast<std::ptrdiff_t>(i),
                   plan.begin() + static_cast<std::ptrdiff_t>(std::min(i + kBatch, kJobs)));
      executor.push(batch);
    }
    executor.finish();
  }
  Round round;
  round.makespan_ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  for (int s = 0; s < kStreams; ++s)
    if (violated[static_cast<std::size_t>(s)] != 0 ||
        next_frame[static_cast<std::size_t>(s)] != kJobsPerStream)
      ++round.order_violations;
  return round;
}

}  // namespace

int main() {
  BenchJson json("executor_handoff");
  const std::vector<PlannedJob> plan = make_plan();

  // Alternate the two kinds round by round, so host drift falls on both.
  double noop_ms = 1e300;
  double spin_ms = 1e300;
  int violations = 0;
  for (int r = 0; r < kRounds; ++r) {
    const Round noop = run_once(plan, false);
    const Round spin = run_once(plan, true);
    noop_ms = std::min(noop_ms, noop.makespan_ms);
    spin_ms = std::min(spin_ms, spin.makespan_ms);
    violations += noop.order_violations + spin.order_violations;
  }

  const int workers = kThreads + 1;
  const int parallel =
      std::min(workers, static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  const double ideal_ms = static_cast<double>(kJobs) *
                          std::chrono::duration<double, std::milli>(kSpin).count() / parallel;
  const double noop_us_per_job = 1000.0 * noop_ms / static_cast<double>(kJobs);

  ReportTable table("Executor hand-off: " + std::to_string(kJobs) + " jobs over " +
                    std::to_string(kStreams) + " streams, " + std::to_string(workers) +
                    " workers, min of " + std::to_string(kRounds) + " rounds");
  table.set_header({"jobs", "makespan ms", "per job us", "ideal ms", "over ideal"});
  table.add_row({"no-op", format_double(noop_ms, 2), format_double(noop_us_per_job, 3), "-", "-"});
  table.add_row({"2 us spin", format_double(spin_ms, 2),
                 format_double(1000.0 * spin_ms / static_cast<double>(kJobs), 3),
                 format_double(ideal_ms, 2), format_double(spin_ms / ideal_ms, 2) + "x"});
  table.print();
  std::printf("\nstreams run out of order, twice or short: %d (bar: 0)\n", violations);

  bench_common::stamp_reproducibility(
      json, kSeed,
      "streams=4000;jobs_per_stream=11;batch=5;threads=3+caller;spin_us=2;rounds=9");
  json.metric("noop_makespan_ms", noop_ms);
  json.metric("noop_us_per_job", noop_us_per_job);
  json.metric("spin_makespan_ms", spin_ms);
  json.metric("spin_ideal_ms", ideal_ms);
  json.bar("spin_makespan_over_ideal", spin_ms / ideal_ms, "<=", 2.0);
  json.bar("order_violations", static_cast<double>(violations), "<=", 0.0);
  return bench_common::finish(json);
}
