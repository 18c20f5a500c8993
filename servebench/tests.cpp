// Unit tests of the benchmark's own accounting on hand-built inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "accounting.hpp"

using servebench::account_run;
using servebench::count_outcomes;
using servebench::pick_percentile;
using servebench::StreamOutcome;
using dsra::runtime::telemetry::JobTrace;

namespace {

StreamOutcome delivered(int requested, std::vector<int> frames) {
  StreamOutcome s;
  s.requested = requested;
  s.sla_met = true;
  s.matches.assign(frames.size(), true);
  s.delivered = std::move(frames);
  return s;
}

JobTrace job(int worker, std::int64_t dispatch_ms, std::int64_t prepared_ms,
             std::int64_t done_ms) {
  JobTrace j;
  j.fabric_id = worker;
  j.dispatch_ns = dispatch_ms * 1'000'000;
  j.prepared_ns = prepared_ms * 1'000'000;
  j.done_ns = done_ms * 1'000'000;
  return j;
}

constexpr std::int64_t kMs = 1'000'000;

}  // namespace

TEST(PercentilePick, NearestRankWithSampleCountAndTail) {
  std::vector<double> samples(200);
  std::iota(samples.begin(), samples.end(), 1.0);
  std::shuffle(samples.begin(), samples.end(), std::mt19937(7));

  const auto p95 = pick_percentile(samples, 95.0);
  EXPECT_EQ(p95.samples, 200u);
  EXPECT_EQ(p95.rank, 190u);
  EXPECT_EQ(p95.value, 190.0);
  EXPECT_EQ(p95.beyond, 10u);  // the ten-samples-beyond rule holds at 200 frames

  const auto p50 = pick_percentile(samples, 50.0);
  EXPECT_EQ(p50.value, 100.0);
  EXPECT_EQ(p50.beyond, 100u);
}

TEST(PercentilePick, DegenerateSampleSets) {
  const auto none = pick_percentile({}, 95.0);
  EXPECT_EQ(none.samples, 0u);
  EXPECT_EQ(none.rank, 0u);
  EXPECT_EQ(none.value, 0.0);

  for (const double pct : {0.0, 50.0, 95.0, 100.0}) {
    const auto one = pick_percentile({42.0}, pct);
    EXPECT_EQ(one.value, 42.0);
    EXPECT_EQ(one.samples, 1u);
    EXPECT_EQ(one.beyond, 0u);
  }
  // Fewer than ten samples beyond p95 below 200 frames.
  std::vector<double> small(100, 1.0);
  EXPECT_EQ(pick_percentile(small, 95.0).beyond, 5u);
}

TEST(CountOutcomes, CleanBatchHasNoErrorsOrRefusals) {
  const auto t = count_outcomes({delivered(4, {0, 1, 2, 3}), delivered(2, {0, 1})});
  EXPECT_EQ(t.requested, 6u);
  EXPECT_EQ(t.admitted, 6u);
  EXPECT_EQ(t.delivered, 6u);
  EXPECT_EQ(t.errors, 0u);
  EXPECT_EQ(t.refused, 0u);
  EXPECT_EQ(t.goodput_frac(), 1.0);
  EXPECT_EQ(t.error_frac(), 0.0);
}

TEST(CountOutcomes, MissingDuplicatedReorderedAndWrongFramesEachCountOnce) {
  EXPECT_EQ(count_outcomes({delivered(4, {0, 1, 3})}).errors, 1u);        // missing 2
  EXPECT_EQ(count_outcomes({delivered(4, {0, 1, 1, 2, 3})}).errors, 1u);  // duplicated 1
  EXPECT_EQ(count_outcomes({delivered(4, {0, 2, 1, 3})}).errors, 1u);     // 1 after 2
  EXPECT_EQ(count_outcomes({delivered(4, {0, 1, 2, 3, 7})}).errors, 1u);  // foreign frame

  StreamOutcome wrong = delivered(4, {0, 1, 2, 3});
  wrong.matches[2] = false;
  const auto t = count_outcomes({wrong});
  EXPECT_EQ(t.errors, 1u);
  EXPECT_DOUBLE_EQ(t.error_frac(), 0.25);

  StreamOutcome recon = delivered(4, {0, 1, 2, 3});
  recon.final_recon_matches = false;
  EXPECT_EQ(count_outcomes({recon}).errors, 1u);

  EXPECT_EQ(count_outcomes({delivered(3, {})}).errors, 3u);  // admitted, nothing came back
}

TEST(CountOutcomes, RefusalsAndSlaMissesShapeGoodput) {
  StreamOutcome shed;
  shed.requested = 6;
  shed.shed = true;
  StreamOutcome late = delivered(4, {0, 1, 2, 3});
  late.sla_met = false;
  const auto t = count_outcomes({delivered(6, {0, 1, 2, 3, 4, 5}), shed, late});
  EXPECT_EQ(t.requested, 16u);
  EXPECT_EQ(t.admitted, 10u);
  EXPECT_EQ(t.refused, 6u);
  EXPECT_EQ(t.goodput, 6u);
  EXPECT_EQ(t.errors, 0u);
  EXPECT_DOUBLE_EQ(t.refused_frac(), 6.0 / 16.0);
  EXPECT_DOUBLE_EQ(t.goodput_frac(), 6.0 / 16.0);

  // A shed stream that delivered anyway is in error, frame by frame.
  shed.delivered = {0, 1};
  shed.matches = {true, true};
  EXPECT_EQ(count_outcomes({shed}).errors, 2u);
}

TEST(AccountRun, PhasesSumToRunWhenTheLongestWorkerSpansTheDrive) {
  // Worker 0 dispatches first and completes last: nothing is unattributed.
  const auto a =
      account_run(0, 100 * kMs, 2, {job(0, 10, 12, 40), job(0, 45, 46, 80), job(1, 20, 21, 50)});
  EXPECT_DOUBLE_EQ(a.run_ms, 100.0);
  EXPECT_DOUBLE_EQ(a.pre_drive_ms, 10.0);
  EXPECT_DOUBLE_EQ(a.post_drive_ms, 20.0);
  EXPECT_DOUBLE_EQ(a.longest_worker_ms, 70.0);
  EXPECT_DOUBLE_EQ(a.unattributed_ms, 0.0);

  const auto& w0 = a.workers[0];
  EXPECT_EQ(w0.jobs, 2u);
  EXPECT_EQ(w0.lifetime_ns(), 70 * kMs);
  EXPECT_EQ(w0.prepare_ns, 3 * kMs);
  EXPECT_EQ(w0.compute_ns, 62 * kMs);
  EXPECT_EQ(w0.gap_ns(), 5 * kMs);
  EXPECT_EQ(w0.gap_ns() + w0.prepare_ns + w0.compute_ns, w0.lifetime_ns());
}

TEST(AccountRun, RemainderIsReportedNotHidden) {
  // Worker 0 starts the drive, worker 1 ends it: the longest lifetime
  // (worker 1, 50 ms) leaves 20 ms of the 100 ms run unattributed.
  const auto a = account_run(0, 100 * kMs, 2, {job(0, 10, 11, 50), job(1, 30, 31, 80)});
  EXPECT_DOUBLE_EQ(a.pre_drive_ms, 10.0);
  EXPECT_DOUBLE_EQ(a.post_drive_ms, 20.0);
  EXPECT_DOUBLE_EQ(a.longest_worker_ms, 50.0);
  EXPECT_DOUBLE_EQ(a.unattributed_ms, 20.0);
}

TEST(AccountRun, NoJobsMeansTheWholeRunIsPreDrive) {
  const auto a = account_run(5 * kMs, 25 * kMs, 3, {});
  EXPECT_DOUBLE_EQ(a.pre_drive_ms, 20.0);
  EXPECT_DOUBLE_EQ(a.post_drive_ms, 0.0);
  EXPECT_DOUBLE_EQ(a.unattributed_ms, 0.0);
  ASSERT_EQ(a.workers.size(), 3u);
  EXPECT_EQ(a.workers[2].lifetime_ns(), 0);
}
