// Scheduling-core scale sweep: flat per-frame host overhead from 10 to
// 10,000 streams.
//
// Phase A isolates the host-side cost the sharded refactor targets —
// dispatch (queue pick + bookkeeping) plus the post-run simulated-time
// replay — by driving the queue with no-op workers that complete jobs
// without encoding: what remains is exactly the per-frame overhead the
// scheduler adds around the real work. The sweep runs 10 -> 10,000
// streams over four fabric ids served round-robin from one thread (the
// deterministic single-core drive; the threaded steal paths are TSan-
// covered by test_sharded_sched) and bars the per-frame overhead at 10k
// streams at <= 1.5x the 10-stream figure. The single lock-guarded
// JobQueue is measured alongside up to 1,000 streams — its whole-ready-
// list rescans grow the per-frame cost superlinearly, which is the
// regression the calendar-queue event core and sharded ready set remove.
//
// Phase B holds the refactor's safety bar on real encodes: single-queue
// vs sharded runs over the identical workload must produce bit-identical
// output in both dispatch modes and under admission control, and the
// sharded run must actually exercise work-stealing.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"
#include "runtime/sharded_queue.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

/// Every sweep point dispatches the same total job count, so per-run
/// fixed costs (queue construction, flat-index allocation) amortize
/// identically and the per-frame figure isolates what the tentpole
/// claims: overhead as a function of STREAM COUNT. 10 streams run 2,000
/// frames each; 10,000 streams run 2 each.
constexpr int kTotalJobs = 20000;
constexpr int kDriveFabrics = 4;  ///< fake fabric ids the no-op drive serves

std::vector<StreamJob> synthetic_streams(int count) {
  const int frames = std::max(2, kTotalJobs / count);
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0}, {0.5, 0.9}, {0.9, 0.3}, {0.1, 0.9}};
  std::vector<StreamJob> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 16;  // smallest sane frame: the workers never encode it
    cfg.height = 16;
    cfg.frame_budget = frames;
    cfg.condition = conditions[k % 4];
    cfg.seed = 7000 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
    // Record capacity is workload setup, not the dispatch overhead the
    // sweep times.
    jobs.back().records.reserve(static_cast<std::size_t>(frames));
  }
  return jobs;
}

/// Complete @p task with synthetic stats so the timeline replays: the
/// modeled durations are fixed per stage, the host never encodes.
void record_noop_frame(StreamJob& stream, const FrameTask& task, int fabric_id) {
  FrameRecord record;
  record.frame_index = task.frame_index;
  record.fabric_id = fabric_id;
  record.impl = stream.impl_for(task.frame_index);
  record.stats.dct_array_cycles = 3000;
  record.stats.me_array_cycles = task.frame_index > 0 ? 2000 : 0;
  stream.records.push_back(record);
}

struct DriveCost {
  double ctor_seconds = 0.0;      ///< queue construction + ready-set seeding
  double dispatch_seconds = 0.0;  ///< acquire/complete rounds until drained
  double sim_seconds = 0.0;       ///< timeline merge + simulated replay
  std::uint64_t jobs = 0;
  std::uint64_t steals = 0;
  std::uint64_t batches = 0;
  [[nodiscard]] double per_frame_us() const {
    return jobs > 0 ? 1e6 * (ctor_seconds + dispatch_seconds + sim_seconds) /
                          static_cast<double>(jobs)
                    : 0.0;
  }
};

/// One no-op drive of @p queue: four fabric ids served round-robin from
/// this thread, every acquired job completed immediately. Single-
/// threaded on purpose — the measurement is dispatch bookkeeping, not
/// thread-pool jitter, and one core serves the sweep deterministically.
template <typename Queue>
void drain_noop(Queue& queue, std::vector<StreamJob>& streams, int max_batch) {
  // Each fake fabric tracks the bitstream it "has active" so affinity
  // batching sees the switch costs it schedules around.
  std::vector<std::optional<std::string>> active(kDriveFabrics);
  std::vector<CompletedTask> done;
  bool any = true;
  while (any) {
    any = false;
    for (int f = 0; f < kDriveFabrics; ++f) {
      const std::vector<FrameTask> batch =
          queue.acquire_batch(f, active[static_cast<std::size_t>(f)], kCapAllKernels,
                              nullptr, max_batch);
      if (batch.empty()) continue;
      any = true;
      done.clear();
      for (const FrameTask& task : batch) {
        StreamJob& stream = streams[static_cast<std::size_t>(task.stream_id)];
        record_noop_frame(stream, task, f);
        done.push_back(CompletedTask{task, 0});
      }
      // A batch shares one affinity key; the fabric ends it on that config.
      active[static_cast<std::size_t>(f)] = queue.required_context(batch.back());
      queue.complete_batch(done, f);
    }
  }
}

template <typename Queue>
DriveCost measure_once(std::vector<StreamJob>& streams, const JobQueueConfig& qcfg) {
  // Rounds reuse one workload: rewind the dispatch cursor and drop the
  // no-op records (synthetic frame generation is setup, not overhead).
  for (StreamJob& s : streams) {
    s.next_frame = 0;
    s.records.clear();
  }
  DriveCost cost;
  const auto t0 = std::chrono::steady_clock::now();
  Queue queue(streams, qcfg);
  const auto tc = std::chrono::steady_clock::now();
  drain_noop(queue, streams, qcfg.max_batch);
  const auto t1 = std::chrono::steady_clock::now();
  const std::vector<StageEvent> timeline = queue.timeline();
  const SimSchedule sim = simulate_timeline(streams, timeline, qcfg.pipeline_lookahead);
  const auto t2 = std::chrono::steady_clock::now();
  cost.ctor_seconds = std::chrono::duration<double>(tc - t0).count();
  cost.dispatch_seconds = std::chrono::duration<double>(t1 - tc).count();
  cost.sim_seconds = std::chrono::duration<double>(t2 - t1).count();
  cost.jobs = queue.dispatches();
  if constexpr (std::is_same_v<Queue, ShardedJobQueue>) {
    cost.steals = queue.steals();
    cost.batches = queue.dispatch_batches();
  } else {
    cost.batches = cost.jobs;
  }
  if (sim.makespan_cycles == 0) std::printf("warning: empty sim replay\n");
  return cost;
}

/// Min-of-rounds: every point times the same job count, so a fixed
/// round count gives every point the same noise floor.
template <typename Queue>
DriveCost measure(int streams_n, const JobQueueConfig& qcfg) {
  constexpr int kRounds = 5;
  std::vector<StreamJob> streams = synthetic_streams(streams_n);
  DriveCost best;
  for (int r = 0; r < kRounds; ++r) {
    const DriveCost c = measure_once<Queue>(streams, qcfg);
    if (r == 0 || c.per_frame_us() < best.per_frame_us()) best = c;
  }
  return best;
}

}  // namespace

int main() {
  BenchJson json("sched_scale");
  // ---- phase A: overhead scale sweep ---------------------------------------
  JobQueueConfig sharded_cfg;
  sharded_cfg.shards = 4;
  // Deep batches are the point of batched dispatch: at fleet scale a
  // shard holds hundreds of jobs, so one lock round can serve 32 without
  // starving the sibling shards (a batch never exceeds half a shard).
  sharded_cfg.max_batch = 32;
  JobQueueConfig single_cfg;  // shards = 1: the legacy queue

  const int sweep[] = {10, 100, 1000, 10000};
  std::vector<DriveCost> sharded_costs;
  std::vector<DriveCost> single_costs;  // measured up to 1k: superlinear beyond
  for (const int n : sweep) {
    sharded_costs.push_back(measure<ShardedJobQueue>(n, sharded_cfg));
    if (n <= 1000) single_costs.push_back(measure<JobQueue>(n, single_cfg));
  }

  ReportTable table("Host dispatch+sim overhead per frame (no-op workers, 4 fabrics)");
  table.set_header({"streams", "jobs", "sharded us/frame", "ctor us", "dispatch us",
                    "sim us", "single us/frame", "jobs/batch", "steals"});
  for (std::size_t k = 0; k < std::size(sweep); ++k) {
    const DriveCost& s = sharded_costs[k];
    const double amortize =
        s.batches > 0 ? static_cast<double>(s.jobs) / static_cast<double>(s.batches) : 0.0;
    const double jobs = static_cast<double>(s.jobs);
    table.add_row({format_i64(sweep[k]), format_i64(static_cast<std::int64_t>(s.jobs)),
                   format_double(s.per_frame_us(), 3),
                   format_double(1e6 * s.ctor_seconds / jobs, 3),
                   format_double(1e6 * s.dispatch_seconds / jobs, 3),
                   format_double(1e6 * s.sim_seconds / jobs, 3),
                   k < single_costs.size() ? format_double(single_costs[k].per_frame_us(), 3)
                                           : "-",
                   format_double(amortize, 2),
                   format_i64(static_cast<std::int64_t>(s.steals))});
  }
  table.print();

  const double base_us = sharded_costs.front().per_frame_us();
  const double top_us = sharded_costs.back().per_frame_us();
  const double flatness = base_us > 0.0 ? top_us / base_us : 0.0;
  const double single_ratio_1k =
      single_costs.back().per_frame_us() > 0.0 && sharded_costs[2].per_frame_us() > 0.0
          ? single_costs.back().per_frame_us() / sharded_costs[2].per_frame_us()
          : 0.0;
  std::printf("\nper-frame overhead 10 -> 10,000 streams: %.3f -> %.3f us, %.2fx "
              "(bar: <= 1.50x flat)\n", base_us, top_us, flatness);
  std::printf("single queue at 1,000 streams: %.2fx the sharded per-frame cost\n",
              single_ratio_1k);

  // ---- phase B: bit-exactness + stealing on real encodes -------------------
  const KernelLibrary library;
  const auto encode_workload = [] {
    std::vector<StreamJob> jobs;
    const soc::RuntimeCondition conditions[] = {
        {1.0, 1.0}, {0.5, 0.9}, {0.9, 0.3}, {0.1, 0.9}};
    for (int k = 0; k < 8; ++k) {
      StreamConfig cfg;
      cfg.name = "enc" + std::to_string(k);
      cfg.width = 32;
      cfg.height = 32;
      cfg.frame_budget = 3;
      cfg.condition = conditions[k % 4];
      cfg.codec.me_range = 4;
      cfg.seed = 4200 + static_cast<std::uint64_t>(k);
      cfg.sla.deadline_cycles = 0;  // best-effort: admission admits clean
      jobs.push_back(make_synthetic_job(k, cfg));
    }
    return jobs;
  };
  const auto run_encode = [&](DispatchMode mode, int shards, bool admission,
                              std::vector<StreamJob>& jobs) {
    SchedulerConfig cfg;
    cfg.fabrics = 4;
    cfg.queue.mode = mode;
    cfg.queue.shards = shards;
    cfg.admission.enabled = admission;
    jobs = encode_workload();
    return MultiStreamScheduler(library, cfg).run(jobs);
  };

  std::vector<StreamJob> mono_single, mono_sharded, pipe_single, pipe_sharded,
      adm_single, adm_sharded;
  run_encode(DispatchMode::kMonolithicFrames, 1, false, mono_single);
  const RunReport mono = run_encode(DispatchMode::kMonolithicFrames, 4, false, mono_sharded);
  run_encode(DispatchMode::kStagePipeline, 1, false, pipe_single);
  run_encode(DispatchMode::kStagePipeline, 4, false, pipe_sharded);
  run_encode(DispatchMode::kMonolithicFrames, 1, true, adm_single);
  run_encode(DispatchMode::kMonolithicFrames, 4, true, adm_sharded);

  const int mono_mismatch = bench_common::count_output_mismatches(mono_single, mono_sharded);
  const int pipe_mismatch = bench_common::count_output_mismatches(pipe_single, pipe_sharded);
  const int adm_mismatch = bench_common::count_output_mismatches(adm_single, adm_sharded);
  std::printf("\nreal encodes, single-queue vs %d-shard (both modes + admission): "
              "%d / %d / %d output mismatches (bar: 0), %llu steals (bar: > 0)\n",
              mono.queue_shards, mono_mismatch, pipe_mismatch, adm_mismatch,
              static_cast<unsigned long long>(mono.queue_steals));

  bench_common::stamp_reproducibility(
      json, 7000, "total_jobs=20000;frame=16x16;sweep=stream_count;encode=4200");
  for (std::size_t k = 0; k < std::size(sweep); ++k) {
    const std::string suffix = std::to_string(sweep[k]);
    json.metric("sharded_us_per_frame_" + suffix, sharded_costs[k].per_frame_us());
    if (k < single_costs.size())
      json.metric("single_us_per_frame_" + suffix, single_costs[k].per_frame_us());
  }
  json.metric("jobs_at_10000", static_cast<double>(sharded_costs.back().jobs));
  json.metric("jobs_per_batch_at_10000",
              sharded_costs.back().batches > 0
                  ? static_cast<double>(sharded_costs.back().jobs) /
                        static_cast<double>(sharded_costs.back().batches)
                  : 0.0);
  json.metric("single_over_sharded_at_1000", single_ratio_1k);
  json.metric("drive_steals_at_10000", static_cast<double>(sharded_costs.back().steals));
  json.metric("encode_queue_steals", static_cast<double>(mono.queue_steals));
  json.bar("overhead_flatness_10_to_10000", flatness, "<=", 1.5);
  json.bar("mono_output_mismatches", static_cast<double>(mono_mismatch), "<=", 0.0);
  json.bar("pipe_output_mismatches", static_cast<double>(pipe_mismatch), "<=", 0.0);
  json.bar("admission_output_mismatches", static_cast<double>(adm_mismatch), "<=", 0.0);
  json.bar("sharded_encode_steals", static_cast<double>(mono.queue_steals), ">", 0.0);
  return bench_common::finish(json);
}
