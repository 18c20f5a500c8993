// Scheduling-core scale sweep: flat per-frame host overhead from 10 to
// 10,000 streams.
//
// Phase A isolates the host-side cost of scheduling — dispatch (queue
// pick + bookkeeping) plus the post-run simulated-time replay — by
// driving the queue with no-op workers that complete jobs without
// encoding: what remains is exactly the per-frame overhead the scheduler
// adds around the real work. The sweep runs 10 -> 10,000 streams over
// four fabric ids served round-robin from one thread (the deterministic
// single-core drive; the threaded steal paths are TSan-covered by
// test_sharded_sched) and bars the 4-way queue's per-frame overhead at
// 10k streams at <= 1.5x its 10-stream figure. The default one-way queue
// (one sub-shard per context, max_batch 8) is measured alongside.
//
// Phase B holds the sub-shard count's safety bar on real encodes: one-way
// vs 16-way runs over the identical workload must produce bit-identical
// output in both dispatch modes and under admission control, and the
// 16-way run must actually exercise work-stealing.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"

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
void drain_noop(JobQueue& queue, std::vector<StreamJob>& streams, int max_batch) {
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

DriveCost measure_once(std::vector<StreamJob>& streams, const JobQueueConfig& qcfg) {
  // Rounds reuse one workload: rewind the dispatch cursor and drop the
  // no-op records (synthetic frame generation is setup, not overhead).
  for (StreamJob& s : streams) {
    s.next_frame = 0;
    s.records.clear();
  }
  DriveCost cost;
  const auto t0 = std::chrono::steady_clock::now();
  JobQueue queue(streams, qcfg);
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
  cost.steals = queue.steals();
  cost.batches = queue.dispatch_batches();
  if (sim.makespan_cycles == 0) std::printf("warning: empty sim replay\n");
  return cost;
}

/// Min-of-rounds: every point times the same job count, so a fixed
/// round count gives every point the same noise floor.
DriveCost measure(std::vector<StreamJob>& streams, const JobQueueConfig& qcfg) {
  constexpr int kRounds = 5;
  DriveCost best;
  for (int r = 0; r < kRounds; ++r) {
    const DriveCost c = measure_once(streams, qcfg);
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
  const JobQueueConfig one_way_cfg;  // the default: one sub-shard per context

  const int sweep[] = {10, 100, 1000, 10000};
  std::vector<DriveCost> sharded_costs;
  std::vector<DriveCost> one_way_costs;
  for (const int n : sweep) {
    // Frame generation dominates the bench's wall time; both queue
    // configurations drive the same streams.
    std::vector<StreamJob> streams = synthetic_streams(n);
    sharded_costs.push_back(measure(streams, sharded_cfg));
    one_way_costs.push_back(measure(streams, one_way_cfg));
  }

  ReportTable table("Host dispatch+sim overhead per frame (no-op workers, 4 fabrics)");
  table.set_header({"streams", "jobs", "4-way us/frame", "ctor us", "dispatch us",
                    "sim us", "1-way us/frame", "jobs/batch", "steals"});
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
                   format_double(one_way_costs[k].per_frame_us(), 3),
                   format_double(amortize, 2),
                   format_i64(static_cast<std::int64_t>(s.steals))});
  }
  table.print();

  const double base_us = sharded_costs.front().per_frame_us();
  const double top_us = sharded_costs.back().per_frame_us();
  const double flatness = base_us > 0.0 ? top_us / base_us : 0.0;
  const double one_way_ratio_1k =
      one_way_costs[2].per_frame_us() > 0.0 && sharded_costs[2].per_frame_us() > 0.0
          ? one_way_costs[2].per_frame_us() / sharded_costs[2].per_frame_us()
          : 0.0;
  std::printf("\nper-frame overhead 10 -> 10,000 streams: %.3f -> %.3f us, %.2fx "
              "(bar: <= 1.50x flat)\n", base_us, top_us, flatness);
  std::printf("1-way queue at 10 streams: %.3f us/frame; at 1,000 streams %.2fx the 4-way cost\n",
              one_way_costs.front().per_frame_us(), one_way_ratio_1k);

  // ---- phase B: bit-exactness + stealing on real encodes -------------------
  constexpr int kEncodeWays = 16;
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
  const RunReport mono =
      run_encode(DispatchMode::kMonolithicFrames, kEncodeWays, false, mono_sharded);
  run_encode(DispatchMode::kStagePipeline, 1, false, pipe_single);
  run_encode(DispatchMode::kStagePipeline, kEncodeWays, false, pipe_sharded);
  run_encode(DispatchMode::kMonolithicFrames, 1, true, adm_single);
  run_encode(DispatchMode::kMonolithicFrames, kEncodeWays, true, adm_sharded);

  const int mono_mismatch = bench_common::count_output_mismatches(mono_single, mono_sharded);
  const int pipe_mismatch = bench_common::count_output_mismatches(pipe_single, pipe_sharded);
  const int adm_mismatch = bench_common::count_output_mismatches(adm_single, adm_sharded);
  std::printf("\nreal encodes, 1-way vs %d-way (%d shards; both modes + admission): "
              "%d / %d / %d output mismatches (bar: 0), %llu steals (bar: > 0)\n",
              kEncodeWays, mono.queue_shards, mono_mismatch, pipe_mismatch, adm_mismatch,
              static_cast<unsigned long long>(mono.queue_steals));

  bench_common::stamp_reproducibility(
      json, 7000, "total_jobs=20000;frame=16x16;sweep=stream_count;encode=4200;encode_ways=16");
  for (std::size_t k = 0; k < std::size(sweep); ++k) {
    const std::string suffix = std::to_string(sweep[k]);
    json.metric("ways4_us_per_frame_" + suffix, sharded_costs[k].per_frame_us());
    json.metric("ways1_us_per_frame_" + suffix, one_way_costs[k].per_frame_us());
  }
  json.metric("jobs_at_10000", static_cast<double>(sharded_costs.back().jobs));
  json.metric("jobs_per_batch_at_10000",
              sharded_costs.back().batches > 0
                  ? static_cast<double>(sharded_costs.back().jobs) /
                        static_cast<double>(sharded_costs.back().batches)
                  : 0.0);
  json.metric("ways1_over_ways4_at_1000", one_way_ratio_1k);
  json.metric("drive_steals_at_10000", static_cast<double>(sharded_costs.back().steals));
  json.metric("encode_queue_steals", static_cast<double>(mono.queue_steals));
  json.bar("overhead_flatness_10_to_10000", flatness, "<=", 1.5);
  json.bar("mono_output_mismatches", static_cast<double>(mono_mismatch), "<=", 0.0);
  json.bar("pipe_output_mismatches", static_cast<double>(pipe_mismatch), "<=", 0.0);
  json.bar("admission_output_mismatches", static_cast<double>(adm_mismatch), "<=", 0.0);
  json.bar("sharded_encode_steals", static_cast<double>(mono.queue_steals), ">", 0.0);
  return bench_common::finish(json);
}
