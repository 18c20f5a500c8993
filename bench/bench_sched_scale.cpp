// Scheduling-core scale sweep: flat per-frame host overhead from 10 to
// 10,000 streams.
//
// Phase A isolates the host-side cost of the dispatch policy — queue
// pick + bookkeeping, plus the simulated-time replay of the resulting
// timeline — by driving the queue with no-op fabrics that complete jobs
// without encoding. The sweep runs 10 -> 10,000 streams over four fabric
// ids served round-robin from one thread, the way the scheduler's
// planner drives the queue, and bars the per-frame overhead at 10k
// streams at <= 1.5x its 10-stream figure. The drive is timed in the
// thread's CPU time, which being descheduled does not inflate.
//
// Phase B holds the determinism bar on real encodes: two runs of the
// same workload on a four-fabric pool, in both dispatch modes and under
// admission control, must plan identical timelines and makespans and
// produce bit-identical output.
#include <algorithm>
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
/// this thread, every acquired job completed immediately.
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
  const auto now = [] { return bench_common::cpu_seconds(CLOCK_THREAD_CPUTIME_ID); };
  const double t0 = now();
  JobQueue queue(streams, qcfg);
  const double tc = now();
  drain_noop(queue, streams, qcfg.max_batch);
  const double t1 = now();
  const std::vector<StageEvent> timeline = queue.timeline();
  const SimSchedule sim = simulate_timeline(streams, timeline, qcfg.pipeline_lookahead);
  const double t2 = now();
  cost.ctor_seconds = tc - t0;
  cost.dispatch_seconds = t1 - tc;
  cost.sim_seconds = t2 - t1;
  cost.jobs = queue.dispatches();
  cost.steals = queue.steals();
  cost.batches = queue.dispatch_batches();
  if (sim.makespan_cycles == 0) std::printf("warning: empty sim replay\n");
  return cost;
}

}  // namespace

int main() {
  BenchJson json("sched_scale");
  // ---- phase A: overhead scale sweep ---------------------------------------
  // Min over every drive: each point times the same job count, so a fixed
  // drive count gives every point the same noise floor. Round r drives
  // every point before round r + 1 starts, so host drift falls on all of
  // them; within a round a point drives kBurst times back to back, since
  // the first drive after another point's runs cold.
  constexpr int kRounds = 5;
  constexpr int kBurst = 5;
  const JobQueueConfig queue_cfg;
  const int sweep[] = {10, 100, 1000, 10000};
  std::vector<std::vector<StreamJob>> workloads;
  for (const int n : sweep) workloads.push_back(synthetic_streams(n));
  std::vector<DriveCost> costs(std::size(sweep));
  for (int r = 0; r < kRounds; ++r)
    for (std::size_t k = 0; k < std::size(sweep); ++k)
      for (int b = 0; b < kBurst; ++b) {
        const DriveCost c = measure_once(workloads[k], queue_cfg);
        if ((r == 0 && b == 0) || c.per_frame_us() < costs[k].per_frame_us()) costs[k] = c;
      }
  workloads.clear();

  ReportTable table("Host dispatch+sim CPU time per frame (no-op fabrics, 4 fabrics)");
  table.set_header({"streams", "jobs", "us/frame", "ctor us", "dispatch us", "sim us",
                    "jobs/batch", "steals"});
  for (std::size_t k = 0; k < std::size(sweep); ++k) {
    const DriveCost& s = costs[k];
    const double amortize =
        s.batches > 0 ? static_cast<double>(s.jobs) / static_cast<double>(s.batches) : 0.0;
    const double jobs = static_cast<double>(s.jobs);
    table.add_row({format_i64(sweep[k]), format_i64(static_cast<std::int64_t>(s.jobs)),
                   format_double(s.per_frame_us(), 3),
                   format_double(1e6 * s.ctor_seconds / jobs, 3),
                   format_double(1e6 * s.dispatch_seconds / jobs, 3),
                   format_double(1e6 * s.sim_seconds / jobs, 3),
                   format_double(amortize, 2),
                   format_i64(static_cast<std::int64_t>(s.steals))});
  }
  table.print();

  const double base_us = costs.front().per_frame_us();
  const double top_us = costs.back().per_frame_us();
  const double flatness = base_us > 0.0 ? top_us / base_us : 0.0;
  std::printf("\nper-frame overhead 10 -> 10,000 streams: %.3f -> %.3f us, %.2fx "
              "(bar: <= 1.50x flat)\n", base_us, top_us, flatness);

  // ---- phase B: determinism on real encodes --------------------------------
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
  const auto run_encode = [&](DispatchMode mode, bool admission, std::vector<StreamJob>& jobs) {
    SchedulerConfig cfg;
    cfg.fabric_configs.assign(4, FabricConfig{});
    cfg.queue.mode = mode;
    cfg.admission.enabled = admission;
    jobs = encode_workload();
    return MultiStreamScheduler(library, cfg).run(jobs);
  };
  /// Runs of one workload whose timelines differ in any event, or whose
  /// makespans differ.
  const auto schedule_differs = [](const RunReport& a, const RunReport& b) {
    if (a.sim_makespan_cycles != b.sim_makespan_cycles) return true;
    if (a.timeline.size() != b.timeline.size()) return true;
    for (std::size_t e = 0; e < a.timeline.size(); ++e) {
      const StageEvent& x = a.timeline[e];
      const StageEvent& y = b.timeline[e];
      if (x.tick != y.tick || x.start != y.start || x.stream_id != y.stream_id ||
          x.frame_index != y.frame_index || x.fabric_id != y.fabric_id || x.stage != y.stage ||
          x.reconfig_cycles != y.reconfig_cycles)
        return true;
    }
    return false;
  };

  std::vector<StreamJob> mono_a, mono_b, pipe_a, pipe_b, adm_a, adm_b;
  const RunReport mono1 = run_encode(DispatchMode::kMonolithicFrames, false, mono_a);
  const RunReport mono2 = run_encode(DispatchMode::kMonolithicFrames, false, mono_b);
  const RunReport pipe1 = run_encode(DispatchMode::kStagePipeline, false, pipe_a);
  const RunReport pipe2 = run_encode(DispatchMode::kStagePipeline, false, pipe_b);
  const RunReport adm1 = run_encode(DispatchMode::kMonolithicFrames, true, adm_a);
  const RunReport adm2 = run_encode(DispatchMode::kMonolithicFrames, true, adm_b);

  const int mono_mismatch = bench_common::count_output_mismatches(mono_a, mono_b);
  const int pipe_mismatch = bench_common::count_output_mismatches(pipe_a, pipe_b);
  const int adm_mismatch = bench_common::count_output_mismatches(adm_a, adm_b);
  const int schedule_mismatch = static_cast<int>(schedule_differs(mono1, mono2)) +
                                static_cast<int>(schedule_differs(pipe1, pipe2)) +
                                static_cast<int>(schedule_differs(adm1, adm2));
  std::printf("\nreal encodes on 4 fabrics, run twice (both modes + admission): "
              "%d / %d / %d output mismatches, %d of 3 schedules differ (bars: 0)\n",
              mono_mismatch, pipe_mismatch, adm_mismatch, schedule_mismatch);

  bench_common::stamp_reproducibility(
      json, 7000, "total_jobs=20000;frame=16x16;sweep=stream_count;encode=4200;encode_runs=2");
  for (std::size_t k = 0; k < std::size(sweep); ++k)
    json.metric("us_per_frame_" + std::to_string(sweep[k]), costs[k].per_frame_us());
  json.metric("jobs_at_10000", static_cast<double>(costs.back().jobs));
  json.metric("jobs_per_batch_at_10000",
              costs.back().batches > 0 ? static_cast<double>(costs.back().jobs) /
                                             static_cast<double>(costs.back().batches)
                                       : 0.0);
  json.metric("drive_steals_at_10000", static_cast<double>(costs.back().steals));
  json.metric("encode_makespan_cycles", static_cast<double>(pipe1.sim_makespan_cycles));
  json.bar("overhead_flatness_10_to_10000", flatness, "<=", 1.5);
  json.bar("mono_output_mismatches", static_cast<double>(mono_mismatch), "<=", 0.0);
  json.bar("pipe_output_mismatches", static_cast<double>(pipe_mismatch), "<=", 0.0);
  json.bar("admission_output_mismatches", static_cast<double>(adm_mismatch), "<=", 0.0);
  json.bar("schedule_mismatches", static_cast<double>(schedule_mismatch), "<=", 0.0);
  return bench_common::finish(json);
}
