// Stage-pipeline scheduling: dependency ordering on the dispatch
// timeline, kernel-capability routing on heterogeneous pools, observed
// cross-stream overlap, and bit-exact equivalence with the monolithic
// frame-job mode.
#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"

namespace dsra::runtime {
namespace {

// The compiled library (six DCT place-and-route runs plus the ME context)
// is expensive; share one instance across the tests.
const KernelLibrary& library() {
  static const KernelLibrary lib;
  return lib;
}

std::vector<StreamJob> mixed_workload(int streams, int frames, int size) {
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0},  // -> cordic1
      {0.5, 0.9},  // -> cordic2
      {0.9, 0.3},  // -> mixed_rom
      {0.1, 0.9},  // -> scc_full
  };
  std::vector<StreamJob> jobs;
  jobs.reserve(static_cast<std::size_t>(streams));
  for (int k = 0; k < streams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = size;
    cfg.height = size;
    cfg.frame_budget = frames;
    cfg.condition = conditions[k % 4];
    cfg.codec.me_range = 4;
    cfg.seed = 300 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

FabricConfig fabric_with(unsigned capabilities) {
  FabricConfig cfg;
  cfg.capabilities = capabilities;
  return cfg;
}

/// (start, end) dispatch ticks per (stream, frame, stage).
using IntervalMap = std::map<std::tuple<int, int, StageKind>, std::pair<std::uint64_t, std::uint64_t>>;

IntervalMap intervals_of(const std::vector<StageEvent>& timeline) {
  IntervalMap out;
  for (const StageEvent& e : timeline) {
    auto& slot = out[{e.stream_id, e.frame_index, e.stage}];
    (e.start ? slot.first : slot.second) = e.tick;
  }
  return out;
}

TEST(SchedulerPipeline, BitExactWithMonolithicMode) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});

  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  auto mono_jobs = mixed_workload(4, 4, 32);
  const RunReport mono = MultiStreamScheduler(library(), cfg).run(mono_jobs);

  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto pipe_jobs = mixed_workload(4, 4, 32);
  const RunReport pipe = MultiStreamScheduler(library(), cfg).run(pipe_jobs);

  EXPECT_EQ(mono.total_frames, 16u);
  EXPECT_EQ(pipe.total_frames, 16u);
  ASSERT_EQ(mono_jobs.size(), pipe_jobs.size());
  for (std::size_t s = 0; s < mono_jobs.size(); ++s) {
    const StreamJob& a = mono_jobs[s];
    const StreamJob& b = pipe_jobs[s];
    ASSERT_EQ(a.records.size(), b.records.size()) << s;
    for (std::size_t k = 0; k < a.records.size(); ++k) {
      const video::FrameStats& sa = a.records[k].stats;
      const video::FrameStats& sb = b.records[k].stats;
      EXPECT_EQ(a.records[k].frame_index, b.records[k].frame_index) << s << "/" << k;
      EXPECT_DOUBLE_EQ(sa.bits, sb.bits) << s << "/" << k;
      EXPECT_DOUBLE_EQ(sa.psnr_db, sb.psnr_db) << s << "/" << k;
      EXPECT_DOUBLE_EQ(sa.mean_abs_mv, sb.mean_abs_mv) << s << "/" << k;
      EXPECT_EQ(sa.blocks_coded, sb.blocks_coded) << s << "/" << k;
      EXPECT_EQ(sa.dct_array_cycles, sb.dct_array_cycles) << s << "/" << k;
      EXPECT_EQ(sa.me_array_cycles, sb.me_array_cycles) << s << "/" << k;
    }
    // The reconstructions the two modes leave behind are identical.
    EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << s;
  }
}

TEST(SchedulerPipeline, StageOrderRespectsDependencies) {
  // The dependency assertions hold for any fabric count.
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto jobs = mixed_workload(3, 5, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 15u);
  const IntervalMap iv = intervals_of(report.timeline);
  for (const StreamJob& s : jobs) {
    const int frames = static_cast<int>(s.frames.size());
    for (int k = 0; k < frames; ++k) {
      const auto tq = iv.at({s.id, k, StageKind::kTransformQuant});
      const auto rec = iv.at({s.id, k, StageKind::kReconstructEntropy});
      EXPECT_LT(tq.second, rec.first) << "frame " << k << ": reconstruct before DCT done";
      if (k > 0) {
        const auto me = iv.at({s.id, k, StageKind::kMotionEstimation});
        // A stream's frame k DCT must never start before its frame k ME
        // completed.
        EXPECT_LT(me.second, tq.first) << "frame " << k << ": DCT before ME done";
        // The DCT lane is serial: frame k's DCT waits for frame k-1's
        // reconstruction (it predicts from it).
        const auto prev_rec = iv.at({s.id, k - 1, StageKind::kReconstructEntropy});
        EXPECT_LT(prev_rec.second, tq.first) << "frame " << k;
      }
    }
  }
}

TEST(SchedulerPipeline, HeterogeneousPoolRoutesStagesByKernel) {
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with(kCapMotionEstimation), fabric_with(kCapDctTransform)};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto jobs = mixed_workload(4, 4, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 16u);
  for (const StreamJob& s : jobs) {
    for (const FrameRecord& r : s.records) {
      if (r.frame_index > 0) {
        EXPECT_EQ(r.me_fabric_id, 0) << "ME stage must run on the ME-capable fabric";
      }
      EXPECT_EQ(r.tq_fabric_id, 1) << "DCT stage must run on the DCT-capable fabric";
      EXPECT_EQ(r.fabric_id, 1) << "reconstruct must run on the DCT-capable fabric";
    }
  }
  // The ME fabric only ever loads the ME context; the DCT fabric never
  // does. Per-kernel charging keeps the two visible separately.
  EXPECT_GT(report.me_reconfig_cycles, 0u);
  EXPECT_GT(report.dct_reconfig_cycles, 0u);
  EXPECT_EQ(report.me_reconfig_cycles + report.dct_reconfig_cycles,
            report.total_reconfig_cycles);
}

TEST(SchedulerPipeline, CrossStreamOverlapObservedOnSimSchedule) {
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with(kCapMotionEstimation), fabric_with(kCapDctTransform)};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto jobs = mixed_workload(4, 6, 48);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  // With a dedicated ME fabric and a dedicated DCT fabric both saturated
  // by four streams, some ME job must run while another stream's DCT-lane
  // job does. The host may have a single core, so overlap is asserted on
  // the simulated-array schedule, which is deterministic in array cycles.
  const SimSchedule sim = simulate_timeline(jobs, report.timeline);
  int cross_overlaps = 0;
  for (const SimStageJob& a : sim.jobs) {
    if (a.stage != StageKind::kMotionEstimation) continue;
    for (const SimStageJob& b : sim.jobs) {
      if (b.stage == StageKind::kMotionEstimation) continue;
      if (a.stream_id == b.stream_id) continue;
      if (a.start_cycles < b.end_cycles && b.start_cycles < a.end_cycles) ++cross_overlaps;
    }
  }
  EXPECT_GT(cross_overlaps, 0) << "no ME/DCT overlap across streams was observed";

  // Two kernels in flight at once beat any serial schedule: the makespan
  // stays strictly below the sum of all job durations.
  std::uint64_t serial_cycles = 0;
  for (const SimStageJob& j : sim.jobs) serial_cycles += j.end_cycles - j.start_cycles;
  EXPECT_LT(sim.makespan_cycles, serial_cycles);
}

TEST(SchedulerPipeline, FrameLookaheadOverlapsWithinOneStream) {
  // A single stream on dedicated ME and DCT fabrics: frame k+1's ME job
  // is released together with frame k's DCT/quant (open-loop ME needs
  // only the original frames), so the two kernels overlap inside one
  // stream — the ROADMAP's frame-level pipelining item.
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with(kCapMotionEstimation), fabric_with(kCapDctTransform)};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto jobs = mixed_workload(1, 8, 48);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  const SimSchedule sim = simulate_timeline(jobs, report.timeline);
  int lookahead_overlaps = 0;
  for (const SimStageJob& a : sim.jobs) {
    if (a.stage != StageKind::kMotionEstimation) continue;
    for (const SimStageJob& b : sim.jobs) {
      if (b.stage == StageKind::kMotionEstimation) continue;
      if (a.frame_index != b.frame_index + 1) continue;
      if (a.start_cycles < b.end_cycles && b.start_cycles < a.end_cycles)
        ++lookahead_overlaps;
    }
  }
  EXPECT_GT(lookahead_overlaps, 0) << "frame k+1 ME never overlapped frame k DCT";

  // The lookahead window is still bounded: the queue may not even release
  // ME of frame k before the reconstruction of frame k-2 completed, which
  // the dispatch timeline shows directly.
  const IntervalMap iv = intervals_of(report.timeline);
  for (const auto& [ka, a] : iv) {
    if (std::get<2>(ka) != StageKind::kMotionEstimation) continue;
    const int k = std::get<1>(ka);
    if (k < 2) continue;
    const auto rec = iv.at({std::get<0>(ka), k - 2, StageKind::kReconstructEntropy});
    EXPECT_GT(a.first, rec.second) << "ME of frame " << k << " outran the lookahead window";
  }
}

TEST(SchedulerPipeline, PipelinedInterStreamsNeedAnMeFabric) {
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with(kCapDctTransform)};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto jobs = mixed_workload(1, 3, 32);
  MultiStreamScheduler scheduler(library(), cfg);
  EXPECT_THROW((void)scheduler.run(jobs), std::invalid_argument);

  // Intra-only streams have no ME stage, so a DCT-only pool suffices.
  auto intra_jobs = mixed_workload(2, 1, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(intra_jobs);
  EXPECT_EQ(report.total_frames, 2u);
}

TEST(SchedulerPipeline, ResumesPartiallyEncodedStreams) {
  // Streams may arrive with frames already encoded (an earlier run, or an
  // out-of-band intra refresh): the pipeline lanes must start at
  // next_frame instead of assuming fresh streams, and the resumed result
  // must match an uninterrupted run bit for bit.
  auto full_jobs = mixed_workload(2, 4, 32);
  auto resumed_jobs = mixed_workload(2, 4, 32);
  for (StreamJob& s : resumed_jobs) {
    const video::ToyEncoder enc(library().impl(s.impl_name), me::systolic_search_fn(),
                                s.config.codec);
    FrameRecord rec;
    rec.frame_index = 0;
    rec.stats = enc.encode_frame(s.frames[0], nullptr, s.recon_state);
    s.records.push_back(rec);
    s.next_frame = 1;
  }

  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  const RunReport full = MultiStreamScheduler(library(), cfg).run(full_jobs);
  const RunReport resumed = MultiStreamScheduler(library(), cfg).run(resumed_jobs);
  EXPECT_EQ(full.total_frames, 8u);
  EXPECT_EQ(resumed.total_frames, 8u);  // summaries count the seeded frame too

  for (std::size_t s = 0; s < full_jobs.size(); ++s) {
    ASSERT_EQ(resumed_jobs[s].records.size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(resumed_jobs[s].records[k].frame_index, static_cast<int>(k));
      EXPECT_DOUBLE_EQ(resumed_jobs[s].records[k].stats.bits,
                       full_jobs[s].records[k].stats.bits);
      EXPECT_DOUBLE_EQ(resumed_jobs[s].records[k].stats.psnr_db,
                       full_jobs[s].records[k].stats.psnr_db);
    }
    EXPECT_EQ(resumed_jobs[s].recon_state.data(), full_jobs[s].recon_state.data());
  }

  // Running again with everything finished is a no-op, not a hang.
  const RunReport idle = MultiStreamScheduler(library(), cfg).run(resumed_jobs);
  EXPECT_EQ(idle.dispatches, 0u);
}

TEST(SchedulerPipeline, MonolithicJobsOnlyUseDctCapableFabrics) {
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with(kCapMotionEstimation), fabric_with(kCapDctTransform)};
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  auto jobs = mixed_workload(3, 3, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 9u);
  for (const StreamJob& s : jobs)
    for (const FrameRecord& r : s.records)
      EXPECT_EQ(r.fabric_id, 1) << "monolithic jobs need the DCT kernel";
  // The ME silicon sat idle: that gap is exactly what the stage pipeline
  // reclaims (bench_pipeline_overlap measures it).
  EXPECT_EQ(report.me_reconfig_cycles, 0u);
}

TEST(SchedulerPipeline, QueueJobCountCoversEveryDispatch) {
  // The executor's plan array is sized from the queue's job count: every
  // frame still ahead, as one job or as its stage jobs. Stream 0 resumes
  // after an already-encoded frame 0.
  for (const DispatchMode mode :
       {DispatchMode::kMonolithicFrames, DispatchMode::kStagePipeline}) {
    auto jobs = mixed_workload(3, 4, 32);
    StreamJob& resumed = jobs[0];
    const video::ToyEncoder enc(library().impl(resumed.impl_name), me::systolic_search_fn(),
                                resumed.config.codec);
    FrameRecord rec;
    rec.stats = enc.encode_frame(resumed.frames[0], nullptr, resumed.recon_state);
    resumed.records.push_back(rec);
    resumed.next_frame = 1;

    SchedulerConfig cfg;
    cfg.fabric_configs.assign(2, FabricConfig{});
    cfg.queue.mode = mode;
    std::vector<StreamJob> probe = jobs;
    const std::size_t count = JobQueue(probe, cfg.queue).job_count();
    const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
    EXPECT_EQ(count, report.dispatches) << to_string(mode);
    EXPECT_EQ(count, mode == DispatchMode::kMonolithicFrames ? 11u : 3u * 11u - 2u)
        << to_string(mode);
  }
}

TEST(SchedulerPipeline, HostPhasesFitInsideTheWallTime) {
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with(kCapMotionEstimation), fabric_with(kCapDctTransform)};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto jobs = mixed_workload(3, 3, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_GT(report.plan_ns, 0u);
  EXPECT_GT(report.execute_tail_ns, 0u);
  EXPECT_LE(static_cast<double>(report.plan_ns + report.execute_tail_ns),
            report.wall_seconds * 1e9);
}

}  // namespace
}  // namespace dsra::runtime
