// Sharded scheduling core (one ready-set shard per context): repeated
// multi-fabric runs are identical — timeline, modeled makespan and
// encoded output — across both dispatch modes, both policies and under
// admission control, whatever the ignored JobQueueConfig.shards says;
// steal accounting; and dependency order of the dispatch timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"

namespace dsra::runtime {
namespace {

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
    cfg.seed = 900 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

/// Encoded output of stream @p a must be the bit-exact twin of @p b: the
/// same frames in the same order (no drop, no dup, no reorder) with
/// identical bits, PSNR, coded blocks and final reconstruction.
void expect_bit_exact(const StreamJob& a, const StreamJob& b) {
  ASSERT_EQ(a.records.size(), b.records.size()) << a.config.name;
  for (std::size_t k = 0; k < a.records.size(); ++k) {
    const video::FrameStats& sa = a.records[k].stats;
    const video::FrameStats& sb = b.records[k].stats;
    // Completion order within one stream is frame order in both queues —
    // a frame's successor only becomes ready once the frame is done.
    ASSERT_EQ(a.records[k].frame_index, static_cast<int>(k)) << a.config.name;
    ASSERT_EQ(b.records[k].frame_index, static_cast<int>(k)) << b.config.name;
    EXPECT_EQ(a.records[k].impl, b.records[k].impl) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.bits, sb.bits) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.psnr_db, sb.psnr_db) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.mean_abs_mv, sb.mean_abs_mv) << a.config.name << "/" << k;
    EXPECT_EQ(sa.blocks_coded, sb.blocks_coded) << a.config.name << "/" << k;
    EXPECT_EQ(sa.dct_array_cycles, sb.dct_array_cycles) << a.config.name << "/" << k;
    EXPECT_EQ(sa.me_array_cycles, sb.me_array_cycles) << a.config.name << "/" << k;
  }
  EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << a.config.name;
}

/// `single` runs with JobQueueConfig.shards = 1, `sharded` with @p shards
/// over the identical workload. The queue ignores the field and plans in
/// modeled time, so the two runs must be identical.
struct ShardCompare {
  std::vector<StreamJob> single_jobs;
  std::vector<StreamJob> sharded_jobs;
  RunReport single;
  RunReport sharded;
};

ShardCompare run_both(SchedulerConfig cfg, int shards, int streams, int frames) {
  ShardCompare out;
  cfg.queue.shards = 1;
  out.single_jobs = mixed_workload(streams, frames, 32);
  out.single = MultiStreamScheduler(library(), cfg).run(out.single_jobs);
  cfg.queue.shards = shards;
  out.sharded_jobs = mixed_workload(streams, frames, 32);
  out.sharded = MultiStreamScheduler(library(), cfg).run(out.sharded_jobs);
  // One ready-set shard per context.
  EXPECT_EQ(out.sharded.queue_shards, out.single.queue_shards);
  EXPECT_GT(out.sharded.queue_shards, 1);
  EXPECT_EQ(out.single.total_frames, out.sharded.total_frames);
  EXPECT_EQ(out.single.dispatches, out.sharded.dispatches);
  // Batching amortizes, never inflates, the acquires.
  EXPECT_LE(out.sharded.dispatch_batches, out.sharded.dispatches);
  EXPECT_GT(out.sharded.dispatch_batches, 0u);
  // The same dispatch sequence and modeled schedule, event for event.
  EXPECT_EQ(out.single.timeline.size(), out.sharded.timeline.size());
  for (std::size_t e = 0; e < std::min(out.single.timeline.size(), out.sharded.timeline.size());
       ++e) {
    const StageEvent& a = out.single.timeline[e];
    const StageEvent& b = out.sharded.timeline[e];
    EXPECT_EQ(std::tuple(a.tick, a.start, a.stream_id, a.frame_index, a.fabric_id, a.stage,
                         a.reconfig_cycles),
              std::tuple(b.tick, b.start, b.stream_id, b.frame_index, b.fabric_id, b.stage,
                         b.reconfig_cycles))
        << "event " << e;
  }
  EXPECT_EQ(out.single.sim_makespan_cycles, out.sharded.sim_makespan_cycles);
  EXPECT_EQ(out.single.total_switches, out.sharded.total_switches);
  for (std::size_t s = 0; s < out.single_jobs.size(); ++s)
    expect_bit_exact(out.single_jobs[s], out.sharded_jobs[s]);
  return out;
}

TEST(ShardedSched, BitExactMonolithicMode) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(3, FabricConfig{});
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  run_both(cfg, 4, /*streams=*/8, /*frames=*/3);
}

TEST(ShardedSched, BitExactStagePipeline) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(3, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  run_both(cfg, 4, /*streams=*/6, /*frames=*/4);
}

TEST(ShardedSched, BitExactRoundRobinPolicy) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.policy = SchedulingPolicy::kRoundRobin;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  run_both(cfg, 2, /*streams=*/6, /*frames=*/3);
}

TEST(ShardedSched, BitExactWithAdmissionEnabled) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  cfg.admission.enabled = true;
  // Admission (and its pilot) runs before the queue is built and decides
  // on modeled cycles only, so both runs must land identical rungs; the
  // admitted streams must then encode bit-exact output either way.
  const ShardCompare r = run_both(cfg, 4, /*streams=*/8, /*frames=*/3);
  EXPECT_EQ(r.single.admission.admitted, r.sharded.admission.admitted);
  EXPECT_EQ(r.single.admission.rejected, r.sharded.admission.rejected);
  for (std::size_t s = 0; s < r.single_jobs.size(); ++s)
    EXPECT_EQ(r.single_jobs[s].admission_rung, r.sharded_jobs[s].admission_rung) << s;
}

TEST(ShardedSched, BitExactWithAdmissionShedding) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.admission.enabled = true;
  cfg.queue.shards = 1;
  auto single = mixed_workload(4, 3, 32);
  single[2].config.sla.deadline_cycles = 1;  // no rung can satisfy this
  const RunReport a = MultiStreamScheduler(library(), cfg).run(single);
  cfg.queue.shards = 4;
  auto sharded = mixed_workload(4, 3, 32);
  sharded[2].config.sla.deadline_cycles = 1;
  const RunReport b = MultiStreamScheduler(library(), cfg).run(sharded);
  EXPECT_EQ(a.admission.rejected, 1u);
  EXPECT_EQ(b.admission.rejected, 1u);
  EXPECT_EQ(single[2].admission_rung, DegradationRung::kReject);
  EXPECT_EQ(sharded[2].admission_rung, DegradationRung::kReject);
  EXPECT_TRUE(sharded[2].records.empty());  // shed streams encode nothing
  for (std::size_t s = 0; s < single.size(); ++s)
    expect_bit_exact(single[s], sharded[s]);
}

TEST(ShardedSched, SwitchStealsAreCounted) {
  // A steal is a batch served from a context other than the fabric's
  // active one. Twelve streams on one context never make a warm fabric
  // leave it; the mixed workload on two fabrics must, and a cold
  // fabric's first batch never counts.
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 12; ++k) {
    StreamConfig sc;
    sc.name = "steal" + std::to_string(k);
    sc.width = 32;
    sc.height = 32;
    sc.frame_budget = 3;
    sc.condition = {1.0, 1.0};
    sc.codec.me_range = 4;
    sc.seed = 50 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, sc));
  }
  const RunReport one_context = MultiStreamScheduler(library(), cfg).run(jobs);
  EXPECT_EQ(one_context.total_frames, 36u);
  EXPECT_EQ(one_context.queue_steals, 0u);
  EXPECT_EQ(one_context.queue_shards, 1);
  for (const StreamJob& s : jobs) {
    ASSERT_EQ(s.records.size(), 3u) << s.config.name;
    for (std::size_t k = 0; k < s.records.size(); ++k)
      EXPECT_EQ(s.records[k].frame_index, static_cast<int>(k)) << s.config.name;
  }

  auto mixed = mixed_workload(8, 3, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(mixed);
  EXPECT_GT(report.queue_steals, 0u);
  // Every steal switched the fabric's bitstream; a cold fabric's first
  // load is a switch but not a steal.
  EXPECT_LE(report.queue_steals + 2, static_cast<std::uint64_t>(report.total_switches));
  EXPECT_EQ(report.queue_shards, 4);
}

TEST(ShardedSched, TimelineRespectsStageDependencies) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(3, FabricConfig{});
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.queue.shards = 4;
  auto jobs = mixed_workload(5, 4, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  // (start, end) dispatch ticks per (stream, frame, stage).
  std::map<std::tuple<int, int, StageKind>, std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const StageEvent& e : report.timeline) {
    auto& slot = iv[{e.stream_id, e.frame_index, e.stage}];
    (e.start ? slot.first : slot.second) = e.tick;
  }
  for (const StreamJob& s : jobs) {
    for (int k = 0; k < static_cast<int>(s.frames.size()); ++k) {
      const auto tq = iv.at({s.id, k, StageKind::kTransformQuant});
      const auto rec = iv.at({s.id, k, StageKind::kReconstructEntropy});
      EXPECT_LT(tq.second, rec.first) << "frame " << k << ": reconstruct before DCT done";
      if (k > 0) {
        const auto me = iv.at({s.id, k, StageKind::kMotionEstimation});
        EXPECT_LT(me.second, tq.first) << "frame " << k << ": DCT before ME done";
        const auto prev = iv.at({s.id, k - 1, StageKind::kReconstructEntropy});
        EXPECT_LT(prev.second, tq.first)
            << "frame " << k << ": DCT before frame " << k - 1 << " reconstructed";
      }
    }
  }
  // The merged sharded timeline must replay cleanly through the event
  // core's simulated schedule (dependency-consistent, positive makespan).
  const SimSchedule sim =
      simulate_timeline(jobs, report.timeline, cfg.queue.pipeline_lookahead);
  EXPECT_GT(sim.makespan_cycles, 0u);
  EXPECT_EQ(report.sim_makespan_cycles, sim.makespan_cycles);
}

TEST(ShardedSched, HeterogeneousCapabilitiesRouteCorrectly) {
  // One DCT-only fabric + one ME-only fabric in stage mode: the sharded
  // queue's capability/placement filters must route every stage to a
  // fabric that can run it, and the run must still drain completely.
  SchedulerConfig cfg;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.queue.shards = 2;
  FabricConfig dct_only;
  dct_only.capabilities = kCapDctTransform;
  FabricConfig me_only;
  me_only.capabilities = kCapMotionEstimation;
  cfg.fabric_configs = {dct_only, me_only};
  auto jobs = mixed_workload(4, 3, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
  EXPECT_EQ(report.total_frames, 12u);
  for (const StreamJob& s : jobs)
    for (const FrameRecord& r : s.records) {
      if (r.frame_index > 0) {
        EXPECT_EQ(r.me_fabric_id, 1) << s.config.name;
      }
      EXPECT_EQ(r.tq_fabric_id, 0) << s.config.name;
      EXPECT_EQ(r.fabric_id, 0) << s.config.name;
    }
}

}  // namespace
}  // namespace dsra::runtime
