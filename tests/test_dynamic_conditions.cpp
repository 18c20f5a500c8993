// Dynamic per-stream conditions: trajectory models, hysteresis
// implementation selection, mid-flight re-bucketing in the scheduler
// (bit-exactness across policies and dispatch modes), and the modeled
// reconfiguration charges on the sim timeline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"
#include "soc/trajectory.hpp"

namespace dsra::runtime {
namespace {

// The compiled library (six DCT place-and-route runs plus the ME context)
// is expensive; share one instance across the tests.
const KernelLibrary& library() {
  static const KernelLibrary lib;
  return lib;
}

StreamConfig dynamic_config(const std::string& name, soc::TrajectoryPtr trajectory,
                            soc::ConditionPolicy policy, int frames = 6, int size = 32) {
  StreamConfig cfg;
  cfg.name = name;
  cfg.width = size;
  cfg.height = size;
  cfg.frame_budget = frames;
  cfg.trajectory = std::move(trajectory);
  cfg.condition_policy = policy;
  cfg.hysteresis_band = 0.06;
  cfg.codec.me_range = 4;
  cfg.seed = 1234;
  return cfg;
}

/// A draining/fading mixed workload whose impls change mid-flight.
std::vector<StreamJob> dynamic_workload(soc::ConditionPolicy policy, int frames = 5) {
  const soc::TrajectoryPtr trajectories[] = {
      soc::linear_battery_drain(0.95, 0.15, 0.9),             // cordic1 -> ... -> scc_full
      soc::sinusoidal_channel_fade(0.9, 0.5, 0.2, 4.0),       // cordic1 <-> mixed_rom
      soc::stepped_channel_fade(0.9, {0.9, 0.3, 0.9}, 2),     // tunnel
      soc::jittered_trajectory(soc::constant_trajectory({0.6, 0.9}), 11, 0.05),
  };
  std::vector<StreamJob> jobs;
  int id = 0;
  for (const auto& t : trajectories) {
    StreamConfig cfg = dynamic_config("dyn" + std::to_string(id), t, policy, frames);
    cfg.seed = 400 + static_cast<std::uint64_t>(id) * 7;
    jobs.push_back(make_synthetic_job(id, cfg));
    ++id;
  }
  return jobs;
}

TEST(Trajectory, ModelsAreDeterministicAndShaped) {
  const auto drain = soc::linear_battery_drain(1.0, 0.1, 0.8);
  EXPECT_DOUBLE_EQ(drain->at(0).battery_level, 1.0);
  EXPECT_DOUBLE_EQ(drain->at(5).battery_level, 0.5);
  EXPECT_DOUBLE_EQ(drain->at(100).battery_level, 0.0);  // floored, not negative
  EXPECT_DOUBLE_EQ(drain->at(3).channel_quality, 0.8);

  const auto fade = soc::sinusoidal_channel_fade(0.9, 0.5, 0.2, 8.0);
  EXPECT_NEAR(fade->at(0).channel_quality, 0.5, 1e-12);
  EXPECT_NEAR(fade->at(2).channel_quality, 0.7, 1e-12);   // quarter period: peak
  EXPECT_NEAR(fade->at(6).channel_quality, 0.3, 1e-12);   // three quarters: trough
  EXPECT_DOUBLE_EQ(fade->at(4).battery_level, 0.9);

  const auto steps = soc::stepped_channel_fade(0.8, {0.9, 0.4, 0.7}, 3);
  EXPECT_DOUBLE_EQ(steps->at(0).channel_quality, 0.9);
  EXPECT_DOUBLE_EQ(steps->at(3).channel_quality, 0.4);
  EXPECT_DOUBLE_EQ(steps->at(8).channel_quality, 0.7);
  EXPECT_DOUBLE_EQ(steps->at(50).channel_quality, 0.7);  // holds the last level

  const auto combo = soc::compose_trajectories(drain, fade);
  EXPECT_DOUBLE_EQ(combo->at(5).battery_level, 0.5);
  EXPECT_NEAR(combo->at(2).channel_quality, 0.7, 1e-12);

  // Jitter is seeded and random-access reproducible: the same frame asked
  // twice (or out of order) gives the same sample; a different seed
  // gives a different series.
  const auto jit_a = soc::jittered_trajectory(soc::constant_trajectory({0.5, 0.5}), 42, 0.1);
  const auto jit_b = soc::jittered_trajectory(soc::constant_trajectory({0.5, 0.5}), 43, 0.1);
  const double sample = jit_a->at(7).battery_level;
  (void)jit_a->at(3);
  EXPECT_DOUBLE_EQ(jit_a->at(7).battery_level, sample);
  EXPECT_NE(jit_a->at(7).battery_level, jit_b->at(7).battery_level);
  for (int f = 0; f < 32; ++f) {
    EXPECT_LE(std::abs(jit_a->at(f).battery_level - 0.5), 0.1) << f;
    EXPECT_LE(std::abs(jit_a->at(f).channel_quality - 0.5), 0.1) << f;
  }
}

TEST(Trajectory, HysteresisSelectionHoldsUntilTheBandClears) {
  // Leaving cordic1 for cordic2 requires undershooting 0.6 by the band;
  // returning requires overshooting it by the band.
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.58, 1.0}, "cordic1", 0.05),
            "cordic1");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.54, 1.0}, "cordic1", 0.05),
            "cordic2");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.62, 1.0}, "cordic2", 0.05),
            "cordic2");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.66, 1.0}, "cordic2", 0.05),
            "cordic1");
  // Same around the low-battery boundary...
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.27, 1.0}, "scc_full", 0.05),
            "scc_full");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.31, 1.0}, "scc_full", 0.05),
            "cordic2");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.27, 1.0}, "cordic2", 0.05),
            "cordic2");
  // ...and the noisy-channel boundary.
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.9, 0.52}, "mixed_rom", 0.05),
            "mixed_rom");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.9, 0.56}, "mixed_rom", 0.05),
            "cordic1");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.9, 0.48}, "cordic1", 0.05),
            "cordic1");

  // A boundary the current impl is not adjacent to stays nominal: coming
  // off scc_full with the battery recovering to a steady 0.58 must land
  // on cordic2 (what the nominal policy picks for battery < 0.6), not
  // skip past the biased 0.6 boundary and latch on cordic1.
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.58, 1.0}, "scc_full", 0.05),
            "cordic2");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.55, 0.9}, "mixed_rom", 0.05),
            "cordic2");

  // No current impl, or no band: the nominal policy.
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.58, 1.0}, "", 0.05), "cordic2");
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({0.58, 1.0}, "cordic1", 0.0),
            "cordic2");

  // Broken sensors clamp conservatively no matter what was active.
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({std::nan(""), 1.0}, "cordic1", 0.05),
            "scc_full");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(soc::select_dct_implementation_hysteresis({1.0, -inf}, "cordic1", 0.05),
            "mixed_rom");
}

TEST(Trajectory, ResolveImplSequencePoliciesDiffer) {
  // Battery drains straight through both boundaries.
  const auto drain = soc::linear_battery_drain(0.9, 0.1, 1.0);
  const auto frozen =
      soc::resolve_impl_sequence(*drain, 8, soc::ConditionPolicy::kFrozen, 0.05);
  ASSERT_EQ(frozen.size(), 8u);
  for (const std::string& impl : frozen) EXPECT_EQ(impl, "cordic1");

  const auto naive =
      soc::resolve_impl_sequence(*drain, 8, soc::ConditionPolicy::kPerFrame, 0.05);
  EXPECT_EQ(naive.front(), "cordic1");
  EXPECT_EQ(naive[4], "cordic2");   // battery 0.5
  EXPECT_EQ(naive.back(), "scc_full");  // battery 0.2

  // A sensor jittering on the 0.6 boundary: naive re-selection thrashes,
  // hysteresis with a band wider than the jitter never switches at all.
  const auto hover =
      soc::jittered_trajectory(soc::constant_trajectory({0.6, 0.9}), 21, 0.05);
  const auto hover_naive =
      soc::resolve_impl_sequence(*hover, 32, soc::ConditionPolicy::kPerFrame, 0.0);
  const auto hover_hyst =
      soc::resolve_impl_sequence(*hover, 32, soc::ConditionPolicy::kHysteresis, 0.06);
  int naive_switches = 0, hyst_switches = 0;
  for (std::size_t f = 1; f < 32; ++f) {
    naive_switches += hover_naive[f] != hover_naive[f - 1];
    hyst_switches += hover_hyst[f] != hover_hyst[f - 1];
  }
  EXPECT_GT(naive_switches, 5);
  EXPECT_EQ(hyst_switches, 0);

  EXPECT_TRUE(soc::resolve_impl_sequence(*drain, 0, soc::ConditionPolicy::kPerFrame, 0.0)
                  .empty());
}

TEST(DynamicConditions, JobResolvesPerFrameImplsAtCreation) {
  const StreamConfig cfg = dynamic_config(
      "drain", soc::linear_battery_drain(0.9, 0.1, 1.0), soc::ConditionPolicy::kPerFrame, 8);
  const StreamJob job = make_synthetic_job(0, cfg);
  ASSERT_EQ(job.frame_impls.size(), 8u);
  ASSERT_EQ(job.frame_conditions.size(), 8u);
  EXPECT_EQ(job.impl_name, "cordic1");
  EXPECT_EQ(job.impl_for(0), "cordic1");
  EXPECT_EQ(job.impl_for(7), "scc_full");
  EXPECT_EQ(job.impl_for(100), "scc_full");  // clamped to the last frame
  EXPECT_GE(job.condition_switches, 2);
  EXPECT_DOUBLE_EQ(job.frame_conditions[4].battery_level, 0.5);

  // A static stream keeps the legacy behavior: no per-frame series, one
  // affinity key for its whole life.
  StreamConfig static_cfg;
  static_cfg.condition = {1.0, 1.0};
  static_cfg.frame_budget = 4;
  static_cfg.width = static_cfg.height = 32;
  const StreamJob static_job = make_synthetic_job(1, static_cfg);
  EXPECT_TRUE(static_job.frame_impls.empty());
  EXPECT_EQ(static_job.impl_for(3), static_job.impl_name);
}

TEST(DynamicConditions, RebucketingNeverDropsDuplicatesOrReordersFrames) {
  // The acceptance bit-exactness bar: the same dynamic workload served
  // under different scheduling policies and dispatch modes must encode
  // every frame exactly once, in order, with identical output — the
  // mid-flight context changes may only affect *when* work runs.
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});

  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  auto affinity_jobs = dynamic_workload(soc::ConditionPolicy::kHysteresis);
  const RunReport affinity = MultiStreamScheduler(library(), cfg).run(affinity_jobs);

  cfg.queue.policy = SchedulingPolicy::kRoundRobin;
  auto rr_jobs = dynamic_workload(soc::ConditionPolicy::kHysteresis);
  const RunReport rr = MultiStreamScheduler(library(), cfg).run(rr_jobs);

  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  auto pipe_jobs = dynamic_workload(soc::ConditionPolicy::kHysteresis);
  const RunReport pipe = MultiStreamScheduler(library(), cfg).run(pipe_jobs);

  EXPECT_EQ(affinity.total_frames, 20u);
  EXPECT_EQ(rr.total_frames, 20u);
  EXPECT_EQ(pipe.total_frames, 20u);
  EXPECT_GT(affinity.condition_switches, 0u);

  for (std::size_t s = 0; s < affinity_jobs.size(); ++s) {
    const StreamJob& a = affinity_jobs[s];
    ASSERT_EQ(a.records.size(), a.frames.size()) << a.config.name;
    for (std::size_t k = 0; k < a.records.size(); ++k) {
      EXPECT_EQ(a.records[k].frame_index, static_cast<int>(k))
          << a.config.name << ": lost, duplicated or reordered frame";
      // Every frame ran under exactly the context its trajectory resolved.
      EXPECT_EQ(a.records[k].impl, a.frame_impls[k]) << a.config.name << "/" << k;
    }
    for (const std::vector<StreamJob>* other : {&rr_jobs, &pipe_jobs}) {
      const StreamJob& b = (*other)[s];
      ASSERT_EQ(b.records.size(), a.records.size());
      for (std::size_t k = 0; k < a.records.size(); ++k) {
        EXPECT_EQ(b.records[k].frame_index, a.records[k].frame_index);
        EXPECT_EQ(b.records[k].impl, a.records[k].impl);
        EXPECT_DOUBLE_EQ(b.records[k].stats.bits, a.records[k].stats.bits);
        EXPECT_DOUBLE_EQ(b.records[k].stats.psnr_db, a.records[k].stats.psnr_db);
      }
      EXPECT_EQ(b.recon_state.data(), a.recon_state.data()) << a.config.name;
    }
  }
}

TEST(DynamicConditions, MidFlightSwitchChargesTheConfigurationPort) {
  // One stream, one fabric: the battery walks 0.8, 0.6, 0.4, 0.2 so the
  // fabric must switch context twice mid-stream — visible in the
  // per-frame records and charged into the modeled makespan.
  StreamConfig cfg = dynamic_config("drain", soc::linear_battery_drain(0.8, 0.2, 1.0),
                                    soc::ConditionPolicy::kPerFrame, 4);
  std::vector<StreamJob> jobs;
  jobs.push_back(make_synthetic_job(0, cfg));
  ASSERT_EQ(jobs[0].condition_switches, 2);  // cordic1 -> cordic2 -> scc_full

  SchedulerConfig scfg;
  scfg.fabric_configs.assign(1, FabricConfig{});
  const RunReport report = MultiStreamScheduler(library(), scfg).run(jobs);

  ASSERT_EQ(jobs[0].records.size(), 4u);
  EXPECT_EQ(jobs[0].records[0].impl, "cordic1");
  EXPECT_EQ(jobs[0].records[1].impl, "cordic1");
  EXPECT_EQ(jobs[0].records[2].impl, "cordic2");
  EXPECT_EQ(jobs[0].records[3].impl, "scc_full");
  EXPECT_GT(jobs[0].records[0].reconfig_cycles, 0u);  // initial load
  EXPECT_EQ(jobs[0].records[1].reconfig_cycles, 0u);  // same context: free
  EXPECT_GT(jobs[0].records[2].reconfig_cycles, 0u);  // mid-flight re-bucket
  EXPECT_GT(jobs[0].records[3].reconfig_cycles, 0u);
  EXPECT_EQ(report.condition_switches, 2u);
  EXPECT_EQ(report.total_switches, 3);

  // On a single fabric the sim schedule is strictly serial, so the
  // modeled makespan decomposes exactly into array cycles plus every
  // reconfiguration charge the run recorded: switching contexts
  // mid-stream costs modeled time, not just a counter.
  const SimSchedule sim = simulate_timeline(jobs, report.timeline);
  std::uint64_t array_cycles = 0, reconfig_cycles = 0;
  for (const FrameRecord& r : jobs[0].records)
    array_cycles += r.stats.me_array_cycles + 2 * r.stats.dct_array_cycles;
  for (const SimStageJob& j : sim.jobs) reconfig_cycles += j.reconfig_cycles;
  EXPECT_EQ(reconfig_cycles, report.total_reconfig_cycles + report.total_fetch_cycles);
  EXPECT_EQ(sim.makespan_cycles, array_cycles + reconfig_cycles);
}

TEST(DynamicConditions, HysteresisBeatsNaiveOnSwitchCount) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  auto naive_jobs = dynamic_workload(soc::ConditionPolicy::kPerFrame, 12);
  const RunReport naive = MultiStreamScheduler(library(), cfg).run(naive_jobs);
  auto hyst_jobs = dynamic_workload(soc::ConditionPolicy::kHysteresis, 12);
  const RunReport hyst = MultiStreamScheduler(library(), cfg).run(hyst_jobs);

  EXPECT_EQ(naive.total_frames, hyst.total_frames);
  EXPECT_LT(hyst.condition_switches, naive.condition_switches);
  // Frozen assignment goes stale as conditions drift.
  auto frozen_jobs = dynamic_workload(soc::ConditionPolicy::kFrozen, 12);
  const RunReport frozen = MultiStreamScheduler(library(), cfg).run(frozen_jobs);
  EXPECT_EQ(frozen.condition_switches, 0u);
  EXPECT_GT(frozen.stale_frames, 0u);
  EXPECT_EQ(naive.stale_frames, 0u);
}

TEST(DynamicConditions, SchedulerValidatesTheUnionOfTrajectoryContexts) {
  // A dynamic stream is validated against every context its trajectory
  // can select, not just the frame-0 choice: corrupt one mid-sequence
  // entry and the run must fail fast, before any work is dispatched.
  auto jobs = dynamic_workload(soc::ConditionPolicy::kPerFrame);
  ASSERT_GE(jobs[0].frame_impls.size(), 3u);
  jobs[0].frame_impls[2] = "not_an_impl";
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  MultiStreamScheduler scheduler(library(), cfg);
  try {
    (void)scheduler.run(jobs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("not_an_impl"), std::string::npos) << message;
    EXPECT_NE(message.find("frame 2"), std::string::npos) << message;
  }
  EXPECT_TRUE(jobs[0].records.empty()) << "validation must fail before dispatch";
}

TEST(DynamicConditions, QueueResolvesHandBuiltTrajectoryJobs) {
  // A job built by hand (trajectory set, per-frame impls never resolved)
  // must still be re-bucketed per frame: the queue resolves it instead of
  // silently falling back to the frozen impl_name.
  auto jobs = dynamic_workload(soc::ConditionPolicy::kPerFrame);
  StreamJob& job = jobs[0];
  const std::vector<std::string> expected = job.frame_impls;
  job.frame_impls.clear();
  job.frame_conditions.clear();
  job.condition_switches = 0;
  job.impl_name = "da_basic";  // wrong on purpose: resolution must override

  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
  EXPECT_EQ(report.total_frames, 20u);
  ASSERT_EQ(job.frame_impls, expected);
  for (std::size_t k = 0; k < job.records.size(); ++k)
    EXPECT_EQ(job.records[k].impl, expected[k]) << k;
}

}  // namespace
}  // namespace dsra::runtime
