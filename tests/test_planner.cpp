// Dispatch planning in modeled time: the one-fabric pin against the
// worker-thread scheduler the planner replaced, the replay oracle,
// determinism of multi-fabric runs, and the shared stage-cost function
// against the encoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/report.hpp"
#include "dct/impl.hpp"
#include "me/systolic.hpp"
#include "plan_workloads.hpp"
#include "runtime/sim_schedule.hpp"
#include "runtime/telemetry/trace.hpp"
#include "video/synthetic.hpp"

namespace dsra::runtime {
namespace {

using plan_workloads::library;
using plan_workloads::one_fabric_config;
using plan_workloads::pin_workload;

std::string timeline_digest(const std::vector<StageEvent>& timeline) {
  std::string text;
  for (const StageEvent& e : timeline) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%llu,%d,%d,%d,%d,%d,%llu;",
                  static_cast<unsigned long long>(e.tick), e.start ? 1 : 0, e.stream_id,
                  e.frame_index, e.fabric_id, static_cast<int>(e.stage),
                  static_cast<unsigned long long>(e.reconfig_cycles));
    text += buf;
  }
  return fnv1a_hex(text);
}

std::string latency_digest(const std::vector<StreamJob>& jobs) {
  std::string text;
  for (const StreamJob& s : jobs) {
    for (const FrameRecord& r : s.records)
      text += std::to_string(r.frame_index) + ":" + std::to_string(r.latency_cycles) + ",";
    text += "|";
  }
  return fnv1a_hex(text);
}

/// The cycle fields of every span: the modeled schedule a traced run's
/// spans are built from.
std::string span_digest(const std::vector<telemetry::Span>& spans) {
  std::string text;
  for (const telemetry::Span& sp : spans) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%d,%d,%d,%d,%d,%d,%llu,%llu;", static_cast<int>(sp.kind),
                  sp.track_id, sp.stream_id, sp.frame_index, sp.fabric_id,
                  static_cast<int>(sp.stage), static_cast<unsigned long long>(sp.cycle_start),
                  static_cast<unsigned long long>(sp.cycle_end));
    text += buf;
  }
  return fnv1a_hex(text);
}

struct PinCase {
  DispatchMode mode;
  SchedulingPolicy policy;
  const char* timeline;
  std::uint64_t makespan;
  int switches;
  std::uint64_t partial_reloads;
  const char* latencies;
};

// Recorded from the worker-thread scheduler this planner replaced (one
// fabric: its single worker saw every completion in order, so its
// dispatch sequence was already host-independent).
const PinCase kPinCases[] = {
    {DispatchMode::kMonolithicFrames, SchedulingPolicy::kAffinityBatched, "2f583bc417d94d91",
     313803, 12, 11, "630203acea0927a4"},
    {DispatchMode::kMonolithicFrames, SchedulingPolicy::kRoundRobin, "cbaf0c16c43da6af",
     339062, 28, 27, "dc4e0e63512e468b"},
    {DispatchMode::kStagePipeline, SchedulingPolicy::kAffinityBatched, "7ddc5cae2a24d1f9",
     356995, 38, 18, "8403e7a47c8b4dab"},
    {DispatchMode::kStagePipeline, SchedulingPolicy::kRoundRobin, "f555a23a122dba8f",
     411209, 76, 41, "f5b8a79cc73c518d"},
};

TEST(PlanPin, OneFabricReproducesTheWorkerThreadSchedule) {
  for (const PinCase& c : kPinCases) {
    const SchedulerConfig cfg = one_fabric_config(c.mode, c.policy);
    std::vector<StreamJob> jobs = pin_workload();
    const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
    const std::string label = report.mode + "/" + report.policy;
    EXPECT_EQ(timeline_digest(report.timeline), c.timeline) << label;
    EXPECT_EQ(report.sim_makespan_cycles, c.makespan) << label;
    EXPECT_EQ(report.total_switches, c.switches) << label;
    EXPECT_EQ(report.partial_reloads, c.partial_reloads) << label;
    EXPECT_EQ(latency_digest(jobs), c.latencies) << label;
  }
}

TEST(PlanOracle, OneFabricReplayOfTheTimelineEqualsThePlan) {
  // On one fabric every job's dependencies ran earlier on the same
  // fabric, so replaying the timeline with the encoder's own cycle counts
  // must rebuild the plan job for job: spans, makespan, utilization and
  // every frame's modeled latency.
  for (const PinCase& c : kPinCases) {
    telemetry::TraceRecorder recorder;
    SchedulerConfig cfg = one_fabric_config(c.mode, c.policy);
    cfg.trace = &recorder;
    std::vector<StreamJob> jobs = pin_workload();
    const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
    const std::string label = report.mode + "/" + report.policy;

    const SimSchedule replay =
        simulate_timeline(jobs, report.timeline, cfg.queue.pipeline_lookahead);
    EXPECT_EQ(replay.makespan_cycles, report.sim_makespan_cycles) << label;
    EXPECT_EQ(replay.mean_utilization, report.sim_utilization) << label;
    EXPECT_EQ(replay.contention_cycles, report.port_contention_cycles) << label;
    ASSERT_EQ(replay.fabric_busy_cycles.size(), report.partitions.size()) << label;
    EXPECT_EQ(replay.fabric_busy_cycles[0], report.partitions[0].busy_cycles) << label;
    EXPECT_EQ(span_digest(telemetry::build_spans(recorder.merged(), replay)),
              span_digest(report.spans))
        << label;
    // The pairing is by index: rows out of plan order, or missing, are
    // refused.
    std::vector<telemetry::JobTrace> rows = recorder.merged();
    std::swap(rows.front(), rows.back());
    EXPECT_THROW((void)telemetry::build_spans(rows, replay), std::invalid_argument) << label;
    rows.pop_back();
    EXPECT_THROW((void)telemetry::build_spans(rows, replay), std::invalid_argument) << label;
    for (const StreamJob& s : jobs) {
      for (const FrameRecord& r : s.records) {
        std::uint64_t ready = ~std::uint64_t{0}, end = 0;
        for (const SimStageJob& j : replay.jobs) {
          if (j.stream_id != s.id || j.frame_index != r.frame_index) continue;
          ready = std::min(ready, j.ready_cycles);
          end = std::max(end, j.end_cycles);
        }
        EXPECT_EQ(r.latency_cycles, end - ready) << label << " " << s.config.name;
      }
    }
  }
}

// ---- multi-fabric determinism -------------------------------------------

using plan_workloads::tenancy_admission_config;
using plan_workloads::tenancy_admission_workload;
using plan_workloads::two_geometry_library;

struct RunDigest {
  std::string timeline;
  std::string spans;
  std::string latencies;
  std::uint64_t makespan = 0;
  int switches = 0;
  std::uint64_t contention = 0;
  std::uint64_t admitted = 0;
  std::uint64_t degraded = 0;
};

RunDigest determinism_run() {
  telemetry::TraceRecorder recorder;
  SchedulerConfig cfg = tenancy_admission_config();
  cfg.trace = &recorder;
  std::vector<StreamJob> jobs = tenancy_admission_workload();
  const RunReport report = MultiStreamScheduler(two_geometry_library(), cfg).run(jobs);
  return {timeline_digest(report.timeline), span_digest(report.spans), latency_digest(jobs),
          report.sim_makespan_cycles,       report.total_switches,       report.port_contention_cycles,
          report.admission.admitted,
          report.admission.qp_bumps + report.admission.resolution_drops +
              report.admission.impl_swaps};
}

TEST(PlanDeterminism, MultiFabricRunsRepeatExactly) {
  // Dispatch is planned in modeled time on one thread; the lanes only
  // execute the plan. Every repeat — in this process and in every other
  // one, at any host load — plans the same schedule.
  // Recorded from this planner; a policy change moves them on purpose.
  RunDigest first;
  first.timeline = "35a28db048d297a3";
  first.spans = "1e890406edc62bb3";
  first.latencies = "6e52be414642203f";
  first.makespan = 128547;
  first.switches = 9;
  first.contention = 4004;  // the co-tenant slots did contend
  first.admitted = 13;      // and admission shed five streams,
  first.degraded = 4;       // degrading four of those it let in
  for (int repeat = 0; repeat < 4; ++repeat) {
    const RunDigest again = determinism_run();
    EXPECT_EQ(again.timeline, first.timeline);
    EXPECT_EQ(again.spans, first.spans);
    EXPECT_EQ(again.latencies, first.latencies);
    EXPECT_EQ(again.makespan, first.makespan);
    EXPECT_EQ(again.switches, first.switches);
    EXPECT_EQ(again.contention, first.contention);
    EXPECT_EQ(again.admitted, first.admitted);
    EXPECT_EQ(again.degraded, first.degraded);
  }
}

// ---- the shared cost model ----------------------------------------------

void expect_model_matches_encoder(const std::vector<video::Frame>& frames,
                                  const dct::DctImplementation& impl,
                                  const video::CodecConfig& codec,
                                  const me::SystolicParams& params, const std::string& label) {
  const video::ToyEncoder encoder(&impl, me::systolic_search_fn(params), codec);
  video::Frame recon;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const video::Frame* previous = f > 0 ? &frames[f - 1] : nullptr;
    const video::FrameStats stats = encoder.encode_frame(frames[f], previous, recon);
    const FrameCycles model = model_frame_cycles(impl, codec, params, frames[f].width(),
                                                 frames[f].height(), f == 0);
    EXPECT_EQ(stats.me_array_cycles, model.me) << label << " frame " << f;
    EXPECT_EQ(stats.dct_array_cycles, model.dct) << label << " frame " << f;
  }
}

TEST(PlanCost, ModelFrameCyclesMatchesTheEncoder) {
  // The planner costs every stage with model_frame_cycles and run()
  // refuses a frame whose encode charged anything else: check it against
  // the encoder for every implementation at both precisions, odd frame
  // sizes, every ME range 0-8 and two macroblock sizes.
  const int sizes[][2] = {{16, 16}, {37, 19}, {24, 40}, {9, 33}};
  const me::SystolicParams params;
  for (const dct::DaPrecision precision : {dct::DaPrecision::wide(), dct::DaPrecision::paper()}) {
    const auto impls = dct::all_implementations(precision);
    for (std::size_t i = 0; i < impls.size(); ++i) {
      for (std::size_t z = 0; z < std::size(sizes); ++z) {
        video::SyntheticConfig scfg;
        scfg.width = sizes[z][0];
        scfg.height = sizes[z][1];
        scfg.frames = 2;
        scfg.seed = 900 + i;
        const std::vector<video::Frame> frames = video::generate_sequence(scfg);
        for (int range = 0; range <= 8; ++range) {
          video::CodecConfig codec;
          codec.me_range = range;
          codec.me_block = range % 2 == 0 ? 16 : 8;  // the search array is me_block wide
          expect_model_matches_encoder(frames, *impls[i], codec, params,
                                       impls[i]->name() + " " + std::to_string(scfg.width) +
                                           "x" + std::to_string(scfg.height) + " range " +
                                           std::to_string(range) + " block " +
                                           std::to_string(codec.me_block));
        }
      }
    }
  }
}

TEST(PlanCost, ResolutionDroppedStreamIsCostedAtItsNewSize) {
  StreamConfig cfg;
  cfg.width = 72;
  cfg.height = 40;
  cfg.frame_budget = 3;
  cfg.codec.me_range = 5;
  StreamJob job = make_synthetic_job(0, cfg);
  ASSERT_TRUE(AdmissionController::apply_resolution_drop(job, 16));
  ASSERT_EQ(job.frames[0].width(), 40);
  ASSERT_EQ(job.frames[0].height(), 24);
  expect_model_matches_encoder(job.frames, *library().impl(job.impl_name), job.config.codec,
                               me::SystolicParams{}, "dropped " + job.impl_name);

  // And run() plans the dropped stream at the same cycles it encodes.
  std::vector<StreamJob> jobs{job};
  SchedulerConfig sched;
  sched.fabric_configs.assign(2, FabricConfig{});
  sched.queue.mode = DispatchMode::kStagePipeline;
  EXPECT_NO_THROW(MultiStreamScheduler(library(), sched).run(jobs));
  EXPECT_EQ(jobs[0].records.size(), 3u);
}

}  // namespace
}  // namespace dsra::runtime
