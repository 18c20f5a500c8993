// Admission control and the graceful-degradation ladder.
//
// Two families of tests: unit tests of the controller itself (the
// analytic frame-cost model against what the encoder actually charges,
// the rung mutations, the feasibility walk), and property tests of the
// ladder's output contract — whatever rung a stream is admitted at, the
// encoded frame sequence must stay complete, ordered and deterministic.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "dct/dct2d.hpp"
#include "runtime/admission.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

namespace dsra::runtime {
namespace {

const KernelLibrary& library() {
  static const KernelLibrary lib;
  return lib;
}

StreamConfig small_stream(const std::string& name, std::uint64_t seed) {
  StreamConfig cfg;
  cfg.name = name;
  cfg.width = 64;
  cfg.height = 64;
  cfg.frame_budget = 4;
  cfg.condition = {1.0, 1.0};  // -> cordic1
  cfg.codec.me_range = 4;
  cfg.seed = seed;
  return cfg;
}

/// Sum of the controller's analytic whole-frame costs — with one fabric
/// and one stream the pilot schedule is exactly serial, so this is the
/// predicted completion time.
std::uint64_t total_cycles(const AdmissionController& ctl, const StreamJob& job) {
  std::uint64_t total = 0;
  for (int f = 0; f < static_cast<int>(job.frames.size()); ++f)
    total += ctl.frame_cycles(job, f);
  return total;
}

TEST(Admission, FrameCyclesMatchesWhatTheEncoderCharges) {
  // The feasibility test leans on the cost model being *exact*, not an
  // estimate: encode a stream for real and compare the analytic
  // prediction against the cycles the codec charged per frame.
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  std::vector<StreamJob> jobs{make_synthetic_job(0, small_stream("probe", 7))};
  (void)MultiStreamScheduler(library(), cfg).run(jobs);

  FabricPool pool(1, library());
  const AdmissionController ctl(library(), pool, cfg.me);
  ASSERT_EQ(jobs[0].records.size(), 4u);
  for (const FrameRecord& r : jobs[0].records) {
    const std::uint64_t charged =
        r.stats.me_array_cycles + 2 * r.stats.dct_array_cycles;
    EXPECT_EQ(ctl.frame_cycles(jobs[0], r.frame_index), charged)
        << "frame " << r.frame_index;
  }
}

TEST(Admission, ResolutionDropHalvesAxesAndRespectsFloor) {
  StreamJob job = make_synthetic_job(0, small_stream("drop", 8));
  EXPECT_TRUE(AdmissionController::apply_resolution_drop(job, 16));
  EXPECT_EQ(job.config.width, 32);
  EXPECT_EQ(job.config.height, 32);
  for (const video::Frame& f : job.frames) {
    EXPECT_EQ(f.width(), 32);
    EXPECT_EQ(f.height(), 32);
  }
  EXPECT_TRUE(AdmissionController::apply_resolution_drop(job, 16));
  EXPECT_EQ(job.config.width, 16);
  // At the floor the rung is a no-op — a rung that changes nothing must
  // say so, or the ladder would "retry" an identical pilot forever.
  EXPECT_FALSE(AdmissionController::apply_resolution_drop(job, 16));
  EXPECT_EQ(job.config.width, 16);
  EXPECT_EQ(job.config.height, 16);
}

TEST(Admission, QpBumpCoarsensQuantiserOnly) {
  StreamJob job = make_synthetic_job(0, small_stream("qp", 9));
  const double before = job.config.codec.quantiser_scale;
  EXPECT_TRUE(AdmissionController::apply_qp_bump(job, 2.0));
  EXPECT_DOUBLE_EQ(job.config.codec.quantiser_scale, before * 2.0);
  EXPECT_FALSE(AdmissionController::apply_qp_bump(job, 1.0));  // not a bump
  EXPECT_EQ(job.config.width, 64);  // bits change, geometry does not
}

TEST(Admission, ImplSwapPicksCheapestHostableContext) {
  FabricPool pool(1, library());
  const AdmissionController ctl(library(), pool, me::SystolicParams{});
  const std::string cheapest = ctl.cheapest_fitting_impl();
  ASSERT_FALSE(cheapest.empty());
  const dct::DctImplementation* best = library().impl(cheapest);
  ASSERT_NE(best, nullptr);
  for (const std::string& name : library().names()) {
    const dct::DctImplementation* impl = library().impl(name);
    ASSERT_NE(impl, nullptr);
    EXPECT_LE(dct::cycles_for_block(*best), dct::cycles_for_block(*impl)) << name;
  }

  // Find a condition whose policy-chosen context is not already the
  // cheapest, then swap: every frame lands on the cheapest context and
  // the forced transition is visible in the switch accounting.
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0}, {0.5, 0.9}, {0.9, 0.3}, {0.1, 0.9}};
  for (const soc::RuntimeCondition& c : conditions) {
    StreamConfig cfg = small_stream("swap", 10);
    cfg.condition = c;
    StreamJob job = make_synthetic_job(0, cfg);
    if (job.impl_name == cheapest) {
      EXPECT_FALSE(ctl.apply_impl_swap(job));  // already there: no-op
      continue;
    }
    const int switches_before = job.condition_switches;
    EXPECT_TRUE(ctl.apply_impl_swap(job));
    EXPECT_EQ(job.impl_name, cheapest);
    for (const std::string& impl : job.frame_impls) EXPECT_EQ(impl, cheapest);
    EXPECT_EQ(job.condition_switches, switches_before + 1);
    EXPECT_FALSE(ctl.apply_impl_swap(job));  // idempotent
  }
}

TEST(Admission, GenerousDeadlineAdmitsClean) {
  FabricPool pool(1, library());
  AdmissionController probe(library(), pool, me::SystolicParams{});
  StreamConfig cfg = small_stream("clean", 11);
  const std::uint64_t full = total_cycles(probe, make_synthetic_job(0, cfg));
  cfg.sla.deadline_cycles = full * 4;  // loose: headroom and pressure both clear

  AdmissionConfig acfg;
  acfg.enabled = true;
  AdmissionController ctl(library(), pool, me::SystolicParams{}, acfg);
  StreamJob job = make_synthetic_job(0, cfg);
  const AdmissionDecision d = ctl.admit(job);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.rung, DegradationRung::kNone);
  EXPECT_EQ(job.admission_rung, DegradationRung::kNone);
  EXPECT_EQ(job.predicted_completion_cycles, full);  // serial on one fabric
  EXPECT_LE(d.predicted_completion_cycles * 5 / 4, d.deadline_cycles);
}

TEST(Admission, TightDeadlineWalksToResolutionDrop) {
  FabricPool pool(1, library());
  AdmissionController probe(library(), pool, me::SystolicParams{});
  StreamConfig cfg = small_stream("tight", 12);
  const std::uint64_t full = total_cycles(probe, make_synthetic_job(0, cfg));
  StreamJob dropped_probe = make_synthetic_job(0, cfg);
  ASSERT_TRUE(AdmissionController::apply_resolution_drop(dropped_probe, 16));
  const std::uint64_t dropped = total_cycles(probe, dropped_probe);
  ASSERT_LT(dropped, full);
  // Between the half-resolution cost and the full cost (with headroom):
  // rung 0 fails, the QP bump alone cannot help (cycles unchanged), the
  // resolution rung fits.
  cfg.sla.deadline_cycles = full;
  ASSERT_LT(dropped * 5 / 4, cfg.sla.deadline_cycles);

  AdmissionConfig acfg;
  acfg.enabled = true;
  AdmissionController ctl(library(), pool, me::SystolicParams{}, acfg);
  StreamJob job = make_synthetic_job(0, cfg);
  const AdmissionDecision d = ctl.admit(job);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.rung, DegradationRung::kResolutionDrop);
  EXPECT_EQ(job.config.width, 32);   // the concession was committed
  EXPECT_EQ(job.config.height, 32);
  EXPECT_DOUBLE_EQ(job.config.codec.quantiser_scale, 16.0);  // carries the bump
  EXPECT_EQ(job.predicted_completion_cycles, dropped);
}

TEST(Admission, PressureTriggersQpBumpForFeasibleNewcomer) {
  FabricPool pool(1, library());
  AdmissionController probe(library(), pool, me::SystolicParams{});
  StreamConfig cfg = small_stream("hot", 13);
  const std::uint64_t full = total_cycles(probe, make_synthetic_job(0, cfg));
  // Feasible as requested (full * 1.25 <= deadline) but hot: demand over
  // the deadline horizon is full / (full * 1.3) ~= 0.77 >= 0.70.
  cfg.sla.deadline_cycles = full * 13 / 10;

  AdmissionConfig acfg;
  acfg.enabled = true;
  AdmissionController ctl(library(), pool, me::SystolicParams{}, acfg);
  StreamJob job = make_synthetic_job(0, cfg);
  const AdmissionDecision d = ctl.admit(job);
  EXPECT_TRUE(d.admitted);
  EXPECT_EQ(d.rung, DegradationRung::kQpBump);
  EXPECT_DOUBLE_EQ(job.config.codec.quantiser_scale, 16.0);
  EXPECT_EQ(job.config.width, 64);  // pressure costs quality, not geometry
}

TEST(Admission, ImpossibleDeadlineRejectsAndStreamEncodesNothing) {
  StreamConfig cfg = small_stream("doomed", 14);
  cfg.sla.deadline_cycles = 1;  // no rung can make 4 frames fit one cycle

  SchedulerConfig cfg_run;
  cfg_run.fabric_configs.assign(1, FabricConfig{});
  cfg_run.admission.enabled = true;
  std::vector<StreamJob> jobs{make_synthetic_job(0, cfg)};
  jobs.push_back(make_synthetic_job(1, small_stream("fine", 15)));
  const RunReport report = MultiStreamScheduler(library(), cfg_run).run(jobs);

  EXPECT_EQ(jobs[0].admission_rung, DegradationRung::kReject);
  EXPECT_TRUE(jobs[0].records.empty());  // shed: dispatched nothing
  EXPECT_TRUE(jobs[0].finished());       // and never will be
  EXPECT_EQ(jobs[0].config.width, 64);   // rejection keeps the original config
  EXPECT_DOUBLE_EQ(jobs[0].config.codec.quantiser_scale, 8.0);
  EXPECT_EQ(jobs[1].records.size(), 4u);  // the best-effort stream still runs

  EXPECT_EQ(report.admission.arrived, 2u);
  EXPECT_EQ(report.admission.rejected, 1u);
  EXPECT_EQ(report.admission.admitted, 1u);
  EXPECT_EQ(report.total_frames, 4u);
  EXPECT_FALSE(report.streams[0].sla_met);  // shed streams never meet an SLA
  EXPECT_EQ(report.streams[0].admission_rung, DegradationRung::kReject);
}

/// Same geometry and pixels, frame for frame.
void expect_same_frames(const StreamJob& actual, const StreamJob& expected) {
  ASSERT_EQ(actual.frames.size(), expected.frames.size());
  for (std::size_t i = 0; i < actual.frames.size(); ++i) {
    EXPECT_EQ(actual.frames[i].width(), expected.frames[i].width()) << "frame " << i;
    EXPECT_EQ(actual.frames[i].height(), expected.frames[i].height()) << "frame " << i;
    EXPECT_EQ(actual.frames[i].data(), expected.frames[i].data()) << "frame " << i;
  }
}

TEST(Admission, CommittedResolutionDropDownscalesLikeTheRung) {
  // The ladder tries rungs on the stream's shape and downscales the
  // frames once, at commit: the result must be exactly what the public
  // rung makes of the input.
  FabricPool pool(1, library());
  AdmissionController probe(library(), pool, me::SystolicParams{});
  StreamConfig cfg = small_stream("lazy", 12);
  cfg.sla.deadline_cycles = total_cycles(probe, make_synthetic_job(0, cfg));

  AdmissionConfig acfg;
  acfg.enabled = true;
  AdmissionController ctl(library(), pool, me::SystolicParams{}, acfg);
  StreamJob job = make_synthetic_job(0, cfg);
  StreamJob expected = job;
  ASSERT_TRUE(AdmissionController::apply_resolution_drop(expected, acfg.min_dimension));
  ASSERT_EQ(ctl.admit(job).rung, DegradationRung::kResolutionDrop);
  expect_same_frames(job, expected);
}

TEST(Admission, RejectedStreamKeepsItsInputUntouched) {
  StreamConfig cfg = small_stream("untouched", 14);
  cfg.sla.deadline_cycles = 1;  // every rung is tried, none fits
  AdmissionConfig acfg;
  acfg.enabled = true;
  FabricPool pool(1, library());
  AdmissionController ctl(library(), pool, me::SystolicParams{}, acfg);
  StreamJob job = make_synthetic_job(0, cfg);
  const StreamJob input = job;
  ASSERT_EQ(ctl.admit(job).rung, DegradationRung::kReject);
  expect_same_frames(job, input);
  EXPECT_EQ(job.config.width, input.config.width);
  EXPECT_EQ(job.config.height, input.config.height);
  EXPECT_EQ(job.config.codec.quantiser_scale, input.config.codec.quantiser_scale);
  EXPECT_EQ(job.impl_name, input.impl_name);
  EXPECT_EQ(job.frame_impls, input.frame_impls);
  EXPECT_EQ(job.condition_switches, input.condition_switches);
}

TEST(Admission, ImplSwapAtTheResolutionFloorKeepsFullSizeFrames) {
  // A 16x16 stream sits at the floor, so the resolution rung is a no-op
  // and the swap is tried (and committed) at full size.
  FabricPool pool(1, library());
  AdmissionController probe(library(), pool, me::SystolicParams{});
  StreamConfig cfg = small_stream("floor", 15);
  cfg.width = cfg.height = 16;
  const std::uint64_t full = total_cycles(probe, make_synthetic_job(0, cfg));
  StreamJob swapped_probe = make_synthetic_job(0, cfg);
  ASSERT_TRUE(probe.apply_impl_swap(swapped_probe));
  const std::uint64_t swapped = total_cycles(probe, swapped_probe);
  cfg.sla.deadline_cycles = full * 11 / 10;  // as requested misses with headroom
  ASSERT_GT(full * 5 / 4, cfg.sla.deadline_cycles);
  ASSERT_LE(swapped * 5 / 4, cfg.sla.deadline_cycles);

  AdmissionConfig acfg;
  acfg.enabled = true;
  AdmissionController ctl(library(), pool, me::SystolicParams{}, acfg);
  StreamJob job = make_synthetic_job(0, cfg);
  const StreamJob input = job;
  const AdmissionDecision d = ctl.admit(job);
  ASSERT_EQ(d.rung, DegradationRung::kImplSwap);
  EXPECT_EQ(job.config.width, 16);
  EXPECT_EQ(job.config.height, 16);
  expect_same_frames(job, input);
  EXPECT_EQ(job.impl_name, ctl.cheapest_fitting_impl());
  EXPECT_EQ(job.predicted_completion_cycles, swapped);
  EXPECT_EQ(d.note.find("half resolution"), std::string::npos) << d.note;
}

// ---------------------------------------------------------------------------
// Ladder property tests: the output contract of a degraded stream.

/// Encoded frame sequence is complete, in order and duplicate-free —
/// degrading a stream may cost quality, never frames.
void expect_frame_contract(const StreamJob& job, int expected_frames) {
  ASSERT_EQ(static_cast<int>(job.records.size()), expected_frames);
  for (int i = 0; i < expected_frames; ++i)
    EXPECT_EQ(job.records[static_cast<std::size_t>(i)].frame_index, i)
        << "frame order broken at " << i;
}

TEST(AdmissionLadder, EveryRungPreservesTheFrameContract) {
  FabricPool pool(1, library());
  const AdmissionController ctl(library(), pool, me::SystolicParams{});
  for (int rungs = 0; rungs <= 3; ++rungs) {
    StreamJob job = make_synthetic_job(0, small_stream("contract", 21));
    if (rungs >= 1) {
      ASSERT_TRUE(AdmissionController::apply_qp_bump(job, 2.0));
    }
    if (rungs >= 2) {
      ASSERT_TRUE(AdmissionController::apply_resolution_drop(job, 16));
    }
    if (rungs >= 3) (void)ctl.apply_impl_swap(job);  // may already be cheapest

    SchedulerConfig cfg;
    cfg.fabric_configs.assign(1, FabricConfig{});
    std::vector<StreamJob> jobs;
    jobs.push_back(std::move(job));
    const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
    expect_frame_contract(jobs[0], 4);
    EXPECT_EQ(report.total_frames, 4u) << "rungs applied: " << rungs;
  }
}

TEST(AdmissionLadder, SameRungSequenceIsBitExact) {
  FabricPool pool(1, library());
  const AdmissionController ctl(library(), pool, me::SystolicParams{});
  const auto degrade_and_run = [&](StreamJob&& job) {
    EXPECT_TRUE(AdmissionController::apply_qp_bump(job, 2.0));
    EXPECT_TRUE(AdmissionController::apply_resolution_drop(job, 16));
    (void)ctl.apply_impl_swap(job);
    SchedulerConfig cfg;
    cfg.fabric_configs.assign(1, FabricConfig{});
    std::vector<StreamJob> jobs;
    jobs.push_back(std::move(job));
    (void)MultiStreamScheduler(library(), cfg).run(jobs);
    return std::move(jobs[0]);
  };
  const StreamJob a = degrade_and_run(make_synthetic_job(0, small_stream("bit", 22)));
  const StreamJob b = degrade_and_run(make_synthetic_job(0, small_stream("bit", 22)));

  // Same source, same rung sequence: the reconstruction and every
  // per-frame statistic must be identical — degradation is a pure
  // function of (stream, rungs), not of scheduling happenstance.
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].impl, b.records[i].impl);
    EXPECT_DOUBLE_EQ(a.records[i].stats.bits, b.records[i].stats.bits);
    EXPECT_DOUBLE_EQ(a.records[i].stats.psnr_db, b.records[i].stats.psnr_db);
    EXPECT_EQ(a.records[i].stats.dct_array_cycles, b.records[i].stats.dct_array_cycles);
    EXPECT_EQ(a.records[i].stats.me_array_cycles, b.records[i].stats.me_array_cycles);
  }
  EXPECT_EQ(a.recon_state.data(), b.recon_state.data());
}

TEST(AdmissionLadder, RungTransitionsLandInTelemetryCounters) {
  FabricPool pool(1, library());
  AdmissionController probe(library(), pool, me::SystolicParams{});

  // Three arrivals: one clean, one forced down the ladder, one doomed.
  StreamConfig clean = small_stream("clean", 31);
  const std::uint64_t full = total_cycles(probe, make_synthetic_job(0, clean));
  clean.sla.deadline_cycles = full * 8;
  // Tight arrives second, so its pilot shares the one fabric with the
  // clean stream: as-requested completion is ~2x full (infeasible with
  // headroom against 2x full), at half resolution ~1.3x full (feasible).
  StreamConfig tight = small_stream("tight", 32);
  tight.sla.deadline_cycles = full * 2;
  StreamConfig doomed = small_stream("doomed", 33);
  doomed.sla.deadline_cycles = 1;

  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.admission.enabled = true;
  telemetry::TraceRecorder recorder;
  cfg.trace = &recorder;
  std::vector<StreamJob> jobs{make_synthetic_job(0, clean),
                              make_synthetic_job(1, tight),
                              make_synthetic_job(2, doomed)};
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
  telemetry::MetricsRegistry metrics;
  telemetry::fill_metrics(report, jobs, metrics);

  EXPECT_EQ(jobs[1].admission_rung, DegradationRung::kResolutionDrop);
  EXPECT_EQ(report.admission.resolution_drops, 1u);
  EXPECT_EQ(metrics.counters().at("admission_arrived"), 3u);
  EXPECT_EQ(metrics.counters().at("admission_admitted"), 2u);
  EXPECT_EQ(metrics.counters().at("admission_resolution_drops"), 1u);
  EXPECT_EQ(metrics.counters().at("admission_rejected"), 1u);
  EXPECT_GT(metrics.gauges().at("admission_pool_pressure"), 0.0);
  // Goodput counts only frames of streams whose SLA held.
  EXPECT_EQ(metrics.counters().at("goodput_frames"), report.goodput_frames);
  EXPECT_GE(report.goodput_frames, 4u);
}

// ---------------------------------------------------------------------------
// Decision pin on a heterogeneous pool: a full 12x8 array (fabric 0) next
// to a small 8x4 one (fabric 1). The cordic contexts place only on fabric
// 0, the scc family on both, so the pilot's EDF tie order, its
// first-listed-host tie-break and its per-frame host sets all decide
// where frames land. The expected values were recorded from the earlier
// pilot, which replayed its dispatch order through simulate_timeline and
// kept its pending lanes in a calendar queue; the pilot must keep
// reproducing them exactly.

const KernelLibrary& hetero_library() {
  static const KernelLibrary lib(KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});
  return lib;
}

FabricConfig fabric_with_geometry(const ArrayGeometry& geometry) {
  FabricConfig cfg;
  cfg.geometry = geometry;
  return cfg;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The seeded arrival mix: four sizes (16x16 sits at the resolution
/// floor), two to five frames, the four policy contexts, deadlines on a
/// coarse grid of @p unit so many arrivals tie on them, some p99 budgets
/// and best-effort streams, battery-drain streams whose frames hop
/// between host sets, and two streams with a context no fabric hosts.
std::vector<StreamJob> pinned_arrivals(std::uint64_t unit) {
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0} /*cordic1*/, {0.5, 0.9} /*cordic2*/, {0.1, 0.9} /*scc_full*/,
      {0.9, 0.3} /*mixed_rom*/};
  const int sizes[] = {16, 32, 48, 64};
  const std::uint64_t deadline_units[] = {0, 8, 8, 8, 12};
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 36; ++k) {
    const std::uint64_t h = splitmix(static_cast<std::uint64_t>(k) + 2004);
    StreamConfig cfg;
    cfg.name = "pin" + std::to_string(k);
    cfg.width = cfg.height = sizes[h % 4];
    cfg.frame_budget = 2 + static_cast<int>((h >> 8) % 4);
    cfg.condition = conditions[(h >> 16) % 4];
    cfg.codec.me_range = 4;
    cfg.seed = 5000 + static_cast<std::uint64_t>(k);
    cfg.sla.deadline_cycles = unit * deadline_units[(h >> 24) % 5];
    if ((h >> 32) % 3 == 0) cfg.sla.p99_budget_cycles = 4 * unit;
    if (k % 7 == 3) {
      // cordic2 (fabric 0 only) for frame 0, then scc_full (both fabrics).
      cfg.trajectory = soc::linear_battery_drain(0.4, 0.25, 0.9);
      cfg.condition_policy = soc::ConditionPolicy::kPerFrame;
    }
    StreamJob job = make_synthetic_job(k, cfg);
    if (k == 5) job.impl_name = "unplaced";            // no frame places
    if (k == 10) job.frame_impls.back() = "unplaced";  // its last frame does not
    jobs.push_back(std::move(job));
  }
  return jobs;
}

struct PinnedDecision {
  DegradationRung rung;
  std::uint64_t completion;
  std::uint64_t p99;
};

TEST(AdmissionPin, HeterogeneousPoolDecisionsArePinned) {
  const FabricPool pool(std::vector<FabricConfig>{fabric_with_geometry(kDefaultGeometry),
                                                  fabric_with_geometry(kSmallSccGeometry)},
                        hetero_library());
  AdmissionConfig acfg;
  acfg.enabled = true;
  acfg.qp_pressure = 0.4;  // hot enough that feasible newcomers also pay the bump
  AdmissionController ctl(hetero_library(), pool, me::SystolicParams{}, acfg);
  StreamConfig ref = small_stream("unit", 1);
  ref.width = ref.height = 32;
  const std::uint64_t unit = total_cycles(ctl, make_synthetic_job(0, ref));
  ASSERT_EQ(unit, 41264u);

  std::vector<StreamJob> jobs = pinned_arrivals(unit);
  const AdmissionReport report = ctl.admit_all(jobs);

  const PinnedDecision expected[] = {
      {DegradationRung::kQpBump, 10448u, 2180u},  // pin0
      {DegradationRung::kNone, 3908u, 2180u},  // pin1
      {DegradationRung::kNone, 24352u, 8720u},  // pin2
      {DegradationRung::kNone, 41340u, 11032u},  // pin3
      {DegradationRung::kNone, 88188u, 45436u},  // pin4
      {DegradationRung::kImplSwap, 68912u, 23980u},  // pin5
      {DegradationRung::kNone, 70824u, 23980u},  // pin6
      {DegradationRung::kNone, 119820u, 48208u},  // pin7
      {DegradationRung::kNone, 112544u, 61536u},  // pin8
      {DegradationRung::kNone, 167268u, 72304u},  // pin9
      {DegradationRung::kImplSwap, 56204u, 52748u},  // pin10
      {DegradationRung::kNone, 199812u, 74352u},  // pin11
      {DegradationRung::kNone, 138888u, 67052u},  // pin12
      {DegradationRung::kResolutionDrop, 187220u, 76872u},  // pin13
      {DegradationRung::kQpBump, 174928u, 91280u},  // pin14
      {DegradationRung::kImplSwap, 244216u, 94628u},  // pin15
      {DegradationRung::kReject, 297280u, 116136u},  // pin16
      {DegradationRung::kReject, 228956u, 124188u},  // pin17
      {DegradationRung::kReject, 332828u, 139224u},  // pin18
      {DegradationRung::kImplSwap, 245404u, 89612u},  // pin19
      {DegradationRung::kResolutionDrop, 153144u, 82312u},  // pin20
      {DegradationRung::kReject, 425380u, 134864u},  // pin21
      {DegradationRung::kReject, 328468u, 134864u},  // pin22
      {DegradationRung::kReject, 206704u, 86760u},  // pin23
      {DegradationRung::kReject, 158496u, 87328u},  // pin24
      {DegradationRung::kReject, 210496u, 98332u},  // pin25
      {DegradationRung::kReject, 269528u, 92304u},  // pin26
      {DegradationRung::kReject, 210496u, 98332u},  // pin27
      {DegradationRung::kReject, 239632u, 134864u},  // pin28
      {DegradationRung::kReject, 355672u, 117748u},  // pin29
      {DegradationRung::kReject, 178280u, 107112u},  // pin30
      {DegradationRung::kReject, 162856u, 84968u},  // pin31
      {DegradationRung::kReject, 290764u, 117368u},  // pin32
      {DegradationRung::kReject, 149976u, 99432u},  // pin33
      {DegradationRung::kReject, 210496u, 98332u},  // pin34
      {DegradationRung::kReject, 252896u, 107112u},  // pin35
  };
  ASSERT_EQ(report.decisions.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    const AdmissionDecision& d = report.decisions[i];
    EXPECT_EQ(d.rung, expected[i].rung) << d.name << ": " << d.note;
    EXPECT_EQ(d.predicted_completion_cycles, expected[i].completion) << d.name;
    EXPECT_EQ(d.predicted_p99_cycles, expected[i].p99) << d.name;
  }
  EXPECT_EQ(report.pool_pressure, 0x1.0b69c814e955cp-1);
}

TEST(AdmissionLadder, DisabledAdmissionIsBitExactWithHistoricalRuns) {
  // The disabled default must not perturb anything: same report a plain
  // run produces, no admission bookkeeping.
  StreamConfig cfg = small_stream("legacy", 41);
  cfg.sla.deadline_cycles = 1;  // would be shed if admission were on

  SchedulerConfig off;
  off.fabric_configs.assign(1, FabricConfig{});
  std::vector<StreamJob> jobs{make_synthetic_job(0, cfg)};
  const RunReport report = MultiStreamScheduler(library(), off).run(jobs);
  EXPECT_FALSE(report.admission.enabled);
  EXPECT_EQ(report.admission.arrived, 0u);
  EXPECT_EQ(jobs[0].admission_rung, DegradationRung::kNone);
  EXPECT_EQ(jobs[0].records.size(), 4u);  // admit-everything world
}

}  // namespace
}  // namespace dsra::runtime
