// Heterogeneous fabric pools: the geometry-indexed kernel library's
// placement-feasibility matrix (property-tested: every fits() pair
// round-trips compile -> place/route -> bitstream -> frame image, every
// unfit pair is rejected with a named diagnostic), feasibility-aware
// dispatch over pools of mixed array sizes (bit-exact against the
// homogeneous pool), the pool-rejection paths' exact diagnostics, and
// the delta-aware context-cache fetch.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"
#include "soc/trajectory.hpp"

namespace dsra::runtime {
namespace {

// Compiling the library is expensive (six DCT place-and-route runs plus
// the ME context, per geometry); share one two-geometry instance.
const KernelLibrary& library() {
  static const KernelLibrary lib(
      KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});
  return lib;
}

FabricConfig fabric_with_geometry(const ArrayGeometry& geometry) {
  FabricConfig cfg;
  cfg.geometry = geometry;
  return cfg;
}

StreamJob job_with_condition(int id, soc::RuntimeCondition condition, int frames = 2,
                             int size = 32) {
  StreamConfig cfg;
  cfg.name = "s" + std::to_string(id);
  cfg.width = size;
  cfg.height = size;
  cfg.frame_budget = frames;
  cfg.condition = condition;
  cfg.codec.me_range = 4;
  cfg.seed = 4200 + static_cast<std::uint64_t>(id);
  return make_synthetic_job(id, cfg);
}

TEST(FeasibilityMatrix, MatchesThePaperShapedExpectations) {
  // The full 12x8 DA array hosts every context; the small 8x4 array
  // hosts the scc family but neither CORDIC mapping (site shortage /
  // routing congestion) nor the systolic ME context.
  for (const std::string& name : library().context_names())
    EXPECT_TRUE(library().fits(name, kDefaultGeometry)) << name;

  EXPECT_TRUE(library().fits("scc_full", kSmallSccGeometry));
  EXPECT_TRUE(library().fits("scc_even_odd", kSmallSccGeometry));
  EXPECT_TRUE(library().fits("da_basic", kSmallSccGeometry));
  EXPECT_TRUE(library().fits("mixed_rom", kSmallSccGeometry));
  EXPECT_FALSE(library().fits("cordic1", kSmallSccGeometry));
  EXPECT_FALSE(library().fits("cordic2", kSmallSccGeometry));
  EXPECT_FALSE(library().fits(kMeContextName, kSmallSccGeometry));

  // Unknown names and unknown geometries are never feasible.
  EXPECT_FALSE(library().fits("nope", kDefaultGeometry));
  EXPECT_FALSE(library().fits("scc_full", ArrayGeometry{4, 2}));
}

TEST(FeasibilityMatrix, EveryFeasiblePairRoundTripsToABitstreamAndFrameImage) {
  for (const ArrayGeometry& geometry : library().geometries()) {
    for (const std::string& name : library().context_names()) {
      if (!library().fits(name, geometry)) continue;
      // Compile produced a real bitstream for this geometry...
      EXPECT_FALSE(library().bitstream(name, geometry).empty())
          << name << " @ " << to_string(geometry);
      // ...and a frame-addressable image whose frames all sit inside the
      // compiled array's grid and survive the codec round trip bit for
      // bit (the partial-reconfiguration contract).
      const ConfigFrameImage& image = library().frame_image(name, geometry);
      EXPECT_GT(image.frames.size(), 0u) << name << " @ " << to_string(geometry);
      if (library().kernel_of(name) == "dct") {
        EXPECT_EQ(image.width, geometry.width) << name;
        EXPECT_EQ(image.height, geometry.height) << name;
      }
      for (const ConfigFrame& frame : image.frames) {
        EXPECT_GE(frame.x, 0);
        EXPECT_GE(frame.y, 0);
        EXPECT_LT(frame.x, image.width);
        EXPECT_LT(frame.y, image.height);
      }
      EXPECT_EQ(decode_config_frames(encode_config_frames(image)), image)
          << name << " @ " << to_string(geometry);
      // A fabric of this geometry can actually prepare (fetch + switch
      // onto) the context.
      Fabric fabric(0, library(), fabric_with_geometry(geometry));
      EXPECT_GT(fabric.prepare(name).total(), 0u) << name << " @ " << to_string(geometry);
      ASSERT_TRUE(fabric.active().has_value());
      EXPECT_EQ(*fabric.active(), name);
    }
  }
}

TEST(FeasibilityMatrix, EveryUnfitPairIsRejectedWithNamedDiagnostics) {
  for (const ArrayGeometry& geometry : library().geometries()) {
    for (const std::string& name : library().context_names()) {
      if (library().fits(name, geometry)) continue;
      // The library records the mapper's own failure and names both
      // sides of the pair on lookup.
      const std::string& reason = library().unfit_reason(name, geometry);
      EXPECT_FALSE(reason.empty()) << name << " @ " << to_string(geometry);
      try {
        (void)library().bitstream(name, geometry);
        FAIL() << "bitstream lookup must reject the unfit pair " << name;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), "implementation '" + name +
                                             "' does not fit array geometry " +
                                             to_string(geometry) + ": " + reason);
      }
      // Fabric::prepare rejects with the fabric, geometry and reason.
      Fabric fabric(7, library(), fabric_with_geometry(geometry));
      try {
        (void)fabric.prepare(name);
        FAIL() << "prepare must reject the unfit pair " << name;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), "fabric 7 (geometry " + to_string(geometry) +
                                             ") cannot host context '" + name +
                                             "': " + reason);
      }
      EXPECT_FALSE(fabric.hosts(name));
    }
  }
}

TEST(FeasibilityMatrix, DeltaTablesAreScopedPerGeometry) {
  // The scc_full <-> da_basic pair has a delta on both geometries (same
  // DA grid within each geometry), and the two geometries' deltas are
  // independent objects diffed over different grids.
  const ConfigDelta* large = library().delta(kDefaultGeometry, "scc_full", "da_basic");
  const ConfigDelta* small = library().delta(kSmallSccGeometry, "scc_full", "da_basic");
  ASSERT_NE(large, nullptr);
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(large->width, kDefaultGeometry.width);
  EXPECT_EQ(small->width, kSmallSccGeometry.width);
  // No delta crosses into a geometry where one side does not fit.
  EXPECT_EQ(library().delta(kSmallSccGeometry, "scc_full", "cordic1"), nullptr);
  // The ME context lives on its own grid: no delta against DCT contexts.
  EXPECT_EQ(library().delta(kDefaultGeometry, "scc_full", kMeContextName), nullptr);

  // The table is the fabrics' only delta source, so sweep all of it: on
  // every geometry, every ordered pair of distinct contexts (the ME
  // context included) has a delta exactly when both sides fit and their
  // frame images share a grid, and each delta replays bit-exactly with a
  // cost that matches it.
  int with_delta = 0;
  int without_delta = 0;
  for (const ArrayGeometry& geometry : library().geometries()) {
    for (const std::string& base : library().context_names()) {
      for (const std::string& target : library().context_names()) {
        if (base == target) continue;
        SCOPED_TRACE(base + " -> " + target + " on " + to_string(geometry));
        bool same_grid = false;
        if (library().fits(base, geometry) && library().fits(target, geometry)) {
          const ConfigFrameImage& from = library().frame_image(base, geometry);
          const ConfigFrameImage& to = library().frame_image(target, geometry);
          same_grid = from.width == to.width && from.height == to.height;
        }
        const ConfigDelta* delta = library().delta(geometry, base, target);
        const auto cost = library().delta_cost(geometry, base, target);
        ASSERT_EQ(delta != nullptr, same_grid);
        ASSERT_EQ(cost.has_value(), same_grid);
        if (delta == nullptr) {
          ++without_delta;
          continue;
        }
        ++with_delta;
        EXPECT_EQ(apply_config_delta(library().frame_image(base, geometry), *delta),
                  library().frame_image(target, geometry));
        const std::size_t bytes = encode_config_delta(*delta).size();
        EXPECT_EQ(cost->delta_bits, config_delta_bits(*delta));
        EXPECT_EQ(cost->delta_bits, static_cast<std::uint64_t>(bytes) * 8);
        EXPECT_EQ(cost->delta_bytes, bytes);
        EXPECT_EQ(cost->frames, delta->frame_count());
      }
    }
  }
  // Both outcomes occur: same-grid DCT pairs, and pairs across grids or
  // with a side that does not fit.
  EXPECT_GT(with_delta, 0);
  EXPECT_GT(without_delta, 0);
}

TEST(FeasibilityMatrix, ConcurrentLibraryBuildsAreByteIdentical) {
  // The library compiles its (geometry, context) pairs on concurrent
  // tasks: two builds must agree on every bitstream, frame image, unfit
  // reason and delta entry, whichever task compiled what.
  const KernelLibraryConfig config{{kDefaultGeometry, kSmallSccGeometry}};
  const KernelLibrary a(config);
  const KernelLibrary b(config);
  int deltas = 0;
  for (const ArrayGeometry& geometry : a.geometries()) {
    for (const std::string& name : a.context_names()) {
      SCOPED_TRACE(name + " on " + to_string(geometry));
      ASSERT_EQ(a.fits(name, geometry), b.fits(name, geometry));
      EXPECT_EQ(a.unfit_reason(name, geometry), b.unfit_reason(name, geometry));
      if (!a.fits(name, geometry)) continue;
      EXPECT_EQ(a.bitstream(name, geometry), b.bitstream(name, geometry));
      EXPECT_EQ(a.frame_image(name, geometry), b.frame_image(name, geometry));
      for (const std::string& target : a.context_names()) {
        const ConfigDelta* da = a.delta(geometry, name, target);
        const ConfigDelta* db = b.delta(geometry, name, target);
        ASSERT_EQ(da == nullptr, db == nullptr) << "-> " << target;
        if (da == nullptr) continue;
        ++deltas;
        EXPECT_EQ(*da, *db) << "-> " << target;
        const auto ca = a.delta_cost(geometry, name, target);
        const auto cb = b.delta_cost(geometry, name, target);
        ASSERT_TRUE(ca.has_value() && cb.has_value()) << "-> " << target;
        EXPECT_EQ(ca->delta_bits, cb->delta_bits);
        EXPECT_EQ(ca->frames, cb->frames);
        EXPECT_EQ(ca->delta_bytes, cb->delta_bytes);
      }
    }
  }
  EXPECT_GT(deltas, 0);
}

TEST(FabricPool, AtRejectsOutOfRangeIndicesWithExactDiagnostics) {
  FabricPool pool(2, library(), FabricConfig{});
  try {
    (void)pool.at(2);
    FAIL() << "index 2 of a 2-fabric pool must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()), "fabric pool: index 2 out of range [0, 2)");
  }
  try {
    (void)pool.at(-1);
    FAIL() << "negative indices must throw";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()), "fabric pool: index -1 out of range [0, 2)");
  }
}

TEST(SchedulerConfigNormalization, FabricListIsThePool) {
  // A default config is two default fabrics.
  EXPECT_EQ(SchedulerConfig{}.resolved_fabrics().size(), 2u);

  SchedulerConfig heterogeneous;
  heterogeneous.fabric_configs = {fabric_with_geometry(kDefaultGeometry),
                                  fabric_with_geometry(kSmallSccGeometry)};
  ASSERT_EQ(heterogeneous.resolved_fabrics().size(), 2u);
  EXPECT_EQ(heterogeneous.resolved_fabrics()[1].geometry, kSmallSccGeometry);

  SchedulerConfig empty;
  empty.fabric_configs.clear();
  EXPECT_THROW((void)empty.resolved_fabrics(), std::invalid_argument);

  // The scheduler is the single validation site: a fabric geometry the
  // library was not built for is rejected at construction.
  SchedulerConfig unknown_geometry;
  unknown_geometry.fabric_configs = {fabric_with_geometry(ArrayGeometry{4, 2})};
  try {
    MultiStreamScheduler scheduler(library(), unknown_geometry);
    FAIL() << "unknown geometry must be rejected at scheduler construction";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "fabric 0: kernel library was not built for array geometry 4x2; "
              "list it in KernelLibraryConfig.geometries");
  }
}

TEST(PoolRejection, WorkloadThatFitsNoFabricGeometryFailsFastByName) {
  // Two small fabrics, a high-battery stream: the policy selects
  // cordic1, which places on neither geometry.
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with_geometry(kSmallSccGeometry),
                        fabric_with_geometry(kSmallSccGeometry)};
  std::vector<StreamJob> jobs;
  jobs.push_back(job_with_condition(0, {1.0, 1.0}));  // -> cordic1
  MultiStreamScheduler scheduler(library(), cfg);
  try {
    (void)scheduler.run(jobs);
    FAIL() << "an unplaceable workload must be rejected up front";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "stream 's0': implementation 'cordic1' selected at frame 0 is not "
              "placeable on any DCT-capable fabric in the pool (geometries: 8x4, 8x4)");
  }
}

TEST(PoolRejection, TrajectoryDriftingOntoUnplaceableImplFailsFastNamingTheFrame) {
  // Battery *charges* mid-stream: the per-frame policy starts on
  // scc_full (placeable on the small pool) and drifts onto cordic1
  // (placeable nowhere in this pool). Validation must name the impl and
  // the exact frame the trajectory first selects it at.
  StreamConfig cfg;
  cfg.name = "charging";
  cfg.width = 32;
  cfg.height = 32;
  cfg.frame_budget = 12;
  cfg.trajectory = soc::linear_battery_drain(0.1, -0.1, 1.0);  // 0.1, 0.2, ... rising
  cfg.condition_policy = soc::ConditionPolicy::kPerFrame;
  cfg.codec.me_range = 4;
  std::vector<StreamJob> jobs{make_synthetic_job(0, cfg)};
  ASSERT_EQ(jobs[0].frame_impls.size(), 12u);
  ASSERT_EQ(jobs[0].frame_impls.front(), "scc_full") << "drift test premise broken";

  // The first frame whose selected impl no longer places on the small
  // geometry is what validation must name (the policy walks scc_full ->
  // ... -> cordic2 -> cordic1 as the battery charges).
  int drift_frame = -1;
  std::string drift_impl;
  for (std::size_t f = 0; f < jobs[0].frame_impls.size(); ++f)
    if (!library().fits(jobs[0].frame_impls[f], kSmallSccGeometry)) {
      drift_frame = static_cast<int>(f);
      drift_impl = jobs[0].frame_impls[f];
      break;
    }
  ASSERT_GT(drift_frame, 0) << "the trajectory must drift off the small geometry";

  SchedulerConfig sched;
  sched.fabric_configs = {fabric_with_geometry(kSmallSccGeometry)};
  MultiStreamScheduler scheduler(library(), sched);
  try {
    (void)scheduler.run(jobs);
    FAIL() << "the drifting stream must be rejected up front";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "stream 'charging': implementation '" + drift_impl +
                  "' selected at frame " + std::to_string(drift_frame) +
                  " is not placeable on any DCT-capable fabric in the pool "
                  "(geometries: 8x4)");
  }
  // The same stream runs fine once a full-size fabric joins the pool.
  sched.fabric_configs.push_back(fabric_with_geometry(kDefaultGeometry));
  std::vector<StreamJob> ok_jobs{make_synthetic_job(0, cfg)};
  const RunReport report = MultiStreamScheduler(library(), sched).run(ok_jobs);
  EXPECT_EQ(report.total_frames, 12u);
}

TEST(PoolRejection, StagePipelineNeedsAnMeCapableFabricThatPlacesTheMeContext) {
  // The only ME-capable fabric is small: it has the capability bit but
  // me_systolic does not place on 8x4, so the stage pipeline must be
  // rejected with the placement variant of the diagnostic.
  SchedulerConfig cfg;
  FabricConfig small_me = fabric_with_geometry(kSmallSccGeometry);
  small_me.capabilities = kCapMotionEstimation;
  FabricConfig large_dct = fabric_with_geometry(kDefaultGeometry);
  large_dct.capabilities = kCapDctTransform;
  cfg.fabric_configs = {small_me, large_dct};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  std::vector<StreamJob> jobs{job_with_condition(0, {0.1, 0.9}, 3)};  // scc_full
  MultiStreamScheduler scheduler(library(), cfg);
  try {
    (void)scheduler.run(jobs);
    FAIL() << "an ME-capable fabric that cannot place me_systolic is not enough";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "stage pipeline needs a motion-estimation-capable fabric that can place "
              "'me_systolic' (pool geometries: 8x4, 12x8)");
  }
}

TEST(HeteroDispatch, FeasibilityFilterRoutesEveryJobToAHostingFabric) {
  // One full-size fabric and two small scc-only fabrics; a workload
  // mixing cordic streams (large-only) with scc/mixed_rom streams.
  SchedulerConfig cfg;
  cfg.fabric_configs = {fabric_with_geometry(kDefaultGeometry),
                        fabric_with_geometry(kSmallSccGeometry),
                        fabric_with_geometry(kSmallSccGeometry)};
  std::vector<StreamJob> jobs;
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0},  // cordic1: large only
      {0.1, 0.9},  // scc_full
      {0.5, 0.9},  // cordic2: large only
      {0.9, 0.3},  // mixed_rom
      {0.1, 0.9},  // scc_full
      {0.9, 0.3},  // mixed_rom
  };
  for (int k = 0; k < 6; ++k) jobs.push_back(job_with_condition(k, conditions[k % 6], 3));
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 18u);
  // Feasibility routing: cordic frames only ever ran on fabric 0 (the
  // full-size array).
  for (const StreamJob& s : jobs) {
    for (const FrameRecord& r : s.records) {
      if (r.impl == "cordic1" || r.impl == "cordic2") {
        EXPECT_EQ(r.fabric_id, 0) << s.config.name << " frame " << r.frame_index;
      }
    }
  }
  // The small fabrics had to route around capability-eligible cordic
  // jobs, and the report says so per geometry.
  EXPECT_GT(report.placement_rejections, 0u);
  ASSERT_EQ(report.geometry_stats.size(), 2u);
  EXPECT_EQ(report.geometry_stats[0].geometry, kDefaultGeometry);
  EXPECT_EQ(report.geometry_stats[0].fabrics, 1);
  EXPECT_EQ(report.geometry_stats[1].geometry, kSmallSccGeometry);
  EXPECT_EQ(report.geometry_stats[1].fabrics, 2);
  EXPECT_EQ(report.geometry_stats[0].placement_rejections, 0u)
      << "the full-size array hosts everything";
  EXPECT_GT(report.geometry_stats[1].placement_rejections, 0u);
  EXPECT_EQ(report.total_tiles, 96 + 32 + 32);
}

TEST(HeteroDispatch, StagePipelineRoutesByCapabilityAndFeasibilityTogether) {
  // The paper's floorplan, cost-reduced: a full-size ME-only fabric, a
  // full-size transform fabric, and a small transform fabric. Stage jobs
  // must route by kernel capability (ME jobs to fabric 0) AND placement
  // feasibility (cordic DCT stages never on the small fabric 2).
  SchedulerConfig cfg;
  FabricConfig me_fabric = fabric_with_geometry(kDefaultGeometry);
  me_fabric.capabilities = kCapMotionEstimation;
  FabricConfig large_dct = fabric_with_geometry(kDefaultGeometry);
  large_dct.capabilities = kCapDctTransform;
  FabricConfig small_dct = fabric_with_geometry(kSmallSccGeometry);
  small_dct.capabilities = kCapDctTransform;
  cfg.fabric_configs = {me_fabric, large_dct, small_dct};
  cfg.queue.mode = DispatchMode::kStagePipeline;

  std::vector<StreamJob> jobs;
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0}, {0.1, 0.9}, {0.5, 0.9}, {0.9, 0.3}};  // cordic1/scc/cordic2/mixed
  for (int k = 0; k < 4; ++k) jobs.push_back(job_with_condition(k, conditions[k], 4));
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 16u);
  for (const StreamJob& s : jobs) {
    ASSERT_EQ(s.records.size(), 4u) << s.config.name;
    for (const FrameRecord& r : s.records) {
      if (r.frame_index > 0) {
        EXPECT_EQ(r.me_fabric_id, 0) << s.config.name << ": ME runs on the ME fabric";
      }
      if (r.impl == "cordic1" || r.impl == "cordic2") {
        EXPECT_EQ(r.tq_fabric_id, 1) << s.config.name << ": cordic only fits the large array";
        EXPECT_EQ(r.fabric_id, 1) << s.config.name;
      } else {
        EXPECT_NE(r.tq_fabric_id, 0) << s.config.name << ": DCT never on the ME fabric";
      }
    }
  }
}

TEST(HeteroDispatch, EncodedOutputIsBitExactAcrossPoolShapes) {
  // The functional model is geometry-independent: encoding over the
  // heterogeneous pool must produce bit-identical streams to the
  // homogeneous full-size pool.
  const soc::RuntimeCondition conditions[] = {
      {1.0, 1.0}, {0.1, 0.9}, {0.9, 0.3}, {0.5, 0.9}};
  const auto workload = [&] {
    std::vector<StreamJob> jobs;
    for (int k = 0; k < 4; ++k) jobs.push_back(job_with_condition(k, conditions[k], 3));
    return jobs;
  };

  SchedulerConfig hetero;
  hetero.fabric_configs = {fabric_with_geometry(kDefaultGeometry),
                           fabric_with_geometry(kSmallSccGeometry),
                           fabric_with_geometry(kSmallSccGeometry)};
  auto hetero_jobs = workload();
  (void)MultiStreamScheduler(library(), hetero).run(hetero_jobs);

  SchedulerConfig homog;
  homog.fabric_configs.assign(3, FabricConfig{});
  auto homog_jobs = workload();
  (void)MultiStreamScheduler(library(), homog).run(homog_jobs);

  for (std::size_t s = 0; s < hetero_jobs.size(); ++s) {
    const StreamJob& a = hetero_jobs[s];
    const StreamJob& b = homog_jobs[s];
    ASSERT_EQ(a.records.size(), b.records.size()) << a.config.name;
    EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << a.config.name;
    for (std::size_t k = 0; k < a.records.size(); ++k) {
      EXPECT_EQ(a.records[k].impl, b.records[k].impl);
      EXPECT_EQ(a.records[k].stats.bits, b.records[k].stats.bits);
      EXPECT_EQ(a.records[k].stats.psnr_db, b.records[k].stats.psnr_db);
    }
  }
}

TEST(DeltaFetch, CacheMissMovesOnlyDeltaBytesWhenResidentImageIsKnown) {
  // scc_full and da_basic share their complete cluster programming (PR 4
  // measured zero rewritten frames), so a delta-aware fetch of da_basic
  // over a resident scc_full moves a near-empty delta instead of ~7 KB.
  FabricConfig cfg;
  cfg.delta_fetch = true;
  Fabric fabric(0, library(), cfg);
  const std::uint64_t first_fetch_plus_switch = fabric.prepare("scc_full").total();
  EXPECT_GT(first_fetch_plus_switch, 0u);
  (void)fabric.prepare("da_basic");

  const ContextCacheStats& stats = fabric.cache().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.delta_fetches, 1u) << "the second miss had a resident image to diff";
  EXPECT_GT(stats.bytes_saved, 0u);
  const std::size_t full_bytes = library().bitstream("scc_full", kDefaultGeometry).size() +
                                 library().bitstream("da_basic", kDefaultGeometry).size();
  EXPECT_LT(stats.bytes_fetched, full_bytes);
  EXPECT_EQ(stats.bytes_fetched + stats.bytes_saved, full_bytes);
  // A delta fetch moves fewer bus bytes but still inserts the full
  // stream: the conservation ledger must balance regardless.
  EXPECT_EQ(stats.bytes_inserted, full_bytes);
  EXPECT_TRUE(fabric.cache().byte_balance_ok());

  // Disabled by default: the same walk on a plain fabric moves the full
  // streams and keeps the historical byte balance.
  Fabric plain(1, library(), FabricConfig{});
  (void)plain.prepare("scc_full");
  (void)plain.prepare("da_basic");
  EXPECT_EQ(plain.cache().stats().delta_fetches, 0u);
  EXPECT_EQ(plain.cache().stats().bytes_saved, 0u);
  EXPECT_EQ(plain.cache().stats().bytes_fetched, full_bytes);
}

TEST(DeltaFetch, FallsBackToTheFullStreamAcrossGrids) {
  // The resident DCT image and the ME context live on different grids:
  // no delta exists, so the miss moves the full stream even with
  // delta_fetch enabled.
  FabricConfig cfg;
  cfg.delta_fetch = true;
  Fabric fabric(0, library(), cfg);
  (void)fabric.prepare("scc_full");
  (void)fabric.prepare(kMeContextName);
  const ContextCacheStats& stats = fabric.cache().stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.delta_fetches, 0u);
  EXPECT_EQ(stats.bytes_fetched, library().bitstream("scc_full", kDefaultGeometry).size() +
                                     library().bitstream(kMeContextName, kDefaultGeometry).size());
  EXPECT_TRUE(fabric.cache().byte_balance_ok());
}

}  // namespace
}  // namespace dsra::runtime
