// Spatial multi-tenancy: partition plans, region-scoped configuration
// isolation, and partition-granular dispatch.
//
// The load-bearing property is tenant isolation: a region-scoped delta
// applied on behalf of one partition must never write a byte outside its
// rectangle — fuzzed here over random composites and random tenant
// deltas (the ASan+UBSan CI job runs this file instrumented, alongside
// test_fuzz_flow), and checked at runtime through Fabric's composite
// bookkeeping. Co-tenant scheduling must be bit-exact with exclusive
// occupancy: a partition only moves jobs, never changes the encode.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config_codec.hpp"
#include "runtime/fabric_pool.hpp"
#include "runtime/partition.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/sim_schedule.hpp"

namespace dsra::runtime {
namespace {

/// One shared library build (place/route of every context on both
/// geometries is the expensive part; every test reads it immutably).
const KernelLibrary& shared_library() {
  static const KernelLibrary lib(
      KernelLibraryConfig{{kDefaultGeometry, kSmallSccGeometry}});
  return lib;
}

std::vector<std::uint8_t> payload_of(const ClusterConfig& cfg) {
  BitWriter w;
  encode_config(cfg, w);
  w.align_to_byte();
  return w.bytes();
}

/// Random fabric-grid composite: every tile independently occupied with
/// one of a few valid cluster payloads, emitted in canonical (y, x) order.
ConfigFrameImage random_composite(Rng& rng, int width, int height) {
  const std::vector<std::vector<std::uint8_t>> payloads = {
      payload_of(AddShiftCfg{16, AddShiftOp::kAdd, 0, true}),
      payload_of(MuxRegCfg{8, true}),
      payload_of(CompCfg{16, CompOp::kMin2}),
  };
  ConfigFrameImage image;
  image.width = width;
  image.height = height;
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      if (rng.next_bool(0.25))
        image.frames.push_back({x, y, payloads[rng.next_below(payloads.size())]});
  return image;
}

/// Random tenant-local delta over the partition's own width x height
/// grid: disjoint rewrites and clears, canonical order.
ConfigDelta random_local_delta(Rng& rng, int width, int height) {
  const std::vector<std::uint8_t> payload =
      payload_of(AbsDiffCfg{8, AbsDiffOp::kAbsDiff, false});
  ConfigDelta delta;
  delta.width = width;
  delta.height = height;
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x) {
      if (rng.next_bool(0.25))
        delta.rewrites.push_back({x, y, payload});
      else if (rng.next_bool(0.15))
        delta.clears.push_back({x, y});
    }
  return delta;
}

TEST(PartitionPlan, StaticPlanSplitsTheFullArray) {
  const std::vector<PartitionSpec> plan = static_partition_plan(kDefaultGeometry);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].geometry, kSmallSccGeometry);
  EXPECT_EQ(plan[1].geometry, kSmallSccGeometry);
  EXPECT_EQ(plan[0].origin_y, 0);
  EXPECT_EQ(plan[1].origin_y, kSmallSccGeometry.height);
  EXPECT_NO_THROW(validate_partition_plan(kDefaultGeometry, plan));
  EXPECT_EQ(to_string(plan[1]), "8x4@(0,4)");

  // A fabric too small to stack two slots stays exclusive.
  EXPECT_TRUE(static_partition_plan(kSmallSccGeometry).empty());
}

TEST(PartitionPlan, ValidateRejectsBadPlans) {
  const PartitionSpec ok{0, 0, kSmallSccGeometry};
  EXPECT_THROW(
      validate_partition_plan(kDefaultGeometry, {PartitionSpec{0, 0, {0, 4}}}),
      std::invalid_argument);
  EXPECT_THROW(
      validate_partition_plan(kDefaultGeometry, {PartitionSpec{8, 0, kSmallSccGeometry}}),
      std::invalid_argument);  // 8 + 8 > 12: off the right edge
  EXPECT_THROW(
      validate_partition_plan(kDefaultGeometry, {PartitionSpec{-1, 0, kSmallSccGeometry}}),
      std::invalid_argument);
  EXPECT_THROW(
      validate_partition_plan(kDefaultGeometry, {ok, PartitionSpec{4, 2, kSmallSccGeometry}}),
      std::invalid_argument);  // overlaps the first slot
  EXPECT_NO_THROW(validate_partition_plan(kDefaultGeometry, {ok}));
  EXPECT_NO_THROW(validate_partition_plan(kDefaultGeometry, {}));
}

TEST(RegionCodec, TranslatePreservesFramesAndOrder) {
  const ConfigFrameImage& local =
      shared_library().frame_image("scc_full", kSmallSccGeometry);
  ASSERT_FALSE(local.frames.empty());
  const PartitionSpec slot{0, kSmallSccGeometry.height, kSmallSccGeometry};
  const ConfigFrameImage fabric_image = translate_frame_image(
      local, slot.region(), kDefaultGeometry.width, kDefaultGeometry.height);
  ASSERT_EQ(fabric_image.frames.size(), local.frames.size());
  for (std::size_t i = 0; i < local.frames.size(); ++i) {
    EXPECT_EQ(fabric_image.frames[i].x, local.frames[i].x + slot.origin_x);
    EXPECT_EQ(fabric_image.frames[i].y, local.frames[i].y + slot.origin_y);
    EXPECT_EQ(fabric_image.frames[i].payload, local.frames[i].payload);
    EXPECT_TRUE(slot.region().contains(fabric_image.frames[i].x, fabric_image.frames[i].y));
  }

  // A region that does not fit the fabric grid is refused.
  EXPECT_THROW(translate_frame_image(local, ConfigRegion{8, 0, 8, 4},
                                     kDefaultGeometry.width, kDefaultGeometry.height),
               std::invalid_argument);
  // A region whose size does not match the image grid is refused.
  EXPECT_THROW(translate_frame_image(local, ConfigRegion{0, 0, 4, 4},
                                     kDefaultGeometry.width, kDefaultGeometry.height),
               std::invalid_argument);
}

TEST(RegionCodec, SealRefusesStraysAndCorruption) {
  const ConfigRegion region{0, 4, 8, 4};
  ConfigDelta delta;
  delta.width = kDefaultGeometry.width;
  delta.height = kDefaultGeometry.height;
  delta.rewrites.push_back({2, 5, payload_of(MuxRegCfg{8, true})});
  delta.clears.push_back({7, 7});
  const std::vector<std::uint8_t> sealed = encode_region_delta(delta, region);
  const RegionDelta decoded = decode_region_delta(sealed);
  EXPECT_EQ(decoded.region, region);
  EXPECT_EQ(decoded.delta, delta);

  // A frame outside the rectangle is refused at encode.
  ConfigDelta stray = delta;
  stray.rewrites.push_back({9, 1, payload_of(MuxRegCfg{8, true})});
  EXPECT_THROW(encode_region_delta(stray, region), std::invalid_argument);
  ConfigDelta stray_clear = delta;
  stray_clear.clears.push_back({0, 0});
  EXPECT_THROW(encode_region_delta(stray_clear, region), std::invalid_argument);

  // Any corrupted byte is rejected by the seal before a frame is written.
  for (std::size_t i = 0; i < sealed.size(); i += 3) {
    std::vector<std::uint8_t> bad = sealed;
    bad[i] ^= 0x40;
    EXPECT_THROW(decode_region_delta(bad), std::runtime_error) << "byte " << i;
  }
}

TEST(RegionCodec, FuzzRegionDeltaNeverEscapesItsRectangle) {
  Rng rng(0xD5AA0001);
  const int fw = kDefaultGeometry.width;
  const int fh = kDefaultGeometry.height;
  const ConfigRegion regions[] = {{0, 0, 8, 4}, {0, 4, 8, 4}};
  for (int iter = 0; iter < 200; ++iter) {
    const ConfigFrameImage composite = random_composite(rng, fw, fh);
    const ConfigRegion& region = regions[iter % 2];
    const ConfigRegion& other = regions[(iter + 1) % 2];
    const ConfigDelta local = random_local_delta(rng, region.width, region.height);
    const ConfigDelta fabric_delta = translate_config_delta(local, region, fw, fh);
    ASSERT_TRUE(delta_within_region(fabric_delta, region));

    const RegionDelta sealed =
        decode_region_delta(encode_region_delta(fabric_delta, region));
    ASSERT_EQ(sealed.region, region);
    const ConfigFrameImage after =
        apply_region_delta(composite, sealed.delta, sealed.region);

    // Every frame outside the rectangle survives byte-identically, and
    // nothing outside the rectangle appears or disappears.
    std::vector<const ConfigFrame*> before_out, after_out;
    for (const ConfigFrame& f : composite.frames)
      if (!region.contains(f.x, f.y)) before_out.push_back(&f);
    for (const ConfigFrame& f : after.frames)
      if (!region.contains(f.x, f.y)) after_out.push_back(&f);
    ASSERT_EQ(before_out.size(), after_out.size()) << "iteration " << iter;
    for (std::size_t i = 0; i < before_out.size(); ++i) {
      EXPECT_EQ(before_out[i]->x, after_out[i]->x);
      EXPECT_EQ(before_out[i]->y, after_out[i]->y);
      EXPECT_EQ(before_out[i]->payload, after_out[i]->payload);
    }

    // The same sealed delta refuses to apply as another tenant's region.
    if (!sealed.delta.empty()) {
      EXPECT_THROW(apply_region_delta(composite, sealed.delta, other),
                   std::invalid_argument);
    }

    // blit_region obeys the same boundary: tenant frames land inside,
    // outside frames survive untouched.
    ConfigFrameImage tenant;
    tenant.width = region.width;
    tenant.height = region.height;
    for (const ConfigFrame& f : random_composite(rng, region.width, region.height).frames)
      tenant.frames.push_back(f);
    const ConfigFrameImage blitted = blit_region(
        composite, translate_frame_image(tenant, region, fw, fh), region);
    std::size_t outside = 0;
    for (const ConfigFrame& f : blitted.frames)
      if (!region.contains(f.x, f.y)) ++outside;
    EXPECT_EQ(outside, before_out.size()) << "iteration " << iter;
  }
}

TEST(FabricPoolTenancy, SlotsExpandFromPartitionPlans) {
  FabricConfig tenant;
  tenant.geometry = kDefaultGeometry;
  tenant.partitions = static_partition_plan(kDefaultGeometry);
  tenant.context_capacity_bytes = 4096;
  FabricConfig whole;
  whole.geometry = kDefaultGeometry;

  FabricPool pool({tenant, whole}, shared_library());
  EXPECT_EQ(pool.size(), 3);            // 2 partition slots + 1 exclusive
  EXPECT_EQ(pool.physical_count(), 2);  // on 2 physical fabrics
  EXPECT_EQ(pool.physical_of(), (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(pool.physical_tiles(), 2 * kDefaultGeometry.tiles());
  EXPECT_FALSE(pool.at(0).exclusive());
  EXPECT_FALSE(pool.at(1).exclusive());
  EXPECT_TRUE(pool.at(2).exclusive());
  EXPECT_EQ(pool.at(0).geometry(), kSmallSccGeometry);
  EXPECT_EQ(pool.at(1).partition().origin_y, kSmallSccGeometry.height);
  // Co-tenants split the physical context store.
  EXPECT_EQ(pool.at(0).cache().config().capacity_bytes, 2048u);

  // An invalid plan is refused at pool construction.
  FabricConfig bad = tenant;
  bad.partitions = {PartitionSpec{0, 0, kSmallSccGeometry},
                    PartitionSpec{0, 2, kSmallSccGeometry}};
  EXPECT_THROW(FabricPool({bad}, shared_library()), std::invalid_argument);
}

TEST(FabricPoolTenancy, CoTenantProgrammingStaysInsideItsRectangle) {
  FabricConfig tenant;
  tenant.geometry = kDefaultGeometry;
  tenant.partitions = static_partition_plan(kDefaultGeometry);
  tenant.partial_reconfig = true;
  FabricPool pool({tenant}, shared_library());
  ASSERT_EQ(pool.size(), 2);

  // Cold loads: each tenant's rectangle holds exactly its translated
  // context image; the composite is their disjoint union.
  pool.at(0).prepare("scc_full");
  pool.at(1).prepare("mixed_rom");
  const ConfigFrameImage expect0 =
      translate_frame_image(shared_library().frame_image("scc_full", kSmallSccGeometry),
                            pool.at(0).partition().region(), kDefaultGeometry.width,
                            kDefaultGeometry.height);
  const ConfigFrameImage expect1 =
      translate_frame_image(shared_library().frame_image("mixed_rom", kSmallSccGeometry),
                            pool.at(1).partition().region(), kDefaultGeometry.width,
                            kDefaultGeometry.height);
  EXPECT_EQ(pool.at(0).region_image().frames, expect0.frames);
  EXPECT_EQ(pool.at(1).region_image().frames, expect1.frames);
  EXPECT_EQ(pool.composite_image(0).frames.size(),
            expect0.frames.size() + expect1.frames.size());

  // A partial switch on slot 0 must go down the sealed region-delta path
  // and leave slot 1's rectangle byte-identical.
  const ConfigFrameImage other_before = pool.at(1).region_image();
  pool.at(0).prepare("scc_even_odd");
  EXPECT_GE(pool.at(0).region_deltas(), 1u);
  const ConfigFrameImage expect0b =
      translate_frame_image(shared_library().frame_image("scc_even_odd", kSmallSccGeometry),
                            pool.at(0).partition().region(), kDefaultGeometry.width,
                            kDefaultGeometry.height);
  EXPECT_EQ(pool.at(0).region_image().frames, expect0b.frames);
  EXPECT_EQ(pool.at(1).region_image().frames, other_before.frames);
  EXPECT_EQ(pool.region_deltas_applied() + pool.region_blits(),
            pool.at(0).region_deltas() + pool.at(0).region_blits() +
                pool.at(1).region_deltas() + pool.at(1).region_blits());
}

std::vector<StreamJob> scc_workload(int streams, int frames) {
  std::vector<StreamJob> jobs;
  for (int k = 0; k < streams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = frames;
    cfg.condition = k % 2 == 0 ? soc::RuntimeCondition{0.1, 0.9}   // scc_full
                               : soc::RuntimeCondition{0.9, 0.3};  // mixed_rom
    cfg.codec.me_range = 4;
    cfg.seed = 9300 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

RunReport run_scc(const std::vector<FabricConfig>& fabrics, std::vector<StreamJob>& jobs) {
  SchedulerConfig cfg;
  cfg.fabric_configs = fabrics;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 64;
  cfg.queue.aging_threshold = 96;
  jobs = scc_workload(6, 3);
  return MultiStreamScheduler(shared_library(), cfg).run(jobs);
}

TEST(TenancyScheduling, CoTenantEncodeBitExactWithExclusive) {
  FabricConfig whole;
  whole.geometry = kDefaultGeometry;
  whole.partial_reconfig = true;
  FabricConfig tenant = whole;
  tenant.partitions = static_partition_plan(kDefaultGeometry);

  std::vector<StreamJob> exclusive_jobs, tenancy_jobs;
  const RunReport exclusive = run_scc({whole, whole}, exclusive_jobs);
  const RunReport tenancy = run_scc({tenant, tenant}, tenancy_jobs);

  EXPECT_EQ(exclusive.fabrics, 2);
  EXPECT_EQ(tenancy.fabrics, 4);
  EXPECT_EQ(tenancy.physical_fabrics, 2);
  ASSERT_EQ(tenancy.partitions.size(), 4u);
  EXPECT_FALSE(tenancy.partitions[0].exclusive);
  EXPECT_EQ(tenancy.partitions[1].physical, 0);
  EXPECT_EQ(tenancy.partitions[2].physical, 1);

  // Exclusive slots own their ports: no contention is ever charged. (That
  // co-tenants do contend is a property of the modeled timeline, not of
  // thread timing: TenancyScheduling.CoTenantColdLoadsContendForThePort.)
  EXPECT_EQ(exclusive.port_contention_cycles, 0u);
  // The partitioned run routed every frame and matched the exclusive
  // encode bit for bit.
  ASSERT_EQ(exclusive_jobs.size(), tenancy_jobs.size());
  for (std::size_t s = 0; s < exclusive_jobs.size(); ++s) {
    const StreamJob& a = exclusive_jobs[s];
    const StreamJob& b = tenancy_jobs[s];
    ASSERT_EQ(a.records.size(), b.records.size()) << "stream " << s;
    EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << "stream " << s;
    for (std::size_t f = 0; f < a.records.size(); ++f) {
      EXPECT_EQ(a.records[f].impl, b.records[f].impl);
      EXPECT_EQ(a.records[f].stats.bits, b.records[f].stats.bits);
      EXPECT_EQ(a.records[f].stats.psnr_db, b.records[f].stats.psnr_db);
    }
  }
  // Region-scoped programming happened on the partitioned pool.
  std::uint64_t region_ops = 0;
  for (const PartitionSummary& p : tenancy.partitions)
    region_ops += p.region_deltas + p.region_blits;
  EXPECT_GT(region_ops, 0u);
}

TEST(TenancyScheduling, CoTenantColdLoadsContendForThePort) {
  // A hand-built timeline: two slots each open their first job with a
  // 500-cycle context load at tick 0. On one physical fabric the slots
  // share a configuration port, so the second load waits out the first;
  // under the identity topology each slot owns its port and nothing
  // waits.
  std::vector<StreamJob> streams(2);
  std::vector<StageEvent> timeline;
  for (int s = 0; s < 2; ++s) {
    streams[static_cast<std::size_t>(s)].id = s;
    FrameRecord record;
    record.stats.dct_array_cycles = 1000;
    streams[static_cast<std::size_t>(s)].records.push_back(record);
    timeline.push_back({timeline.size() + 1, true, s, 0, s, StageKind::kWholeFrame});
  }
  for (int s = 0; s < 2; ++s)
    timeline.push_back({timeline.size() + 1, false, s, 0, s, StageKind::kWholeFrame, 500});

  const std::vector<int> one_port{0, 0};
  const SimSchedule shared = simulate_timeline(streams, timeline, 1, &one_port);
  EXPECT_EQ(shared.contention_cycles, 500u);
  EXPECT_EQ(shared.port_wait_cycles, (std::vector<std::uint64_t>{0, 500}));
  const SimSchedule identity = simulate_timeline(streams, timeline);
  EXPECT_EQ(identity.contention_cycles, 0u);
}

TEST(TenancyScheduling, PartitionedOnlyPoolRejectsUnplaceableContext) {
  FabricConfig tenant;
  tenant.geometry = kDefaultGeometry;
  tenant.partitions = static_partition_plan(kDefaultGeometry);

  SchedulerConfig cfg;
  cfg.fabric_configs = {tenant};
  std::vector<StreamJob> jobs;
  StreamConfig stream;
  stream.name = "hd";
  stream.width = 32;
  stream.height = 32;
  stream.frame_budget = 2;
  stream.condition = {1.0, 1.0};  // cordic1: needs the full 12x8 array
  jobs.push_back(make_synthetic_job(0, stream));

  MultiStreamScheduler sched(shared_library(), cfg);
  EXPECT_THROW(sched.run(jobs), std::invalid_argument);

  // A partition plan naming a geometry the library lacks is refused at
  // scheduler construction.
  FabricConfig odd = tenant;
  odd.partitions = {PartitionSpec{0, 0, {6, 4}}, PartitionSpec{0, 4, {6, 4}}};
  SchedulerConfig bad;
  bad.fabric_configs = {odd};
  EXPECT_THROW(MultiStreamScheduler(shared_library(), bad), std::invalid_argument);
}

}  // namespace
}  // namespace dsra::runtime
