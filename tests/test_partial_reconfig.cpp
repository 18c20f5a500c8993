// Partial reconfiguration: the ConfigDelta round-trip property over
// random images and over every library context pair, the ReconfigManager
// delta path (charging, fallback, resident-survives-eviction), the
// library delta an eviction race still switches and fetches through, and
// end-to-end bit-exactness of a dynamic scheduler run under partial vs
// full reloads.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/config_codec.hpp"
#include "runtime/scheduler.hpp"
#include "soc/trajectory.hpp"

namespace dsra {
namespace {

using runtime::kDefaultGeometry;
using runtime::KernelLibrary;

// The compiled library (six DCT place-and-route runs plus the ME context)
// is expensive; share one instance across the tests.
const KernelLibrary& library() {
  static const KernelLibrary lib;
  return lib;
}

/// A random valid cluster configuration of a random kind.
ClusterConfig random_config(Rng& rng) {
  const auto width = [&] { return 4 * (1 + static_cast<int>(rng.next_below(8))); };
  switch (rng.next_below(6)) {
    case 0:
      return MuxRegCfg{width(), rng.next_bool()};
    case 1:
      return AbsDiffCfg{width(), static_cast<AbsDiffOp>(rng.next_below(3)), rng.next_bool()};
    case 2:
      return AddAccCfg{width(), static_cast<AddAccOp>(rng.next_below(3)), rng.next_bool()};
    case 3:
      return CompCfg{width(), static_cast<CompOp>(rng.next_below(4))};
    case 4: {
      AddShiftCfg c{width(), AddShiftOp::kAdd, 0, rng.next_bool()};
      c.op = static_cast<AddShiftOp>(rng.next_below(9));
      c.shift = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(c.width)));
      return c;
    }
    default: {
      MemCfg c;
      c.words = 1 << (2 + rng.next_below(5));
      c.width = rng.next_bool() ? 8 : 4;
      c.mode = rng.next_bool() ? MemMode::kRam : MemMode::kRom;
      c.addr_mode = rng.next_bool() ? MemAddrMode::kBit : MemAddrMode::kWord;
      const std::int64_t hi = (1ll << (c.width - 1)) - 1;
      c.contents.resize(static_cast<std::size_t>(c.words));
      for (auto& v : c.contents) v = rng.next_range(-hi - 1, hi);
      return c;
    }
  }
}

/// A random image on a WxH grid with roughly half the tiles occupied.
ConfigFrameImage random_image(Rng& rng, int width, int height) {
  std::vector<PlacedClusterConfig> placed;
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x)
      if (rng.next_bool()) placed.push_back({x, y, random_config(rng)});
  return build_frame_image(width, height, placed);
}

TEST(ConfigDelta, RandomPairRoundTripProperty) {
  Rng rng(41);
  for (int trial = 0; trial < 100; ++trial) {
    const ConfigFrameImage base = random_image(rng, 6, 5);
    const ConfigFrameImage target = random_image(rng, 6, 5);

    const ConfigDelta delta = diff_config_frames(base, target);
    // The round-trip guarantee: base + delta == target, bit-exact (also
    // through the serialised form).
    const ConfigFrameImage applied = apply_config_delta(base, delta);
    ASSERT_EQ(applied, target) << "trial " << trial;
    ASSERT_EQ(encode_config_frames(applied), encode_config_frames(target));
    ASSERT_EQ(decode_config_delta(encode_config_delta(delta)), delta);

    // Minimality bounds: never more frames than both images own, and
    // rewrites never carry more payload than the whole target.
    EXPECT_LE(delta.frame_count(), base.frames.size() + target.frames.size());
    std::size_t rewrite_payload = 0;
    for (const ConfigFrame& f : delta.rewrites) rewrite_payload += f.payload.size();
    EXPECT_LE(rewrite_payload, target.payload_bytes());
  }
}

TEST(ConfigDelta, IdenticalImagesDiffToNothing) {
  Rng rng(77);
  const ConfigFrameImage image = random_image(rng, 5, 4);
  const ConfigDelta delta = diff_config_frames(image, image);
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.frame_count(), 0u);
  EXPECT_EQ(apply_config_delta(image, delta), image);

  ConfigFrameImage other = random_image(rng, 7, 4);
  EXPECT_THROW((void)diff_config_frames(image, other), std::invalid_argument);
  EXPECT_THROW((void)apply_config_delta(other, delta), std::invalid_argument);
}

TEST(ConfigDelta, LibraryPairwiseTableRoundTripsBitExactly) {
  const KernelLibrary& lib = library();
  const auto names = lib.names();
  for (const std::string& base : names) {
    for (const std::string& target : names) {
      if (base == target) {
        EXPECT_EQ(lib.delta(kDefaultGeometry, base, target), nullptr);
        continue;
      }
      const ConfigDelta* delta = lib.delta(kDefaultGeometry, base, target);
      ASSERT_NE(delta, nullptr) << base << " -> " << target;
      EXPECT_EQ(apply_config_delta(lib.frame_image(base, kDefaultGeometry), *delta),
                lib.frame_image(target, kDefaultGeometry))
          << base << " -> " << target;

      const auto cost = lib.delta_cost(kDefaultGeometry, base, target);
      ASSERT_TRUE(cost.has_value());
      EXPECT_EQ(cost->delta_bits, config_delta_bits(*delta));
      EXPECT_EQ(cost->frames, delta->frame_count());
      // The delta is never dearer than the full stream for the library's
      // own contexts (the manager would fall back if it were).
      EXPECT_LE(cost->delta_bits,
                static_cast<std::uint64_t>(lib.bitstream(target, kDefaultGeometry).size()) * 8)
          << base << " -> " << target;
    }
  }
  // The ME context sits on a different array geometry: no delta, by
  // design — a DCT <-> ME pair must fall back to a full reload.
  EXPECT_EQ(lib.delta(kDefaultGeometry, "cordic1", runtime::kMeContextName), nullptr);
  EXPECT_FALSE(lib.delta_cost(kDefaultGeometry, runtime::kMeContextName, "cordic1").has_value());
  // scc_full shares da_basic's complete cluster programming (its ROMs
  // are the same DA LUTs): the delta is pure header, zero frames.
  EXPECT_EQ(lib.delta(kDefaultGeometry, "da_basic", "scc_full")->frame_count(), 0u);
}

TEST(PartialReconfig, ManagerChargesDeltaAndFallsBack) {
  soc::ReconfigManager mgr(soc::ReconfigPortConfig{32, 64});
  mgr.store("a", std::vector<std::uint8_t>(1000, 0));
  mgr.store("b", std::vector<std::uint8_t>(1000, 0));
  mgr.store("c", std::vector<std::uint8_t>(1000, 0));
  mgr.enable_partial_reconfig(
      [](const std::string& base,
         const std::string& target) -> std::optional<soc::PartialReloadCost> {
        if (base == "a" && target == "b") return soc::PartialReloadCost{320, 5, 40};
        if (base == "b" && target == "c") return soc::PartialReloadCost{999999, 99, 124999};
        return std::nullopt;  // no delta known for this pair
      });

  // No resident configuration yet: the first activation is a full reload.
  EXPECT_EQ(mgr.activate("a"), 1000u * 8u / 32u + 64u);
  EXPECT_EQ(mgr.full_reloads(), 1u);

  // a -> b has a cheap delta: charge ceil(320 / 32) + 64.
  EXPECT_EQ(mgr.activate("b"), 320u / 32u + 64u);
  EXPECT_EQ(mgr.partial_reloads(), 1u);
  EXPECT_EQ(mgr.frames_rewritten(), 5u);
  EXPECT_EQ(mgr.delta_bytes_loaded(), 40u);

  // b -> c's delta is dearer than the full stream: fall back.
  EXPECT_EQ(mgr.activate("c"), mgr.switch_cycles("c"));
  EXPECT_EQ(mgr.full_reloads(), 2u);

  // c -> a has no delta: fall back.
  EXPECT_EQ(mgr.activate("a"), mgr.switch_cycles("a"));
  EXPECT_EQ(mgr.full_reloads(), 3u);
  EXPECT_EQ(mgr.partial_reloads(), 1u);
  EXPECT_EQ(mgr.frames_rewritten(), 5u);
}

TEST(PartialReconfig, ResidentConfigurationSurvivesEviction) {
  soc::ReconfigManager mgr(soc::ReconfigPortConfig{32, 64});
  mgr.store("x", std::vector<std::uint8_t>(400, 0));
  mgr.enable_partial_reconfig(
      [](const std::string&, const std::string&) -> std::optional<soc::PartialReloadCost> {
        return std::nullopt;
      });

  EXPECT_GT(mgr.activate("x"), 0u);
  ASSERT_TRUE(mgr.resident().has_value());
  EXPECT_EQ(*mgr.resident(), "x");

  // Evicting the active context clears the active marker (PR 3's
  // regression) but the silicon still holds the programming.
  EXPECT_TRUE(mgr.evict("x"));
  EXPECT_FALSE(mgr.active().has_value());
  ASSERT_TRUE(mgr.resident().has_value());
  EXPECT_EQ(*mgr.resident(), "x");

  // Re-store + re-activate: the programming never left the fabric, so
  // the partial path charges only the handshake, not the full stream.
  mgr.store("x", std::vector<std::uint8_t>(400, 0));
  EXPECT_EQ(mgr.activate("x"), 64u);
  EXPECT_EQ(mgr.partial_reloads(), 1u);
}

TEST(PartialReconfig, EvictionRaceStillTakesTheLibraryDelta) {
  // The eviction race: the store drops the context the fabric is
  // running. Its bytes are gone (a re-activation must re-store and pay),
  // but the silicon still holds the programming, so the next switch
  // starts from it: the miss moves only the library's delta bytes, and
  // the switch is partial at the library's delta cost.
  const KernelLibrary& lib = library();
  soc::ReconfigManager mgr;
  mgr.enable_partial_reconfig([&](const std::string& base, const std::string& target) {
    return lib.delta_cost(kDefaultGeometry, base, target);
  });
  soc::Bus bus;
  runtime::ContextCache cache(
      mgr, bus,
      [&](const std::string& name) -> const std::vector<std::uint8_t>& {
        return lib.bitstream(name, kDefaultGeometry);
      },
      runtime::ContextCacheConfig{.delta_fetch = true}, nullptr,
      [&](const std::string& base, const std::string& target) -> std::optional<std::size_t> {
        if (const auto cost = lib.delta_cost(kDefaultGeometry, base, target))
          return cost->delta_bytes;
        return std::nullopt;
      });

  (void)cache.touch("cordic1");
  EXPECT_GT(mgr.activate("cordic1"), 0u);
  EXPECT_TRUE(mgr.evict("cordic1"));
  EXPECT_FALSE(cache.resident("cordic1"));
  ASSERT_EQ(mgr.resident(), "cordic1");

  const auto delta = lib.delta_cost(kDefaultGeometry, "cordic1", "cordic2");
  ASSERT_TRUE(delta.has_value());
  const std::size_t full_bytes = lib.bitstream("cordic2", kDefaultGeometry).size();
  ASSERT_LT(delta->delta_bytes, full_bytes);
  const runtime::ContextCacheStats before = cache.stats();
  EXPECT_GT(cache.touch("cordic2"), 0u);
  EXPECT_EQ(cache.stats().delta_fetches, before.delta_fetches + 1);
  EXPECT_EQ(cache.stats().bytes_fetched - before.bytes_fetched, delta->delta_bytes);
  EXPECT_EQ(cache.stats().bytes_saved - before.bytes_saved, full_bytes - delta->delta_bytes);
  EXPECT_TRUE(cache.byte_balance_ok());

  const soc::ReconfigPortConfig port;
  const auto width = static_cast<std::uint64_t>(port.width_bits);
  EXPECT_EQ(mgr.activate("cordic2"), (delta->delta_bits + width - 1) / width +
                                         static_cast<std::uint64_t>(port.overhead_cycles));
  EXPECT_TRUE(mgr.last_activation_partial());
  EXPECT_EQ(mgr.partial_reloads(), 1u);
  EXPECT_EQ(mgr.frames_rewritten(), delta->frames);
  EXPECT_EQ(mgr.delta_bytes_loaded(), delta->delta_bytes);
}

/// A draining/fading mixed workload whose impls change mid-flight.
std::vector<runtime::StreamJob> dynamic_workload(int frames) {
  const soc::TrajectoryPtr trajectories[] = {
      soc::linear_battery_drain(0.95, 0.15, 0.9),
      soc::sinusoidal_channel_fade(0.9, 0.5, 0.2, 4.0),
      soc::stepped_channel_fade(0.9, {0.9, 0.3, 0.9}, 2),
      soc::jittered_trajectory(soc::constant_trajectory({0.6, 0.9}), 11, 0.05),
  };
  std::vector<runtime::StreamJob> jobs;
  int id = 0;
  for (const auto& t : trajectories) {
    runtime::StreamConfig cfg;
    cfg.name = "dyn" + std::to_string(id);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = frames;
    cfg.trajectory = t;
    cfg.condition_policy = soc::ConditionPolicy::kHysteresis;
    cfg.hysteresis_band = 0.06;
    cfg.codec.me_range = 4;
    cfg.seed = 400 + static_cast<std::uint64_t>(id) * 7;
    jobs.push_back(runtime::make_synthetic_job(id, cfg));
    ++id;
  }
  return jobs;
}

TEST(PartialReconfig, SchedulerRunIsBitExactAndCheaper) {
  runtime::SchedulerConfig cfg;
  runtime::FabricConfig fabric;
  fabric.reconfig_port.width_bits = 4;
  cfg.fabric_configs = {fabric};

  auto full_jobs = dynamic_workload(6);
  const runtime::RunReport full =
      runtime::MultiStreamScheduler(library(), cfg).run(full_jobs);

  cfg.fabric_configs[0].partial_reconfig = true;
  auto part_jobs = dynamic_workload(6);
  const runtime::RunReport part =
      runtime::MultiStreamScheduler(library(), cfg).run(part_jobs);

  EXPECT_EQ(full.total_frames, part.total_frames);
  EXPECT_EQ(full.total_switches, part.total_switches) << "same switch sequence";
  EXPECT_EQ(full.partial_reloads, 0u);
  EXPECT_GT(part.partial_reloads, 0u);
  EXPECT_GT(part.frames_rewritten, 0u);
  EXPECT_LT(part.total_reconfig_cycles, full.total_reconfig_cycles);
  // The delta cycles flow through the modeled makespan, so cheap
  // switches shorten the modeled schedule, not just a counter.
  EXPECT_LT(part.sim_makespan_cycles, full.sim_makespan_cycles);

  // Partial reconfiguration may change what the port shifts, never what
  // the fabric computes: every frame bit-exact vs the full-reload run.
  for (std::size_t s = 0; s < full_jobs.size(); ++s) {
    const runtime::StreamJob& a = full_jobs[s];
    const runtime::StreamJob& b = part_jobs[s];
    ASSERT_EQ(a.records.size(), b.records.size());
    for (std::size_t k = 0; k < a.records.size(); ++k) {
      EXPECT_EQ(a.records[k].impl, b.records[k].impl);
      EXPECT_EQ(a.records[k].frame_index, b.records[k].frame_index);
      EXPECT_DOUBLE_EQ(a.records[k].stats.bits, b.records[k].stats.bits);
      EXPECT_DOUBLE_EQ(a.records[k].stats.psnr_db, b.records[k].stats.psnr_db);
    }
    EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << a.config.name;
  }
}

}  // namespace
}  // namespace dsra
