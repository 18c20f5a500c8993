// Live health subsystem: flight-recorder ring semantics (wrap keeps the
// newest records, snapshots are tear-free), watchdog trips on injected
// anomalies (stall, queue growth, starvation, SLA burn — each
// demonstrably fires, and the burn detector fires *before* the deadline
// passes), zero-cost-off bit-exactness, a clean monitored run tripping
// nothing, and the metrics timeline epoch cap accounting its drops.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "runtime/health/flight_recorder.hpp"
#include "runtime/health/monitor.hpp"
#include "runtime/health/snapshot.hpp"
#include "runtime/health/watchdog.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"

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
    cfg.seed = 9300 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

void expect_bit_exact(const StreamJob& a, const StreamJob& b) {
  ASSERT_EQ(a.records.size(), b.records.size()) << a.config.name;
  for (std::size_t k = 0; k < a.records.size(); ++k) {
    const video::FrameStats& sa = a.records[k].stats;
    const video::FrameStats& sb = b.records[k].stats;
    EXPECT_EQ(a.records[k].impl, b.records[k].impl) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.bits, sb.bits) << a.config.name << "/" << k;
    EXPECT_DOUBLE_EQ(sa.psnr_db, sb.psnr_db) << a.config.name << "/" << k;
    EXPECT_EQ(sa.blocks_coded, sb.blocks_coded) << a.config.name << "/" << k;
    EXPECT_EQ(sa.dct_array_cycles, sb.dct_array_cycles) << a.config.name << "/" << k;
    EXPECT_EQ(sa.me_array_cycles, sb.me_array_cycles) << a.config.name << "/" << k;
  }
  EXPECT_EQ(a.recon_state.data(), b.recon_state.data()) << a.config.name;
}

// ---- flight recorder --------------------------------------------------

TEST(FlightRecorder, WrapKeepsNewestRecords) {
  health::FlightRecorderConfig cfg;
  cfg.capacity_per_ring = 64;  // already a power of two
  health::FlightRecorder rec(cfg);
  rec.begin_run(/*fabrics=*/1);
  const int total = 200;
  for (int i = 0; i < total; ++i)
    rec.record(0, health::EventKind::kDispatch, /*stream=*/i, /*frame=*/i % 7,
               /*value=*/static_cast<std::uint64_t>(i));

  EXPECT_EQ(rec.recorded(), static_cast<std::uint64_t>(total));
  EXPECT_EQ(rec.dropped(), static_cast<std::uint64_t>(total - 64));

  const std::vector<health::FlightEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 64u);
  // Overwrite-oldest: exactly the last 64 records survive, in sequence
  // order, payloads intact.
  for (std::size_t k = 0; k < events.size(); ++k) {
    const int i = total - 64 + static_cast<int>(k);
    EXPECT_EQ(events[k].seq, static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(events[k].stream_id, i);
    EXPECT_EQ(events[k].frame_index, i % 7);
    EXPECT_EQ(events[k].value, static_cast<std::uint64_t>(i));
    EXPECT_EQ(events[k].kind, health::EventKind::kDispatch);
  }
}

TEST(FlightRecorder, MergesRingsInGlobalOrderAndSurvivesConcurrentReads) {
  health::FlightRecorder rec({256});
  rec.begin_run(/*fabrics=*/2);  // rings 0, 1 + control ring 2
  EXPECT_EQ(rec.control_ring(), 2);

  // Two writer threads (one per ring) race a snapshotting reader; every
  // event a snapshot returns must be untorn (stream == value here) and
  // in strictly increasing global sequence order.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto events = rec.snapshot();
      std::uint64_t prev_seq = 0;
      for (const health::FlightEvent& ev : events) {
        EXPECT_GT(ev.seq, prev_seq);
        prev_seq = ev.seq;
        EXPECT_EQ(static_cast<std::uint64_t>(ev.stream_id), ev.value);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int ring = 0; ring < 2; ++ring)
    writers.emplace_back([&rec, ring] {
      for (int i = 0; i < 4000; ++i)
        rec.record(ring, health::EventKind::kSteal, /*stream=*/i, /*frame=*/0,
                   /*value=*/static_cast<std::uint64_t>(i));
    });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(rec.recorded(), 8000u);
  const std::string json = rec.json();
  EXPECT_NE(json.find("\"capacity_per_ring\": 256"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"steal\""), std::string::npos);
}

TEST(FlightRecorder, OutOfRangeRingIsDroppedNotFatal) {
  health::FlightRecorder rec({64});
  rec.begin_run(1);
  rec.record(7, health::EventKind::kDispatch, 0, 0, 0);   // no such ring
  rec.record(-1, health::EventKind::kDispatch, 0, 0, 0);  // negative
  EXPECT_TRUE(rec.snapshot().empty());
}

// ---- watchdogs over synthetic snapshots -------------------------------

health::HealthSnapshot snap_with(std::uint64_t epoch, std::uint64_t depth,
                                 std::uint64_t completions,
                                 std::uint64_t oldest_age = 0) {
  health::HealthSnapshot s;
  s.epoch = epoch;
  s.queue.depth = depth;
  s.queue.completions = completions;
  s.queue.oldest_age = oldest_age;
  return s;
}

TEST(Watchdogs, StallTripsAfterConfiguredEpochsAndLatches) {
  health::WatchdogConfig cfg;
  cfg.stall_epochs = 3;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0;
  // Baseline epoch, then three no-progress epochs with queued work.
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 5, 10)).empty());
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 5, 10)).empty());
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 5, 10)).empty());
  const auto trips = dogs.evaluate(snap_with(++epoch, 5, 10));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kStall);
  // Latched: the persisting stall does not re-trip.
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 5, 10)).empty());
  // Progress resets nothing visible — already latched for the run.
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 5, 11)).empty());
}

TEST(Watchdogs, CompletionsProgressPreventsStall) {
  health::WatchdogConfig cfg;
  cfg.stall_epochs = 2;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0, done = 0;
  for (int i = 0; i < 10; ++i)
    EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 5, ++done)).empty());
}

TEST(Watchdogs, InflightWorkSuppressesStall) {
  // One long job spanning many epochs with zero completions is SLOW,
  // not stalled (think a sanitizer-instrumented or heavily loaded
  // host): as long as something is in flight the stall verdict must
  // stay suppressed, and the run counter must restart when work picks
  // back up.
  health::WatchdogConfig cfg;
  cfg.stall_epochs = 3;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0;
  auto inflight_snap = [&](std::uint64_t inflight) {
    health::HealthSnapshot s = snap_with(++epoch, 5, 10);
    s.inflight_jobs = inflight;
    return s;
  };
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(dogs.evaluate(inflight_snap(1)).empty());
  // The worker wedges for real: in-flight drains to zero, no progress.
  EXPECT_TRUE(dogs.evaluate(inflight_snap(0)).empty());
  EXPECT_TRUE(dogs.evaluate(inflight_snap(0)).empty());
  const auto trips = dogs.evaluate(inflight_snap(0));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kStall);
}

TEST(Watchdogs, QueueGrowthTripsOnMonotoneGrowthAboveFloor) {
  health::WatchdogConfig cfg;
  cfg.growth_epochs = 4;
  cfg.growth_min_depth = 16;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0, done = 0;
  // Growing but below the floor: transient ramp, no trip.
  for (std::uint64_t d = 1; d <= 5; ++d)
    EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, d, ++done)).empty());
  // Keep growing past the floor: 6..17 — the 4-epoch monotone run is
  // long satisfied, the floor arms the trip at depth >= 16.
  std::vector<health::WatchdogTrip> trips;
  for (std::uint64_t d = 6; d <= 17 && trips.empty(); ++d)
    trips = dogs.evaluate(snap_with(++epoch, d, ++done));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kQueueGrowth);
}

TEST(Watchdogs, FlatDepthNeverTripsGrowth) {
  health::Watchdogs dogs;
  std::uint64_t epoch = 0, done = 0;
  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 20, ++done)).empty());
}

TEST(Watchdogs, StarvationTripsPastAgeBound) {
  health::WatchdogConfig cfg;
  cfg.starvation_age_bound = 128;
  health::Watchdogs dogs(cfg);
  std::uint64_t epoch = 0, done = 0;
  EXPECT_TRUE(dogs.evaluate(snap_with(++epoch, 4, ++done, 128)).empty());
  const auto trips = dogs.evaluate(snap_with(++epoch, 4, ++done, 129));
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kStarvation);
}

// ---- injected anomalies through the monitor ---------------------------

TEST(HealthMonitor, StalledQueueTripsStallWatchdog) {
  // A real queue full of seeded jobs that nothing drives: depth stays
  // positive, completions stay zero — the wedged-planner shape.
  auto jobs = mixed_workload(4, 3, 16);
  JobQueue queue(jobs);

  health::HealthMonitorConfig cfg;
  cfg.watchdogs.stall_epochs = 3;
  health::HealthMonitor monitor(cfg);  // manual ticks: deterministic
  monitor.begin_run(/*fabrics=*/2, {});
  monitor.attach_queue([&queue] { return queue.health_sample(); });

  for (int i = 0; i < 4; ++i) {
    const health::HealthSnapshot snap = monitor.tick();
    EXPECT_GT(snap.queue.depth, 0u);
    EXPECT_EQ(snap.queue.completions, 0u);
  }
  monitor.finish_run();

  const auto trips = monitor.trips();
  ASSERT_FALSE(trips.empty());
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kStall);
  EXPECT_EQ(monitor.anomalies_total(), trips.size());
  // The trip landed in the flight recorder's control ring too.
  bool saw_trip_event = false;
  for (const health::FlightEvent& ev : monitor.flight().snapshot())
    if (ev.kind == health::EventKind::kWatchdogTrip) saw_trip_event = true;
  EXPECT_TRUE(saw_trip_event);
}

TEST(HealthMonitor, OverloadWaveTripsBurnRateBeforeDeadline) {
  // Stream 0 holds a deadline exactly equal to its own analytic cost —
  // feasible alone, hopeless once an overload wave (stream 1's traffic)
  // soaks the pool. Stream 0 finishes 1 frame while the wave burns 5
  // frames of modeled time: projected completion 5x the deadline.
  health::StreamBudget constrained;
  constrained.stream_id = 0;
  constrained.deadline_cycles = 1000.0;
  constrained.frame_cycles.assign(10, 100.0);  // total 1000
  health::StreamBudget wave;
  wave.stream_id = 1;
  wave.deadline_cycles = 0.0;  // best-effort background load
  wave.frame_cycles.assign(10, 100.0);

  health::HealthMonitorConfig cfg;
  cfg.watchdogs.burn_threshold = 1.25;
  cfg.watchdogs.burn_warmup = 0.10;
  health::HealthMonitor monitor(cfg);
  monitor.begin_run(/*fabrics=*/1, {constrained, wave});

  monitor.on_frame_done(0);
  for (int i = 0; i < 4; ++i) monitor.on_frame_done(1);
  const health::HealthSnapshot snap = monitor.tick();
  monitor.finish_run();

  ASSERT_EQ(snap.streams.size(), 2u);
  // Tripped BEFORE the deadline passed: the detector predicts the
  // violation while there is still budget left.
  EXPECT_LT(snap.modeled_now_cycles, 1000.0);
  EXPECT_GT(snap.streams[0].burn_rate, 1.25);
  const auto trips = monitor.trips();
  ASSERT_FALSE(trips.empty());
  EXPECT_EQ(trips[0].kind, health::WatchdogKind::kSlaBurn);
  EXPECT_EQ(trips[0].stream_id, 0);
  // Best-effort streams never carry a burn rate.
  EXPECT_EQ(snap.streams[1].burn_rate, 0.0);
}

TEST(HealthMonitor, BurnRatesAreAlwaysFiniteAndNonNegative) {
  health::StreamBudget b;
  b.stream_id = 0;
  b.deadline_cycles = 500.0;
  b.frame_cycles.assign(4, 50.0);
  health::HealthMonitor monitor;
  monitor.begin_run(1, {b});
  // Epoch with zero progress, partial progress, and completion.
  for (int i = 0; i < 5; ++i) {
    const health::HealthSnapshot snap = monitor.tick();
    for (const health::StreamHealth& s : snap.streams) {
      EXPECT_GE(s.burn_rate, 0.0);
      EXPECT_TRUE(s.burn_rate == s.burn_rate);  // not NaN
      EXPECT_LT(s.burn_rate, 1e12);             // finite
    }
    monitor.on_frame_done(0);
  }
  monitor.finish_run();
  EXPECT_EQ(monitor.anomalies_total(), 0u);  // on-budget throughout
}

// ---- scheduler integration --------------------------------------------

TEST(HealthScheduler, ZeroCostOffIsBitExact) {
  // Health on vs off on a multi-fabric pool: modeled cycles and encoded
  // output must be identical — the monitor only observes.
  auto plain_jobs = mixed_workload(4, 3, 16);
  auto monitored_jobs = mixed_workload(4, 3, 16);

  SchedulerConfig cfg;
  cfg.fabrics = 3;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  const RunReport plain = MultiStreamScheduler(library(), cfg).run(plain_jobs);

  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_host_ms = 0.25;  // live sampler thread racing the run
  health::HealthMonitor monitor(mon_cfg);
  cfg.health = &monitor;
  const RunReport monitored = MultiStreamScheduler(library(), cfg).run(monitored_jobs);

  EXPECT_EQ(plain.sim_makespan_cycles, monitored.sim_makespan_cycles);
  ASSERT_EQ(plain_jobs.size(), monitored_jobs.size());
  for (std::size_t s = 0; s < plain_jobs.size(); ++s)
    expect_bit_exact(plain_jobs[s], monitored_jobs[s]);
}

TEST(HealthScheduler, CleanRunTripsNothingAndRecordsFlightEvents) {
  auto jobs = mixed_workload(6, 3, 16);
  SchedulerConfig cfg;
  cfg.fabrics = 2;
  cfg.queue.mode = DispatchMode::kStagePipeline;
  health::HealthMonitorConfig mon_cfg;
  mon_cfg.epoch_host_ms = 0.25;
  health::HealthMonitor monitor(mon_cfg);
  telemetry::MetricsRegistry metrics;
  cfg.health = &monitor;
  cfg.metrics = &metrics;

  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  // On failure, say which watchdog fired and why.
  std::string trip_details;
  for (const health::WatchdogTrip& t : monitor.trips())
    trip_details += "\n  " + std::string(to_string(t.kind)) + " at epoch " +
                    std::to_string(t.epoch) + ": " + t.detail;
  EXPECT_EQ(monitor.anomalies_total(), 0u) << trip_details;
  EXPECT_EQ(report.health_anomalies, 0u);
  EXPECT_TRUE(monitor.trips().empty()) << trip_details;
  // The run produced dispatch flight events and at least the final tick.
  EXPECT_GT(monitor.flight().recorded(), 0u);
  EXPECT_GE(monitor.epochs(), 1u);
  const auto snaps = monitor.snapshots();
  ASSERT_FALSE(snaps.empty());
  // Epochs strictly monotone; the final snapshot sees the drained queue.
  for (std::size_t i = 1; i < snaps.size(); ++i)
    EXPECT_GT(snaps[i].epoch, snaps[i - 1].epoch);
  EXPECT_EQ(snaps.back().queue.depth, 0u);
  EXPECT_GT(snaps.back().queue.completions, 0u);
  // Exported into the metrics registry.
  const auto it = metrics.counters().find("health_anomalies_total");
  ASSERT_NE(it, metrics.counters().end());
  EXPECT_EQ(it->second, 0u);
  // The dump is well-formed enough to carry its schema stamp.
  const std::string json = monitor.health_json(report.wall_seconds);
  EXPECT_NE(json.find("\"kind\": \"health\""), std::string::npos);
  EXPECT_NE(json.find("\"flight_recorder\""), std::string::npos);
}

// ---- metrics timeline cap (satellite fix) ------------------------------

TEST(MetricsTimelines, EpochCapIsConfigurableAndDropsAreAccounted) {
  telemetry::MetricsRegistry m;
  EXPECT_EQ(m.timeline_epoch_cap(), 32u);
  m.set_timeline_epoch_cap(8);
  std::vector<double> samples(20, 1.0);
  m.timeline("queue_depth", samples);
  EXPECT_EQ(m.timelines().at("queue_depth").size(), 8u);
  EXPECT_EQ(m.epochs_dropped(), 12u);
  // The exporter surfaces the loss instead of hiding it.
  const std::string json = telemetry::metrics_json(m, 0.0);
  EXPECT_NE(json.find("\"epochs_dropped\": 12"), std::string::npos);
  // Raising the cap stops the dropping.
  m.set_timeline_epoch_cap(64);
  m.timeline("fabric0_utilization", samples);
  EXPECT_EQ(m.timelines().at("fabric0_utilization").size(), 20u);
  EXPECT_EQ(m.epochs_dropped(), 12u);
}

}  // namespace
}  // namespace dsra::runtime
