// Multi-stream encode runtime: bounded bitstream context cache,
// config-affinity batching vs naive round-robin, scheduler fairness
// (ageing valve) under concurrent fabrics, and a randomized stress test
// over the stage pipeline.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/scheduler.hpp"

namespace dsra::runtime {
namespace {

// The compiled library (six place-and-route runs) is expensive; share one
// instance across the scheduler tests.
const KernelLibrary& library() {
  static const KernelLibrary lib;
  return lib;
}

std::vector<StreamJob> mixed_workload(int streams, int frames, int size) {
  // Adjacent streams always demand different bitstreams, the worst case
  // for a scheduler that ignores configuration affinity.
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
    cfg.seed = 100 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

/// @p majority cordic1 streams followed by one scc_full stream.
std::vector<StreamJob> majority_and_minority(int majority, int frames, int size) {
  std::vector<StreamJob> jobs;
  for (int k = 0; k <= majority; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = size;
    cfg.height = size;
    cfg.frame_budget = frames;
    cfg.condition = k < majority ? soc::RuntimeCondition{1.0, 1.0}   // cordic1
                                 : soc::RuntimeCondition{0.1, 0.9};  // scc_full
    cfg.codec.me_range = 4;
    cfg.seed = 1200 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

TEST(ContextCache, EvictsLeastRecentlyUsedUnderTightCapacity) {
  soc::ReconfigManager mgr(soc::ReconfigPortConfig{32, 16});
  soc::Bus bus;
  const std::map<std::string, std::vector<std::uint8_t>> backing{
      {"a", std::vector<std::uint8_t>(100, 1)},
      {"b", std::vector<std::uint8_t>(100, 2)},
      {"c", std::vector<std::uint8_t>(100, 3)},
  };
  ContextCache cache(
      mgr, bus,
      [&](const std::string& n) -> const std::vector<std::uint8_t>& { return backing.at(n); },
      ContextCacheConfig{250});

  EXPECT_GT(cache.touch("a"), 0u);  // miss pays bus fetch cycles
  EXPECT_GT(cache.touch("b"), 0u);
  EXPECT_EQ(cache.touch("a"), 0u);  // hit refreshes recency
  EXPECT_GT(cache.touch("c"), 0u);  // evicts b, the least recently used
  EXPECT_FALSE(cache.resident("b"));
  EXPECT_TRUE(cache.resident("a"));
  EXPECT_TRUE(cache.resident("c"));
  EXPECT_LE(mgr.stored_bytes(), 250u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  EXPECT_GT(cache.touch("b"), 0u);  // evicted context must be refetched
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);  // a (LRU after the c load) went
  EXPECT_LE(mgr.stored_bytes(), 250u);
  EXPECT_EQ(cache.stats().bytes_fetched, 400u);
  EXPECT_EQ(cache.lru_order(), (std::vector<std::string>{"c", "b"}));
}

TEST(ContextCache, OversizedStreamStillLoads) {
  soc::ReconfigManager mgr;
  soc::Bus bus;
  const std::vector<std::uint8_t> big(1000, 7);
  ContextCache cache(
      mgr, bus,
      [&](const std::string&) -> const std::vector<std::uint8_t>& { return big; },
      ContextCacheConfig{100});
  EXPECT_GT(cache.touch("big"), 0u);
  EXPECT_TRUE(cache.resident("big"));  // the working context must exist
}

TEST(ContextCache, ActiveContextIsPinnedDuringEviction) {
  // Regression: the LRU eviction loop used to evict whatever sat at the
  // front — including the bitstream *active* on the fabric — leaving the
  // hardware running a context the manager no longer stored.
  soc::ReconfigManager mgr(soc::ReconfigPortConfig{32, 16});
  soc::Bus bus;
  const std::map<std::string, std::vector<std::uint8_t>> backing{
      {"a", std::vector<std::uint8_t>(100, 1)},
      {"b", std::vector<std::uint8_t>(100, 2)},
      {"c", std::vector<std::uint8_t>(100, 3)},
  };
  ContextCache cache(
      mgr, bus,
      [&](const std::string& n) -> const std::vector<std::uint8_t>& { return backing.at(n); },
      ContextCacheConfig{250});

  (void)cache.touch("a");
  EXPECT_GT(mgr.activate("a"), 0u);
  (void)cache.touch("b");
  (void)cache.touch("c");  // must evict b — a is the LRU front but active

  EXPECT_TRUE(cache.resident("a")) << "the active context was evicted";
  EXPECT_FALSE(cache.resident("b"));
  EXPECT_TRUE(cache.resident("c"));
  EXPECT_EQ(mgr.activate("a"), 0u) << "still active and still backed by the store";
  EXPECT_LE(mgr.stored_bytes(), 250u);
}

TEST(ContextCache, OversizeFetchBypassesInsteadOfEmptyingTheCache) {
  // Regression: a bitstream larger than the whole capacity used to drain
  // the eviction loop (emptying the cache) and was then stored anyway,
  // silently exceeding the configured bound.
  soc::ReconfigManager mgr(soc::ReconfigPortConfig{32, 16});
  soc::Bus bus;
  const std::map<std::string, std::vector<std::uint8_t>> backing{
      {"a", std::vector<std::uint8_t>(100, 1)},
      {"b", std::vector<std::uint8_t>(100, 2)},
      {"big", std::vector<std::uint8_t>(1000, 7)},
      {"c", std::vector<std::uint8_t>(100, 3)},
  };
  ContextCache cache(
      mgr, bus,
      [&](const std::string& n) -> const std::vector<std::uint8_t>& { return backing.at(n); },
      ContextCacheConfig{250});

  (void)cache.touch("a");
  (void)cache.touch("b");
  EXPECT_GT(cache.touch("big"), 0u);  // the fetch is charged to the bus
  EXPECT_TRUE(cache.resident("big")); // the working context must exist...
  EXPECT_TRUE(cache.resident("a"));   // ...but the cached contexts survive
  EXPECT_TRUE(cache.resident("b"));
  EXPECT_EQ(cache.stats().oversize_fetches, 1u);  // the breach is explicit
  EXPECT_EQ(cache.stats().bytes_bypassed, 1000u);
  EXPECT_EQ(cache.lru_order(), (std::vector<std::string>{"a", "b"}));
  // Conservation across the bypass path: the oversize insert is in the
  // ledger even though it sits outside the LRU bound.
  EXPECT_EQ(cache.bypass_bytes(), 1000u);
  EXPECT_TRUE(cache.byte_balance_ok());

  // Once the fabric runs something else, the bypassed context is the
  // first thing dropped; an *active* oversize context stays pinned.
  EXPECT_GT(mgr.activate("big"), 0u);
  cache.trim();
  EXPECT_TRUE(cache.resident("big"));
  EXPECT_GT(mgr.activate("a"), 0u);
  (void)cache.touch("c");
  EXPECT_FALSE(cache.resident("big"));
  EXPECT_LE(mgr.stored_bytes(), 250u);
  // The dropped bypass context lands in bytes_evicted; balance still holds.
  EXPECT_EQ(cache.bypass_bytes(), 0u);
  EXPECT_TRUE(cache.byte_balance_ok());
}

TEST(Library, CompilesAllSixImplementations) {
  EXPECT_EQ(library().names().size(), 6u);
  EXPECT_NE(library().impl("cordic1"), nullptr);
  EXPECT_EQ(library().impl("nope"), nullptr);
  EXPECT_THROW((void)library().bitstream("nope", kDefaultGeometry), std::invalid_argument);
  EXPECT_GT(library().total_bytes(), 0u);
}

TEST(Fabric, PrepareChargesFetchPlusSwitchOnceThenNothing) {
  FabricConfig cfg;
  Fabric fabric(0, library(), cfg);
  const std::uint64_t first = fabric.prepare("cordic1").total();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(fabric.prepare("cordic1").total(), 0u);  // resident and active
  EXPECT_EQ(fabric.active(), "cordic1");
  EXPECT_GT(fabric.prepare("scc_full").total(), 0u);
  EXPECT_EQ(fabric.cache().stats().misses, 2u);
  EXPECT_EQ(fabric.cache().stats().hits, 1u);  // second cordic1 prepare
}

TEST(Scheduler, AffinityBatchingBeatsRoundRobin) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});

  cfg.queue.policy = SchedulingPolicy::kRoundRobin;
  auto rr_jobs = mixed_workload(6, 4, 32);
  const RunReport rr = MultiStreamScheduler(library(), cfg).run(rr_jobs);

  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  auto af_jobs = mixed_workload(6, 4, 32);
  const RunReport af = MultiStreamScheduler(library(), cfg).run(af_jobs);

  EXPECT_EQ(rr.total_frames, 24u);
  EXPECT_EQ(af.total_frames, 24u);

  // Affinity batching amortizes the configuration port: strictly fewer
  // switches and strictly fewer reconfiguration cycles.
  EXPECT_LT(af.total_switches, rr.total_switches);
  EXPECT_LT(af.total_reconfig_cycles, rr.total_reconfig_cycles);
  // Four distinct bitstreams, batched exhaustively -> four loads.
  EXPECT_LE(af.total_switches, 4 + 1);

  // Scheduling must not change what gets encoded: per-stream output is
  // identical under both policies.
  ASSERT_EQ(rr.streams.size(), af.streams.size());
  for (std::size_t k = 0; k < rr.streams.size(); ++k) {
    EXPECT_DOUBLE_EQ(rr.streams[k].total_bits, af.streams[k].total_bits) << k;
    EXPECT_DOUBLE_EQ(rr.streams[k].mean_psnr_db, af.streams[k].mean_psnr_db) << k;
  }
}

TEST(Scheduler, RunCapRotatesAwayFromDominantConfiguration) {
  // Three cordic1 streams vs one scc_full stream: without forced rotation
  // the majority group would monopolize the fabric until the ageing valve
  // (here far away) fires. The run cap alone must bound the minority
  // stream's wait.
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 4; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = 2;
    cfg.condition = k < 3 ? soc::RuntimeCondition{1.0, 1.0}   // cordic1
                          : soc::RuntimeCondition{0.1, 0.9};  // scc_full
    cfg.codec.me_range = 4;
    cfg.seed = 500 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 2;
  cfg.queue.aging_threshold = 50;  // never reached: 8 dispatches total
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 8u);
  // The scc_full stream gets served after at most one full run of the cap.
  EXPECT_LE(report.streams[3].max_wait_dispatches,
            static_cast<std::uint64_t>(cfg.queue.max_affinity_run + 1));
}

TEST(Scheduler, NoStreamStarvesUnderAgeing) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(2, FabricConfig{});
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 1000;  // batching alone would starve the rest
  cfg.queue.aging_threshold = 6;
  auto jobs = mixed_workload(8, 5, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 40u);
  for (const StreamSummary& s : report.streams) {
    EXPECT_EQ(s.frames, 5) << s.name;
    EXPECT_GT(s.latency.p95_ms, 0.0) << s.name;
  }
  // The ageing valve bounds every stream's queue wait: at most the
  // threshold plus one backlog round of the other streams.
  EXPECT_LE(report.max_wait_dispatches,
            cfg.queue.aging_threshold + static_cast<std::uint64_t>(jobs.size() + 2));
}

TEST(Scheduler, BoundedContextCacheEvictsAndStillCompletes) {
  SchedulerConfig cfg;
  FabricConfig fabric;
  // Room for roughly one and a half contexts -> every switch evicts.
  fabric.context_capacity_bytes = library().bitstream("scc_full", kDefaultGeometry).size() * 3 / 2;
  cfg.fabric_configs = {fabric};
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 2;  // force frequent switching

  auto jobs = mixed_workload(4, 3, 32);
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);
  EXPECT_EQ(report.total_frames, 12u);
  EXPECT_GT(report.cache.evictions, 0u);
  EXPECT_GT(report.cache.misses, report.cache.hits);
  EXPECT_GT(report.total_fetch_cycles, 0u);
}

TEST(Scheduler, RejectsUnknownImplementation) {
  auto jobs = mixed_workload(1, 1, 32);
  jobs[0].impl_name = "not_an_impl";
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  MultiStreamScheduler scheduler(library(), cfg);
  EXPECT_THROW((void)scheduler.run(jobs), std::invalid_argument);
}

TEST(Scheduler, StarvingLowAffinityStreamIsServedMidBatch) {
  // Six streams share the dominant bitstream and one stream wants another;
  // the run cap is effectively infinite, so the dominant batch never ends
  // on its own. Only a mid-batch ageing valve can serve the minority
  // stream — if ageing applied at batch boundaries alone, it would starve
  // until the whole dominant group drained.
  std::vector<StreamJob> jobs;
  for (int k = 0; k < 7; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 32;
    cfg.height = 32;
    cfg.frame_budget = 6;
    cfg.condition = k < 6 ? soc::RuntimeCondition{1.0, 1.0}   // cordic1
                          : soc::RuntimeCondition{0.1, 0.9};  // scc_full
    cfg.codec.me_range = 4;
    cfg.seed = 900 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 1000000;  // the batch never ends by itself
  cfg.queue.aging_threshold = 4;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 42u);
  EXPECT_EQ(report.streams[6].frames, 6);
  // Every service of the minority stream came from the valve firing
  // mid-batch, so its wait is bounded by the threshold plus the backlog
  // of streams that aged simultaneously — not by the (unbounded) batch.
  EXPECT_LE(report.streams[6].max_wait_dispatches,
            cfg.queue.aging_threshold + static_cast<std::uint64_t>(jobs.size()));
  // And it was genuinely interleaved: it finished before the dominant
  // group's last frame, not after the batch drained.
  std::uint64_t minority_last_end = 0, dominant_last_end = 0;
  for (const StageEvent& e : report.timeline) {
    if (e.start) continue;
    if (e.stream_id == 6)
      minority_last_end = std::max(minority_last_end, e.tick);
    else
      dominant_last_end = std::max(dominant_last_end, e.tick);
  }
  EXPECT_LT(minority_last_end, dominant_last_end);
}

TEST(Scheduler, RandomizedPipelineStressKeepsEveryFrameExactlyOnce) {
  // Hundreds of stage jobs over a mixed heterogeneous pool with a tight
  // context cache: no frame may be lost or duplicated, per-stream frame
  // order stays monotone, and the cache's byte accounting must balance
  // with its evictions.
  Rng rng(20260728);
  std::vector<StreamJob> jobs;
  const int sizes[] = {16, 24, 32};
  int total_frames = 0;
  for (int k = 0; k < 24; ++k) {
    StreamConfig cfg;
    cfg.name = "stress" + std::to_string(k);
    cfg.width = sizes[rng.next_below(3)];
    cfg.height = sizes[rng.next_below(3)];
    cfg.frame_budget = 2 + static_cast<int>(rng.next_below(6));
    cfg.condition = {rng.next_double(), rng.next_double()};
    cfg.codec.me_range = 2 + static_cast<int>(rng.next_below(3));
    cfg.codec.quantiser_scale = 4.0 + rng.next_double() * 12.0;
    cfg.seed = rng.next_u64();
    jobs.push_back(make_synthetic_job(k, cfg));
    total_frames += cfg.frame_budget;
  }

  SchedulerConfig cfg;
  FabricConfig me_only, dct_only, both;
  me_only.capabilities = kCapMotionEstimation;
  dct_only.capabilities = kCapDctTransform;
  const std::size_t capacity = library().total_bytes() / 3;
  dct_only.context_capacity_bytes = capacity;
  both.context_capacity_bytes = capacity;
  cfg.fabric_configs = {me_only, dct_only, both};
  cfg.queue.mode = DispatchMode::kStagePipeline;
  cfg.queue.max_affinity_run = 4;
  cfg.queue.aging_threshold = 12;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, static_cast<std::uint64_t>(total_frames));
  // Every frame dispatches a DCT/quant and a reconstruct job; every frame
  // but each stream's intra frame also dispatches an ME job.
  EXPECT_EQ(report.dispatches,
            static_cast<std::uint64_t>(3 * total_frames - static_cast<int>(jobs.size())));
  for (const StreamJob& s : jobs) {
    ASSERT_EQ(s.records.size(), s.frames.size()) << s.config.name;
    for (std::size_t k = 0; k < s.records.size(); ++k)
      EXPECT_EQ(s.records[k].frame_index, static_cast<int>(k))
          << s.config.name << ": lost, duplicated or reordered frame";
    EXPECT_EQ(s.recon_state.width(), s.config.width) << s.config.name;
    EXPECT_TRUE(s.finished()) << s.config.name;
  }
  // Byte accounting balances: whatever was fetched and not evicted is
  // still resident, which can never exceed the bounded capacities.
  EXPECT_GT(report.cache.evictions, 0u);
  EXPECT_GE(report.cache.bytes_fetched, report.cache.bytes_evicted);
  EXPECT_LE(report.cache.bytes_fetched - report.cache.bytes_evicted,
            2 * capacity + library().total_bytes());  // two bounded + one unbounded fabric
}

TEST(Fabric, CacheByteAccountingBalancesExactly) {
  FabricConfig cfg;
  cfg.context_capacity_bytes = library().total_bytes() / 2;
  Fabric fabric(0, library(), cfg);
  const char* walk[] = {"cordic1", "scc_full", "mixed_rom", "cordic2",
                        "cordic1", "da_basic", "scc_full",  "me_systolic"};
  for (const char* name : walk) (void)fabric.prepare(name);
  const ContextCacheStats& stats = fabric.cache().stats();
  EXPECT_GT(stats.evictions, 0u);
  // fetched - evicted == resident, byte for byte.
  EXPECT_EQ(stats.bytes_fetched - stats.bytes_evicted,
            static_cast<std::uint64_t>(fabric.reconfig().stored_bytes()));
  // Conservation ledger: every inserted byte is resident or was evicted.
  EXPECT_TRUE(fabric.cache().byte_balance_ok());
  EXPECT_EQ(stats.bytes_inserted,
            stats.bytes_evicted + fabric.cache().resident_bytes() +
                fabric.cache().bypass_bytes());
  EXPECT_LE(fabric.reconfig().stored_bytes(), cfg.context_capacity_bytes);
  // The ME context is charged against the ME kernel, DCT contexts against
  // the DCT kernel.
  EXPECT_GT(fabric.reconfig().reconfig_cycles_for_kernel("me"), 0u);
  EXPECT_GT(fabric.reconfig().reconfig_cycles_for_kernel("dct"), 0u);
  EXPECT_EQ(fabric.reconfig().reconfig_cycles_for_kernel("me") +
                fabric.reconfig().reconfig_cycles_for_kernel("dct"),
            fabric.reconfig().total_reconfig_cycles());
}

TEST(Stats, PercentilesUseNearestRank) {
  const std::vector<double> samples{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(samples, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
  const LatencySummary s = summarize_latencies(samples);
  EXPECT_DOUBLE_EQ(s.p50_ms, 3.0);
  EXPECT_DOUBLE_EQ(s.max_ms, 5.0);
  EXPECT_DOUBLE_EQ(s.mean_ms, 3.0);
}

TEST(Stats, PercentileEdgeCases) {
  // Empty sample sets answer 0 for every pct, including the extremes.
  EXPECT_DOUBLE_EQ(percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(percentile({}, 100.0), 0.0);

  // A single sample is every percentile.
  const std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(one, 50.0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 7.5);

  // pct 0 and 100 hit the min and max exactly; out-of-range pcts clamp.
  const std::vector<double> samples{9.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(samples, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 100.0), 9.0);
  EXPECT_DOUBLE_EQ(percentile(samples, -10.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(samples, 250.0), 9.0);

  // summarize_latencies mirrors the same edges.
  const LatencySummary empty = summarize_latencies({});
  EXPECT_DOUBLE_EQ(empty.p50_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.p95_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_ms, 0.0);
  EXPECT_DOUBLE_EQ(empty.max_ms, 0.0);
  const LatencySummary single = summarize_latencies(one);
  EXPECT_DOUBLE_EQ(single.p50_ms, 7.5);
  EXPECT_DOUBLE_EQ(single.p95_ms, 7.5);
  EXPECT_DOUBLE_EQ(single.mean_ms, 7.5);
  EXPECT_DOUBLE_EQ(single.max_ms, 7.5);
}

TEST(Scheduler, HardAgeBoundServesMidCohortMinorityAtHighQueueDepth) {
  // Regression: every stream enqueued at construction shares ready_seq 0,
  // so the ageing valve's oldest-first selection degenerated into an
  // index-order sweep of that cohort — a minority-context stream parked
  // mid-cohort waited Theta(queue depth) dispatches (~201 here) while the
  // valve kept "serving the oldest" matching-context jobs in front of it.
  // The valve's cohort tie-break must cut that to O(threshold),
  // independent of depth.
  constexpr int kStreams = 201;
  constexpr int kMinority = 100;  // mid-cohort: the sweep reaches it last
  std::vector<StreamJob> jobs;
  for (int k = 0; k < kStreams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 16;
    cfg.height = 16;
    cfg.frame_budget = 1;  // one intra frame: the whole queue is one cohort
    cfg.condition = k == kMinority ? soc::RuntimeCondition{0.1, 0.9}   // scc_full
                                   : soc::RuntimeCondition{1.0, 1.0};  // cordic1
    cfg.seed = 3000 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.policy = SchedulingPolicy::kAffinityBatched;
  cfg.queue.max_affinity_run = 1000000;  // batching never rotates by itself
  cfg.queue.aging_threshold = 8;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, static_cast<std::uint64_t>(kStreams));
  // Among equally-old heads the valve serves the smaller shard first, so
  // the minority job jumps the cohort sweep: its wait is bounded by twice
  // the threshold plus a small service margin, not by the ~200-deep queue
  // in front of it.
  EXPECT_LE(report.streams[kMinority].max_wait_dispatches,
            2 * cfg.queue.aging_threshold + 16u);
}

TEST(QueuePolicy, RoundRobinServesTheLongestWaitingJob) {
  // Five cordic1 streams and one scc_full stream on one fabric. The
  // round-robin baseline ignores affinity and backlog alike: it serves
  // the longest-waiting job, so no job waits longer than one round of
  // the other streams — never behind the larger context's whole backlog.
  auto jobs = majority_and_minority(5, 4, 32);
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.policy = SchedulingPolicy::kRoundRobin;
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 24u);
  EXPECT_LE(report.max_wait_dispatches, jobs.size() - 1);
}

TEST(QueuePolicy, EquallyOldJobsDispatchTightestDeadlineFirst) {
  // Sixteen one-frame cordic1 streams become ready together, one cohort
  // of equally-old jobs of one context. Their SLA deadlines tighten with
  // the stream id, so stream order is the reverse of EDF: the tie-break
  // must dispatch the cohort tightest deadline first.
  constexpr int kStreams = 16;
  std::vector<StreamJob> jobs;
  for (int k = 0; k < kStreams; ++k) {
    StreamConfig cfg;
    cfg.name = "s" + std::to_string(k);
    cfg.width = 16;
    cfg.height = 16;
    cfg.frame_budget = 1;
    cfg.condition = {1.0, 1.0};  // cordic1
    cfg.sla.deadline_cycles = static_cast<std::uint64_t>(kStreams - k) * 1000000;
    cfg.seed = 1400 + static_cast<std::uint64_t>(k);
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.mode = DispatchMode::kMonolithicFrames;
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  std::vector<int> order;
  for (const StageEvent& e : report.timeline)
    if (e.start) order.push_back(e.stream_id);
  std::vector<int> tightest_first;
  for (int k = kStreams - 1; k >= 0; --k) tightest_first.push_back(k);
  EXPECT_EQ(order, tightest_first);
}

TEST(QueuePolicy, SameAgePushesStayInDeadlineOrder) {
  // Two completions that land before any further dispatch enqueue their
  // successors with the same readiness, in completion order; the
  // tighter-deadline successor must still dispatch first. Streams 1-3
  // are already done.
  auto jobs = majority_and_minority(5, 2, 16);
  jobs.pop_back();  // five cordic1 streams
  for (int k = 1; k <= 3; ++k) jobs[static_cast<std::size_t>(k)].next_frame = 2;
  jobs[0].config.sla.deadline_cycles = 2000000;
  jobs[4].config.sla.deadline_cycles = 1000000;
  JobQueueConfig qcfg;
  JobQueue queue(jobs, qcfg);

  const auto first = queue.acquire_batch(0, std::nullopt, kCapAllKernels, nullptr, 1);
  const auto second = queue.acquire_batch(1, std::nullopt, kCapAllKernels, nullptr, 1);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].stream_id, 4);  // EDF inside the seed cohort
  EXPECT_EQ(second[0].stream_id, 0);
  queue.complete_batch({{second[0], 0}}, 1);  // the looser deadline lands first
  queue.complete_batch({{first[0], 0}}, 0);
  const auto next =
      queue.acquire_batch(0, queue.required_context(first[0]), kCapAllKernels, nullptr, 1);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].stream_id, 4);
  EXPECT_EQ(next[0].frame_index, 1);
}

TEST(QueuePolicy, RunCapHoldsInsideABatch) {
  // Sixteen one-frame cordic1 streams and one scc_full stream. A batch
  // may pop several jobs per acquire, but it must not take the fabric
  // past max_affinity_run while another context waits: the scc_full job
  // is served after at most one run.
  auto jobs = majority_and_minority(16, 1, 16);
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.queue.max_affinity_run = 1;
  cfg.queue.aging_threshold = 1000;  // never reached
  const RunReport report = MultiStreamScheduler(library(), cfg).run(jobs);

  EXPECT_EQ(report.total_frames, 17u);
  EXPECT_LE(report.streams[16].max_wait_dispatches,
            static_cast<std::uint64_t>(cfg.queue.max_affinity_run));
}

TEST(ContextCache, ReleaseUnpinsShedStreamContextAndKeepsLedgerBalanced) {
  // Shed-mid-stream regression: a cancelled stream's context is pinned by
  // the active-context pin (the fabric was running its job), and no
  // eviction path may clear it. Until release() existed, those bytes
  // stayed resident forever and the shed path leaked them against the
  // capacity bound.
  soc::ReconfigManager mgr(soc::ReconfigPortConfig{32, 16});
  soc::Bus bus;
  const std::map<std::string, std::vector<std::uint8_t>> backing{
      {"a", std::vector<std::uint8_t>(100, 1)},
      {"b", std::vector<std::uint8_t>(100, 2)},
  };
  ContextCache cache(
      mgr, bus,
      [&](const std::string& n) -> const std::vector<std::uint8_t>& { return backing.at(n); },
      ContextCacheConfig{150});

  (void)cache.touch("a");
  EXPECT_GT(mgr.activate("a"), 0u);  // the shed stream's job was running it
  (void)cache.touch("b");
  // Capacity pressure cannot dislodge the active context — the pin holds.
  EXPECT_TRUE(cache.resident("a"));
  EXPECT_TRUE(cache.byte_balance_ok());

  // The shed path must release it outright: bytes leave the ledger
  // instead of staying resident under a pin nobody will ever clear.
  EXPECT_TRUE(cache.release("a"));
  EXPECT_FALSE(cache.resident("a"));
  EXPECT_TRUE(cache.byte_balance_ok());
  EXPECT_EQ(cache.lru_order(), (std::vector<std::string>{"b"}));

  // Releasing a context the cache never stored is a no-op, and the
  // ledger still balances.
  EXPECT_FALSE(cache.release("a"));
  EXPECT_FALSE(cache.release("never_loaded"));
  EXPECT_TRUE(cache.byte_balance_ok());
}

TEST(Fabric, ReleaseContextDropsShedStreamFromCacheAndStore) {
  FabricConfig cfg;
  Fabric fabric(0, library(), cfg);
  (void)fabric.prepare("cordic1");  // resident and active
  EXPECT_TRUE(fabric.cache().resident("cordic1"));
  EXPECT_TRUE(fabric.release_context("cordic1"));
  EXPECT_FALSE(fabric.cache().resident("cordic1"));
  EXPECT_TRUE(fabric.cache().byte_balance_ok());
  EXPECT_FALSE(fabric.release_context("scc_full"));  // never loaded: no-op
}

TEST(Stats, PercentileRankGuardsDegenerateInputs) {
  // The shared rank-selection rule behind both sample percentiles and the
  // telemetry histogram percentiles: 1-based, clamped into [1, n], 0 only
  // when there are no samples.
  EXPECT_EQ(percentile_rank(0, 50.0), 0u);
  EXPECT_EQ(percentile_rank(1, 0.0), 1u);    // single-frame stream: rank 1 always
  EXPECT_EQ(percentile_rank(1, 100.0), 1u);
  EXPECT_EQ(percentile_rank(5, 50.0), 3u);
  EXPECT_EQ(percentile_rank(5, 95.0), 5u);
  EXPECT_EQ(percentile_rank(5, -10.0), 1u);  // out-of-range pct clamps
  EXPECT_EQ(percentile_rank(5, 250.0), 5u);

  // A non-finite pct must not reach the float->int cast (UB); it
  // collapses to the conservative end instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(percentile_rank(5, nan), 5u);
  const std::vector<double> samples{2.0, 9.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(samples, nan), 9.0);
  EXPECT_DOUBLE_EQ(percentile({}, nan), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.5}, nan), 7.5);
}

}  // namespace
}  // namespace dsra::runtime
