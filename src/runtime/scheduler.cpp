#include "runtime/scheduler.hpp"

#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <thread>

#include "runtime/health/monitor.hpp"
#include "runtime/sim_schedule.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"
#include "video/codec.hpp"

namespace dsra::runtime {

namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

std::vector<FabricConfig> SchedulerConfig::resolved_fabrics() const {
  if (!fabric_configs.empty()) return fabric_configs;
  if (fabrics <= 0) throw std::invalid_argument("scheduler needs >= 1 fabric");
  return std::vector<FabricConfig>(static_cast<std::size_t>(fabrics), fabric);
}

MultiStreamScheduler::MultiStreamScheduler(const KernelLibrary& library,
                                           SchedulerConfig config)
    : library_(library), config_(std::move(config)) {
  const std::vector<FabricConfig> resolved = config_.resolved_fabrics();
  for (std::size_t k = 0; k < resolved.size(); ++k) {
    if (!library_.has_geometry(resolved[k].geometry))
      throw std::invalid_argument(
          "fabric " + std::to_string(k) + ": kernel library was not built for array "
          "geometry " + to_string(resolved[k].geometry) +
          "; list it in KernelLibraryConfig.geometries");
    // Fail fast on a bad tenancy plan: partitions must tile inside the
    // fabric without overlapping, and every partition's geometry must be
    // a library geometry (a slot can only dispatch compiled contexts).
    validate_partition_plan(resolved[k].geometry, resolved[k].partitions);
    for (const PartitionSpec& part : resolved[k].partitions)
      if (!library_.has_geometry(part.geometry))
        throw std::invalid_argument(
            "fabric " + std::to_string(k) + ": partition " + to_string(part) +
            " uses array geometry " + to_string(part.geometry) +
            " the kernel library was not built for; list it in "
            "KernelLibraryConfig.geometries");
  }
}

RunReport MultiStreamScheduler::run(std::vector<StreamJob>& streams) {
  for (StreamJob& s : streams) {
    // A stream with a condition trajectory must be validated against the
    // *union* of contexts the trajectory can select over its lifetime,
    // not just the frame-0 choice: its impl changes mid-run and every
    // impl it may change to must be placeable. Resolve eagerly so the
    // union is known up front and the run fails fast with a clear
    // message instead of mid-flight.
    if (s.config.trajectory && s.frame_impls.size() != s.frames.size())
      resolve_stream_conditions(s);
    if (library_.impl(s.impl_name) == nullptr)
      throw std::invalid_argument("stream '" + s.config.name +
                                  "' wants unknown implementation '" + s.impl_name + "'");
    for (std::size_t f = 0; f < s.frame_impls.size(); ++f)
      if (library_.impl(s.frame_impls[f]) == nullptr)
        throw std::invalid_argument(
            "stream '" + s.config.name + "': its condition trajectory selects unknown "
            "implementation '" + s.frame_impls[f] + "' at frame " + std::to_string(f) +
            "; every context the trajectory can select must be in the library");
  }

  FabricPool pool(config_.resolved_fabrics(), library_);
  const unsigned pool_caps = pool.combined_capabilities();
  if ((pool_caps & kCapDctTransform) == 0)
    throw std::invalid_argument("no fabric in the pool hosts the DCT/transform kernel");

  RunReport report;
  if (config_.admission.enabled) {
    // Admission runs before the placement fail-fast below: a stream whose
    // chosen context places nowhere is the impl-swap rung's (or the
    // reject rung's) problem, not a hard error, once the caller opted
    // into graceful degradation.
    AdmissionController controller(library_, pool, config_.me, config_.admission);
    report.admission = controller.admit_all(streams);
    // Shed streams must not leave contexts (or their pinned frame images)
    // resident in any fabric cache: release every context only rejected
    // streams would have used. The pool is freshly built here, so this is
    // usually a no-op — but a pre-warmed cache (seeded manager) would
    // otherwise keep the dead context pinned for the whole run.
    std::set<std::string> live;
    for (const StreamJob& s : streams) {
      if (s.admission_rung == DegradationRung::kReject) continue;
      live.insert(s.impl_name);
      live.insert(s.frame_impls.begin(), s.frame_impls.end());
    }
    for (const StreamJob& s : streams) {
      if (s.admission_rung != DegradationRung::kReject) continue;
      std::set<std::string> dead(s.frame_impls.begin(), s.frame_impls.end());
      dead.insert(s.impl_name);
      for (const std::string& context : dead)
        if (live.count(context) == 0)
          for (int k = 0; k < pool.size(); ++k) pool.at(k).release_context(context);
    }
  }

  bool needs_me_kernel = false;
  for (const StreamJob& s : streams) {
    if (s.admission_rung == DegradationRung::kReject) continue;
    // Remaining inter frames need the ME kernel; frame 0 is intra and
    // already-encoded frames (a resumed stream) dispatch nothing.
    if (static_cast<int>(s.frames.size()) > std::max(1, s.next_frame))
      needs_me_kernel = true;
  }

  // Placement-feasibility fail-fast: every context a stream can select
  // over its lifetime (static impl_name, or the trajectory's per-frame
  // resolution) must place on at least one capable fabric geometry, and
  // the stage pipeline's shared ME context must place on an ME-capable
  // fabric. Checking here turns a mid-flight Fabric::prepare throw —
  // or a silent never-dispatched job — into an up-front diagnostic that
  // names the implementation, the frame, and the pool's geometries.
  for (const StreamJob& s : streams) {
    if (s.admission_rung == DegradationRung::kReject) continue;  // dispatches nothing
    const int frame_count = static_cast<int>(s.frames.size());
    for (int f = 0; f < frame_count; ++f) {
      const std::string& impl = s.impl_for(f);
      if (f > 0 && impl == s.impl_for(f - 1)) continue;  // only first selections
      if (!pool.any_fabric_hosts(impl, kCapDctTransform))
        throw std::invalid_argument(
            "stream '" + s.config.name + "': implementation '" + impl +
            "' selected at frame " + std::to_string(f) +
            " is not placeable on any DCT-capable fabric in the pool (geometries: " +
            pool.geometry_list() + ")");
    }
  }
  // Covers both the capability-less pool and an ME-capable fabric whose
  // geometry cannot place the systolic context.
  if (config_.queue.mode == DispatchMode::kStagePipeline && needs_me_kernel &&
      !pool.any_fabric_hosts(kMeContextName, kCapMotionEstimation))
    throw std::invalid_argument(
        "stage pipeline needs a motion-estimation-capable fabric that can place '" +
        std::string(kMeContextName) + "' (pool geometries: " + pool.geometry_list() + ")");

  std::vector<double> busy_ms(static_cast<std::size_t>(pool.size()), 0.0);

  // Live health: hand the monitor the analytic per-stream budgets the
  // burn-rate detector projects against. The admission cost model's
  // frame_cycles is content-independent, so the budgets are exact before
  // any frame is encoded — the only live proxy for the modeled clock,
  // which otherwise exists only in the post-run sim replay. Shed streams
  // get an empty budget (they dispatch nothing) and a kShed flight
  // record; degraded ones a kRungTransition record.
  health::HealthMonitor* const hm = config_.health;
  if (hm != nullptr) {
    const AdmissionController cost_model(library_, pool, config_.me);
    std::vector<health::StreamBudget> budgets;
    budgets.reserve(streams.size());
    for (std::size_t k = 0; k < streams.size(); ++k) {
      const StreamJob& s = streams[k];
      health::StreamBudget b;
      b.stream_id = static_cast<int>(k);
      b.shed = s.admission_rung == DegradationRung::kReject;
      b.deadline_cycles = static_cast<double>(s.config.sla.deadline_cycles);
      b.frames_done_at_start = b.shed ? 0 : s.next_frame;
      if (!b.shed) {
        b.frame_cycles.reserve(s.frames.size());
        for (int f = 0; f < static_cast<int>(s.frames.size()); ++f)
          b.frame_cycles.push_back(static_cast<double>(cost_model.frame_cycles(s, f)));
      }
      budgets.push_back(std::move(b));
    }
    hm->begin_run(pool.size(), std::move(budgets));
    const int ctl = hm->flight().control_ring();
    for (std::size_t k = 0; k < streams.size(); ++k) {
      const DegradationRung rung = streams[k].admission_rung;
      if (rung == DegradationRung::kNone) continue;
      hm->flight().record(ctl,
                          rung == DegradationRung::kReject
                              ? health::EventKind::kShed
                              : health::EventKind::kRungTransition,
                          static_cast<int>(k), -1,
                          static_cast<std::uint64_t>(rung));
    }
  }

  // Telemetry resolution: the caller's recorder, or — when only metrics
  // were requested — an internal one (histograms and timelines are
  // derived from spans). Null `rec` is the zero-cost-off state: each
  // worker's recording sites reduce to one untaken pointer test.
  telemetry::TraceRecorder local_recorder;
  telemetry::TraceRecorder* rec =
      config_.trace != nullptr ? config_.trace
                               : (config_.metrics != nullptr ? &local_recorder : nullptr);
  if (rec != nullptr) rec->begin_run(pool.size());

  const auto wall_start = std::chrono::steady_clock::now();

  // The queue lives only through the drain: its per-fabric event buffers
  // are copied into the report, and freeing them before the sim replay
  // keeps them out of the run's peak footprint.
  std::vector<std::uint64_t> queue_skips;
  {
    JobQueueConfig qcfg = config_.queue;
    if (hm != nullptr) qcfg.flight = &hm->flight();
    JobQueue queue(streams, qcfg);
    // The monitor's epoch sampler pulls live depth/age/steal state
    // through this callback for as long as the queue exists; finish_run
    // (below, before the queue leaves scope) detaches it.
    if (hm != nullptr)
      hm->attach_queue([&queue] { return queue.health_sample(); });
    const auto worker = [&](int fabric_id) {
      Fabric& fabric = pool.at(fabric_id);
      const video::MotionSearchFn me_fn = me::systolic_search_fn(config_.me);
      double& busy = busy_ms[static_cast<std::size_t>(fabric_id)];
      // The worker's private append-only buffer — no lock, no sharing.
      std::vector<telemetry::JobTrace>* trace_buf =
          rec != nullptr ? &rec->worker(fabric_id) : nullptr;
      // Dispatch filters by capability AND placement feasibility: this
      // fabric is only handed jobs whose context places on its geometry.
      // The library's context set is small and fixed, so resolve the
      // fits() matrix once into a set here — the queue consults the filter
      // once per context on every acquire. A fabric that hosts the whole
      // library gets a null filter (the homogeneous fast path).
      std::set<std::string> hostable;
      for (const std::string& context : library_.context_names())
        if (fabric.hosts(context)) hostable.insert(context);
      const bool hosts_all = hostable.size() == library_.context_names().size();
      const JobQueue::HostFilter can_host =
          hosts_all ? JobQueue::HostFilter(nullptr)
                    : [hostable = std::move(hostable)](const std::string& context) {
                        return hostable.count(context) != 0;
                      };
      std::vector<CompletedTask> done;
      while (true) {
        const std::vector<FrameTask> batch =
            queue.acquire_batch(fabric.id(), fabric.active(), fabric.capabilities(),
                                can_host, config_.queue.max_batch);
        if (batch.empty()) break;
        done.clear();
        done.reserve(batch.size());
        for (const FrameTask& task : batch) {
          const auto job_start = std::chrono::steady_clock::now();
          StreamJob& stream = streams[static_cast<std::size_t>(task.stream_id)];
          const int f = task.frame_index;
          const video::Frame& frame = stream.frames[static_cast<std::size_t>(f)];
          const std::string context = queue.required_context(task);
          const PrepareResult prep = fabric.prepare_detailed(context);
          const std::uint64_t reconfig_cycles = prep.total();
          const std::int64_t prepared_ns = trace_buf != nullptr ? rec->now_ns() : 0;
          if (hm != nullptr) {
            hm->flight().record(fabric.id(), health::EventKind::kDispatch,
                                task.stream_id, f,
                                static_cast<std::uint64_t>(task.stage));
            if (prep.switched)
              hm->flight().record(fabric.id(), health::EventKind::kReconfig,
                                  task.stream_id, f, reconfig_cycles);
            hm->on_prepare(fabric.id(), prep.cache_hit, prep.switched);
          }

          if (task.stage == StageKind::kWholeFrame) {
            FrameRecord record;
            record.frame_index = f;
            record.fabric_id = fabric.id();
            record.impl = context;
            record.wait_dispatches = task.wait_dispatches;
            record.reconfig_cycles = reconfig_cycles;
            const video::ToyEncoder encoder(fabric.active_impl(), me_fn, stream.config.codec);
            // Open-loop ME (search the previous original frame) keeps the
            // monolithic job the bit-exact twin of the stage pipeline.
            const video::Frame* search_ref =
                f > 0 ? &stream.frames[static_cast<std::size_t>(f - 1)] : nullptr;
            record.stats = encoder.encode_frame(frame, search_ref, stream.recon_state);
            record.latency_ms = ms_since(task.ready_time);
            stream.records.push_back(record);
          } else {
            FramePipelineState& state = stream.pipeline[static_cast<std::size_t>(f)];
            state.reconfig_cycles += reconfig_cycles;
            state.max_wait_dispatches =
                std::max(state.max_wait_dispatches, task.wait_dispatches);
            const video::ToyEncoder encoder(fabric.active_impl(), me_fn, stream.config.codec);
            switch (task.stage) {
              case StageKind::kMotionEstimation: {
                state.me_fabric_id = fabric.id();
                state.motion = encoder.run_motion_stage(
                    frame, &stream.frames[static_cast<std::size_t>(f - 1)]);
                break;
              }
              case StageKind::kTransformQuant: {
                state.tq_fabric_id = fabric.id();
                const video::Frame* mc_ref = f > 0 ? &stream.recon_state : nullptr;
                state.transform = encoder.run_transform_stage(frame, mc_ref, state.motion);
                break;
              }
              case StageKind::kReconstructEntropy: {
                FrameRecord record;
                record.frame_index = f;
                record.fabric_id = fabric.id();
                record.me_fabric_id = state.me_fabric_id;
                record.tq_fabric_id = state.tq_fabric_id;
                record.impl = context;  // DCT/quant + reconstruct share the frame's context
                video::Frame recon;
                record.stats =
                    encoder.run_reconstruct_stage(frame, state.motion, state.transform, recon);
                stream.recon_state = std::move(recon);
                record.reconfig_cycles = state.reconfig_cycles;
                record.wait_dispatches = state.max_wait_dispatches;
                record.latency_ms = ms_since(state.first_ready);
                stream.records.push_back(record);
                // Frame done: the carried prediction/levels are dead weight.
                state.motion = video::MotionStageResult{};
                state.transform = video::TransformStageResult{};
                break;
              }
              default:
                break;
            }
          }
          const auto job_end = std::chrono::steady_clock::now();
          busy += std::chrono::duration<double, std::milli>(job_end - job_start).count();
          if (hm != nullptr) {
            hm->on_job_done(fabric.id(),
                            std::chrono::duration_cast<std::chrono::nanoseconds>(
                                job_end - job_start)
                                .count());
            if (task.stage == StageKind::kWholeFrame ||
                task.stage == StageKind::kReconstructEntropy)
              hm->on_frame_done(task.stream_id);
          }
          if (trace_buf != nullptr) {
            telemetry::JobTrace t;
            t.stream_id = task.stream_id;
            t.frame_index = f;
            t.stage = task.stage;
            t.fabric_id = fabric.id();
            t.context = context;
            t.ready_ns = rec->to_ns(task.ready_time);
            t.dispatch_ns = rec->to_ns(job_start);
            t.prepared_ns = prepared_ns;
            t.done_ns = rec->to_ns(job_end);
            t.fetch_cycles = prep.fetch_cycles;
            t.switch_cycles = prep.switch_cycles;
            t.cache_hit = prep.cache_hit;
            t.switched = prep.switched;
            t.partial_switch = prep.partial;
            trace_buf->push_back(std::move(t));
          }
          done.push_back(CompletedTask{task, reconfig_cycles});
        }
        // One completion call per batch: one timestamp, one lane pass and
        // grouped successor enqueues (one lock round per target shard).
        queue.complete_batch(done, fabric.id());
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(pool.size()));
    for (int f = 0; f < pool.size(); ++f) threads.emplace_back(worker, f);
    for (std::thread& t : threads) t.join();

    report.timeline = queue.timeline();
    report.dispatches = queue.dispatches();
    report.max_wait_dispatches = queue.max_wait_dispatches();
    queue_skips = queue.placement_skips();
    report.queue_shards = queue.shard_count();
    report.queue_steals = queue.steals();
    report.dispatch_batches = queue.dispatch_batches();
    // Final tick + sampler stop while the queue is still alive.
    if (hm != nullptr) hm->finish_run();
  }
  if (hm != nullptr) report.health_anomalies = hm->anomalies_total();

  report.policy = to_string(config_.queue.policy);
  report.mode = to_string(config_.queue.mode);
  report.fabrics = pool.size();
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  const SimSchedule sim = simulate_timeline(streams, report.timeline,
                                            config_.queue.pipeline_lookahead,
                                            &pool.physical_of());
  report.sim_makespan_cycles = sim.makespan_cycles;
  report.sim_utilization = sim.mean_utilization;
  report.physical_fabrics = pool.physical_count();
  report.port_contention_cycles = sim.contention_cycles;

  // Stamp the modeled clock domain back into the streams: per frame, the
  // first stage's readiness to the last stage's completion; per stream,
  // the end of its last frame. This is what SLA verdicts (and the
  // frame-latency histogram) are judged in — host milliseconds depend on
  // the build machine, modeled cycles do not.
  //
  // Spans live in one flat vector, stream k's frame f at offset[k] + f,
  // each stream's slice covering the frames the replay ran; a span no
  // job touched keeps ready = kUntouched.
  {
    constexpr std::uint64_t kUntouched = std::numeric_limits<std::uint64_t>::max();
    struct Span {
      std::uint64_t ready = kUntouched;
      std::uint64_t end = 0;
    };
    std::vector<std::size_t> frame_count(streams.size(), 0);
    for (const SimStageJob& j : sim.jobs) {
      std::size_t& count = frame_count[static_cast<std::size_t>(j.stream_id)];
      count = std::max(count, static_cast<std::size_t>(j.frame_index) + 1);
    }
    std::vector<std::size_t> offset(streams.size() + 1, 0);
    for (std::size_t k = 0; k < streams.size(); ++k) offset[k + 1] = offset[k] + frame_count[k];
    std::vector<Span> frame_span(offset.back());
    std::vector<std::uint64_t> stream_end(streams.size(), 0);
    for (const SimStageJob& j : sim.jobs) {
      const auto k = static_cast<std::size_t>(j.stream_id);
      Span& span = frame_span[offset[k] + static_cast<std::size_t>(j.frame_index)];
      span.ready = std::min(span.ready, j.ready_cycles);
      span.end = std::max(span.end, j.end_cycles);
      stream_end[k] = std::max(stream_end[k], j.end_cycles);
    }
    for (std::size_t k = 0; k < streams.size(); ++k) {
      streams[k].modeled_completion_cycles = stream_end[k];
      for (FrameRecord& r : streams[k].records) {
        const auto f = static_cast<std::size_t>(r.frame_index);
        if (r.frame_index < 0 || f >= frame_count[k]) continue;
        const Span& span = frame_span[offset[k] + f];
        if (span.ready != kUntouched) r.latency_cycles = span.end - span.ready;
      }
    }
  }

  for (const StreamJob& s : streams) {
    StreamSummary summary = summarize_stream(s);
    report.total_frames += static_cast<std::uint64_t>(summary.frames);
    report.total_array_cycles += summary.array_cycles;
    report.condition_switches += static_cast<std::uint64_t>(summary.condition_switches);
    report.stale_frames += static_cast<std::uint64_t>(summary.stale_frames);
    if (summary.sla_met) report.goodput_frames += static_cast<std::uint64_t>(summary.frames);
    if (summary.admission_rung != DegradationRung::kReject && !summary.sla_met &&
        !s.config.sla.best_effort())
      ++report.sla_violations;
    report.streams.push_back(std::move(summary));
  }
  report.frames_per_second = report.wall_seconds > 0.0
                                 ? static_cast<double>(report.total_frames) / report.wall_seconds
                                 : 0.0;
  report.total_reconfig_cycles = pool.total_reconfig_cycles();
  report.me_reconfig_cycles = pool.reconfig_cycles_for_kernel("me");
  report.dct_reconfig_cycles = pool.reconfig_cycles_for_kernel("dct");
  report.total_switches = pool.total_switches();
  report.partial_reloads = pool.partial_reloads();
  report.full_reloads = pool.full_reloads();
  report.frames_rewritten = pool.frames_rewritten();
  report.delta_bytes = pool.delta_bytes_loaded();
  report.cache = pool.cache_totals();
  report.total_fetch_cycles = report.cache.fetch_cycles;
  report.fabric_busy_ms = std::move(busy_ms);

  // Per-geometry breakdown: one entry per distinct fabric geometry, in
  // first-seen fabric order, folding in the queue's placement skips.
  const std::vector<std::uint64_t>& skips = queue_skips;
  report.total_tiles = pool.total_tiles();
  for (int f = 0; f < pool.size(); ++f) {
    const Fabric& fabric = pool.at(f);
    GeometrySummary* entry = nullptr;
    for (GeometrySummary& g : report.geometry_stats)
      if (g.geometry == fabric.geometry()) entry = &g;
    if (entry == nullptr) {
      report.geometry_stats.push_back(GeometrySummary{fabric.geometry()});
      entry = &report.geometry_stats.back();
    }
    ++entry->fabrics;
    entry->switches += fabric.reconfig().switches_performed();
    entry->reconfig_cycles += fabric.reconfig().total_reconfig_cycles();
    if (f < static_cast<int>(skips.size()))
      entry->placement_rejections += skips[static_cast<std::size_t>(f)];
  }
  for (const GeometrySummary& g : report.geometry_stats)
    report.placement_rejections += g.placement_rejections;

  for (int f = 0; f < pool.size(); ++f) {
    const Fabric& fabric = pool.at(f);
    std::string label = "fabric " + std::to_string(f) + " (" +
                        to_string(fabric.geometry()) + ")";
    if (!fabric.exclusive())
      label = "slot " + std::to_string(f) + " (fabric " +
              std::to_string(fabric.physical_id()) + " " +
              to_string(fabric.partition()) + ")";
    report.fabric_labels.push_back(std::move(label));
  }

  // Per-slot occupancy/contention: the tenancy view of the run. Busy and
  // port-wait cycles come from the sim replay (modeled clock domain);
  // switch and region-programming counts from the slots themselves.
  for (int f = 0; f < pool.size(); ++f) {
    const Fabric& fabric = pool.at(f);
    PartitionSummary p;
    p.slot = f;
    p.physical = fabric.physical_id();
    p.partition = fabric.partition();
    p.exclusive = fabric.exclusive();
    if (f < static_cast<int>(sim.fabric_busy_cycles.size()))
      p.busy_cycles = sim.fabric_busy_cycles[static_cast<std::size_t>(f)];
    if (f < static_cast<int>(sim.port_wait_cycles.size()))
      p.port_wait_cycles = sim.port_wait_cycles[static_cast<std::size_t>(f)];
    if (sim.makespan_cycles > 0)
      p.occupancy = static_cast<double>(p.busy_cycles) /
                    static_cast<double>(sim.makespan_cycles);
    p.switches = fabric.reconfig().switches_performed();
    p.region_deltas = fabric.region_deltas();
    p.region_blits = fabric.region_blits();
    report.partitions.push_back(p);
  }

  if (rec != nullptr) {
    // Modeled-cycle span bounds come from the deterministic sim replay;
    // the recorded buffers contribute host timestamps and the per-job
    // fetch/switch breakdown. The attribution then decomposes each
    // stream's end-to-end modeled latency exactly.
    report.spans = telemetry::build_spans(rec->merged(), sim);
    report.attribution = telemetry::attribute_streams(report.spans);
  }

  if (config_.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *config_.metrics;
    m.count("dispatches", report.dispatches);
    m.count("dispatch_batches", report.dispatch_batches);
    m.count("queue_steals", report.queue_steals);
    m.gauge("queue_shards", static_cast<double>(report.queue_shards));
    m.count("frames", report.total_frames);
    m.count("bitstream_switches", static_cast<std::uint64_t>(report.total_switches));
    m.count("partial_reloads", report.partial_reloads);
    m.count("full_reloads", report.full_reloads);
    m.count("cache_hits", report.cache.hits);
    m.count("cache_misses", report.cache.misses);
    m.count("cache_evictions", report.cache.evictions);
    m.count("cache_delta_fetches", report.cache.delta_fetches);
    m.count("placement_rejections", report.placement_rejections);
    m.count("port_contention_cycles", report.port_contention_cycles);
    m.count("region_deltas_applied", pool.region_deltas_applied());
    m.count("region_blits", pool.region_blits());
    m.gauge("physical_fabrics", static_cast<double>(report.physical_fabrics));
    m.count("condition_switches", report.condition_switches);
    m.count("stale_frames", report.stale_frames);
    if (report.admission.enabled) {
      m.count("admission_arrived", report.admission.arrived);
      m.count("admission_admitted", report.admission.admitted);
      m.count("admission_admitted_clean", report.admission.admitted_clean);
      m.count("admission_qp_bumps", report.admission.qp_bumps);
      m.count("admission_resolution_drops", report.admission.resolution_drops);
      m.count("admission_impl_swaps", report.admission.impl_swaps);
      m.count("admission_rejected", report.admission.rejected);
      m.gauge("admission_pool_pressure", report.admission.pool_pressure);
    }
    m.count("sla_violations", report.sla_violations);
    m.count("goodput_frames", report.goodput_frames);
    if (hm != nullptr) m.count("health_anomalies_total", hm->anomalies_total());
    for (const StreamJob& s : streams)
      for (const FrameRecord& r : s.records)
        m.histogram("frame_latency_cycles").record(static_cast<double>(r.latency_cycles));
    m.gauge("sim_makespan_cycles", static_cast<double>(report.sim_makespan_cycles));
    m.gauge("sim_utilization", report.sim_utilization);
    m.gauge("wall_seconds", report.wall_seconds);
    m.gauge("frames_per_second", report.frames_per_second);
    for (const telemetry::Span& s : report.spans) {
      const auto cycles = static_cast<double>(s.cycle_end - s.cycle_start);
      switch (s.kind) {
        case telemetry::SpanKind::kQueueWait:
          m.histogram("queue_wait_cycles").record(cycles);
          break;
        case telemetry::SpanKind::kCacheFetch:
          m.histogram("cache_fetch_cycles").record(cycles);
          break;
        case telemetry::SpanKind::kReconfigFull:
        case telemetry::SpanKind::kReconfigDelta:
          m.histogram("reconfig_cycles").record(cycles);
          break;
        case telemetry::SpanKind::kStageCompute:
          m.histogram("stage_compute_cycles").record(cycles);
          break;
        case telemetry::SpanKind::kDispatch:
          m.histogram("job_host_ms")
              .record(static_cast<double>(s.host_end_ns - s.host_start_ns) / 1e6);
          break;
      }
    }
    telemetry::sample_epoch_timelines(report.spans, pool.size(), report.sim_makespan_cycles,
                                      std::max(1, config_.timeline_epochs), m);
  }
  return report;
}

}  // namespace dsra::runtime
