#include "runtime/scheduler.hpp"

#include <chrono>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>

#include "runtime/executor.hpp"
#include "runtime/health/monitor.hpp"
#include "runtime/sim_schedule.hpp"
#include "runtime/telemetry/trace.hpp"
#include "video/codec.hpp"

namespace dsra::runtime {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// One frame as planned: its kernel cycles and its modeled span, from
/// its first stage's readiness to its last stage's end.
struct PlannedFrame {
  static constexpr std::uint64_t kUnplanned = std::numeric_limits<std::uint64_t>::max();
  FrameCycles cycles;
  std::uint64_t ready = kUnplanned;
  std::uint64_t end = 0;
};

/// What plan() hands the report besides the jobs, which the executor
/// records, and the queue and schedule totals it writes straight into the
/// report: for a traced or monitored run every batch in plan order, the
/// queue at each health tick, each fabric's modeled busy and port-wait
/// cycles, every frame's plan (stream k's frame f at frame_offset[k] + f)
/// and each fabric's placement skips.
struct Plan {
  std::vector<health::PlannedBatch> batches;
  std::vector<health::PlanTick> ticks;
  std::vector<std::uint64_t> fabric_busy_cycles;
  std::vector<std::uint64_t> port_wait_cycles;
  std::vector<std::size_t> frame_offset;
  std::vector<PlannedFrame> frames;
  std::vector<std::uint64_t> placement_skips;
};

/// Reject streams whose contexts the library does not know. A stream with
/// a condition trajectory is validated against the *union* of contexts
/// the trajectory can select over its lifetime, not just the frame-0
/// choice: its impl changes mid-run and every impl it may change to must
/// be known. Resolving eagerly makes the run fail fast with a clear
/// message instead of mid-flight.
void validate_contexts(std::vector<StreamJob>& streams, const KernelLibrary& library) {
  for (StreamJob& s : streams) {
    if (s.config.trajectory && s.frame_impls.size() != s.frames.size())
      resolve_stream_conditions(s);
    if (library.impl(s.impl_name) == nullptr)
      throw std::invalid_argument("stream '" + s.config.name +
                                  "' wants unknown implementation '" + s.impl_name + "'");
    for (std::size_t f = 0; f < s.frame_impls.size(); ++f)
      if (library.impl(s.frame_impls[f]) == nullptr)
        throw std::invalid_argument(
            "stream '" + s.config.name + "': its condition trajectory selects unknown "
            "implementation '" + s.frame_impls[f] + "' at frame " + std::to_string(f) +
            "; every context the trajectory can select must be in the library");
  }
}

/// Placement-feasibility fail-fast: every context a stream can select
/// over its lifetime (static impl_name, or the trajectory's per-frame
/// resolution) must place on at least one capable fabric geometry, and
/// the stage pipeline's shared ME context must place on an ME-capable
/// fabric. Checking here turns a mid-plan Fabric::prepare throw — or a
/// never-dispatched job — into an up-front diagnostic that names the
/// implementation, the frame, and the pool's geometries.
void validate_placement(const std::vector<StreamJob>& streams, const FabricPool& pool,
                        DispatchMode mode) {
  bool needs_me_kernel = false;
  for (const StreamJob& s : streams) {
    if (s.admission_rung == DegradationRung::kReject) continue;  // dispatches nothing
    // Remaining inter frames need the ME kernel; frame 0 is intra and
    // already-encoded frames (a resumed stream) dispatch nothing.
    if (static_cast<int>(s.frames.size()) > std::max(1, s.next_frame)) needs_me_kernel = true;
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
  if (mode == DispatchMode::kStagePipeline && needs_me_kernel &&
      !pool.any_fabric_hosts(kMeContextName, kCapMotionEstimation))
    throw std::invalid_argument(
        "stage pipeline needs a motion-estimation-capable fabric that can place '" +
        std::string(kMeContextName) + "' (pool geometries: " + pool.geometry_list() + ")");
}

/// Shed streams must not leave contexts resident in any fabric cache:
/// release every context only rejected streams would have used. The pool
/// is freshly built, so this is usually a no-op — but a pre-warmed cache
/// (seeded manager) would otherwise keep the dead context pinned for the
/// whole run.
void release_shed_contexts(const std::vector<StreamJob>& streams, FabricPool& pool) {
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

/// Plan the run in modeled time on the calling thread, through @p queue's
/// policy, and hand each planning instant's jobs to the executor at once.
/// An event loop: at each instant every idle fabric, lowest id first,
/// acquires a batch and runs it back to back from that instant — each
/// job paying Fabric::prepare's fetch + switch cycles (waiting
/// for the physical configuration port when a co-tenant holds it) plus
/// its stage's modeled compute — and time advances to the earliest batch
/// end, where every batch ending then completes and releases its
/// successors. Throws when jobs remain that no fabric can take.
///
/// @p keep_record keeps every planned batch in the returned plan. With
/// @p epoch_cycles > 0 it samples the queue at every multiple of it before
/// the makespan, in the state the clock leaves it there; it always
/// samples the queue at the makespan.
Plan plan(std::vector<StreamJob>& streams, JobQueue& queue, FabricPool& pool,
          const KernelLibrary& library, const SchedulerConfig& config,
          std::uint64_t epoch_cycles, bool keep_record, Executor& executor, RunReport& report) {
  const int lookahead = std::max(0, config.queue.pipeline_lookahead);
  const auto fabrics = static_cast<std::size_t>(pool.size());

  Plan out;
  out.frame_offset.assign(streams.size() + 1, 0);
  for (std::size_t k = 0; k < streams.size(); ++k)
    out.frame_offset[k + 1] = out.frame_offset[k] + streams[k].frames.size();
  out.frames.resize(out.frame_offset.back());
  // Modeled end of each (frame, stage), for the jobs' readiness.
  constexpr std::size_t kStages = 4;
  std::vector<std::uint64_t> end_of(out.frame_offset.back() * kStages, 0);
  const auto end_at = [&](int stream, int frame, StageKind stage) -> std::uint64_t {
    if (frame < 0) return 0;
    return end_of[(out.frame_offset[static_cast<std::size_t>(stream)] +
                   static_cast<std::size_t>(frame)) * kStages +
                  static_cast<std::size_t>(stage)];
  };

  // Dispatch filters by capability AND placement feasibility: a fabric is
  // only handed jobs whose context places on its geometry. A fabric that
  // hosts the whole library gets a null filter.
  std::vector<JobQueue::HostFilter> can_host(fabrics);
  for (std::size_t f = 0; f < fabrics; ++f) {
    std::set<std::string> hostable;
    for (const std::string& context : library.context_names())
      if (pool.at(static_cast<int>(f)).hosts(context)) hostable.insert(context);
    if (hostable.size() != library.context_names().size())
      can_host[f] = [hostable = std::move(hostable)](const std::string& context) {
        return hostable.count(context) != 0;
      };
  }

  out.fabric_busy_cycles.assign(fabrics, 0);
  out.port_wait_cycles.assign(fabrics, 0);
  std::uint64_t makespan = 0;
  const std::vector<int>& physical_of = pool.physical_of();
  std::vector<std::uint64_t> port_free(static_cast<std::size_t>(pool.physical_count()), 0);
  std::vector<std::uint64_t> free_at(fabrics, 0);
  std::vector<std::vector<CompletedTask>> running(fabrics);  ///< each fabric's batch
  std::vector<PlannedJob> handoff;
  constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t next_sample = epoch_cycles > 0 ? epoch_cycles : kNever;

  for (std::uint64_t now = 0;;) {
    handoff.clear();
    for (std::size_t f = 0; f < fabrics; ++f) {
      if (!running[f].empty()) continue;
      Fabric& fabric = pool.at(static_cast<int>(f));
      const std::uint64_t steals = queue.steals();
      const std::vector<FrameTask> tasks =
          queue.acquire_batch(fabric.id(), fabric.active(), fabric.capabilities(), can_host[f],
                              config.queue.max_batch);
      if (tasks.empty()) continue;
      if (keep_record)
        out.batches.push_back(
            {tasks.size(), now, queue.steals() != steals ? queue.shard_of(tasks.front()) : -1});
      std::uint64_t clock = now;
      for (const FrameTask& task : tasks) {
        StreamJob& stream = streams[static_cast<std::size_t>(task.stream_id)];
        const int frame = task.frame_index;
        const std::string& context = queue.required_context(task);
        const PrepareResult prep = fabric.prepare(context);
        const std::uint64_t reconfig = prep.total();

        const std::size_t at =
            out.frame_offset[static_cast<std::size_t>(task.stream_id)] +
            static_cast<std::size_t>(frame);
        PlannedFrame& planned = out.frames[at];
        if (planned.ready == PlannedFrame::kUnplanned) {
          const video::Frame& pixels = stream.frames[static_cast<std::size_t>(frame)];
          planned.cycles =
              model_frame_cycles(*library.impl(stream.impl_for(frame)), stream.config.codec,
                                 config.me, pixels.width(), pixels.height(), frame == 0);
        }

        PlannedJob job{task, fabric.id(), &context, library.impl(context), prep};
        switch (task.stage) {
          case StageKind::kWholeFrame:
            job.ready_cycles = end_at(task.stream_id, frame - 1, StageKind::kWholeFrame);
            break;
          case StageKind::kMotionEstimation:
            job.ready_cycles = std::max(
                end_at(task.stream_id, frame - 1, StageKind::kMotionEstimation),
                end_at(task.stream_id, frame - 1 - lookahead, StageKind::kReconstructEntropy));
            break;
          case StageKind::kTransformQuant:
            job.ready_cycles =
                std::max(end_at(task.stream_id, frame, StageKind::kMotionEstimation),
                         end_at(task.stream_id, frame - 1, StageKind::kReconstructEntropy));
            break;
          case StageKind::kReconstructEntropy:
            job.ready_cycles = end_at(task.stream_id, frame, StageKind::kTransformQuant);
            break;
        }
        job.start_cycles = std::max(job.ready_cycles, clock);
        if (reconfig > 0) {
          // The job opens with its context load, which needs the physical
          // configuration port a co-tenant slot may be holding.
          std::uint64_t& port = port_free[static_cast<std::size_t>(physical_of[f])];
          const std::uint64_t port_start = std::max(job.start_cycles, port);
          out.port_wait_cycles[f] += port_start - job.start_cycles;
          job.start_cycles = port_start;
          port = port_start + reconfig;
        }
        const std::uint64_t duration = stage_cycles(task.stage, planned.cycles) + reconfig;
        job.end_cycles = job.start_cycles + duration;
        clock = job.end_cycles;
        end_of[at * kStages + static_cast<std::size_t>(task.stage)] = job.end_cycles;
        planned.ready = std::min(planned.ready, job.ready_cycles);
        planned.end = std::max(planned.end, job.end_cycles);
        out.fabric_busy_cycles[f] += duration;
        makespan = std::max(makespan, job.end_cycles);

        running[f].push_back(CompletedTask{task, reconfig});
        handoff.push_back(job);
      }
      free_at[f] = clock;
    }
    if (!handoff.empty()) executor.push(handoff);

    std::uint64_t next = kNever;
    for (std::size_t f = 0; f < fabrics; ++f)
      if (!running[f].empty()) next = std::min(next, free_at[f]);
    if (next == kNever) break;
    // Nothing changes before `next`: every epoch boundary up to it sees
    // this state.
    for (; next_sample < next; next_sample += epoch_cycles)
      out.ticks.push_back({next_sample, queue.health_sample()});
    now = next;
    for (std::size_t f = 0; f < fabrics; ++f) {
      if (running[f].empty() || free_at[f] != now) continue;
      queue.complete_batch(running[f], static_cast<int>(f));
      running[f].clear();
    }
  }

  out.ticks.push_back({makespan, queue.health_sample()});
  const std::uint64_t left = out.ticks.back().queue.depth;
  if (left > 0)
    throw std::logic_error(std::to_string(left) +
                           " ready jobs remain that no fabric in the pool can take "
                           "(pool geometries: " + pool.geometry_list() + ")");
  report.dispatches = queue.dispatches();
  report.max_wait_dispatches = queue.max_wait_dispatches();
  report.queue_shards = queue.shard_count();
  report.queue_steals = queue.steals();
  report.dispatch_batches = queue.dispatch_batches();
  report.sim_makespan_cycles = makespan;
  report.sim_utilization = mean_utilization(out.fabric_busy_cycles, makespan);
  for (const std::uint64_t wait : out.port_wait_cycles) report.port_contention_cycles += wait;
  out.placement_skips = queue.placement_skips();
  // The queue's last use: its dispatch log moves into the report.
  report.timeline = std::move(queue).timeline();
  return out;
}

/// The run as the health pass reads it: each stream's admission verdict
/// and deadline, the pool's capable fabrics, and the plan's record: its
/// @p jobs, and the batches and ticks it moves out of @p planned.
health::PlanRecord health_record(const std::vector<StreamJob>& streams, Plan& planned,
                                 std::span<const PlannedJob> jobs, const FabricPool& pool) {
  health::PlanRecord record;
  record.fabrics = pool.size();
  for (int f = 0; f < pool.size(); ++f) {
    record.me_fabrics += (pool.at(f).capabilities() & kCapMotionEstimation) != 0 ? 1 : 0;
    record.transform_fabrics += (pool.at(f).capabilities() & kCapDctTransform) != 0 ? 1 : 0;
  }
  for (const StreamJob& s : streams)
    record.streams.push_back(
        {.rung = s.admission_rung,
         .deadline_cycles = static_cast<double>(s.config.sla.deadline_cycles),
         .frames = s.admission_rung == DegradationRung::kReject
                       ? 0
                       : static_cast<int>(s.frames.size())});
  record.jobs = jobs;
  record.batches = std::move(planned.batches);
  record.ticks = std::move(planned.ticks);
  return record;
}

/// Encode one planned job: the stage's encoder step under the job's
/// context, in the stream state the earlier stages left. The frame
/// records name the fabrics the plan put the stages on.
void encode_job(const PlannedJob& job, StreamJob& stream, const video::MotionSearchFn& me_fn) {
  const FrameTask& task = job.task;
  const int f = task.frame_index;
  const video::Frame& frame = stream.frames[static_cast<std::size_t>(f)];
  const video::ToyEncoder encoder(job.impl, me_fn, stream.config.codec);
  if (task.stage == StageKind::kWholeFrame) {
    FrameRecord record;
    record.frame_index = f;
    record.fabric_id = job.fabric_id;
    record.impl = *job.context;
    record.wait_dispatches = task.wait_dispatches;
    record.reconfig_cycles = job.prep.total();
    // Open-loop ME (search the previous original frame) keeps the
    // monolithic job the bit-exact twin of the stage pipeline.
    const video::Frame* search_ref =
        f > 0 ? &stream.frames[static_cast<std::size_t>(f - 1)] : nullptr;
    record.stats = encoder.encode_frame(frame, search_ref, stream.recon_state);
    stream.records.push_back(record);
    return;
  }
  FramePipelineState& state = stream.pipeline[static_cast<std::size_t>(f)];
  state.reconfig_cycles += job.prep.total();
  state.max_wait_dispatches = std::max(state.max_wait_dispatches, task.wait_dispatches);
  switch (task.stage) {
    case StageKind::kMotionEstimation:
      state.me_fabric_id = job.fabric_id;
      state.motion =
          encoder.run_motion_stage(frame, &stream.frames[static_cast<std::size_t>(f - 1)]);
      break;
    case StageKind::kTransformQuant: {
      state.tq_fabric_id = job.fabric_id;
      const video::Frame* mc_ref = f > 0 ? &stream.recon_state : nullptr;
      state.transform = encoder.run_transform_stage(frame, mc_ref, state.motion);
      break;
    }
    case StageKind::kReconstructEntropy: {
      FrameRecord record;
      record.frame_index = f;
      record.fabric_id = job.fabric_id;
      record.me_fabric_id = state.me_fabric_id;
      record.tq_fabric_id = state.tq_fabric_id;
      record.impl = *job.context;  // DCT/quant + reconstruct share the frame's context
      video::Frame recon;
      record.stats = encoder.run_reconstruct_stage(frame, state.motion, state.transform, recon);
      stream.recon_state = std::move(recon);
      record.reconfig_cycles = state.reconfig_cycles;
      record.wait_dispatches = state.max_wait_dispatches;
      stream.records.push_back(record);
      // Frame done: the carried prediction/levels are dead weight.
      state.motion = video::MotionStageResult{};
      state.transform = video::TransformStageResult{};
      break;
    }
    case StageKind::kWholeFrame:
      break;
  }
}

}  // namespace

const std::vector<FabricConfig>& SchedulerConfig::resolved_fabrics() const {
  if (fabric_configs.empty()) throw std::invalid_argument("scheduler needs >= 1 fabric");
  return fabric_configs;
}

MultiStreamScheduler::MultiStreamScheduler(const KernelLibrary& library,
                                           SchedulerConfig config)
    : library_(library), config_(std::move(config)) {
  const std::vector<FabricConfig>& resolved = config_.resolved_fabrics();
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
  // ---- validate ----------------------------------------------------------
  validate_contexts(streams, library_);
  FabricPool pool(config_.resolved_fabrics(), library_);
  if ((pool.combined_capabilities() & kCapDctTransform) == 0)
    throw std::invalid_argument("no fabric in the pool hosts the DCT/transform kernel");

  // ---- admit -------------------------------------------------------------
  RunReport report;
  if (config_.admission.enabled) {
    // Admission runs before the placement fail-fast below: a stream whose
    // chosen context places nowhere is the impl-swap rung's (or the
    // reject rung's) problem, not a hard error, once the caller opted
    // into graceful degradation.
    AdmissionController controller(library_, pool, config_.me, config_.admission);
    report.admission = controller.admit_all(streams);
    release_shed_contexts(streams, pool);
  }
  validate_placement(streams, pool, config_.queue.mode);

  // Null `rec` and `hm` are the zero-cost-off state: the workers'
  // recording site reduces to one untaken pointer test, and the plan keeps
  // no record and samples no epoch.
  telemetry::TraceRecorder* const rec = config_.trace;
  health::HealthMonitor* const hm = config_.health;
  // One host worker per fabric slot, plus this thread once it has planned.
  const int workers = pool.size() + 1;
  if (rec != nullptr) rec->begin_run(workers);

  // ---- plan + execute ----------------------------------------------------
  // The workers execute while this thread keeps planning. Each worker
  // writes only its own busy/idle slots and stamp buffer.
  const auto wall_start = Clock::now();
  std::vector<std::size_t> first_new_record(streams.size());
  for (std::size_t k = 0; k < streams.size(); ++k) first_new_record[k] = streams[k].records.size();
  std::vector<double> busy_ms(static_cast<std::size_t>(workers), 0.0);
  std::vector<Clock::time_point> idle_since(static_cast<std::size_t>(workers), wall_start);
  const video::MotionSearchFn me_fn = me::systolic_search_fn(config_.me);
  const auto execute = [&](int worker, std::size_t index, const PlannedJob& job) {
    const auto start = Clock::now();
    StreamJob& stream = streams[static_cast<std::size_t>(job.task.stream_id)];
    encode_job(job, stream, me_fn);
    const auto end = Clock::now();
    const FrameTask& task = job.task;
    // Host latency: the frame's first stage (ME, or DCT/quant of the
    // intra frame) starting to its last one ending.
    const auto f = static_cast<std::size_t>(task.frame_index);
    if (task.stage == StageKind::kMotionEstimation ||
        (task.stage == StageKind::kTransformQuant && f == 0))
      stream.pipeline[f].first_start = start;
    if (completes_frame(task.stage)) {
      const Clock::time_point first =
          task.stage == StageKind::kWholeFrame ? start : stream.pipeline[f].first_start;
      stream.records.back().latency_ms =
          std::chrono::duration<double, std::milli>(end - first).count();
    }
    const auto w = static_cast<std::size_t>(worker);
    busy_ms[w] += std::chrono::duration<double, std::milli>(end - start).count();
    if (rec != nullptr)
      rec->worker(worker).push_back(
          {index, rec->to_ns(idle_since[w]), rec->to_ns(start), rec->to_ns(end)});
    idle_since[w] = end;
  };

  JobQueue queue(streams, config_.queue);
  const auto executor_start = Clock::now();
  Executor executor(pool.size(), streams.size(), execute, queue.job_count());
  Plan planned = plan(streams, queue, pool, library_, config_,
                      hm != nullptr ? hm->epoch_cycles() : 0, rec != nullptr || hm != nullptr,
                      executor, report);
  const auto planned_all = Clock::now();
  idle_since.back() = planned_all;  // this thread is free to work from here
  executor.finish();
  report.plan_ns = elapsed_ns(executor_start, planned_all);
  report.execute_tail_ns = elapsed_ns(planned_all, Clock::now());
  if (hm != nullptr) {
    hm->observe(health_record(streams, planned, executor.jobs(), pool));
    report.health_anomalies = hm->anomalies_total();
  }
  report.wall_seconds = std::chrono::duration<double>(Clock::now() - wall_start).count();

  // The plan equals the execution: every frame encoded here must have
  // charged exactly the kernel cycles the plan costed it at. Then stamp
  // the modeled clock domain into the streams: per frame, its first
  // stage's readiness to its last stage's end; per stream, the end of
  // its last frame. SLA verdicts (and the frame-latency histogram) are
  // judged in this domain — host milliseconds depend on the build
  // machine, modeled cycles do not.
  for (std::size_t k = 0; k < streams.size(); ++k) {
    StreamJob& s = streams[k];
    const PlannedFrame* frames = &planned.frames[planned.frame_offset[k]];
    s.modeled_completion_cycles = 0;
    for (std::size_t f = 0; f < s.frames.size(); ++f)
      s.modeled_completion_cycles = std::max(s.modeled_completion_cycles, frames[f].end);
    for (std::size_t r = first_new_record[k]; r < s.records.size(); ++r) {
      FrameRecord& record = s.records[r];
      const PlannedFrame& frame = frames[static_cast<std::size_t>(record.frame_index)];
      if (record.stats.me_array_cycles != frame.cycles.me ||
          record.stats.dct_array_cycles != frame.cycles.dct)
        throw std::logic_error(
            "stream '" + s.config.name + "' frame " + std::to_string(record.frame_index) +
            ": the encoder charged " + std::to_string(record.stats.me_array_cycles) +
            " ME / " + std::to_string(record.stats.dct_array_cycles) +
            " DCT cycles, the plan costed " + std::to_string(frame.cycles.me) + " / " +
            std::to_string(frame.cycles.dct));
      record.latency_cycles = frame.end - frame.ready;
    }
  }

  // ---- report ------------------------------------------------------------
  report.policy = to_string(config_.queue.policy);
  report.mode = to_string(config_.queue.mode);
  report.fabrics = pool.size();
  report.physical_fabrics = pool.physical_count();

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
  report.worker_busy_ms = std::move(busy_ms);

  // Per-geometry breakdown: one entry per distinct fabric geometry, in
  // first-seen fabric order, folding in the queue's placement skips.
  const std::vector<std::uint64_t>& skips = planned.placement_skips;
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
  // port-wait cycles come from the plan (modeled clock domain); switch
  // and region-programming counts from the slots themselves.
  for (int f = 0; f < pool.size(); ++f) {
    const Fabric& fabric = pool.at(f);
    PartitionSummary p;
    p.slot = f;
    p.physical = fabric.physical_id();
    p.partition = fabric.partition();
    p.exclusive = fabric.exclusive();
    p.busy_cycles = planned.fabric_busy_cycles[static_cast<std::size_t>(f)];
    p.port_wait_cycles = planned.port_wait_cycles[static_cast<std::size_t>(f)];
    if (report.sim_makespan_cycles > 0)
      p.occupancy = static_cast<double>(p.busy_cycles) /
                    static_cast<double>(report.sim_makespan_cycles);
    p.switches = fabric.reconfig().switches_performed();
    p.region_deltas = fabric.region_deltas();
    p.region_blits = fabric.region_blits();
    report.partitions.push_back(p);
  }

  if (rec != nullptr) {
    // One pass in plan order pairs each planned job with its worker's
    // host stamps: the rows, and spans bounded by the plan's cycles. The
    // attribution then decomposes each stream's end-to-end modeled
    // latency exactly.
    report.spans = rec->join(executor.jobs());
    report.attribution = telemetry::attribute_streams(report.spans);
  }
  return report;
}

}  // namespace dsra::runtime
