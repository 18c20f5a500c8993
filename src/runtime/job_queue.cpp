#include "runtime/job_queue.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <map>

#include "runtime/health/flight_recorder.hpp"

namespace dsra::runtime {

std::string to_string(SchedulingPolicy policy) {
  return policy == SchedulingPolicy::kRoundRobin ? "round-robin" : "affinity-batched";
}

std::string to_string(DispatchMode mode) {
  return mode == DispatchMode::kMonolithicFrames ? "monolithic-frames" : "stage-pipeline";
}

namespace {

/// Kernel capability a context configures: the shared ME context runs on
/// the systolic array, every DCT bitstream on the transform array.
constexpr unsigned context_kernel(bool is_me) {
  return is_me ? kCapMotionEstimation : kCapDctTransform;
}

/// A fabric's relation to one context (FabricSlot::ctx_ok values).
enum : char { kCannotRun = 0, kUnplaceable = 1, kHosts = 2 };

}  // namespace

JobQueue::JobQueue(std::vector<StreamJob>& streams, JobQueueConfig config)
    : streams_(streams), config_(config) {
  if (config_.pipeline_lookahead < 0) config_.pipeline_lookahead = 0;
  ways_ = static_cast<std::size_t>(std::max(1, config_.shards));
  lanes_.resize(streams_.size());
  lane_m_ = std::make_unique<std::mutex[]>(std::max<std::size_t>(1, streams_.size()));

  // Intern every context the run can dispatch under. The set is the
  // library's live subset — a handful of names — so ids are dense and the
  // per-context structures are plain arrays.
  std::map<std::string, int> intern;
  const auto intern_ctx = [&](const std::string& name) {
    const auto [it, inserted] = intern.try_emplace(name, static_cast<int>(ctx_names_.size()));
    if (inserted) ctx_names_.push_back(name);
    return it->second;
  };
  for (StreamJob& s : streams_) {
    // Safety net for hand-built jobs: a stream carrying a trajectory must
    // have its per-frame contexts resolved before dispatch starts, or the
    // affinity keys would fall back to the frozen impl_name.
    if (s.config.trajectory && s.frame_impls.size() != s.frames.size())
      resolve_stream_conditions(s);
    if (s.finished()) continue;
    if (config_.mode == DispatchMode::kStagePipeline) me_ctx_ = intern_ctx(kMeContextName);
    for (int f = s.next_frame; f < static_cast<int>(s.frames.size()); ++f)
      intern_ctx(s.impl_for(f));
  }

  shard_total_ = ctx_names_.size() * ways_;
  shards_ = std::make_unique<Shard[]>(std::max<std::size_t>(1, shard_total_));
  jobs_left_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      std::max<std::size_t>(1, ctx_names_.size()));
  for (std::size_t c = 0; c < ctx_names_.size(); ++c) jobs_left_[c].store(0);

  const auto now = std::chrono::steady_clock::now();  // one stamp for the seed batch
  std::vector<Ready> seed;
  for (std::size_t k = 0; k < streams_.size(); ++k) {
    StreamJob& s = streams_[k];
    if (s.finished()) continue;
    const int stream_id = static_cast<int>(k);
    // A stream may arrive partially encoded (e.g. a second scheduler run
    // over the same jobs); only the frames still ahead count.
    if (config_.mode == DispatchMode::kMonolithicFrames) {
      for (int f = s.next_frame; f < static_cast<int>(s.frames.size()); ++f)
        jobs_left_[static_cast<std::size_t>(ctx_of(StageKind::kWholeFrame, stream_id, f))]
            .fetch_add(1, std::memory_order_relaxed);
      seed.push_back(make_ready(stream_id, StageKind::kWholeFrame, s.next_frame, now));
    } else {
      s.pipeline.assign(s.frames.size(), FramePipelineState{});
      Lane& lane = lanes_[k];
      lane.dct_frame = s.next_frame;
      lane.me_next = std::max(1, s.next_frame);  // frame 0 is intra, no ME
      lane.me_done_upto = lane.me_next - 1;
      const auto me_jobs =
          static_cast<std::uint64_t>(static_cast<int>(s.frames.size()) - lane.me_next);
      jobs_left_[static_cast<std::size_t>(me_ctx_)].fetch_add(me_jobs,
                                                              std::memory_order_relaxed);
      for (int f = s.next_frame; f < static_cast<int>(s.frames.size()); ++f)
        jobs_left_[static_cast<std::size_t>(ctx_of(StageKind::kTransformQuant, stream_id, f))]
            .fetch_add(2, std::memory_order_relaxed);  // TQ + reconstruct
      advance_dct_lane(stream_id, now, seed);
      advance_me_lane(stream_id, now, seed);
    }
  }
  push_group(seed);
}

int JobQueue::ctx_of(StageKind stage, int stream_id, int frame_index) const {
  if (stage == StageKind::kMotionEstimation) return me_ctx_;
  const std::string& name =
      streams_[static_cast<std::size_t>(stream_id)].impl_for(frame_index);
  // Dense linear probe: the context set is a handful of names, and this
  // avoids a shared map in the dispatch path.
  for (std::size_t c = 0; c < ctx_names_.size(); ++c)
    if (ctx_names_[c] == name) return static_cast<int>(c);
  return 0;  // unreachable for streams the constructor scanned
}

JobQueue::Ready JobQueue::make_ready(int stream_id, StageKind stage, int frame_index,
                                     std::chrono::steady_clock::time_point now) const {
  // Streams without a deadline sort last among equally-old jobs; with no
  // SLAs anywhere every cohort stays in stream order.
  const std::uint64_t deadline =
      streams_[static_cast<std::size_t>(stream_id)].config.sla.deadline_cycles;
  return {stream_id, stage,
          frame_index, ctx_of(stage, stream_id, frame_index),
          deadline == 0 ? std::numeric_limits<std::uint64_t>::max() : deadline,
          0, now};
}

JobQueue::FabricSlot& JobQueue::slot_of(int fabric_id) {
  std::lock_guard lock(slots_m_);
  if (fabric_id >= static_cast<int>(slot_by_fabric_.size()))
    slot_by_fabric_.resize(static_cast<std::size_t>(fabric_id) + 1, nullptr);
  FabricSlot*& slot = slot_by_fabric_[static_cast<std::size_t>(fabric_id)];
  if (slot == nullptr) slot = &slots_.emplace_back();
  return *slot;
}

void JobQueue::publish(Shard& shard) {
  // The head's ready_seq goes last: a scan that sees it also sees the
  // count and deadline stored before it.
  shard.count.store(static_cast<std::uint32_t>(shard.jobs.size()), std::memory_order_seq_cst);
  if (shard.jobs.empty()) {
    shard.head_seq.store(kEmptyHead, std::memory_order_seq_cst);
    return;
  }
  shard.head_deadline.store(shard.jobs.front().deadline, std::memory_order_seq_cst);
  shard.head_seq.store(shard.jobs.front().ready_seq, std::memory_order_seq_cst);
}

void JobQueue::push_group(std::vector<Ready>& batch) {
  if (batch.empty()) return;
  // Group by target shard so a completion batch pays one lock
  // acquisition per shard, not per successor; tightest deadline first
  // within a group, stream id making the order total.
  std::sort(batch.begin(), batch.end(), [&](const Ready& a, const Ready& b) {
    const std::size_t sa = shard_index(a.ctx, a.stream_id);
    const std::size_t sb = shard_index(b.ctx, b.stream_id);
    if (sa != sb) return sa < sb;
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.stream_id < b.stream_id;
  });
  std::size_t i = 0;
  while (i < batch.size()) {
    const std::size_t target = shard_index(batch[i].ctx, batch[i].stream_id);
    std::size_t j = i;
    while (j < batch.size() && shard_index(batch[j].ctx, batch[j].stream_id) == target) ++j;
    Shard& shard = shards_[target];
    {
      std::lock_guard lock(shard.m);
      // Stamped under the shard lock, so each shard is monotone in
      // ready_seq and its head is its oldest job.
      const std::uint64_t seq = dispatch_seq_.load(std::memory_order_seq_cst);
      for (std::size_t p = i; p < j; ++p) {
        Ready entry = batch[p];
        entry.ready_seq = seq;
        // EDF inside the cohort: go ahead of same-age jobs due later.
        auto at = shard.jobs.end();
        while (at != shard.jobs.begin() && std::prev(at)->ready_seq == seq &&
               std::prev(at)->deadline > entry.deadline)
          --at;
        shard.jobs.insert(at, entry);
      }
      publish(shard);
    }
    i = j;
  }
  wake_sleepers();
}

void JobQueue::wake_sleepers() {
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    std::lock_guard lock(sleep_m_);
    ++wake_epoch_;
  }
  sleep_cv_.notify_all();
}

void JobQueue::advance_me_lane(int stream_id, std::chrono::steady_clock::time_point now,
                               std::vector<Ready>& out) {
  StreamJob& s = streams_[static_cast<std::size_t>(stream_id)];
  Lane& lane = lanes_[static_cast<std::size_t>(stream_id)];
  if (lane.me_busy) return;
  if (lane.me_next >= static_cast<int>(s.frames.size())) return;
  // Open-loop ME searches the previous original frame, so the only
  // dependency is the lookahead window: ME may run at most
  // pipeline_lookahead frames ahead of the reconstruction lane.
  if (lane.me_next > s.next_frame + config_.pipeline_lookahead) return;
  lane.me_busy = true;
  out.push_back(make_ready(stream_id, StageKind::kMotionEstimation, lane.me_next, now));
  s.pipeline[static_cast<std::size_t>(lane.me_next)].first_ready = now;
  ++lane.me_next;
}

void JobQueue::advance_dct_lane(int stream_id, std::chrono::steady_clock::time_point now,
                                std::vector<Ready>& out) {
  StreamJob& s = streams_[static_cast<std::size_t>(stream_id)];
  Lane& lane = lanes_[static_cast<std::size_t>(stream_id)];
  if (lane.dct_busy) return;
  if (lane.dct_frame >= static_cast<int>(s.frames.size())) return;
  // DCT/quant of frame k needs frame k's motion vectors (inter frames
  // only; the intra frame 0 has none).
  if (lane.dct_frame > 0 && lane.me_done_upto < lane.dct_frame) return;
  lane.dct_busy = true;
  out.push_back(make_ready(stream_id, StageKind::kTransformQuant, lane.dct_frame, now));
  if (lane.dct_frame == 0)
    s.pipeline[0].first_ready = now;  // intra frame: TQ is its first stage
}

std::size_t JobQueue::best_way(std::size_t ctx, std::size_t home_way) const {
  std::size_t best = shard_total_;
  std::uint64_t best_seq = kEmptyHead;
  std::uint64_t best_deadline = 0;
  for (std::size_t w = 0; w < ways_; ++w) {
    const std::size_t idx = ctx * ways_ + (home_way + w) % ways_;
    const std::uint64_t head = shards_[idx].head_seq.load(std::memory_order_seq_cst);
    if (head == kEmptyHead) continue;
    const std::uint64_t deadline = shards_[idx].head_deadline.load(std::memory_order_seq_cst);
    if (best == shard_total_ || head < best_seq ||
        (head == best_seq && deadline < best_deadline)) {
      best = idx;
      best_seq = head;
      best_deadline = deadline;
    }
  }
  return best;
}

bool JobQueue::outranked_by_sibling(std::size_t idx, const Ready& job) const {
  const std::size_t first = idx - idx % ways_;
  for (std::size_t s = first; s < first + ways_; ++s) {
    if (s == idx) continue;
    const std::uint64_t head = shards_[s].head_seq.load(std::memory_order_seq_cst);
    if (head != kEmptyHead && head <= job.ready_seq &&
        shards_[s].head_deadline.load(std::memory_order_seq_cst) < job.deadline)
      return true;
  }
  return false;
}

std::vector<FrameTask> JobQueue::acquire_batch(int fabric_id,
                                               const std::optional<std::string>& fabric_impl,
                                               unsigned capabilities,
                                               const HostFilter& can_host, int max_batch) {
  FabricSlot& slot = slot_of(fabric_id);
  if (max_batch <= 0) max_batch = std::max(1, config_.max_batch);
  const bool round_robin = config_.policy == SchedulingPolicy::kRoundRobin;

  // Context eligibility is fixed per fabric: capability mask + placement
  // filter over the interned context set, resolved once per call.
  const std::size_t nctx = ctx_names_.size();
  slot.ctx_ok.assign(nctx, kCannotRun);
  int active_ctx = -1;
  for (std::size_t c = 0; c < nctx; ++c) {
    if (fabric_impl && ctx_names_[c] == *fabric_impl) active_ctx = static_cast<int>(c);
    if ((context_kernel(static_cast<int>(c) == me_ctx_) & capabilities) == 0) continue;
    slot.ctx_ok[c] = !can_host || can_host(ctx_names_[c]) ? kHosts : kUnplaceable;
  }
  const auto work_possible = [&] {
    for (std::size_t c = 0; c < nctx; ++c)
      if (slot.ctx_ok[c] == kHosts && jobs_left_[c].load(std::memory_order_seq_cst) > 0)
        return true;
    return false;
  };
  const std::size_t home_way = static_cast<std::size_t>(fabric_id) % ways_;

  for (;;) {
    // 1. One pass over the racy shard hints: per-context backlog and
    //    oldest head, and the ageing valve's pick — the oldest head that
    //    has waited aging_threshold dispatches (round-robin counts every
    //    head as aged). Equally-old heads go tightest deadline first,
    //    then smaller shard first, so a minority context parked mid-
    //    cohort is not swept behind the majority.
    const std::uint64_t seq_now = dispatch_seq_.load(std::memory_order_seq_cst);
    slot.scan.assign(nctx, CtxScan{});
    std::size_t idx = shard_total_;
    std::uint64_t pick_seq = 0;
    std::uint64_t pick_deadline = 0;
    std::uint32_t pick_count = 0;
    bool placement_skip = false;
    for (std::size_t c = 0; c < nctx; ++c) {
      CtxScan& cs = slot.scan[c];
      for (std::size_t w = 0; w < ways_; ++w) {
        const Shard& shard = shards_[c * ways_ + (home_way + w) % ways_];
        const std::uint64_t head = shard.head_seq.load(std::memory_order_seq_cst);
        if (head == kEmptyHead) continue;
        if (slot.ctx_ok[c] != kHosts) {
          // A capability-eligible job this fabric cannot place: the
          // placement-rejection accounting the geometry report shows.
          placement_skip = placement_skip || slot.ctx_ok[c] == kUnplaceable;
          continue;
        }
        const std::uint32_t count = shard.count.load(std::memory_order_seq_cst);
        cs.backlog += count;
        cs.oldest = std::min(cs.oldest, head);
        const std::uint64_t age = seq_now > head ? seq_now - head : 0;
        if (!round_robin && age < config_.aging_threshold) {
          cs.age_room = std::min(cs.age_room, config_.aging_threshold - age);
          continue;
        }
        const std::uint64_t deadline = shard.head_deadline.load(std::memory_order_seq_cst);
        if (idx == shard_total_ || head < pick_seq ||
            (head == pick_seq &&
             (deadline < pick_deadline || (deadline == pick_deadline && count < pick_count)))) {
          idx = c * ways_ + (home_way + w) % ways_;
          pick_seq = head;
          pick_deadline = deadline;
          pick_count = count;
        }
      }
    }

    // 2. No aged head: affinity, then a forced switch.
    const bool valve = idx != shard_total_;
    const bool run_capped = active_ctx >= 0 && slot.run_ctx == active_ctx &&
                            slot.run_length >= config_.max_affinity_run;
    if (idx == shard_total_ && !round_robin) {
      // Stay on the fabric's active configuration while the run cap allows.
      if (active_ctx >= 0 && !run_capped)
        idx = best_way(static_cast<std::size_t>(active_ctx), home_way);
      // Switch to the largest hostable backlog, oldest head breaking ties,
      // so the reconfiguration is amortized over the biggest batch. A
      // capped fabric rotates away unless nothing else is waiting (the
      // cap bounds batching, not liveness).
      if (idx == shard_total_) {
        std::size_t to = nctx;
        for (std::size_t c = 0; c < nctx; ++c) {
          const CtxScan& cs = slot.scan[c];
          if (cs.oldest == kEmptyHead) continue;
          if (run_capped && static_cast<int>(c) == active_ctx) continue;
          if (to == nctx || cs.backlog > slot.scan[to].backlog ||
              (cs.backlog == slot.scan[to].backlog && cs.oldest < slot.scan[to].oldest))
            to = c;
        }
        if (to == nctx && run_capped) to = static_cast<std::size_t>(active_ctx);
        if (to != nctx) idx = best_way(to, home_way);
      }
    }

    if (idx == shard_total_) {
      if (!work_possible()) return {};
      // Nothing hostable is queued but jobs are still in flight: sleep
      // until a push (or a context draining) bumps the epoch. No timeout
      // is needed. A pusher stores the shard hint (and a dispatcher
      // draining a context its jobs_left_) seq_cst, THEN loads sleepers_
      // seq_cst; a sleeper increments sleepers_ seq_cst, THEN re-reads
      // the hints. In the single total order of those operations either
      // the re-check below sees the new state and skips the wait, or the
      // pusher sees the registration and bumps wake_epoch_ under sleep_m_
      // — before we read our starting epoch (the mutex then orders its
      // store before our re-check, which sees it) or after (its notify
      // ends the wait).
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      {
        std::unique_lock sl(sleep_m_);
        const std::uint64_t epoch = wake_epoch_;
        bool state_changed = !work_possible();
        for (std::size_t s = 0; s < shard_total_ && !state_changed; ++s)
          state_changed = slot.ctx_ok[s / ways_] == kHosts &&
                          shards_[s].head_seq.load(std::memory_order_seq_cst) != kEmptyHead;
        if (!state_changed) sleep_cv_.wait(sl, [&] { return wake_epoch_ != epoch; });
      }
      sleepers_.fetch_sub(1, std::memory_order_seq_cst);
      continue;
    }

    // 3. Size the batch so it keeps the per-dispatch meaning of both
    //    valves while another hostable context waits: it stops before
    //    another context's oldest head would reach aging_threshold, and
    //    it never takes the fabric's run past max_affinity_run — except
    //    that a valve batch, like the per-dispatch valve, serves aged jobs
    //    of the fabric's own context whatever the run, and takes only
    //    jobs that are themselves aged. Round-robin dispatches one job at
    //    a time.
    const int ctx = static_cast<int>(idx / ways_);
    std::size_t limit = round_robin ? 1 : static_cast<std::size_t>(max_batch);
    bool others_waiting = false;
    for (std::size_t c = 0; c < nctx && !round_robin; ++c) {
      const CtxScan& cs = slot.scan[c];
      if (static_cast<int>(c) == ctx || cs.oldest == kEmptyHead) continue;
      others_waiting = true;
      limit = std::min<std::size_t>(limit, cs.age_room);
    }
    if (others_waiting && !(valve && ctx == slot.run_ctx)) {
      const int run = slot.run_ctx == ctx ? slot.run_length : 0;
      limit = std::min<std::size_t>(limit, std::max(1, config_.max_affinity_run - run));
    }

    Shard& shard = shards_[idx];
    slot.popped.clear();
    {
      std::lock_guard lock(shard.m);
      // Take up to half the shard (at least one): the rest stays visible
      // to sibling stealers. The first job always goes; a later one stops
      // the batch if a valve batch would dispatch it unaged, or if a
      // sibling head at least as old has a tighter deadline.
      const std::size_t take = std::min(limit, (shard.jobs.size() + 1) / 2);
      const auto aged = [&](const Ready& job) {
        const std::uint64_t at = seq_now + slot.popped.size();  // its dispatch, less one
        return at >= job.ready_seq && at - job.ready_seq >= config_.aging_threshold;
      };
      while (slot.popped.size() < take &&
             (slot.popped.empty() || ((!valve || aged(shard.jobs.front())) &&
                                      !outranked_by_sibling(idx, shard.jobs.front())))) {
        slot.popped.push_back(shard.jobs.front());
        shard.jobs.pop_front();
      }
      publish(shard);
    }
    if (slot.popped.empty()) continue;  // drained since the scan

    const int popped = static_cast<int>(slot.popped.size());
    if (slot.run_ctx == ctx) {
      slot.run_length += popped;
    } else {
      slot.run_ctx = ctx;
      slot.run_length = popped;
    }
    const std::size_t home_shard = static_cast<std::size_t>(ctx) * ways_ + home_way;
    if (idx != home_shard || (active_ctx >= 0 && ctx != active_ctx)) {
      slot.steals.fetch_add(1, std::memory_order_relaxed);
      if (config_.flight != nullptr) {
        config_.flight->record(fabric_id, health::EventKind::kSteal,
                               slot.popped.front().stream_id,
                               slot.popped.front().frame_index,
                               static_cast<std::uint64_t>(ctx));
      }
    }
    slot.batches.fetch_add(1, std::memory_order_relaxed);
    if (placement_skip)
      slot.placement_skips.fetch_add(slot.popped.size(), std::memory_order_relaxed);

    bool exit_candidates_changed = false;
    std::vector<FrameTask> batch;
    batch.reserve(slot.popped.size());
    for (const Ready& entry : slot.popped) {
      const std::uint64_t seq = dispatch_seq_.fetch_add(1, std::memory_order_seq_cst) + 1;
      const std::uint64_t wait = seq - 1 - entry.ready_seq;
      // Single-writer max: a plain load/compare/store is race-free here
      // (only this worker writes its slot).
      if (wait > slot.max_wait.load(std::memory_order_relaxed))
        slot.max_wait.store(wait, std::memory_order_relaxed);
      if (jobs_left_[static_cast<std::size_t>(entry.ctx)].fetch_sub(
              1, std::memory_order_seq_cst) == 1)
        exit_candidates_changed = true;  // starved workers may now exit
      slot.events.push_back({event_tick_.fetch_add(1, std::memory_order_seq_cst) + 1, true,
                             entry.stream_id, entry.frame_index, fabric_id, entry.stage});
      FrameTask task;
      task.stream_id = entry.stream_id;
      task.frame_index = entry.frame_index;
      task.stage = entry.stage;
      task.wait_dispatches = wait;
      task.ready_time = entry.ready_time;
      batch.push_back(task);
    }
    if (exit_candidates_changed) wake_sleepers();
    return batch;
  }
}

void JobQueue::complete_batch(const std::vector<CompletedTask>& batch, int fabric_id) {
  if (batch.empty()) return;
  FabricSlot& slot = slot_of(fabric_id);
  completions_.fetch_add(batch.size(), std::memory_order_relaxed);
  // One timestamp covers every successor this batch enqueues.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Ready>& successors = slot.successors;
  successors.clear();
  for (const CompletedTask& done : batch) {
    const FrameTask& task = done.task;
    slot.events.push_back({event_tick_.fetch_add(1, std::memory_order_seq_cst) + 1, false,
                           task.stream_id, task.frame_index, fabric_id, task.stage,
                           done.reconfig_cycles});
    StreamJob& stream = streams_[static_cast<std::size_t>(task.stream_id)];
    std::lock_guard lane_lock(lane_m_[static_cast<std::size_t>(task.stream_id)]);
    Lane& lane = lanes_[static_cast<std::size_t>(task.stream_id)];
    switch (task.stage) {
      case StageKind::kWholeFrame:
        ++stream.next_frame;
        if (!stream.finished())
          successors.push_back(
              make_ready(task.stream_id, StageKind::kWholeFrame, stream.next_frame, now));
        break;
      case StageKind::kMotionEstimation:
        lane.me_done_upto = task.frame_index;
        lane.me_busy = false;
        advance_dct_lane(task.stream_id, now, successors);  // TQ(frame) may wait on us
        advance_me_lane(task.stream_id, now, successors);
        break;
      case StageKind::kTransformQuant:
        successors.push_back(make_ready(task.stream_id, StageKind::kReconstructEntropy,
                                        task.frame_index, now));
        break;
      case StageKind::kReconstructEntropy:
        ++stream.next_frame;  // the frame is fully encoded
        lane.dct_busy = false;
        lane.dct_frame = task.frame_index + 1;
        advance_dct_lane(task.stream_id, now, successors);
        advance_me_lane(task.stream_id, now, successors);  // the lookahead window moved
        break;
    }
  }
  push_group(successors);
}

std::string JobQueue::required_context(const FrameTask& task) const {
  if (task.stage == StageKind::kMotionEstimation) return kMeContextName;
  return streams_[static_cast<std::size_t>(task.stream_id)].impl_for(task.frame_index);
}

std::uint64_t JobQueue::dispatches() const {
  return dispatch_seq_.load(std::memory_order_seq_cst);
}

std::uint64_t JobQueue::max_wait_dispatches() const {
  std::lock_guard lock(slots_m_);
  std::uint64_t max_wait = 0;
  for (const FabricSlot& slot : slots_)
    max_wait = std::max(max_wait, slot.max_wait.load(std::memory_order_relaxed));
  return max_wait;
}

std::vector<std::uint64_t> JobQueue::placement_skips() const {
  std::lock_guard lock(slots_m_);
  std::vector<std::uint64_t> skips(slot_by_fabric_.size(), 0);
  for (std::size_t f = 0; f < slot_by_fabric_.size(); ++f)
    if (slot_by_fabric_[f] != nullptr)
      skips[f] = slot_by_fabric_[f]->placement_skips.load(std::memory_order_relaxed);
  return skips;
}

std::vector<StageEvent> JobQueue::timeline() const {
  std::lock_guard lock(slots_m_);
  // Each slot's buffer is already tick-ordered — its owner draws ticks
  // from the shared counter and appends in draw order — so the global
  // log is a k-way merge over the fabrics, not a full sort.
  std::size_t total = 0;
  for (const FabricSlot& slot : slots_) total += slot.events.size();
  std::vector<StageEvent> merged;
  merged.reserve(total);
  std::vector<std::size_t> cursor(slots_.size(), 0);
  while (merged.size() < total) {
    std::size_t best = slots_.size();
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (cursor[s] >= slots_[s].events.size()) continue;
      if (best == slots_.size() ||
          slots_[s].events[cursor[s]].tick < slots_[best].events[cursor[best]].tick)
        best = s;
    }
    merged.push_back(slots_[best].events[cursor[best]]);
    ++cursor[best];
  }
  return merged;
}

std::uint64_t JobQueue::steals() const {
  std::lock_guard lock(slots_m_);
  std::uint64_t total = 0;
  for (const FabricSlot& slot : slots_) total += slot.steals.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t JobQueue::dispatch_batches() const {
  std::lock_guard lock(slots_m_);
  std::uint64_t total = 0;
  for (const FabricSlot& slot : slots_) total += slot.batches.load(std::memory_order_relaxed);
  return total;
}

health::QueueHealthSample JobQueue::health_sample() const {
  health::QueueHealthSample sample;
  const std::uint64_t seq_now = dispatch_seq_.load(std::memory_order_seq_cst);
  sample.dispatches = seq_now;
  sample.completions = completions_.load(std::memory_order_relaxed);
  sample.shards.reserve(shard_total_);
  for (std::size_t idx = 0; idx < shard_total_; ++idx) {
    health::ShardHealth sh;
    sh.shard = static_cast<int>(idx);
    sh.depth = shards_[idx].count.load(std::memory_order_seq_cst);
    const std::uint64_t head = shards_[idx].head_seq.load(std::memory_order_seq_cst);
    if (head != kEmptyHead && head <= seq_now) sh.oldest_age = seq_now - head;
    sample.depth += sh.depth;
    sample.oldest_age = std::max(sample.oldest_age, sh.oldest_age);
    sample.shards.push_back(sh);
  }
  sample.steals = steals();
  sample.batches = dispatch_batches();
  return sample;
}

}  // namespace dsra::runtime
