#include "runtime/job_queue.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>

namespace dsra::runtime {

std::string to_string(SchedulingPolicy policy) {
  return policy == SchedulingPolicy::kRoundRobin ? "round-robin" : "affinity-batched";
}

std::string to_string(DispatchMode mode) {
  return mode == DispatchMode::kMonolithicFrames ? "monolithic-frames" : "stage-pipeline";
}

namespace {

/// A fabric's relation to one context (FabricSlot::ctx_ok values).
enum : char { kCannotRun = 0, kUnplaceable = 1, kHosts = 2 };

}  // namespace

JobQueue::JobQueue(std::vector<StreamJob>& streams, JobQueueConfig config)
    : streams_(streams), config_(config) {
  if (config_.pipeline_lookahead < 0) config_.pipeline_lookahead = 0;
  lanes_.resize(streams_.size());

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
  shards_.resize(ctx_names_.size());

  std::vector<Ready> seed;
  for (std::size_t k = 0; k < streams_.size(); ++k) {
    StreamJob& s = streams_[k];
    if (s.finished()) continue;
    const int stream_id = static_cast<int>(k);
    // A stream may arrive partially encoded (e.g. a second scheduler run
    // over the same jobs); only the frames still ahead count.
    const auto frames = static_cast<int>(s.frames.size());
    if (config_.mode == DispatchMode::kMonolithicFrames) {
      job_count_ += static_cast<std::size_t>(frames - s.next_frame);
      seed.push_back(make_ready(stream_id, StageKind::kWholeFrame, s.next_frame));
    } else {
      job_count_ += static_cast<std::size_t>(2 * (frames - s.next_frame) +
                                             frames - std::max(1, s.next_frame));
      s.pipeline.assign(s.frames.size(), FramePipelineState{});
      Lane& lane = lanes_[k];
      lane.dct_frame = s.next_frame;
      lane.me_next = std::max(1, s.next_frame);  // frame 0 is intra, no ME
      lane.me_done_upto = lane.me_next - 1;
      advance_dct_lane(stream_id, seed);
      advance_me_lane(stream_id, seed);
    }
  }
  push_group(seed);
}

int JobQueue::ctx_of(StageKind stage, int stream_id, int frame_index) const {
  if (stage == StageKind::kMotionEstimation) return me_ctx_;
  const std::string& name =
      streams_[static_cast<std::size_t>(stream_id)].impl_for(frame_index);
  // Dense linear probe: the context set is a handful of names.
  for (std::size_t c = 0; c < ctx_names_.size(); ++c)
    if (ctx_names_[c] == name) return static_cast<int>(c);
  return 0;  // unreachable for streams the constructor scanned
}

JobQueue::Ready JobQueue::make_ready(int stream_id, StageKind stage, int frame_index) const {
  // Streams without a deadline sort last among equally-old jobs; with no
  // SLAs anywhere every cohort stays in stream order.
  const std::uint64_t deadline =
      streams_[static_cast<std::size_t>(stream_id)].config.sla.deadline_cycles;
  return {stream_id, stage, frame_index, ctx_of(stage, stream_id, frame_index),
          deadline == 0 ? std::numeric_limits<std::uint64_t>::max() : deadline, 0};
}

JobQueue::FabricSlot& JobQueue::slot_of(int fabric_id) {
  if (fabric_id >= static_cast<int>(slots_.size()))
    slots_.resize(static_cast<std::size_t>(fabric_id) + 1);
  return slots_[static_cast<std::size_t>(fabric_id)];
}

void JobQueue::push_group(std::vector<Ready>& batch) {
  // Tightest deadline first, stream id making the order total.
  std::sort(batch.begin(), batch.end(), [](const Ready& a, const Ready& b) {
    if (a.deadline != b.deadline) return a.deadline < b.deadline;
    return a.stream_id < b.stream_id;
  });
  for (Ready entry : batch) {
    std::deque<Ready>& shard = shards_[static_cast<std::size_t>(entry.ctx)];
    entry.ready_seq = dispatch_seq_;
    // EDF inside the cohort: go ahead of same-age jobs due later.
    auto at = shard.end();
    while (at != shard.begin() && std::prev(at)->ready_seq == entry.ready_seq &&
           std::prev(at)->deadline > entry.deadline)
      --at;
    shard.insert(at, entry);
  }
}

void JobQueue::advance_me_lane(int stream_id, std::vector<Ready>& out) {
  const StreamJob& s = streams_[static_cast<std::size_t>(stream_id)];
  Lane& lane = lanes_[static_cast<std::size_t>(stream_id)];
  if (lane.me_busy) return;
  if (lane.me_next >= static_cast<int>(s.frames.size())) return;
  // Open-loop ME searches the previous original frame, so the only
  // dependency is the lookahead window: ME may run at most
  // pipeline_lookahead frames ahead of the reconstruction lane.
  if (lane.me_next > s.next_frame + config_.pipeline_lookahead) return;
  lane.me_busy = true;
  out.push_back(make_ready(stream_id, StageKind::kMotionEstimation, lane.me_next));
  ++lane.me_next;
}

void JobQueue::advance_dct_lane(int stream_id, std::vector<Ready>& out) {
  const StreamJob& s = streams_[static_cast<std::size_t>(stream_id)];
  Lane& lane = lanes_[static_cast<std::size_t>(stream_id)];
  if (lane.dct_busy) return;
  if (lane.dct_frame >= static_cast<int>(s.frames.size())) return;
  // DCT/quant of frame k needs frame k's motion vectors (inter frames
  // only; the intra frame 0 has none).
  if (lane.dct_frame > 0 && lane.me_done_upto < lane.dct_frame) return;
  lane.dct_busy = true;
  out.push_back(make_ready(stream_id, StageKind::kTransformQuant, lane.dct_frame));
}

std::vector<FrameTask> JobQueue::acquire_batch(int fabric_id,
                                               const std::optional<std::string>& fabric_impl,
                                               unsigned capabilities,
                                               const HostFilter& can_host, int max_batch) {
  FabricSlot& slot = slot_of(fabric_id);
  if (max_batch <= 0) max_batch = std::max(1, config_.max_batch);
  const bool round_robin = config_.policy == SchedulingPolicy::kRoundRobin;

  // Context eligibility: capability mask + placement filter over the
  // interned context set.
  const std::size_t nctx = ctx_names_.size();
  ctx_ok_.assign(nctx, kCannotRun);
  int active_ctx = -1;
  for (std::size_t c = 0; c < nctx; ++c) {
    if (fabric_impl && ctx_names_[c] == *fabric_impl) active_ctx = static_cast<int>(c);
    // The shared ME context runs on the systolic array, every DCT
    // bitstream on the transform array.
    const unsigned kernel =
        static_cast<int>(c) == me_ctx_ ? kCapMotionEstimation : kCapDctTransform;
    if ((kernel & capabilities) == 0) continue;
    ctx_ok_[c] = !can_host || can_host(ctx_names_[c]) ? kHosts : kUnplaceable;
  }

  // 1. One pass over the shards: per-context backlog and head, and the
  //    ageing valve's pick — the oldest head that has waited
  //    aging_threshold dispatches (round-robin counts every head as
  //    aged). Equally-old heads go tightest deadline first, then smaller
  //    shard first, so a minority context parked mid-cohort is not swept
  //    behind the majority.
  const std::uint64_t seq_now = dispatch_seq_;
  scan_.assign(nctx, CtxScan{});
  std::size_t idx = nctx;
  std::uint64_t pick_seq = 0;
  std::uint64_t pick_deadline = 0;
  std::size_t pick_count = 0;
  bool placement_skip = false;
  for (std::size_t c = 0; c < nctx; ++c) {
    const std::deque<Ready>& shard = shards_[c];
    if (shard.empty()) continue;
    if (ctx_ok_[c] != kHosts) {
      // A capability-eligible job this fabric cannot place: the
      // placement-rejection accounting the geometry report shows.
      placement_skip = placement_skip || ctx_ok_[c] == kUnplaceable;
      continue;
    }
    CtxScan& cs = scan_[c];
    const std::uint64_t head = shard.front().ready_seq;
    cs.backlog = shard.size();
    cs.oldest = head;
    const std::uint64_t age = seq_now > head ? seq_now - head : 0;
    if (!round_robin && age < config_.aging_threshold) {
      cs.age_room = config_.aging_threshold - age;
      continue;
    }
    const std::uint64_t deadline = shard.front().deadline;
    if (idx == nctx || head < pick_seq ||
        (head == pick_seq && (deadline < pick_deadline ||
                              (deadline == pick_deadline && shard.size() < pick_count)))) {
      idx = c;
      pick_seq = head;
      pick_deadline = deadline;
      pick_count = shard.size();
    }
  }

  // 2. No aged head: affinity, then a forced switch.
  const bool valve = idx != nctx;
  const bool run_capped = active_ctx >= 0 && slot.run_ctx == active_ctx &&
                          slot.run_length >= config_.max_affinity_run;
  const auto queued = [&](std::size_t c) { return !shards_[c].empty() ? c : nctx; };
  if (idx == nctx && !round_robin) {
    // Stay on the fabric's active configuration while the run cap allows.
    if (active_ctx >= 0 && !run_capped) idx = queued(static_cast<std::size_t>(active_ctx));
    // Switch to the largest hostable backlog, oldest head breaking ties,
    // so the reconfiguration is amortized over the biggest batch. A
    // capped fabric rotates away unless nothing else is waiting (the
    // cap bounds batching, not liveness).
    if (idx == nctx) {
      std::size_t to = nctx;
      for (std::size_t c = 0; c < nctx; ++c) {
        const CtxScan& cs = scan_[c];
        if (cs.backlog == 0) continue;
        if (run_capped && static_cast<int>(c) == active_ctx) continue;
        if (to == nctx || cs.backlog > scan_[to].backlog ||
            (cs.backlog == scan_[to].backlog && cs.oldest < scan_[to].oldest))
          to = c;
      }
      if (to == nctx && run_capped) to = static_cast<std::size_t>(active_ctx);
      if (to != nctx) idx = queued(to);
    }
  }
  if (idx == nctx) return {};

  // 3. Size the batch so it keeps the per-dispatch meaning of both
  //    valves while another hostable context waits: it stops before
  //    another context's oldest head would reach aging_threshold, and
  //    it never takes the fabric's run past max_affinity_run — except
  //    that a valve batch, like the per-dispatch valve, serves aged jobs
  //    of the fabric's own context whatever the run, and takes only
  //    jobs that are themselves aged. Round-robin dispatches one job at
  //    a time.
  const int ctx = static_cast<int>(idx);
  std::size_t limit = round_robin ? 1 : static_cast<std::size_t>(max_batch);
  bool others_waiting = false;
  for (std::size_t c = 0; c < nctx && !round_robin; ++c) {
    const CtxScan& cs = scan_[c];
    if (static_cast<int>(c) == ctx || cs.backlog == 0) continue;
    others_waiting = true;
    limit = std::min<std::size_t>(limit, cs.age_room);
  }
  if (others_waiting && !(valve && ctx == slot.run_ctx)) {
    const int run = slot.run_ctx == ctx ? slot.run_length : 0;
    limit = std::min<std::size_t>(limit, std::max(1, config_.max_affinity_run - run));
  }

  // Take up to half the shard (at least one), so other fabrics hosting
  // the context keep material. The first job always goes; a later one
  // stops a valve batch if it would dispatch unaged.
  std::deque<Ready>& shard = shards_[idx];
  const std::size_t take = std::min(limit, (shard.size() + 1) / 2);
  std::vector<FrameTask> batch;
  batch.reserve(take);
  while (batch.size() < take) {
    const Ready& job = shard.front();
    const std::uint64_t at = seq_now + batch.size();  // its dispatch, less one
    const bool aged = at >= job.ready_seq && at - job.ready_seq >= config_.aging_threshold;
    if (!batch.empty() && valve && !aged) break;
    const std::uint64_t wait = dispatch_seq_++ - job.ready_seq;
    max_wait_ = std::max(max_wait_, wait);
    events_.push_back({events_.size() + 1, true, job.stream_id, job.frame_index, fabric_id,
                       job.stage});
    FrameTask task;
    task.stream_id = job.stream_id;
    task.frame_index = job.frame_index;
    task.stage = job.stage;
    task.wait_dispatches = wait;
    batch.push_back(task);
    shard.pop_front();
  }

  const int popped = static_cast<int>(batch.size());
  if (slot.run_ctx == ctx) {
    slot.run_length += popped;
  } else {
    slot.run_ctx = ctx;
    slot.run_length = popped;
  }
  if (active_ctx >= 0 && ctx != active_ctx) ++steals_;
  ++batches_;
  if (placement_skip) slot.placement_skips += batch.size();
  return batch;
}

void JobQueue::complete_batch(const std::vector<CompletedTask>& batch, int fabric_id) {
  completions_ += batch.size();
  successors_.clear();
  for (const CompletedTask& done : batch) {
    const FrameTask& task = done.task;
    events_.push_back({events_.size() + 1, false, task.stream_id, task.frame_index, fabric_id,
                       task.stage, done.reconfig_cycles});
    StreamJob& stream = streams_[static_cast<std::size_t>(task.stream_id)];
    Lane& lane = lanes_[static_cast<std::size_t>(task.stream_id)];
    switch (task.stage) {
      case StageKind::kWholeFrame:
        ++stream.next_frame;
        if (!stream.finished())
          successors_.push_back(
              make_ready(task.stream_id, StageKind::kWholeFrame, stream.next_frame));
        break;
      case StageKind::kMotionEstimation:
        lane.me_done_upto = task.frame_index;
        lane.me_busy = false;
        advance_dct_lane(task.stream_id, successors_);  // TQ(frame) may wait on us
        advance_me_lane(task.stream_id, successors_);
        break;
      case StageKind::kTransformQuant:
        successors_.push_back(
            make_ready(task.stream_id, StageKind::kReconstructEntropy, task.frame_index));
        break;
      case StageKind::kReconstructEntropy:
        ++stream.next_frame;  // the frame is fully encoded
        lane.dct_busy = false;
        lane.dct_frame = task.frame_index + 1;
        advance_dct_lane(task.stream_id, successors_);
        advance_me_lane(task.stream_id, successors_);  // the lookahead window moved
        break;
    }
  }
  push_group(successors_);
}

const std::string& JobQueue::required_context(const FrameTask& task) const {
  static const std::string me_context = kMeContextName;
  if (task.stage == StageKind::kMotionEstimation) return me_context;
  return streams_[static_cast<std::size_t>(task.stream_id)].impl_for(task.frame_index);
}

std::vector<std::uint64_t> JobQueue::placement_skips() const {
  std::vector<std::uint64_t> skips;
  skips.reserve(slots_.size());
  for (const FabricSlot& slot : slots_) skips.push_back(slot.placement_skips);
  return skips;
}

health::QueueHealthSample JobQueue::health_sample() const {
  health::QueueHealthSample sample;
  sample.dispatches = dispatch_seq_;
  sample.completions = completions_;
  sample.shards.reserve(shards_.size());
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    health::ShardHealth sh;
    sh.shard = static_cast<int>(c);
    sh.depth = shards_[c].size();
    if (!shards_[c].empty() && shards_[c].front().ready_seq <= dispatch_seq_)
      sh.oldest_age = dispatch_seq_ - shards_[c].front().ready_seq;
    sample.depth += sh.depth;
    sample.oldest_age = std::max(sample.oldest_age, sh.oldest_age);
    sample.shards.push_back(sh);
  }
  sample.steals = steals_;
  sample.batches = batches_;
  return sample;
}

}  // namespace dsra::runtime
