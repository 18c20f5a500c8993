// Stage-task queue with configuration-affinity batching, one ready-set
// shard per context.
//
// The queue is the dispatch policy: a single-threaded object the
// scheduler's planner drives in modeled time (fabric frees -> acquire a
// batch; batch ends -> complete it). It hands batches of stage jobs to
// fabrics. Two dispatch modes:
//
//  * kMonolithicFrames — the legacy frame-granularity server: one job per
//    frame, ME runs inline with the transform, only the DCT kernel is
//    needed. A stream re-enters the ready set when its frame completes.
//  * kStagePipeline — each frame is split into ME -> DCT/quant ->
//    reconstruct stage jobs with the data dependencies made explicit:
//    frame k's DCT/quant needs frame k's motion vectors and frame k-1's
//    reconstruction; frame k's reconstruct needs frame k's levels. Motion
//    estimation searches the previous *original* frame (open-loop), so
//    frame k+1's ME only needs frame k to exist — it overlaps frame k's
//    DCT/quant on a different fabric. pipeline_lookahead bounds how many
//    frames ME may run ahead of reconstruction.
//
// The ready set is sharded by the key dispatch batches on — the
// (geometry, context) pair, with geometry entering through each fabric's
// placement filter. Each shard is a FIFO ordered by readiness (the
// dispatch count when the job became ready), tightest SLA deadline first
// among equally-old jobs (EDF inside each FIFO cohort). Two scheduling
// policies:
//
//  * kRoundRobin — serve the oldest head among the shards the fabric can
//    host, one job per dispatch, ignoring which bitstream the fabric runs.
//    Maximal interleave, maximal configuration-port thrash; the baseline.
//  * kAffinityBatched — keep serving the fabric's active context (the
//    stream's DCT bitstream, or the shared ME context for ME jobs) so
//    consecutive jobs amortize one switch; when the fabric must switch,
//    switch to the context with the largest backlog, oldest head breaking
//    ties, setting up the largest next batch. Two fairness valves bound
//    the batching, both with per-dispatch meaning although one acquire
//    pops a batch:
//      - run cap: a batch never takes a fabric past max_affinity_run
//        consecutive same-context dispatches; a capped fabric rotates
//        away unless nothing else is eligible.
//      - ageing: once a hostable head has waited aging_threshold
//        dispatches it is served first, affinity or not, and a batch
//        stops before another context's head would reach the threshold.
//        Among equally-old heads the tightest deadline goes first, then
//        the smaller shard, so a minority context parked mid-cohort is
//        not swept behind the majority.
//
// One acquire pops up to max_batch jobs, at most half the shard, so other
// fabrics hosting the same context keep material; one completion call
// groups its successor enqueues by shard.
//
// Fabrics advertise kernel capabilities AND a placement-feasibility
// filter: a job is only eligible on a fabric whose capability mask covers
// its stage's kernel and whose array geometry can host the job's required
// context (the library's fits() matrix, threaded in as the host filter).
// Dispatches that passed over a capability-eligible job on placement
// grounds are counted per fabric (placement_skips) for the per-geometry
// report.
//
// The dispatch order never changes encoded output: bits, PSNR and
// reconstructions depend only on each stream's frame order, per-frame
// context and codec config, which every dispatch order preserves.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/health/snapshot.hpp"
#include "runtime/job.hpp"

namespace dsra::runtime {

enum class SchedulingPolicy { kRoundRobin, kAffinityBatched };
enum class DispatchMode { kMonolithicFrames, kStagePipeline };

[[nodiscard]] std::string to_string(SchedulingPolicy policy);
[[nodiscard]] std::string to_string(DispatchMode mode);

struct JobQueueConfig {
  SchedulingPolicy policy = SchedulingPolicy::kAffinityBatched;
  DispatchMode mode = DispatchMode::kMonolithicFrames;
  int max_affinity_run = 16;  ///< consecutive same-config dispatches per fabric
  std::uint64_t aging_threshold = 64;  ///< dispatches a job may wait
  int pipeline_lookahead = 1;  ///< frames ME may run ahead of reconstruction
  /// Ignored: the queue keeps one shard per context. The field stays so
  /// existing configurations keep compiling.
  int shards = 1;
  /// Jobs a fabric may pop per acquire, clamped to >= 1. A batch never
  /// takes more than half a shard.
  int max_batch = 8;
};

/// A finished task plus what its fabric paid to prepare the context —
/// the unit of the batched completion API.
struct CompletedTask {
  FrameTask task;
  std::uint64_t reconfig_cycles = 0;
};

class JobQueue {
 public:
  /// @p streams is shared with the caller; the queue reads impl_name /
  /// frame counts, advances each stream's next_frame and lane
  /// bookkeeping on completion and (in stage mode) sizes each stream's
  /// pipeline state.
  JobQueue(std::vector<StreamJob>& streams, JobQueueConfig config = {});

  /// Placement-feasibility predicate of one fabric: true iff the named
  /// context places and routes on the fabric's array geometry. A null
  /// filter hosts everything (the homogeneous-pool world).
  using HostFilter = std::function<bool(const std::string& context)>;

  /// Pop a batch of 1..max_batch ready jobs from one shard for a fabric
  /// running @p fabric_impl whose @p capabilities can run them AND whose
  /// @p can_host accepts their context (<= 0 = config.max_batch). Empty
  /// when no ready job suits the fabric right now.
  [[nodiscard]] std::vector<FrameTask> acquire_batch(
      int fabric_id, const std::optional<std::string>& fabric_impl,
      unsigned capabilities = kCapAllKernels, const HostFilter& can_host = nullptr,
      int max_batch = 0);

  /// Mark a batch done on @p fabric_id, releasing the jobs the
  /// completions unblock (next stage, next frame, or the ME window
  /// advancing) grouped by shard. Each task's reconfig_cycles is what the
  /// fabric paid to prepare its context (fetch + switch); it is stamped
  /// on the completion event so the timeline replay can charge it.
  void complete_batch(const std::vector<CompletedTask>& batch, int fabric_id);

  /// Bitstream a task must have active before running. For a dynamic
  /// stream this is the *per-frame* resolution: when a stream's condition
  /// trajectory selects a new implementation at frame k, every entry of
  /// the stream from frame k on carries the new affinity key, so the
  /// stream re-buckets onto the new configuration in both dispatch modes.
  [[nodiscard]] const std::string& required_context(const FrameTask& task) const;

  /// Jobs the queue hands out over the run: every frame still ahead, as
  /// one job, or as its ME (inter frames), DCT/quant and reconstruct jobs.
  [[nodiscard]] std::size_t job_count() const { return job_count_; }

  [[nodiscard]] std::uint64_t dispatches() const { return dispatch_seq_; }
  [[nodiscard]] std::uint64_t max_wait_dispatches() const { return max_wait_; }
  /// Dispatches in which @p fabric_id passed over at least one
  /// capability-eligible ready job because its context does not place on
  /// the fabric's geometry (indexed by fabric id; missing = 0).
  [[nodiscard]] std::vector<std::uint64_t> placement_skips() const;
  /// Dispatch and completion events in the order they happened; a
  /// finished queue hands its log over instead of copying it.
  [[nodiscard]] const std::vector<StageEvent>& timeline() const& { return events_; }
  [[nodiscard]] std::vector<StageEvent> timeline() && { return std::move(events_); }

  /// Ready-set shards: one per context.
  [[nodiscard]] int shard_count() const { return static_cast<int>(shards_.size()); }
  /// The shard (interned context id) @p task queues in.
  [[nodiscard]] int shard_of(const FrameTask& task) const {
    return ctx_of(task.stage, task.stream_id, task.frame_index);
  }
  /// Batches served from a context other than the fabric's active one.
  [[nodiscard]] std::uint64_t steals() const { return steals_; }
  /// Acquires that yielded at least one job.
  [[nodiscard]] std::uint64_t dispatch_batches() const { return batches_; }

  /// Queue state for a health tick: per-shard depth and oldest age,
  /// dispatch / completion / steal / batch counts.
  [[nodiscard]] health::QueueHealthSample health_sample() const;

 private:
  struct Ready {
    int stream_id = 0;
    StageKind stage = StageKind::kWholeFrame;
    int frame_index = 0;
    int ctx = 0;                  ///< interned context id
    std::uint64_t deadline = 0;   ///< stream's SLA deadline; max when none
    std::uint64_t ready_seq = 0;  ///< dispatch count when it became ready
  };
  /// One context's view in a dispatch scan.
  struct CtxScan {
    std::uint64_t backlog = 0;  ///< queued jobs; 0 when none or not hostable
    std::uint64_t oldest = 0;   ///< head ready_seq (when backlog > 0)
    /// Dispatches until its head, still under aging_threshold, ages.
    std::uint64_t age_room = ~std::uint64_t{0};
  };
  /// Per-fabric state: the affinity run and the placement accounting.
  struct FabricSlot {
    int run_ctx = -1;
    int run_length = 0;
    std::uint64_t placement_skips = 0;
  };
  /// Per-stream pipeline lanes (stage mode only). The ME lane walks
  /// frames 1..n-1; the DCT lane alternates TQ/reconstruct per frame.
  struct Lane {
    int me_next = 1;        ///< next frame to enqueue for ME
    int me_done_upto = 0;   ///< ME complete for frames [1, me_done_upto]
    bool me_busy = false;   ///< an ME job is ready or in flight
    int dct_frame = 0;      ///< frame the DCT lane works on
    bool dct_busy = false;  ///< a DCT-lane job is ready or in flight
  };

  [[nodiscard]] int ctx_of(StageKind stage, int stream_id, int frame_index) const;
  [[nodiscard]] Ready make_ready(int stream_id, StageKind stage, int frame_index) const;
  [[nodiscard]] FabricSlot& slot_of(int fabric_id);

  /// Append @p batch to its shards, tightest deadline first within a
  /// shard, stamped with the current dispatch count.
  void push_group(std::vector<Ready>& batch);

  /// Lane advance decisions (stage mode), collected instead of pushed so
  /// the caller can group them.
  void advance_me_lane(int stream_id, std::vector<Ready>& out);
  void advance_dct_lane(int stream_id, std::vector<Ready>& out);

  std::vector<StreamJob>& streams_;
  JobQueueConfig config_;

  std::vector<std::string> ctx_names_;  ///< interned context names, by id
  int me_ctx_ = -1;                     ///< id of the shared ME context (stage mode)
  /// One FIFO per context, ordered by (ready_seq, deadline): enqueue
  /// inserts at the back, ahead of same-age jobs with a later deadline;
  /// dispatch pops front.
  std::vector<std::deque<Ready>> shards_;
  std::vector<Lane> lanes_;

  std::size_t job_count_ = 0;
  std::uint64_t dispatch_seq_ = 0;
  std::uint64_t completions_ = 0;
  std::uint64_t max_wait_ = 0;
  std::uint64_t steals_ = 0;
  std::uint64_t batches_ = 0;
  std::vector<StageEvent> events_;
  std::vector<FabricSlot> slots_;  ///< indexed by fabric id, grown on first use
  std::vector<char> ctx_ok_;       ///< scratch: contexts the acquiring fabric hosts
  std::vector<CtxScan> scan_;      ///< scratch: per-context scan results
  std::vector<Ready> successors_;  ///< scratch: a completion batch's releases
};

}  // namespace dsra::runtime
