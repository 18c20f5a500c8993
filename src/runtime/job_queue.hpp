// Stage-task queue with configuration-affinity batching, sharded by
// affinity key.
//
// The queue hands batches of stage jobs to fabrics. Two dispatch modes:
//
//  * kMonolithicFrames — the legacy frame-granularity server: one job per
//    frame, ME runs inline on the worker, only the DCT kernel is needed.
//    A stream re-enters the ready set when its in-flight frame completes.
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
// placement filter — and every context is split into `shards`
// independently locked sub-shards ("ways") keyed by stream id, so
// same-context traffic scales across fabrics too:
//
//         context A (ctx 0)          context B (ctx 1)
//      ┌─────────┬─────────┐      ┌─────────┬─────────┐
//      │ shard 0 │ shard 1 │      │ shard 2 │ shard 3 │   (ways = 2)
//      │ s0 s2…  │ s1 s3…  │      │ s4 s6…  │ s5 s7…  │   streams by id
//      └────┬────┴────┬────┘      └────┬────┴─────────┘
//           │home      │ sibling        │ switch
//        fabric 0 ─────┘ (same config)  │ (largest backlog,
//           └───────────────────────────┘  pays a reconfig)
//
// Each sub-shard is a FIFO ordered by readiness (the dispatch count when
// the job became ready), tightest SLA deadline first among equally-old
// jobs (EDF inside each FIFO cohort). Two scheduling policies:
//
//  * kRoundRobin — serve the oldest head among the shards the fabric can
//    host, one job per dispatch, ignoring which bitstream the fabric runs.
//    Maximal interleave, maximal configuration-port thrash; the baseline.
//  * kAffinityBatched — keep serving the fabric's active context (the
//    stream's DCT bitstream, or the shared ME context for ME jobs) so
//    consecutive jobs amortize one switch; when the fabric must switch,
//    switch to the context with the largest backlog, oldest head breaking
//    ties, setting up the largest next batch. Two fairness valves bound
//    the batching, both with per-dispatch meaning although one shard-lock
//    round pops a batch:
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
// Within a context the sub-shard with the oldest head is served first,
// the fabric's home way (fabric id mod ways) breaking ties, and a batch
// never passes an at-least-as-old sibling head with a tighter deadline.
// One shard-lock acquisition pops up to max_batch jobs (at most half the
// shard, so siblings keep stealing material), and one completion call
// groups its successor enqueues by target shard. Counters, the event
// timeline and the dispatch scratch live in per-fabric slots written only
// by their worker and merged on read, so nothing serializes on a stats
// lock and the scratch is reused from one acquire to the next.
//
// Fabrics advertise kernel capabilities AND a placement-feasibility
// filter: a job is only eligible on a fabric whose capability mask covers
// its stage's kernel and whose array geometry can host the job's required
// context (the library's fits() matrix, threaded in as the host filter).
// A worker exits once no job its fabric could ever run — by capability or
// by placement — remains. Dispatches that passed over a capability-
// eligible job on placement grounds are counted per fabric
// (placement_skips) for the per-geometry report.
//
// The sub-shard count never changes encoded output: bits, PSNR and
// reconstructions depend only on each stream's frame order, per-frame
// context and codec config, which every dispatch order preserves
// (test_sharded_sched holds ways 1 and ways N bit-exact).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/health/snapshot.hpp"
#include "runtime/job.hpp"

namespace dsra::runtime {

namespace health {
class FlightRecorder;
}

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
  /// Sub-shards ("ways") per context, clamped to >= 1. More ways spread
  /// one context's lock traffic over more locks; the policy is the same
  /// at every value.
  int shards = 1;
  /// Jobs a fabric may pop per shard-lock acquisition, clamped to >= 1.
  /// A batch never takes more than half a shard, so siblings keep
  /// stealing material.
  int max_batch = 8;
  /// Optional flight recorder the queue appends steal events to. Null =
  /// off. The recorder must outlive the queue; workers record on their
  /// own fabric's ring, so the writes stay single-writer.
  health::FlightRecorder* flight = nullptr;
};

/// A finished task plus what its fabric paid to prepare the context —
/// the unit of the batched completion API.
struct CompletedTask {
  FrameTask task;
  std::uint64_t reconfig_cycles = 0;
};

class JobQueue {
 public:
  /// @p streams is shared with the workers; the queue reads impl_name /
  /// frame counts, advances the per-stream lane bookkeeping on completion
  /// and (in stage mode) sizes each stream's pipeline state.
  JobQueue(std::vector<StreamJob>& streams, JobQueueConfig config = {});

  /// Placement-feasibility predicate of one fabric: true iff the named
  /// context places and routes on the fabric's array geometry. A null
  /// filter hosts everything (the homogeneous-pool world).
  using HostFilter = std::function<bool(const std::string& context)>;

  /// Block until at least one job is available that @p capabilities can
  /// run AND whose required context @p can_host accepts (the fabric's
  /// active bitstream is @p fabric_impl), then pop a batch of 1..max_batch
  /// jobs from one shard, oldest first (<= 0 = config.max_batch). Returns
  /// empty when no job this fabric could ever run remains.
  [[nodiscard]] std::vector<FrameTask> acquire_batch(
      int fabric_id, const std::optional<std::string>& fabric_impl,
      unsigned capabilities = kCapAllKernels, const HostFilter& can_host = nullptr,
      int max_batch = 0);

  /// Mark a batch done on @p fabric_id with one timestamp and one lane
  /// pass, releasing the jobs the completions unblock (next stage, next
  /// frame, or the ME window advancing) grouped by target shard. Each
  /// task's reconfig_cycles is what the fabric paid to prepare its
  /// context (fetch + switch); it is stamped on the completion event so
  /// the simulated-time replay charges it into the modeled makespan.
  void complete_batch(const std::vector<CompletedTask>& batch, int fabric_id);

  /// Bitstream a task must have active before running. For a dynamic
  /// stream this is the *per-frame* resolution: when a stream's condition
  /// trajectory selects a new implementation at frame k, every entry of
  /// the stream from frame k on carries the new affinity key, so the
  /// stream re-buckets onto the new configuration in both dispatch modes.
  [[nodiscard]] std::string required_context(const FrameTask& task) const;

  // Merged-on-read accessors. The counter folds are atomic and safe at
  // any moment; timeline() merges the plain per-fabric event buffers, so
  // call it only after the run has drained (the scheduler reads it after
  // joining the workers).
  [[nodiscard]] std::uint64_t dispatches() const;
  [[nodiscard]] std::uint64_t max_wait_dispatches() const;
  /// Dispatches in which @p fabric_id passed over at least one
  /// capability-eligible ready job because its context does not place on
  /// the fabric's geometry (indexed by fabric id; missing = 0).
  [[nodiscard]] std::vector<std::uint64_t> placement_skips() const;
  /// Event log merged from the per-fabric slots, sorted by tick.
  [[nodiscard]] std::vector<StageEvent> timeline() const;

  /// Ready-set shards: contexts x ways.
  [[nodiscard]] int shard_count() const { return static_cast<int>(shard_total_); }
  /// Batches served from a non-home shard (sibling or cross-context).
  [[nodiscard]] std::uint64_t steals() const;
  /// Lock acquisitions that yielded at least one job.
  [[nodiscard]] std::uint64_t dispatch_batches() const;

  /// Live queue state for the health sampler, assembled entirely from
  /// the racy-read shard hints and the atomic slot counters — no shard
  /// lock is taken, so it is safe to call at any moment from the
  /// monitor's epoch thread while workers dispatch.
  [[nodiscard]] health::QueueHealthSample health_sample() const;

 private:
  struct Ready {
    int stream_id = 0;
    StageKind stage = StageKind::kWholeFrame;
    int frame_index = 0;
    int ctx = 0;                  ///< interned context id
    std::uint64_t deadline = 0;   ///< stream's SLA deadline; max when none
    std::uint64_t ready_seq = 0;  ///< dispatch count when it became ready
    std::chrono::steady_clock::time_point ready_time;
  };
  static constexpr std::uint64_t kEmptyHead = ~std::uint64_t{0};
  struct Shard {
    std::mutex m;
    /// Ordered by (ready_seq, deadline): enqueue inserts at the back,
    /// ahead of same-age jobs with a later deadline; dispatch pops front.
    std::deque<Ready> jobs;
    /// Racy-read hints for the lock-free shard scan, maintained under m:
    /// live job count, the head's ready_seq (kEmptyHead when none) and
    /// the head's deadline.
    std::atomic<std::uint32_t> count{0};
    std::atomic<std::uint64_t> head_seq{kEmptyHead};
    std::atomic<std::uint64_t> head_deadline{0};
  };
  /// One context's view in a dispatch scan.
  struct CtxScan {
    std::uint64_t backlog = 0;          ///< hinted jobs over its ways
    std::uint64_t oldest = kEmptyHead;  ///< oldest head ready_seq
    /// Dispatches until its oldest head still under aging_threshold ages.
    std::uint64_t age_room = ~std::uint64_t{0};
  };
  /// Per-fabric state, written only by the owning worker thread (merged
  /// on read after the drain): the affinity run, private counters, the
  /// private event buffer and the dispatch scratch. The counters are
  /// relaxed atomics (still single-writer) so the health sampler can fold
  /// them mid-run without a data race; the event buffer stays plain and
  /// is only merged after the drain.
  struct FabricSlot {
    int run_ctx = -1;
    int run_length = 0;
    std::atomic<std::uint64_t> max_wait{0};
    std::atomic<std::uint64_t> placement_skips{0};
    std::atomic<std::uint64_t> steals{0};
    std::atomic<std::uint64_t> batches{0};
    std::vector<StageEvent> events;
    std::vector<char> ctx_ok;       ///< scratch: contexts this fabric hosts
    std::vector<CtxScan> scan;      ///< scratch: per-context scan results
    std::vector<Ready> popped;      ///< scratch: the batch under construction
    std::vector<Ready> successors;  ///< scratch: a completion batch's releases
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
  [[nodiscard]] Ready make_ready(int stream_id, StageKind stage, int frame_index,
                                 std::chrono::steady_clock::time_point now) const;
  [[nodiscard]] std::size_t shard_index(int ctx, int stream_id) const {
    return static_cast<std::size_t>(ctx) * ways_ +
           static_cast<std::size_t>(stream_id) % ways_;
  }
  [[nodiscard]] FabricSlot& slot_of(int fabric_id);
  /// Refresh @p shard's hints from its jobs. Requires shard.m held.
  static void publish(Shard& shard);

  /// Sub-shard of @p ctx to serve: oldest head, tightest head deadline,
  /// then the way nearest @p home_way; shard_total_ when all are empty.
  [[nodiscard]] std::size_t best_way(std::size_t ctx, std::size_t home_way) const;
  /// True when a sibling sub-shard of @p idx holds a head at least as old
  /// as @p job with a tighter deadline: EDF says it goes first.
  [[nodiscard]] bool outranked_by_sibling(std::size_t idx, const Ready& job) const;

  /// Append @p batch to its target shards, one lock per shard, then wake
  /// sleepers. Safe from any thread.
  void push_group(std::vector<Ready>& batch);
  void wake_sleepers();

  /// Lane advance decisions (stage mode), collected instead of pushed so
  /// the caller can group them. Requires lane_m_[stream] held.
  void advance_me_lane(int stream_id, std::chrono::steady_clock::time_point now,
                       std::vector<Ready>& out);
  void advance_dct_lane(int stream_id, std::chrono::steady_clock::time_point now,
                        std::vector<Ready>& out);

  std::vector<StreamJob>& streams_;
  JobQueueConfig config_;
  std::size_t ways_ = 1;         ///< sub-shards per context
  std::size_t shard_total_ = 0;  ///< contexts * ways

  std::vector<std::string> ctx_names_;  ///< interned context names, by id
  int me_ctx_ = -1;                     ///< id of the shared ME context (stage mode)
  std::unique_ptr<Shard[]> shards_;
  /// Undispatched jobs per context (counting jobs not yet enqueued). The
  /// worker-exit test consults this *per fabric*: a worker may leave once
  /// every context with work left is one its fabric cannot run, by
  /// capability or by placement.
  std::unique_ptr<std::atomic<std::uint64_t>[]> jobs_left_;

  std::vector<Lane> lanes_;
  /// Per-stream lane lock: in stage mode one stream's ME and DCT lanes
  /// complete on different fabrics concurrently, and both mutate the
  /// stream's lane counters / next_frame. The data handoff between
  /// stages still rides the shard mutexes (write happens before the
  /// successor's enqueue, read after its dequeue, same shard lock).
  std::unique_ptr<std::mutex[]> lane_m_;

  std::atomic<std::uint64_t> dispatch_seq_{0};
  std::atomic<std::uint64_t> completions_{0};
  std::atomic<std::uint64_t> event_tick_{0};

  /// One slot per fabric, created on first use under slots_m_.
  mutable std::mutex slots_m_;
  std::deque<FabricSlot> slots_;   ///< deque: growth never moves elements
  std::vector<FabricSlot*> slot_by_fabric_;

  /// Sleep/wake for cross-shard blocking: pushers bump the epoch and
  /// notify only when sleepers_ is nonzero; sleepers re-check the shard
  /// hints *after* registering (seq_cst on both sides closes the
  /// missed-wake window, see acquire_batch).
  std::mutex sleep_m_;
  std::condition_variable sleep_cv_;
  std::atomic<int> sleepers_{0};
  std::uint64_t wake_epoch_ = 0;  ///< guarded by sleep_m_
};

}  // namespace dsra::runtime
