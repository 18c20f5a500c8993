// Admission control: per-stream SLAs, a deadline-feasibility test
// against a pilot schedule, and a graceful-degradation ladder.
//
// The pool saturating is the normal case, not the exception: a fleet
// serving every arriving stream at 3x capacity misses every deadline,
// while one that admits what fits — degrading what almost fits — keeps
// the admitted tail bounded and delivers more SLA-compliant frames in
// total. The controller decides per arriving stream, in arrival order:
//
//  1. Build a *pilot schedule* of the already-admitted set plus the
//     candidate: per-frame stage costs from the analytic cost model
//     (content-independent — DCT cycles are blocks x cycles_for_block,
//     ME cycles are macroblocks x systolic_cycles_per_block, exactly
//     what the encoder charges), placed onto the fabrics the
//     feasibility matrix allows (FabricPool capacity probes), in the
//     earliest-ready / tightest-deadline order the JobQueue's shards and
//     ageing valve serve (FIFO with EDF ties). Every actor time is known
//     up front, so the greedy list schedule *is* the pilot's timing: each
//     whole-frame job starts at max(previous frame's end, fabric free),
//     and the predicted completion, per-frame latencies, busy cycles and
//     makespan are read off those clocks. (The scheduler's planner then
//     schedules the admitted set stage by stage, with batching and
//     reconfiguration, at the same per-frame costs.)
//  2. Test every SLA in the set (admitted streams must not be pushed
//     over their own deadlines by the newcomer) with a configurable
//     headroom for costs the pilot does not model (reconfiguration,
//     affinity-batching deviations from the service order).
//  3. On failure, walk the degradation ladder — bump QP, drop
//     resolution (4x fewer blocks), swap to the cheapest context that
//     still places on some capable fabric — re-testing each rung; the
//     rungs are cumulative quality concessions. Only when no rung fits
//     is the stream rejected. Rungs are tried on the stream's shape
//     (geometry, frame count, contexts — all the pilot reads); the
//     stream takes a rung's concessions, and its frames their one
//     downscale, only when that rung commits.
//
// Under pool pressure (predicted demand near capacity over the deadline
// horizon) even feasible newcomers pay the QP bump: the fleet-wide
// bits-for-bandwidth concession of an overloaded serving tier.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "me/systolic.hpp"
#include "runtime/fabric_pool.hpp"
#include "runtime/job.hpp"

namespace dsra::runtime {

struct AdmissionConfig {
  bool enabled = false;  ///< off = the historical admit-everything world
  /// Safety margin the feasibility test applies to pilot predictions:
  /// admit only if predicted * headroom meets the SLA. Covers what the
  /// pilot does not model (reconfiguration cycles, affinity batching).
  double headroom = 1.25;
  /// Pool pressure (predicted demand / capacity over the deadline
  /// horizon) above which even feasible newcomers are admitted at the
  /// QP-bump rung.
  double qp_pressure = 0.70;
  double qp_bump_factor = 2.0;  ///< quantiser_scale multiplier per bump
  int min_dimension = 16;       ///< resolution-drop floor, pixels per axis
};

/// The analytic cost model: the modeled array cycles the encoder charges
/// a @p width x @p height frame coded with @p codec on @p impl, the ME
/// search on the @p me_params array (skipped when @p intra). Content-
/// independent, hence exact before the frame is ever touched. The
/// scheduler's planner costs every stage job with it, and admission
/// every pilot frame.
[[nodiscard]] FrameCycles model_frame_cycles(const dct::DctImplementation& impl,
                                             const video::CodecConfig& codec,
                                             const me::SystolicParams& me_params, int width,
                                             int height, bool intra);

/// Outcome of one stream's ladder walk.
struct AdmissionDecision {
  int stream_id = 0;
  std::string name;
  bool admitted = false;
  DegradationRung rung = DegradationRung::kNone;  ///< kReject when !admitted
  std::uint64_t predicted_completion_cycles = 0;  ///< pilot, at the final rung
  std::uint64_t predicted_p99_cycles = 0;         ///< pilot per-frame p99
  std::uint64_t deadline_cycles = 0;              ///< the stream's SLA (0 = none)
  std::uint64_t p99_budget_cycles = 0;
  std::string note;  ///< human-readable why ("pool pressure 0.84", ...)
};

/// Aggregate admission outcome of one run — the per-rung counters the
/// RunReport and the metrics registry surface.
struct AdmissionReport {
  bool enabled = false;
  std::uint64_t arrived = 0;
  std::uint64_t admitted = 0;       ///< any rung except kReject
  std::uint64_t admitted_clean = 0; ///< kNone
  std::uint64_t qp_bumps = 0;
  std::uint64_t resolution_drops = 0;
  std::uint64_t impl_swaps = 0;
  std::uint64_t rejected = 0;
  /// Predicted demand / capacity of the final admitted set over the
  /// deadline horizon (what the QP-pressure rung triggers on).
  double pool_pressure = 0.0;
  std::vector<AdmissionDecision> decisions;  ///< arrival order
};

class AdmissionController {
 public:
  /// @p library and @p pool must outlive the controller. @p me_params is
  /// the scheduler's ME array model (the cost the encodes will charge).
  AdmissionController(const KernelLibrary& library, const FabricPool& pool,
                      me::SystolicParams me_params, AdmissionConfig config = {});

  /// Walk the ladder for every stream in arrival (vector) order.
  /// Admitted-degraded streams are mutated in place (codec, frames,
  /// contexts); rejected streams are marked kReject with next_frame
  /// advanced past the end so the queue never dispatches them.
  AdmissionReport admit_all(std::vector<StreamJob>& streams);

  /// Single-stream ladder walk against the set admitted so far (state
  /// accumulates across calls — the arrival process). Mutates the
  /// candidate exactly like admit_all.
  AdmissionDecision admit(StreamJob& candidate);

  /// Analytic whole-frame cost of @p job's frame @p f in modeled cycles:
  /// stage_cycles(kWholeFrame) of its model_frame_cycles at the stream's
  /// configured size.
  [[nodiscard]] std::uint64_t frame_cycles(const StreamJob& job, int frame) const;

  /// Cheapest DCT context (by cycles_for_block) that places on at least
  /// one DCT-capable fabric of the pool; empty when none does.
  [[nodiscard]] std::string cheapest_fitting_impl() const;

  /// Ladder rungs, exposed for the property tests. Each returns whether
  /// it changed the job (a no-op rung cannot help feasibility).
  static bool apply_qp_bump(StreamJob& job, double factor);
  static bool apply_resolution_drop(StreamJob& job, int min_dimension);
  /// Swaps every frame onto cheapest_fitting_impl(); counts the forced
  /// context change as a condition switch when it differs from what the
  /// stream's conditions had selected.
  [[nodiscard]] bool apply_impl_swap(StreamJob& job) const;

 private:
  /// The pilot's view of one stream: its SLA and, per frame, the analytic
  /// whole-frame cost and the interned set of fabrics that can host it.
  struct PilotStream {
    StreamSla sla;
    std::vector<std::uint64_t> cycles;  ///< whole-frame cost per frame
    std::vector<int> host_set;          ///< index into host_sets_ per frame
  };
  struct PilotOutcome {
    bool placeable = true;  ///< false: some frame had no eligible fabric
    std::vector<std::uint64_t> completion_cycles;  ///< per pilot stream
    std::vector<std::uint64_t> p99_cycles;         ///< per pilot stream
    double pressure = 0.0;  ///< busy / (fabrics x deadline horizon)
  };

  /// frame_cycles at a trial geometry @p w x @p h and context @p impl.
  [[nodiscard]] std::uint64_t frame_cycles(const StreamJob& job, int w, int h,
                                           const std::string& impl, int frame) const;
  /// Interned DCT host set of @p context: the fabric ids, in pool order,
  /// looked up once per controller.
  int host_set_of(const std::string& context);
  /// @p job as the ladder sees it at a trial rung: @p width x @p height,
  /// every frame on @p forced_impl when non-null (the impl-swap rung).
  [[nodiscard]] PilotStream pilot_of(const StreamJob& job, int width, int height,
                                     const std::string* forced_impl);
  /// List-schedule admitted_ (the candidate last) in the queue's service
  /// order and read the predicted timing off the schedule's own clocks.
  [[nodiscard]] PilotOutcome pilot() const;
  /// Every SLA in admitted_ holds under @p outcome with headroom applied.
  [[nodiscard]] bool feasible(const PilotOutcome& outcome) const;

  const KernelLibrary& library_;
  const FabricPool& pool_;
  me::SystolicParams me_params_;
  AdmissionConfig config_;
  std::vector<std::vector<int>> host_sets_;
  std::map<std::string, int> host_set_ids_;
  /// The admitted set; during a ladder walk the trial candidate rides at
  /// the back and is popped unless its rung commits.
  std::vector<PilotStream> admitted_;
  double last_pressure_ = 0.0;
  AdmissionReport report_;
};

}  // namespace dsra::runtime
