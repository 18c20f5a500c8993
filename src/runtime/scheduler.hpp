// Reconfiguration-aware multi-stream encode scheduler.
//
// Accepts N concurrent encode jobs and drives them over a pool of K
// simulated fabrics. run() validates the streams, admits them, then plans
// and executes at once:
//
//  * plan — one thread runs an event loop over modeled array cycles:
//    whenever a fabric frees (lowest id first on ties) it acquires a
//    batch through the JobQueue's policy, each job pays its context
//    fetch + switch (and any wait for a co-tenant's configuration port)
//    plus its stage's analytic compute cycles, and the batch completes at
//    its modeled end. The plan is the run's modeled schedule: the same
//    inputs give the same timeline, makespan and latencies on any host.
//  * execute — a lock-free executor (executor.hpp) encodes the planned
//    jobs on host workers: one thread per fabric slot, joined by the
//    planning thread once the plan is complete. The planner publishes
//    each planning instant's jobs into one plan array, the run's record
//    of its jobs. Workers claim plan indices in order, whatever fabric a
//    job was planned on; a job whose stream is busy is left to the
//    stream's running worker, so each stream's jobs run one at a time in
//    plan order — the encoded bits depend only on that order. Workers
//    never decide anything; the frame records name the planned fabrics,
//    and run() checks that every frame charged exactly the cycles the
//    plan costed.
//
// Two dispatch modes:
//
//  * kMonolithicFrames — frame-at-a-time batch serving: one job encodes
//    a whole frame, motion estimation runs inline on the transform
//    fabric, and only DCT-capable fabrics participate.
//  * kStagePipeline — each frame is split into the paper's kernel stages
//    (ME on the systolic array fabric, DCT/quant and reconstruction on
//    the DA/CORDIC fabric) with frame-level pipelining: frame k+1's ME
//    overlaps frame k's DCT/quant, and independent streams overlap across
//    fabrics of different kernel capabilities.
//
// Every dispatch goes through the JobQueue's policy (config-affinity
// batching with a run cap and an ageing valve, or naive round-robin as
// the baseline); every fabric switch pays the measured configuration-port
// cycles — charged per kernel, so the ME context loads are visible
// separately — and every context-cache miss pays bus fetch cycles. The
// returned RunReport carries per-stream latency percentiles, the stage
// dispatch timeline, per-worker host busy time and the aggregate
// throughput and reconfiguration accounting the acceptance benches
// compare across policies and modes.
#pragma once

#include <vector>

#include "me/systolic.hpp"
#include "runtime/admission.hpp"
#include "runtime/fabric_pool.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/stats.hpp"

namespace dsra::runtime {

namespace telemetry {
class TraceRecorder;  // telemetry/trace.hpp
}  // namespace telemetry

namespace health {
class HealthMonitor;  // health/monitor.hpp
}  // namespace health

struct SchedulerConfig {
  /// The pool, one entry per fabric; two default fabrics unless set.
  std::vector<FabricConfig> fabric_configs = std::vector<FabricConfig>(2);
  JobQueueConfig queue;
  me::SystolicParams me;  ///< ME array model the encodes search with and the plan costs

  /// Admission control. Disabled (the default) keeps the historical
  /// admit-everything behaviour bit-exactly. Enabled, run() walks the
  /// degradation ladder per stream — in arrival order, against the pilot
  /// schedule of everything admitted so far — before building the queue;
  /// shed streams dispatch nothing and their contexts are released from
  /// every fabric cache.
  AdmissionConfig admission;

  /// Span tracing. Null (the default) is the zero-cost-off state: the
  /// workers' recording site is guarded by this one pointer test and no
  /// span is built; modeled-cycle results are bit-exact
  /// either way — the recorder only observes. When set, the RunReport
  /// carries the typed span stream and per-stream stall attribution, from
  /// which telemetry::fill_metrics() derives the metrics export.
  telemetry::TraceRecorder* trace = nullptr;

  /// Health monitor. Null (the default) is zero-cost-off, same idiom as
  /// `trace`: the plan keeps no batch record and samples no epoch. When
  /// set, the planner keeps every batch in plan order (the executor's plan
  /// array holds the jobs) and samples the queue at every
  /// HealthMonitorConfig::epoch_cycles boundary and at the makespan; once
  /// the run is done, run() hands the monitor that record, with each
  /// stream's deadline and the cycles the plan costed its frames at, for
  /// one pass (HealthMonitor::observe). The monitor only observes, so
  /// modeled cycles and encoded output are bit-exact either way.
  /// RunReport::health_anomalies carries its trip count.
  health::HealthMonitor* health = nullptr;

  /// The pool the scheduler builds: `fabric_configs`. Throws
  /// std::invalid_argument when it is empty.
  [[nodiscard]] const std::vector<FabricConfig>& resolved_fabrics() const;
};

class MultiStreamScheduler {
 public:
  /// @p library outlives the scheduler; it is shared read-only. The
  /// config's fabric list is validated here (every fabric geometry must
  /// be compiled into the library).
  explicit MultiStreamScheduler(const KernelLibrary& library, SchedulerConfig config = {});

  /// Encode every stream to completion (blocking); @p streams is mutated
  /// in place (reconstructions, per-frame records). Returns the aggregate
  /// report. Rejected up front with std::invalid_argument: streams whose
  /// impl_name the library does not know, pools whose combined kernel
  /// capabilities cannot run the workload, and — the placement-
  /// feasibility fail-fast — streams whose condition trajectory can
  /// select an implementation no fabric geometry in the pool places
  /// (the diagnostic names the implementation, the frame it is first
  /// selected at, and the pool's geometries). Throws std::logic_error
  /// when jobs remain that no fabric can take, or when an encoded frame
  /// charged other kernel cycles than the plan costed it at.
  RunReport run(std::vector<StreamJob>& streams);

 private:
  const KernelLibrary& library_;
  SchedulerConfig config_;
};

}  // namespace dsra::runtime
