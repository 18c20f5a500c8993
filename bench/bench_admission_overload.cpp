// Admission control under burst overload: goodput of admitting what
// fits vs serving everyone badly.
//
// A burst of streams arrives whose aggregate demand is ~3x what one
// DCT fabric can serve inside the deadline horizon. Two runs over the
// identical workload:
//
//  * admit-everything — the historical scheduler: every stream runs,
//    every stream shares the fabric, nearly every deadline is missed.
//  * admission on     — the controller walks the degradation ladder per
//    arrival (QP bump -> half resolution -> cheapest context -> shed),
//    so the admitted set is sized to the fabric and its SLAs hold.
//
// Goodput is SLA-compliant frames (frames of streams whose deadline and
// p99 budget both held in the modeled-cycle replay; best-effort streams
// count in full). Acceptance: admission delivers >= 1.2x the goodput of
// admit-everything, and every admitted stream's p99 frame latency sits
// within its budget. Modeled cycles only — the bars are deterministic.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/report.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"
#include "runtime/telemetry/export.hpp"
#include "runtime/telemetry/metrics.hpp"
#include "runtime/telemetry/trace.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

constexpr int kStreams = 12;
constexpr int kFrames = 4;

/// The burst: every stream wants full 64x64 service now. Two of them
/// (the "gold" arrivals at positions 0 and 6) carry a loose deadline the
/// fabric could honour even when oversubscribed; the rest want roughly
/// one-third of the fabric each over the same horizon — together ~3x
/// capacity.
std::vector<StreamJob> burst_workload(std::uint64_t full_cost) {
  std::vector<StreamJob> jobs;
  for (int k = 0; k < kStreams; ++k) {
    StreamConfig cfg;
    cfg.name = (k % 6 == 0 ? "gold" : "burst") + std::to_string(k);
    cfg.width = 64;
    cfg.height = 64;
    cfg.frame_budget = kFrames;
    cfg.condition = {1.0, 1.0};
    cfg.codec.me_range = 4;
    cfg.seed = 9000 + static_cast<std::uint64_t>(k);
    cfg.sla.deadline_cycles = (k % 6 == 0 ? 16 : 4) * full_cost;
    // Per-frame budget sized to the burst horizon: tight enough that the
    // 12-deep admit-everything queue blows it, loose enough to absorb
    // the affinity-batching runs the pilot schedule does not model.
    cfg.sla.p99_budget_cycles = 4 * full_cost;
    jobs.push_back(make_synthetic_job(k, cfg));
  }
  return jobs;
}

RunReport run(const KernelLibrary& library, std::vector<StreamJob>& jobs, bool admission,
              telemetry::MetricsRegistry* metrics) {
  SchedulerConfig cfg;
  cfg.fabric_configs.assign(1, FabricConfig{});
  cfg.admission.enabled = admission;
  telemetry::TraceRecorder recorder;
  if (metrics != nullptr) cfg.trace = &recorder;
  RunReport report = MultiStreamScheduler(library, cfg).run(jobs);
  if (metrics != nullptr) telemetry::fill_metrics(report, jobs, *metrics);
  return report;
}

}  // namespace

int main() {
  BenchJson json("admission_overload");
  const KernelLibrary library;
  const FabricPool probe_pool(1, library);
  const AdmissionController probe(library, probe_pool, me::SystolicParams{});

  // Whole-stream cost of one burst stream in modeled cycles — the unit
  // every deadline above is written in.
  std::vector<StreamJob> unit{make_synthetic_job(0, [] {
    StreamConfig cfg;
    cfg.width = 64;
    cfg.height = 64;
    cfg.frame_budget = kFrames;
    cfg.condition = {1.0, 1.0};
    cfg.codec.me_range = 4;
    return cfg;
  }())};
  std::uint64_t full_cost = 0;
  for (int f = 0; f < kFrames; ++f) full_cost += probe.frame_cycles(unit[0], f);

  std::vector<StreamJob> everyone = burst_workload(full_cost);
  std::vector<StreamJob> admitted = burst_workload(full_cost);
  const RunReport baseline = run(library, everyone, false, nullptr);
  telemetry::MetricsRegistry metrics;
  const RunReport gated = run(library, admitted, true, &metrics);

  admission_table(gated).print();
  std::printf("\n");

  // Aggregate demand over the burst deadline horizon vs one fabric.
  const double demand_ratio = static_cast<double>(kStreams) / 4.0;

  // Worst admitted p99 against its budget (shed streams excluded: they
  // have no latency at all).
  double worst_p99_ratio = 0.0;
  for (const StreamSummary& s : gated.streams) {
    if (s.admission_rung == DegradationRung::kReject || s.p99_budget_cycles == 0) continue;
    worst_p99_ratio = std::max(worst_p99_ratio,
                               static_cast<double>(s.p99_latency_cycles) /
                                   static_cast<double>(s.p99_budget_cycles));
  }

  const double goodput_ratio =
      baseline.goodput_frames > 0
          ? static_cast<double>(gated.goodput_frames) /
                static_cast<double>(baseline.goodput_frames)
          : (gated.goodput_frames > 0 ? static_cast<double>(gated.goodput_frames) : 0.0);

  ReportTable table("Burst overload (~3x capacity): admit-everything vs admission");
  table.set_header({"metric", "admit-everything", "admission"});
  const auto row_u64 = [&](const std::string& name, std::uint64_t a, std::uint64_t b) {
    bench_common::add_u64_row(table, name, a, b);
  };
  row_u64("streams served", static_cast<std::uint64_t>(kStreams),
          gated.admission.admitted);
  row_u64("frames encoded", baseline.total_frames, gated.total_frames);
  row_u64("goodput (SLA-compliant frames)", baseline.goodput_frames, gated.goodput_frames);
  row_u64("SLA violations", baseline.sla_violations, gated.sla_violations);
  row_u64("sim makespan (cycles)", baseline.sim_makespan_cycles, gated.sim_makespan_cycles);
  table.add_row({"pool pressure (admitted set)", "-",
                 format_double(gated.admission.pool_pressure, 2)});
  table.print();

  std::printf("\nburst of %d streams at %.1fx fabric capacity: admission goodput %.2fx "
              "admit-everything (bar: >= 1.20x), worst admitted p99 at %.2f of budget "
              "(bar: <= 1.00)\n",
              kStreams, demand_ratio, goodput_ratio, worst_p99_ratio);
  std::printf("ladder outcomes: %llu clean, %llu qp-bumped, %llu resolution-dropped, "
              "%llu impl-swapped, %llu shed\n",
              static_cast<unsigned long long>(gated.admission.admitted_clean),
              static_cast<unsigned long long>(gated.admission.qp_bumps),
              static_cast<unsigned long long>(gated.admission.resolution_drops),
              static_cast<unsigned long long>(gated.admission.impl_swaps),
              static_cast<unsigned long long>(gated.admission.rejected));

  bench_common::write_metrics_artifact("admission_overload", metrics);

  bench_common::stamp_reproducibility(
      json, 9000, "streams=12;frames=4;frame=64x64;me_range=4;demand=3x");
  json.metric("demand_over_capacity", demand_ratio);
  json.metric("baseline_goodput_frames", static_cast<double>(baseline.goodput_frames));
  json.metric("admission_goodput_frames", static_cast<double>(gated.goodput_frames));
  json.metric("baseline_sla_violations", static_cast<double>(baseline.sla_violations));
  json.metric("admission_sla_violations", static_cast<double>(gated.sla_violations));
  json.metric("admitted", static_cast<double>(gated.admission.admitted));
  json.metric("rejected", static_cast<double>(gated.admission.rejected));
  json.metric("resolution_drops", static_cast<double>(gated.admission.resolution_drops));
  json.metric("pool_pressure", gated.admission.pool_pressure);
  json.metric("worst_admitted_p99_over_budget", worst_p99_ratio);
  json.bar("goodput_ratio", goodput_ratio, ">=", 1.2);
  json.bar("admitted_p99_within_budget", worst_p99_ratio, "<=", 1.0);
  json.bar("admission_sheds_under_overload", static_cast<double>(gated.admission.rejected),
           ">", 0.0);
  json.bar("admitted_sla_violations", static_cast<double>(gated.sla_violations), "<=", 0.0);
  return bench_common::finish(json);
}
