#include "runtime/stats.hpp"

#include <algorithm>
#include <cmath>

namespace dsra::runtime {

std::uint64_t percentile_rank(std::uint64_t n, double pct) {
  if (n == 0) return 0;
  // A non-finite pct (a NaN fed in from a broken ratio) must not reach
  // the cast below — that would be undefined behaviour, not a bad
  // answer. Collapse it to the conservative end: the worst sample.
  if (!std::isfinite(pct)) pct = 100.0;
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(clamped / 100.0 * static_cast<double>(n)));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

double percentile(std::vector<double> samples, double pct) {
  const std::uint64_t rank = percentile_rank(samples.size(), pct);
  if (rank == 0) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[static_cast<std::size_t>(rank - 1)];
}

LatencySummary summarize_latencies(const std::vector<double>& samples_ms) {
  LatencySummary s;
  if (samples_ms.empty()) return s;
  s.p50_ms = percentile(samples_ms, 50.0);
  s.p95_ms = percentile(samples_ms, 95.0);
  s.max_ms = *std::max_element(samples_ms.begin(), samples_ms.end());
  double sum = 0.0;
  for (const double v : samples_ms) sum += v;
  s.mean_ms = sum / static_cast<double>(samples_ms.size());
  return s;
}

StreamSummary summarize_stream(const StreamJob& job) {
  StreamSummary s;
  s.stream_id = job.id;
  s.name = job.config.name;
  s.impl = job.impl_name;
  s.policy = job.config.trajectory ? soc::to_string(job.config.condition_policy) : "static";
  s.frames = static_cast<int>(job.records.size());

  // Records written before per-frame tracking (or seeded by hand) carry
  // no impl; the stream's deterministic resolution fills the gap.
  const auto used_impl = [&](const FrameRecord& r) -> const std::string& {
    return r.impl.empty() ? job.impl_for(r.frame_index) : r.impl;
  };

  std::vector<double> latencies;
  latencies.reserve(job.records.size());
  double psnr_sum = 0.0;
  const std::string* prev_impl = nullptr;
  for (const FrameRecord& r : job.records) {
    latencies.push_back(r.latency_ms);
    psnr_sum += r.stats.psnr_db;
    s.total_bits += r.stats.bits;
    s.array_cycles += r.stats.dct_array_cycles + r.stats.me_array_cycles;
    s.reconfig_cycles += r.reconfig_cycles;
    s.max_wait_dispatches = std::max(s.max_wait_dispatches, r.wait_dispatches);

    const std::string& used = used_impl(r);
    if (prev_impl && *prev_impl != used) ++s.condition_switches;
    prev_impl = &used;
    const auto f = static_cast<std::size_t>(r.frame_index);
    if (f < job.frame_conditions.size() &&
        used != soc::select_dct_implementation(job.frame_conditions[f]))
      ++s.stale_frames;
  }
  if (!job.records.empty()) {
    s.impl = used_impl(job.records.front());
    s.final_impl = used_impl(job.records.back());
  }
  s.latency = summarize_latencies(latencies);
  if (!job.records.empty()) psnr_sum /= static_cast<double>(job.records.size());
  s.mean_psnr_db = psnr_sum;

  s.admission_rung = job.admission_rung;
  s.deadline_cycles = job.config.sla.deadline_cycles;
  s.p99_budget_cycles = job.config.sla.p99_budget_cycles;
  s.predicted_completion_cycles = job.predicted_completion_cycles;
  s.completion_cycles = job.modeled_completion_cycles;
  std::vector<double> cycle_latencies;
  cycle_latencies.reserve(job.records.size());
  for (const FrameRecord& r : job.records)
    cycle_latencies.push_back(static_cast<double>(r.latency_cycles));
  s.p99_latency_cycles =
      static_cast<std::uint64_t>(std::llround(percentile(cycle_latencies, 99.0)));
  s.sla_met = !job.records.empty() &&
              (s.deadline_cycles == 0 || s.completion_cycles <= s.deadline_cycles) &&
              (s.p99_budget_cycles == 0 || s.p99_latency_cycles <= s.p99_budget_cycles);
  return s;
}

ReportTable stream_table(const RunReport& report) {
  ReportTable table("Per-stream results (" + report.policy + ", " +
                    std::to_string(report.fabrics) + " fabrics)");
  table.set_header({"stream", "impl", "frames", "p50 ms", "p95 ms", "PSNR dB",
                    "array cyc", "reconfig cyc", "max wait"});
  for (const StreamSummary& s : report.streams) {
    table.add_row({s.name, s.impl, std::to_string(s.frames),
                   format_double(s.latency.p50_ms, 2), format_double(s.latency.p95_ms, 2),
                   format_double(s.mean_psnr_db, 2),
                   format_i64(static_cast<std::int64_t>(s.array_cycles)),
                   format_i64(static_cast<std::int64_t>(s.reconfig_cycles)),
                   format_i64(static_cast<std::int64_t>(s.max_wait_dispatches))});
  }
  table.add_separator();
  // The per-stream reconfig column counts fetch + switch cycles, so the
  // total row does too.
  table.add_row({"total", "-", std::to_string(report.total_frames),
                 "-", "-", "-",
                 format_i64(static_cast<std::int64_t>(report.total_array_cycles)),
                 format_i64(static_cast<std::int64_t>(report.total_reconfig_cycles +
                                                      report.total_fetch_cycles)),
                 format_i64(static_cast<std::int64_t>(report.max_wait_dispatches))});
  return table;
}

ReportTable condition_table(const RunReport& report) {
  ReportTable table("Per-stream condition adaptation (dispatch: " + report.policy + ")");
  table.set_header({"stream", "policy", "impl first -> last", "switches", "stale frames",
                    "reconfig cyc"});
  for (const StreamSummary& s : report.streams) {
    const std::string impls =
        s.final_impl.empty() || s.final_impl == s.impl ? s.impl : s.impl + " -> " + s.final_impl;
    table.add_row({s.name, s.policy, impls, std::to_string(s.condition_switches),
                   std::to_string(s.stale_frames),
                   format_i64(static_cast<std::int64_t>(s.reconfig_cycles))});
  }
  table.add_separator();
  table.add_row({"total", "-", "-",
                 format_i64(static_cast<std::int64_t>(report.condition_switches)),
                 format_i64(static_cast<std::int64_t>(report.stale_frames)),
                 format_i64(static_cast<std::int64_t>(report.total_reconfig_cycles +
                                                      report.total_fetch_cycles))});
  return table;
}

ReportTable admission_table(const RunReport& report) {
  ReportTable table(report.admission.enabled
                        ? "Admission and SLA outcomes (modeled array cycles)"
                        : "Admission and SLA outcomes (admission disabled)");
  table.set_header({"stream", "rung", "deadline cyc", "p99 budget", "predicted cyc",
                    "completion cyc", "p99 cyc", "SLA"});
  const auto bound = [](std::uint64_t v) {
    return v == 0 ? std::string("-") : format_i64(static_cast<std::int64_t>(v));
  };
  for (const StreamSummary& s : report.streams) {
    table.add_row({s.name, to_string(s.admission_rung), bound(s.deadline_cycles),
                   bound(s.p99_budget_cycles), bound(s.predicted_completion_cycles),
                   bound(s.completion_cycles),
                   bound(s.p99_latency_cycles),
                   s.admission_rung == DegradationRung::kReject ? "shed"
                   : s.sla_met                                  ? "met"
                                                                : "missed"});
  }
  table.add_separator();
  table.add_row(
      {"total",
       std::to_string(report.admission.admitted) + "/" +
           std::to_string(report.admission.arrived) + " admitted",
       "-", "-", "-", "-",
       format_i64(static_cast<std::int64_t>(report.goodput_frames)) + " goodput",
       std::to_string(report.sla_violations) + " missed"});
  return table;
}

ReportTable attribution_table(const RunReport& report) {
  ReportTable table("Per-stream stall attribution (modeled array cycles)");
  table.set_header({"stream", "e2e cyc", "queue cyc", "bus cyc", "reconfig cyc",
                    "compute cyc", "delta share"});
  std::uint64_t e2e = 0, queue = 0, bus = 0, reconfig = 0, compute = 0;
  for (const telemetry::StreamAttribution& a : report.attribution) {
    const auto id = static_cast<std::size_t>(a.stream_id);
    const std::string name = id < report.streams.size() ? report.streams[id].name
                                                        : "stream " + std::to_string(a.stream_id);
    const double delta_pct = a.reconfig_cycles > 0
                                 ? 100.0 * static_cast<double>(a.delta_reconfig_cycles) /
                                       static_cast<double>(a.reconfig_cycles)
                                 : 0.0;
    table.add_row({name, format_i64(static_cast<std::int64_t>(a.end_to_end_cycles)),
                   format_i64(static_cast<std::int64_t>(a.queue_cycles)),
                   format_i64(static_cast<std::int64_t>(a.bus_cycles)),
                   format_i64(static_cast<std::int64_t>(a.reconfig_cycles)),
                   format_i64(static_cast<std::int64_t>(a.compute_cycles)),
                   format_double(delta_pct, 0) + "%"});
    e2e = std::max(e2e, a.end_to_end_cycles);
    queue += a.queue_cycles;
    bus += a.bus_cycles;
    reconfig += a.reconfig_cycles;
    compute += a.compute_cycles;
  }
  table.add_separator();
  table.add_row({"total (makespan)", format_i64(static_cast<std::int64_t>(e2e)),
                 format_i64(static_cast<std::int64_t>(queue)),
                 format_i64(static_cast<std::int64_t>(bus)),
                 format_i64(static_cast<std::int64_t>(reconfig)),
                 format_i64(static_cast<std::int64_t>(compute)), "-"});
  return table;
}

ReportTable policy_compare_table(const RunReport& a, const RunReport& b) {
  ReportTable table("Scheduling policy comparison (" + a.policy + " vs " + b.policy + ")");
  table.set_header({"metric", a.policy, b.policy});
  const auto row_u64 = [&](const std::string& name, std::uint64_t va, std::uint64_t vb) {
    table.add_row({name, format_i64(static_cast<std::int64_t>(va)),
                   format_i64(static_cast<std::int64_t>(vb))});
  };
  row_u64("frames", a.total_frames, b.total_frames);
  table.add_row({"frames/s", format_double(a.frames_per_second, 1),
                 format_double(b.frames_per_second, 1)});
  row_u64("bitstream switches", static_cast<std::uint64_t>(a.total_switches),
          static_cast<std::uint64_t>(b.total_switches));
  row_u64("reconfig cycles", a.total_reconfig_cycles, b.total_reconfig_cycles);
  row_u64("context fetch cycles", a.total_fetch_cycles, b.total_fetch_cycles);
  row_u64("partial reloads", a.partial_reloads, b.partial_reloads);
  row_u64("full reloads", a.full_reloads, b.full_reloads);
  row_u64("cache hits", a.cache.hits, b.cache.hits);
  row_u64("cache misses", a.cache.misses, b.cache.misses);
  row_u64("cache evictions", a.cache.evictions, b.cache.evictions);
  row_u64("max queue wait (dispatches)", a.max_wait_dispatches, b.max_wait_dispatches);
  table.add_separator();
  const std::int64_t saved = static_cast<std::int64_t>(a.total_reconfig_cycles) -
                             static_cast<std::int64_t>(b.total_reconfig_cycles);
  table.add_row({"reconfig cycles saved by " + b.policy, "-", format_i64(saved)});
  return table;
}

ReportTable reconfig_table(const RunReport& report) {
  ReportTable table("Reconfiguration breakdown (" + std::to_string(report.fabrics) +
                    " fabrics)");
  table.set_header({"metric", "value"});
  const auto row_u64 = [&](const std::string& name, std::uint64_t v) {
    table.add_row({name, format_i64(static_cast<std::int64_t>(v))});
  };
  row_u64("bitstream switches", static_cast<std::uint64_t>(report.total_switches));
  row_u64("partial reloads", report.partial_reloads);
  row_u64("full reloads", report.full_reloads);
  row_u64("cluster frames rewritten", report.frames_rewritten);
  row_u64("delta bytes shifted", report.delta_bytes);
  row_u64("port cycles (dct)", report.dct_reconfig_cycles);
  row_u64("port cycles (me)", report.me_reconfig_cycles);
  row_u64("port cycles total", report.total_reconfig_cycles);
  row_u64("context fetch cycles", report.total_fetch_cycles);
  row_u64("delta-only bus fetches", report.cache.delta_fetches);
  row_u64("bus bytes saved by deltas", report.cache.bytes_saved);
  return table;
}

ReportTable geometry_table(const RunReport& report) {
  ReportTable table("Per-geometry breakdown (" + std::to_string(report.fabrics) +
                    " fabrics, " + std::to_string(report.total_tiles) + " cluster sites)");
  table.set_header({"geometry", "fabrics", "switches", "port cycles", "placement skips"});
  for (const GeometrySummary& g : report.geometry_stats) {
    table.add_row({to_string(g.geometry), std::to_string(g.fabrics),
                   std::to_string(g.switches),
                   format_i64(static_cast<std::int64_t>(g.reconfig_cycles)),
                   format_i64(static_cast<std::int64_t>(g.placement_rejections))});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(report.fabrics),
                 std::to_string(report.total_switches),
                 format_i64(static_cast<std::int64_t>(report.total_reconfig_cycles)),
                 format_i64(static_cast<std::int64_t>(report.placement_rejections))});
  return table;
}

ReportTable partition_table(const RunReport& report) {
  ReportTable table("Per-partition occupancy (" + std::to_string(report.fabrics) +
                    " slots on " + std::to_string(report.physical_fabrics) +
                    " physical fabrics)");
  table.set_header({"slot", "fabric", "rectangle", "mode", "busy cycles", "occupancy",
                    "port wait", "switches", "deltas", "blits"});
  std::uint64_t busy = 0;
  std::uint64_t port_wait = 0;
  int switches = 0;
  std::uint64_t deltas = 0;
  std::uint64_t blits = 0;
  for (const PartitionSummary& p : report.partitions) {
    busy += p.busy_cycles;
    port_wait += p.port_wait_cycles;
    switches += p.switches;
    deltas += p.region_deltas;
    blits += p.region_blits;
    table.add_row({std::to_string(p.slot), std::to_string(p.physical),
                   to_string(p.partition), p.exclusive ? "exclusive" : "co-tenant",
                   format_i64(static_cast<std::int64_t>(p.busy_cycles)),
                   format_double(100.0 * p.occupancy, 0) + "%",
                   format_i64(static_cast<std::int64_t>(p.port_wait_cycles)),
                   std::to_string(p.switches),
                   format_i64(static_cast<std::int64_t>(p.region_deltas)),
                   format_i64(static_cast<std::int64_t>(p.region_blits))});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(report.physical_fabrics), "-", "-",
                 format_i64(static_cast<std::int64_t>(busy)),
                 report.sim_makespan_cycles > 0 && report.fabrics > 0
                     ? format_double(100.0 * static_cast<double>(busy) /
                                         (static_cast<double>(report.fabrics) *
                                          static_cast<double>(report.sim_makespan_cycles)),
                                     0) +
                           "%"
                     : "-",
                 format_i64(static_cast<std::int64_t>(port_wait)), std::to_string(switches),
                 format_i64(static_cast<std::int64_t>(deltas)),
                 format_i64(static_cast<std::int64_t>(blits))});
  return table;
}

namespace {

std::string format_busy(const RunReport& r) {
  std::string out;
  for (const double busy_ms : r.worker_busy_ms) {
    const double pct = r.wall_seconds > 0.0 ? 100.0 * busy_ms / (r.wall_seconds * 1000.0) : 0.0;
    if (!out.empty()) out += " / ";
    out += format_double(pct, 0) + "%";
  }
  return out.empty() ? "-" : out;
}

}  // namespace

ReportTable mode_compare_table(const RunReport& a, const RunReport& b) {
  ReportTable table("Dispatch mode comparison (" + a.mode + " vs " + b.mode + ")");
  table.set_header({"metric", a.mode, b.mode});
  const auto row_u64 = [&](const std::string& name, std::uint64_t va, std::uint64_t vb) {
    table.add_row({name, format_i64(static_cast<std::int64_t>(va)),
                   format_i64(static_cast<std::int64_t>(vb))});
  };
  row_u64("frames", a.total_frames, b.total_frames);
  row_u64("sim makespan (array cycles)", a.sim_makespan_cycles, b.sim_makespan_cycles);
  table.add_row({"sim fabric utilization", format_double(100.0 * a.sim_utilization, 0) + "%",
                 format_double(100.0 * b.sim_utilization, 0) + "%"});
  table.add_row({"wall seconds", format_double(a.wall_seconds, 3),
                 format_double(b.wall_seconds, 3)});
  table.add_row({"host worker busy", format_busy(a), format_busy(b)});
  row_u64("stage dispatches", a.dispatches, b.dispatches);
  row_u64("bitstream switches", static_cast<std::uint64_t>(a.total_switches),
          static_cast<std::uint64_t>(b.total_switches));
  row_u64("me reconfig cycles", a.me_reconfig_cycles, b.me_reconfig_cycles);
  row_u64("dct reconfig cycles", a.dct_reconfig_cycles, b.dct_reconfig_cycles);
  row_u64("context fetch cycles", a.total_fetch_cycles, b.total_fetch_cycles);
  table.add_separator();
  const double speedup = b.sim_makespan_cycles > 0
                             ? static_cast<double>(a.sim_makespan_cycles) /
                                   static_cast<double>(b.sim_makespan_cycles)
                             : 0.0;
  table.add_row({"sim throughput speedup of " + b.mode, "-", format_double(speedup, 2) + "x"});
  return table;
}

}  // namespace dsra::runtime
