// Serving benchmark program.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's kernel library and scheduler several times (the
// set-up metric, which also warms the host up), generates its streams from
// the seed, encodes them single-threaded as the reference, then repeats
// run() on fresh copies of the streams for --seconds of measured time.
// Every run is checked against the reference; any frame missing,
// duplicated, reordered or differing makes the exit code nonzero.
//
// --trace 0 reports the end-to-end metrics (medians over the measured
// runs). --trace 1 splits the measured time between untraced runs and
// runs with the program's TraceRecorder attached, reports the per-layer
// metrics from the traced runs (medians), and replays each layer's public
// functions on the workload's own inputs.
//
// The last line of stdout is one JSON object: correct, attempted (frames
// requested over every checked run), failed (frames in error) and the
// metrics, each with its unit.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "accounting.hpp"
#include "common/report.hpp"
#include "layers.hpp"
#include "me/systolic.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/telemetry/trace.hpp"
#include "workloads.hpp"

using namespace dsra;
using namespace dsra::runtime;
using namespace servebench;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kSetupReps = 9;
constexpr int kSetupRepsUpFront = 3;
constexpr int kMinMeasuredRuns = 3;
constexpr int kMinTracedRuns = 2;
constexpr unsigned kReferenceThreads = 4;  ///< threads encoding the reference (capped by cores)

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload")
      a.workload = value;
    else if (flag == "--seed")
      a.seed = std::stoull(value);
    else if (flag == "--seconds")
      a.seconds = std::stod(value);
    else if (flag == "--trace")
      a.trace = std::stoi(value) != 0;
    else
      throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One stream's verified output: what every run must reproduce.
struct Reference {
  DegradationRung rung = DegradationRung::kNone;
  std::vector<std::string> impls;  ///< context per frame
  std::vector<video::FrameStats> stats;
  std::vector<std::uint8_t> final_recon;
};

/// Re-encode every delivered stream single-threaded, frame by frame with
/// open-loop ME (the previous original frame), under each frame's
/// context — from the stream as admission left it (degraded in place).
/// Streams are independent, so a few threads take whole streams each; no
/// stream is split, and the reference is waited for, not timed.
std::vector<Reference> reference_encode(const std::vector<StreamJob>& ran,
                                        const KernelLibrary& library,
                                        const me::SystolicParams& me_params) {
  std::vector<Reference> refs(ran.size());
  const video::MotionSearchFn me_fn = me::systolic_search_fn(me_params);
  const auto encode_stream = [&](std::size_t k) {
    const StreamJob& s = ran[k];
    Reference& r = refs[k];
    r.rung = s.admission_rung;
    if (s.admission_rung == DegradationRung::kReject) return;
    video::Frame recon;
    for (int f = 0; f < static_cast<int>(s.frames.size()); ++f) {
      const std::string& impl = s.impl_for(f);
      const video::ToyEncoder encoder(library.impl(impl), me_fn, s.config.codec);
      const video::Frame* previous =
          f > 0 ? &s.frames[static_cast<std::size_t>(f - 1)] : nullptr;
      r.stats.push_back(
          encoder.encode_frame(s.frames[static_cast<std::size_t>(f)], previous, recon));
      r.impls.push_back(impl);
    }
    r.final_recon = recon.data();
  };
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t k = next++; k < ran.size(); k = next++) encode_stream(k);
  };
  // std::async futures wait for their task when destroyed and pass its
  // exception on through get(), so every helper ends on every path out.
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, kReferenceThreads);
  std::vector<std::future<void>> helpers;
  for (unsigned t = 1; t < threads; ++t) helpers.push_back(std::async(std::launch::async, drain));
  drain();
  for (std::future<void>& h : helpers) h.get();
  return refs;
}

bool same_stats(const video::FrameStats& a, const video::FrameStats& b) {
  return a.bits == b.bits && a.psnr_db == b.psnr_db && a.dct_array_cycles == b.dct_array_cycles &&
         a.me_array_cycles == b.me_array_cycles && a.blocks_coded == b.blocks_coded &&
         a.mean_abs_mv == b.mean_abs_mv;
}

/// Everything one checked run() yields.
struct RunResult {
  RunReport report;
  std::vector<StreamJob> streams;  ///< the run's output streams
  double run_s = 0.0;
  OutcomeTotals totals;
  std::string digest;  ///< fnv1a of the encoded output
  std::uint64_t me_cycles = 0;
  std::uint64_t dct_cycles = 0;
  std::vector<double> latency_kcycles;  ///< one per delivered frame
};

/// Compare a run's output with the reference and digest it.
void check_run(RunResult& r, const std::vector<StreamJob>& pristine,
               const std::vector<Reference>& refs) {
  std::vector<StreamOutcome> outcomes;
  outcomes.reserve(r.streams.size());
  std::string text;
  for (std::size_t k = 0; k < r.streams.size(); ++k) {
    const StreamJob& s = r.streams[k];
    const Reference& ref = refs[k];
    StreamOutcome o;
    o.requested = static_cast<int>(pristine[k].frames.size());
    o.shed = s.admission_rung == DegradationRung::kReject;
    o.sla_met = k < r.report.streams.size() && r.report.streams[k].sla_met;
    const bool same_admission = s.admission_rung == ref.rung;
    text += std::to_string(k) + ":" + to_string(s.admission_rung) + "|";
    for (const FrameRecord& rec : s.records) {
      const auto f = static_cast<std::size_t>(rec.frame_index);
      o.delivered.push_back(rec.frame_index);
      o.matches.push_back(same_admission && rec.frame_index >= 0 && f < ref.stats.size() &&
                          rec.impl == ref.impls[f] && same_stats(rec.stats, ref.stats[f]));
      char buf[160];
      std::snprintf(buf, sizeof buf, "%d,%s,%a,%a,%llu,%llu;", rec.frame_index,
                    rec.impl.c_str(), rec.stats.bits, rec.stats.psnr_db,
                    static_cast<unsigned long long>(rec.stats.dct_array_cycles),
                    static_cast<unsigned long long>(rec.stats.me_array_cycles));
      text += buf;
      r.me_cycles += rec.stats.me_array_cycles;
      r.dct_cycles += rec.stats.dct_array_cycles;
      r.latency_kcycles.push_back(static_cast<double>(rec.latency_cycles) / 1e3);
    }
    o.final_recon_matches = o.shed || s.recon_state.data() == ref.final_recon;
    text += fnv1a_hex(std::string(s.recon_state.data().begin(), s.recon_state.data().end()));
    text += "\n";
    outcomes.push_back(std::move(o));
  }
  r.totals = count_outcomes(outcomes);
  r.digest = fnv1a_hex(text);
}

/// One workload's inputs, reference and run bookkeeping within a process.
struct Session {
  Session(const Workload& w, const KernelLibrary& lib)
      : library(lib), cfg(scheduler_config(w, lib)) {
    const auto t0 = Clock::now();
    pristine = generate_streams(w, library);
    input_s = seconds_since(t0);
    // The reference encodes the streams as admission leaves them, so admit
    // a copy the way run() does (admission is deterministic and
    // content-independent); a run whose admission disagrees mismatches.
    const auto t1 = Clock::now();
    std::vector<StreamJob> admitted = pristine;
    if (cfg.admission.enabled) {
      const FabricPool pool(cfg.resolved_fabrics(), library);
      AdmissionController(library, pool, cfg.me, cfg.admission).admit_all(admitted);
    }
    refs = reference_encode(admitted, library, cfg.me);
    reference_s = seconds_since(t1);
  }

  /// run() on a fresh copy of the streams, timed from outside; then check.
  RunResult run(telemetry::TraceRecorder* rec = nullptr, std::int64_t* start_ns = nullptr,
                std::int64_t* end_ns = nullptr) {
    RunResult r;
    r.streams = pristine;
    SchedulerConfig run_cfg = cfg;
    run_cfg.trace = rec;
    MultiStreamScheduler scheduler(library, run_cfg);
    const auto t0 = Clock::now();
    r.report = scheduler.run(r.streams);
    const auto t1 = Clock::now();
    r.run_s = std::chrono::duration<double>(t1 - t0).count();
    if (rec != nullptr) {
      *start_ns = rec->to_ns(t0);
      *end_ns = rec->to_ns(t1);
    }
    check_run(r, pristine, refs);
    checked_requested += r.totals.requested;
    errors += r.totals.errors;
    if (digest.empty()) {
      digest = r.digest;
      me_cycles = r.me_cycles;
      dct_cycles = r.dct_cycles;
    } else if (r.digest != digest || r.me_cycles != me_cycles || r.dct_cycles != dct_cycles) {
      // The content-determined totals and the encoded output must not
      // move between runs of one seed; if every frame still matched the
      // reference, charge one error so the change cannot pass unseen.
      ++changed_runs;
      if (r.totals.errors == 0) ++errors;
    }
    return r;
  }

  const KernelLibrary& library;
  SchedulerConfig cfg;
  std::vector<StreamJob> pristine;
  std::vector<Reference> refs;
  double input_s = 0.0;
  double reference_s = 0.0;
  std::uint64_t checked_requested = 0;  ///< frames requested over every checked run
  std::uint64_t errors = 0;             ///< frames in error over every checked run
  int changed_runs = 0;
  std::string digest;  ///< output digest of the first run
  std::uint64_t me_cycles = 0;
  std::uint64_t dct_cycles = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

std::string json_value(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("  %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
           json_value(metrics[i].value) + ", \"unit\": \"" + json_escape(metrics[i].unit) +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// End-to-end metrics of one untraced run.
std::map<std::string, double> end_to_end_of(const RunResult& r) {
  std::map<std::string, double> m;
  const auto delivered = static_cast<double>(r.totals.delivered);
  m["host_fps"] = r.run_s > 0.0 ? delivered / r.run_s : 0.0;
  m["modeled_frames_per_mcycle"] =
      r.report.sim_makespan_cycles > 0
          ? delivered / (static_cast<double>(r.report.sim_makespan_cycles) / 1e6)
          : 0.0;
  m["modeled_latency_p50_kcycles"] = pick_percentile(r.latency_kcycles, 50.0).value;
  m["modeled_latency_p95_kcycles"] = pick_percentile(r.latency_kcycles, 95.0).value;
  m["goodput_frac"] = r.totals.goodput_frac();
  m["refused_frac"] = r.totals.refused_frac();
  m["error_frac"] = r.totals.error_frac();
  // The never-zero complements BENCHMARK.json bounds.
  m["admitted_frac"] = 1.0 - m["refused_frac"];
  m["verified_frac"] = 1.0 - m["error_frac"];
  return m;
}

double share(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Per-layer metrics one traced run yields (the replays come separately).
std::map<std::string, double> layers_of(const RunResult& r, const RunAccount& account,
                                        const std::vector<telemetry::JobTrace>& jobs) {
  std::map<std::string, double> m;
  const RunReport& rep = r.report;
  m["me.array_kcycles"] = static_cast<double>(r.me_cycles) / 1e3;
  m["dct.array_kcycles"] = static_cast<double>(r.dct_cycles) / 1e3;

  // Stage compute per kind: prepared -> done, per job (one job per frame
  // and stage).
  std::map<StageKind, std::pair<std::int64_t, std::uint64_t>> stage;
  std::int64_t prepare_ns = 0;
  for (const telemetry::JobTrace& j : jobs) {
    auto& [ns, n] = stage[j.stage];
    ns += j.done_ns - j.prepared_ns;
    ++n;
    prepare_ns += j.prepared_ns - j.dispatch_ns;
  }
  const auto per_job_ms = [&](StageKind k) {
    const auto& [ns, n] = stage[k];
    return n > 0 ? static_cast<double>(ns) / 1e6 / static_cast<double>(n) : 0.0;
  };
  m["video.motion_ms_per_frame"] = per_job_ms(StageKind::kMotionEstimation);
  m["video.transform_ms_per_frame"] = per_job_ms(StageKind::kTransformQuant);
  m["video.reconstruct_ms_per_frame"] = per_job_ms(StageKind::kReconstructEntropy);

  // The busiest worker (most time inside jobs) bounds throughput; its gap
  // is the queue time on the critical path.
  const WorkerAccount* busiest = nullptr;
  for (const WorkerAccount& w : account.workers)
    if (busiest == nullptr ||
        w.prepare_ns + w.compute_ns > busiest->prepare_ns + busiest->compute_ns)
      busiest = &w;
  m["queue.worker_gap_ms"] =
      busiest != nullptr ? static_cast<double>(busiest->gap_ns()) / 1e6 : 0.0;
  m["queue.jobs_per_batch"] = share(rep.dispatches, rep.dispatch_batches);
  m["queue.steals"] = static_cast<double>(rep.queue_steals);
  m["queue.max_wait_dispatches"] = static_cast<double>(rep.max_wait_dispatches);
  m["queue.placement_rejections"] = static_cast<double>(rep.placement_rejections);

  m["fabric_pool.prepare_us_per_job"] =
      jobs.empty() ? 0.0
                   : static_cast<double>(prepare_ns) / 1e3 / static_cast<double>(jobs.size());
  m["fabric_pool.switches"] = static_cast<double>(rep.total_switches);
  m["fabric_pool.partial_ratio"] =
      share(rep.partial_reloads, static_cast<std::uint64_t>(rep.total_switches));
  m["fabric_pool.reconfig_kcycles"] = static_cast<double>(rep.total_reconfig_cycles) / 1e3;
  m["fabric_pool.port_contention_kcycles"] = static_cast<double>(rep.port_contention_cycles) / 1e3;
  m["context_cache.hit_ratio"] = share(rep.cache.hits, rep.cache.hits + rep.cache.misses);
  m["context_cache.evictions"] = static_cast<double>(rep.cache.evictions);
  m["context_cache.fetch_kcycles"] = static_cast<double>(rep.total_fetch_cycles) / 1e3;

  std::uint64_t region_ops = 0;
  for (const PartitionSummary& p : rep.partitions) region_ops += p.region_deltas + p.region_blits;
  m["config_codec.region_ops"] = static_cast<double>(region_ops);
  m["sim_schedule.utilization"] = rep.sim_utilization;

  const AdmissionReport& adm = rep.admission;
  m["admission.admitted_ratio"] = adm.enabled ? share(adm.admitted, adm.arrived) : 1.0;
  m["admission.qp_bumps"] = static_cast<double>(adm.qp_bumps);
  m["admission.resolution_drops"] = static_cast<double>(adm.resolution_drops);
  m["admission.impl_swaps"] = static_cast<double>(adm.impl_swaps);
  m["admission.rejected"] = static_cast<double>(adm.rejected);
  // Pilot prediction vs the sim replay's completion, over admitted streams.
  double abs_err = 0.0, modeled = 0.0;
  for (const StreamSummary& s : rep.streams) {
    if (s.admission_rung == DegradationRung::kReject || s.predicted_completion_cycles == 0)
      continue;
    abs_err += std::fabs(static_cast<double>(s.completion_cycles) -
                         static_cast<double>(s.predicted_completion_cycles));
    modeled += static_cast<double>(s.completion_cycles);
  }
  m["admission.completion_error"] = modeled > 0.0 ? abs_err / modeled : 0.0;

  m["scheduler.pre_drive_ms"] = account.pre_drive_ms;
  m["scheduler.post_drive_ms"] = account.post_drive_ms;
  m["scheduler.unattributed_ms"] = account.unattributed_ms;

  std::uint64_t e2e = 0, queue = 0, bus = 0, reconfig = 0, compute = 0;
  for (const telemetry::StreamAttribution& a : rep.attribution) {
    e2e += a.end_to_end_cycles;
    queue += a.queue_cycles;
    bus += a.bus_cycles;
    reconfig += a.reconfig_cycles;
    compute += a.compute_cycles;
  }
  m["telemetry.queueing_share"] = share(queue, e2e);
  m["telemetry.fetch_share"] = share(bus, e2e);
  m["telemetry.reconfig_share"] = share(reconfig, e2e);
  m["telemetry.compute_share"] = share(compute, e2e);
  return m;
}

/// Per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units{
      {"mapper.library_build_s", "s"},
      {"mapper.compile_ms_per_context", "ms"},
      {"me.search_us_per_mb", "us"},
      {"me.array_kcycles", "kcycles"},
      {"dct.forward_us_per_block", "us"},
      {"dct.array_kcycles", "kcycles"},
      {"video.motion_ms_per_frame", "ms"},
      {"video.transform_ms_per_frame", "ms"},
      {"video.reconstruct_ms_per_frame", "ms"},
      {"queue.host_us_per_job", "us"},
      {"queue.worker_gap_ms", "ms"},
      {"queue.jobs_per_batch", "jobs"},
      {"queue.steals", "count"},
      {"queue.max_wait_dispatches", "dispatches"},
      {"queue.placement_rejections", "count"},
      {"fabric_pool.prepare_us_per_job", "us"},
      {"fabric_pool.switches", "count"},
      {"fabric_pool.partial_ratio", "fraction"},
      {"fabric_pool.reconfig_kcycles", "kcycles"},
      {"fabric_pool.port_contention_kcycles", "kcycles"},
      {"context_cache.hit_ratio", "fraction"},
      {"context_cache.evictions", "count"},
      {"context_cache.fetch_kcycles", "kcycles"},
      {"config_codec.region_delta_us", "us"},
      {"config_codec.region_ops", "count"},
      {"sim_schedule.replay_us_per_job", "us"},
      {"sim_schedule.utilization", "fraction"},
      {"admission.us_per_arrival", "us"},
      {"admission.admitted_ratio", "fraction"},
      {"admission.qp_bumps", "count"},
      {"admission.resolution_drops", "count"},
      {"admission.impl_swaps", "count"},
      {"admission.rejected", "count"},
      {"admission.completion_error", "fraction"},
      {"scheduler.pre_drive_ms", "ms"},
      {"scheduler.post_drive_ms", "ms"},
      {"scheduler.unattributed_ms", "ms"},
      {"telemetry.queueing_share", "fraction"},
      {"telemetry.fetch_share", "fraction"},
      {"telemetry.reconfig_share", "fraction"},
      {"telemetry.compute_share", "fraction"},
      {"telemetry.overhead_frac", "ratio"},
  };
  return units;
}

void print_worker_accounts(const RunAccount& a) {
  std::printf("traced run accounting (last traced run): run %.3f ms = pre-drive %.3f + "
              "longest worker %.3f + post-drive %.3f + unattributed %.3f\n",
              a.run_ms, a.pre_drive_ms, a.longest_worker_ms, a.post_drive_ms,
              a.unattributed_ms);
  for (const WorkerAccount& w : a.workers) {
    const double life = static_cast<double>(w.lifetime_ns()) / 1e6;
    const auto pct = [&](std::int64_t ns) {
      return life > 0.0 ? 100.0 * static_cast<double>(ns) / 1e6 / life : 0.0;
    };
    std::printf("  worker %d: %llu jobs, lifetime %.3f ms = gap %.3f (%.1f%%) + prepare %.3f "
                "(%.1f%%) + compute %.3f (%.1f%%)\n",
                w.worker, static_cast<unsigned long long>(w.jobs), life,
                static_cast<double>(w.gap_ns()) / 1e6, pct(w.gap_ns()),
                static_cast<double>(w.prepare_ns) / 1e6, pct(w.prepare_ns),
                static_cast<double>(w.compute_ns) / 1e6, pct(w.compute_ns));
  }
}

int run_bench(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  std::printf("workload %s seed %llu (default %llu, held out %llu) knobs %s (%s)\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              static_cast<unsigned long long>(kDefaultSeed),
              static_cast<unsigned long long>(kHeldOutSeed), fnv1a_hex(w.knobs).c_str(),
              w.knobs.c_str());

  // Set-up: library build + scheduler construction. A few reps run up
  // front (the last library serves the runs); the rest are spread between
  // the measured runs, so the median samples the shared host over the
  // whole process instead of its first second.
  std::vector<double> setup_s, build_s;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto built = std::make_unique<KernelLibrary>(w.library);
    const auto t1 = Clock::now();
    const MultiStreamScheduler scheduler(*built, scheduler_config(w, *built));
    setup_s.push_back(seconds_since(t0));
    build_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    return built;
  };
  std::unique_ptr<KernelLibrary> library;
  for (int r = 0; r < kSetupRepsUpFront; ++r) library = set_up();

  Session session(w, *library);
  std::uint64_t requested = 0;
  for (const StreamJob& s : session.pristine) requested += s.frames.size();
  std::printf("inputs: %zu streams, %llu frames requested, generated in %.3f s; reference "
              "encode %.3f s\n",
              session.pristine.size(), static_cast<unsigned long long>(requested),
              session.input_s, session.reference_s);

  // Untraced runs: all of --seconds, or half of it beside the traced runs.
  // Only per-run figures are kept, so memory does not grow with the count.
  const double untraced_budget = args.trace ? args.seconds / 2 : args.seconds;
  const int min_untraced = args.trace ? kMinTracedRuns : kMinMeasuredRuns;
  std::map<std::string, std::vector<double>> per_run;
  std::vector<double> untraced_wall;
  double measured_s = 0.0;
  std::uint64_t measured_frames = 0;  ///< frames delivered over the measured runs
  double rss_mib = 0.0;
  PercentilePick latency_p95;
  while (measured_s < untraced_budget || static_cast<int>(untraced_wall.size()) < min_untraced) {
    const RunResult r = session.run();
    latency_p95 = pick_percentile(r.latency_kcycles, 95.0);
    measured_s += r.run_s;
    measured_frames += r.totals.delivered;
    untraced_wall.push_back(r.run_s);
    // Peak RSS through one serving run (set-up, inputs, reference, run()).
    // Repeating run() in one process only adds allocator fragmentation in
    // the worker threads' arenas, a few MiB more on each of a random
    // subset of the later runs.
    if (untraced_wall.size() == 1) rss_mib = peak_rss_mib();
    const auto m = end_to_end_of(r);
    for (const auto& [name, value] : m) per_run[name].push_back(value);
    std::printf("run %zu: %.3f s, %.2f frames/s, %.4f frames/Mcycle, p50 %.1f p95 %.1f "
                "kcycles, goodput %.4f\n",
                untraced_wall.size(), r.run_s, m.at("host_fps"),
                m.at("modeled_frames_per_mcycle"), m.at("modeled_latency_p50_kcycles"),
                m.at("modeled_latency_p95_kcycles"), m.at("goodput_frac"));
    if (static_cast<int>(setup_s.size()) < kSetupReps) set_up();
  }
  while (static_cast<int>(setup_s.size()) < kSetupReps) set_up();
  std::printf("set-up runs (s):");
  for (const double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");

  std::vector<Metric> out;
  if (!args.trace) {
    // refused_frac and error_frac are 0 on a clean run; the result line
    // carries their never-zero complements admitted_frac and verified_frac.
    print_metrics({{"refused_frac", "fraction", median(per_run["refused_frac"])},
                   {"error_frac", "fraction", median(per_run["error_frac"])}});
    std::printf("%zu measured runs, %.3f s inside run(); latency percentiles per run over "
                "%llu frames, %llu beyond p95\n",
                untraced_wall.size(), measured_s,
                static_cast<unsigned long long>(latency_p95.samples),
                static_cast<unsigned long long>(latency_p95.beyond));
    // host_fps pools every measured run: frames delivered over all of
    // them / host seconds inside all of them. Run to run, host speed on
    // a shared host flips between regimes about 2x apart; a median over
    // runs jumps between those regimes, the pooled ratio averages them.
    out = {
        {"host_fps", "frames/s", static_cast<double>(measured_frames) / measured_s},
        {"modeled_frames_per_mcycle", "frames/Mcycle",
         median(per_run["modeled_frames_per_mcycle"])},
        {"modeled_latency_p50_kcycles", "kcycles",
         median(per_run["modeled_latency_p50_kcycles"])},
        {"modeled_latency_p95_kcycles", "kcycles",
         median(per_run["modeled_latency_p95_kcycles"])},
        {"goodput_frac", "fraction", median(per_run["goodput_frac"])},
        {"admitted_frac", "fraction", median(per_run["admitted_frac"])},
        {"verified_frac", "fraction", median(per_run["verified_frac"])},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MiB", rss_mib},
    };
  } else {
    // Traced runs: the program's own recorder gives per-job host stamps.
    std::map<std::string, std::vector<double>> per_layer;
    std::vector<double> traced_wall;
    RunResult last;
    RunAccount last_account;
    std::vector<telemetry::JobTrace> last_jobs;
    double traced_s = 0.0;
    while (traced_s < args.seconds / 2 || static_cast<int>(traced_wall.size()) < kMinTracedRuns) {
      telemetry::TraceRecorder rec;
      std::int64_t start_ns = 0, end_ns = 0;
      RunResult r = session.run(&rec, &start_ns, &end_ns);
      traced_s += r.run_s;
      traced_wall.push_back(r.run_s);
      std::vector<telemetry::JobTrace> jobs = rec.merged();
      const RunAccount account = account_run(start_ns, end_ns, r.report.fabrics, jobs);
      for (const auto& [name, value] : layers_of(r, account, jobs))
        per_layer[name].push_back(value);
      last = std::move(r);
      last_account = account;
      last_jobs = std::move(jobs);
    }
    print_worker_accounts(last_account);

    // Replays on the workload's own inputs.
    std::map<std::string, double> m;
    for (const auto& [name, values] : per_layer) m[name] = median(values);
    m["mapper.library_build_s"] = median(build_s);
    int attempts = 0;
    m["mapper.compile_ms_per_context"] = replay_mapper_compile_ms(w, attempts);
    const SchedulerConfig& cfg = session.cfg;
    const FabricPool pool(cfg.resolved_fabrics(), *library);
    std::vector<StreamJob> admitted = session.pristine;
    m["admission.us_per_arrival"] =
        cfg.admission.enabled ? replay_admission_us(*library, pool, cfg, admitted) : 0.0;
    m["me.search_us_per_mb"] = replay_me_search_us(admitted, cfg.me);
    std::set<std::string> impls;
    for (const StreamJob& s : last.streams)
      for (const FrameRecord& rec : s.records) impls.insert(rec.impl);
    m["dct.forward_us_per_block"] = replay_dct_forward_us(*library, admitted, impls);
    int pairs = 0;
    m["config_codec.region_delta_us"] = replay_region_delta_us(*library, pool, last_jobs, pairs);
    m["sim_schedule.replay_us_per_job"] =
        replay_sim_us_per_job(last.streams, last.report, cfg, pool);
    m["queue.host_us_per_job"] = replay_queue_us_per_job(admitted, cfg.queue, pool.size());
    m["telemetry.overhead_frac"] = median(traced_wall) / median(untraced_wall);
    std::printf("%zu untraced + %zu traced runs; replays: %d compile attempts, %zu DCT "
                "contexts, %d region-delta pairs\n",
                untraced_wall.size(), traced_wall.size(), attempts, impls.size(), pairs);
    for (const auto& [name, unit] : layer_metric_units()) out.push_back({name, unit, m[name]});
  }

  const bool correct = session.errors == 0;
  std::printf("check: output_digest=%s me.array_kcycles=%.3f dct.array_kcycles=%.3f "
              "changed_runs=%d frames_in_error=%llu\n",
              session.digest.c_str(), static_cast<double>(session.me_cycles) / 1e3,
              static_cast<double>(session.dct_cycles) / 1e3, session.changed_runs,
              static_cast<unsigned long long>(session.errors));
  print_metrics(out);
  print_result_json(correct, session.checked_requested, session.errors, out);
  if (!correct)
    std::fprintf(stderr, "FAIL: %llu frame(s) in error (error_frac > 0)\n",
                 static_cast<unsigned long long>(session.errors));
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    return run_bench(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
}
