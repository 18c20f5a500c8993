// The benchmark's own accounting, kept free of I/O and timing so the unit
// tests can drive it with hand-built inputs:
//
//  * pick_percentile — the nearest-rank percentile the latency metrics
//    report, with the sample count and the samples beyond the pick;
//  * count_outcomes  — frames requested / admitted / delivered / refused /
//    in error, and the SLA goodput, from per-stream delivery records;
//  * account_run     — the traced run's host-time accounting: pre-drive,
//    the longest worker lifetime, post-drive and the unattributed
//    remainder of run(), plus each worker's gap / prepare / compute split.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "runtime/stats.hpp"
#include "runtime/telemetry/trace.hpp"

namespace servebench {

struct PercentilePick {
  double value = 0.0;
  std::uint64_t samples = 0;  ///< sample count the pick was made from
  std::uint64_t rank = 0;     ///< 1-based nearest rank (0: no samples)
  std::uint64_t beyond = 0;   ///< samples ranked above the pick
};

/// Nearest-rank @p pct percentile of @p samples, by the runtime's own
/// percentile_rank rule (so the benchmark and the telemetry histograms
/// agree on the degenerate cases).
[[nodiscard]] inline PercentilePick pick_percentile(std::vector<double> samples, double pct) {
  PercentilePick pick;
  pick.samples = samples.size();
  pick.rank = dsra::runtime::percentile_rank(pick.samples, pct);
  if (pick.rank == 0) return pick;
  std::sort(samples.begin(), samples.end());
  pick.value = samples[static_cast<std::size_t>(pick.rank - 1)];
  pick.beyond = pick.samples - pick.rank;
  return pick;
}

/// What one stream asked for and what came back from a run.
struct StreamOutcome {
  int requested = 0;     ///< frames the stream asked to have encoded
  bool shed = false;     ///< admission refused the stream
  bool sla_met = false;  ///< met every SLA bound it carries (best effort: true)
  /// frame_index of every delivered record, in delivery order.
  std::vector<int> delivered;
  /// Per delivered record: equal to the single-threaded reference encode.
  std::vector<bool> matches;
  bool final_recon_matches = true;  ///< last reconstruction equals the reference
};

struct OutcomeTotals {
  std::uint64_t requested = 0;
  std::uint64_t admitted = 0;   ///< frames of streams admission let in
  std::uint64_t delivered = 0;  ///< records returned (any stream)
  std::uint64_t refused = 0;    ///< frames of shed streams
  std::uint64_t goodput = 0;    ///< delivered frames of streams that met their SLA
  /// Admitted frames missing, duplicated, reordered or differing from the
  /// reference, plus any frame a shed stream delivered anyway.
  std::uint64_t errors = 0;

  [[nodiscard]] double goodput_frac() const { return ratio(goodput, requested); }
  [[nodiscard]] double refused_frac() const { return ratio(refused, requested); }
  [[nodiscard]] double error_frac() const { return ratio(errors, admitted); }

 private:
  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  }
};

/// Errors of one admitted stream, counted per requested frame: frame f is
/// correct only when exactly one record names it, that record comes after
/// every earlier-numbered frame's (in order), and it matches the
/// reference. A missing frame is one error, not a shift of every later
/// one. Records naming a frame outside [0, requested) are errors of their
/// own; a final reconstruction that differs while every frame looked
/// right charges the last frame.
[[nodiscard]] inline std::uint64_t stream_errors(const StreamOutcome& s) {
  const auto n = static_cast<std::size_t>(std::max(0, s.requested));
  std::uint64_t errors = 0;
  std::vector<int> seen(n, 0);
  std::vector<bool> ok(n, false);
  int highest = -1;  // highest in-range frame delivered so far
  for (std::size_t k = 0; k < s.delivered.size(); ++k) {
    const int f = s.delivered[k];
    if (f < 0 || f >= s.requested) {
      ++errors;
      continue;
    }
    const auto i = static_cast<std::size_t>(f);
    ++seen[i];
    ok[i] = f > highest && k < s.matches.size() && s.matches[k];
    highest = std::max(highest, f);
  }
  for (std::size_t i = 0; i < n; ++i)
    if (seen[i] != 1 || !ok[i]) ++errors;
  if (errors == 0 && !s.final_recon_matches) ++errors;
  return errors;
}

[[nodiscard]] inline OutcomeTotals count_outcomes(const std::vector<StreamOutcome>& streams) {
  OutcomeTotals t;
  for (const StreamOutcome& s : streams) {
    const auto requested = static_cast<std::uint64_t>(std::max(0, s.requested));
    t.requested += requested;
    t.delivered += s.delivered.size();
    if (s.shed) {
      t.refused += requested;
      t.errors += s.delivered.size();  // a shed stream must deliver nothing
      continue;
    }
    t.admitted += requested;
    t.errors += stream_errors(s);
    if (s.sla_met) t.goodput += s.delivered.size();
  }
  return t;
}

/// One worker's host time within a traced run, from its job traces.
struct WorkerAccount {
  int worker = 0;
  std::uint64_t jobs = 0;
  std::int64_t first_dispatch_ns = 0;
  std::int64_t last_done_ns = 0;
  std::int64_t prepare_ns = 0;  ///< dispatch -> context prepared, summed
  std::int64_t compute_ns = 0;  ///< prepared -> done, summed

  [[nodiscard]] std::int64_t lifetime_ns() const { return last_done_ns - first_dispatch_ns; }
  /// Lifetime not spent inside a job: queue acquire/complete and idling.
  [[nodiscard]] std::int64_t gap_ns() const { return lifetime_ns() - prepare_ns - compute_ns; }
};

struct RunAccount {
  double run_ms = 0.0;       ///< run() entry to return
  double pre_drive_ms = 0.0;   ///< run() entry to the first dispatch
  double post_drive_ms = 0.0;  ///< last completion to run() return
  double longest_worker_ms = 0.0;
  /// run_ms - (pre_drive + longest worker lifetime + post_drive): host
  /// time no phase accounts for. Reported, never folded into a phase.
  double unattributed_ms = 0.0;
  std::vector<WorkerAccount> workers;  ///< indexed by worker (fabric slot) id
};

/// Account a traced run() that started at @p run_start_ns and returned at
/// @p run_end_ns (recorder clock) over its job traces. Workers that ran no
/// job have zero lifetime; with no job at all, the whole run is pre-drive.
[[nodiscard]] inline RunAccount account_run(
    std::int64_t run_start_ns, std::int64_t run_end_ns, int workers,
    const std::vector<dsra::runtime::telemetry::JobTrace>& jobs) {
  RunAccount a;
  a.workers.resize(static_cast<std::size_t>(std::max(0, workers)));
  for (int w = 0; w < workers; ++w) a.workers[static_cast<std::size_t>(w)].worker = w;
  std::int64_t first = run_end_ns;
  std::int64_t last = run_end_ns;
  bool any = false;
  for (const auto& j : jobs) {
    if (j.fabric_id < 0 || j.fabric_id >= workers) continue;
    WorkerAccount& w = a.workers[static_cast<std::size_t>(j.fabric_id)];
    if (w.jobs == 0 || j.dispatch_ns < w.first_dispatch_ns) w.first_dispatch_ns = j.dispatch_ns;
    if (w.jobs == 0 || j.done_ns > w.last_done_ns) w.last_done_ns = j.done_ns;
    ++w.jobs;
    w.prepare_ns += j.prepared_ns - j.dispatch_ns;
    w.compute_ns += j.done_ns - j.prepared_ns;
    first = any ? std::min(first, j.dispatch_ns) : j.dispatch_ns;
    last = any ? std::max(last, j.done_ns) : j.done_ns;
    any = true;
  }
  const auto ms = [](std::int64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::int64_t longest = 0;
  for (const WorkerAccount& w : a.workers) longest = std::max(longest, w.lifetime_ns());
  a.run_ms = ms(run_end_ns - run_start_ns);
  a.pre_drive_ms = ms(first - run_start_ns);
  a.post_drive_ms = ms(run_end_ns - last);
  a.longest_worker_ms = ms(longest);
  a.unattributed_ms = a.run_ms - (a.pre_drive_ms + a.longest_worker_ms + a.post_drive_ms);
  return a;
}

}  // namespace servebench
