#include "runtime/health/monitor.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/report.hpp"

namespace dsra::runtime::health {

namespace {

/// Cycles @p fabrics take to run @p work between them (never, with none).
double drain_cycles(double work, int fabrics) {
  return work <= 0.0 ? 0.0 : fabrics > 0 ? work / fabrics : std::numeric_limits<double>::infinity();
}

/// Modeled compute cycles of @p job: its span without the context load.
double compute_cycles(const PlannedJob& job) {
  return static_cast<double>(job.end_cycles - job.start_cycles - job.prep.total());
}

/// One stream as the pass follows it.
struct StreamWork {
  std::vector<double> cycles;  ///< cycles[i]: compute cycles of its first i frames
  std::size_t done = 0;        ///< frames finished
  std::uint64_t last_end = 0;  ///< end of its last job
};

}  // namespace

HealthMonitor::HealthMonitor(HealthMonitorConfig config)
    : config_(std::move(config)),
      flight_(config_.flight),
      dogs_(config_.watchdogs) {}

void HealthMonitor::observe(const PlanRecord& plan) {
  const auto fabrics = static_cast<std::size_t>(std::max(plan.fabrics, 0));
  const std::vector<PlanTick>& ticks = plan.ticks;
  // first[b]: the plan index of batch b's first job.
  std::vector<std::size_t> first(plan.batches.size() + 1, 0);
  for (std::size_t b = 0; b < plan.batches.size(); ++b) {
    if (plan.batches[b].jobs == 0) throw std::invalid_argument("health: an empty batch");
    first[b + 1] = first[b] + plan.batches[b].jobs;
  }
  if (first.back() != plan.jobs.size())
    throw std::invalid_argument("health: the batches do not cover the jobs");

  // Per stream: its frames' cycles, its frames finished from the start
  // (the ones the plan has no job for were encoded before the run) and
  // its last job's end. The compute cycles of the jobs not yet finished,
  // by the fabrics that run them. Per fabric and tick: the busy cycles
  // inside the tick's epoch [previous tick, tick); a job that spans
  // several epochs credits each the cycles it overlaps.
  std::vector<StreamWork> work(plan.streams.size());
  for (std::size_t s = 0; s < work.size(); ++s) {
    work[s].done = static_cast<std::size_t>(std::max(plan.streams[s].frames, 0));
    work[s].cycles.assign(work[s].done + 1, 0.0);
  }
  double me_left = 0.0, transform_left = 0.0;
  const auto left_on = [&](const PlannedJob& job) -> double& {
    return kernel_of(job.task.stage) == kCapMotionEstimation ? me_left : transform_left;
  };
  std::vector<std::uint64_t> busy(ticks.size() * fabrics, 0);
  for (const PlannedJob& job : plan.jobs) {
    const auto f = static_cast<std::size_t>(job.fabric_id);
    if (f >= fabrics) throw std::out_of_range("health: a job on no fabric of the record");
    StreamWork& w = work.at(static_cast<std::size_t>(job.task.stream_id));
    w.cycles.at(static_cast<std::size_t>(job.task.frame_index) + 1) += compute_cycles(job);
    left_on(job) += compute_cycles(job);
    if (completes_frame(job.task.stage) && w.done > 0) --w.done;
    w.last_end = std::max(w.last_end, job.end_cycles);
    const auto from_tick = std::upper_bound(
        ticks.begin(), ticks.end(), job.start_cycles,
        [](std::uint64_t cycle, const PlanTick& tick) { return cycle < tick.cycles; });
    for (auto k = static_cast<std::size_t>(from_tick - ticks.begin()); k < ticks.size(); ++k) {
      const std::uint64_t from = std::max(job.start_cycles, k == 0 ? 0 : ticks[k - 1].cycles);
      const std::uint64_t to = std::min(job.end_cycles, ticks[k].cycles);
      if (to > from) busy[k * fabrics + f] += to - from;
      if (job.end_cycles <= ticks[k].cycles) break;
    }
  }
  for (StreamWork& w : work) std::partial_sum(w.cycles.begin(), w.cycles.end(), w.cycles.begin());

  // Batches in the order their jobs complete: at the end of the last one.
  const auto batch_jobs = [&](std::size_t b) {
    return plan.jobs.subspan(first[b], plan.batches[b].jobs);
  };
  const auto end_of = [&](std::size_t b) { return plan.jobs[first[b + 1] - 1].end_cycles; };
  std::vector<std::size_t> by_end(plan.batches.size());
  std::iota(by_end.begin(), by_end.end(), std::size_t{0});
  std::sort(by_end.begin(), by_end.end(),
            [&](std::size_t a, std::size_t b) { return end_of(a) < end_of(b); });

  fabrics_ = fabrics;
  flight_.begin_run(plan.fabrics);
  dogs_ = Watchdogs(config_.watchdogs);
  snapshots_.clear();
  snapshots_evicted_ = 0;
  trips_.clear();
  // Admission's verdicts open the control ring, before any dispatch.
  const int control = flight_.control_ring();
  for (std::size_t s = 0; s < plan.streams.size(); ++s) {
    const DegradationRung rung = plan.streams[s].rung;
    if (rung != DegradationRung::kNone)
      flight_.record(control, 0,
                     rung == DegradationRung::kReject ? EventKind::kShed
                                                      : EventKind::kRungTransition,
                     static_cast<int>(s), -1, static_cast<std::uint64_t>(rung));
  }

  std::vector<FabricHealth> fabric(fabrics);  ///< cumulative counters
  for (std::size_t f = 0; f < fabrics; ++f) fabric[f].fabric = static_cast<int>(f);

  // Walk the acquisitions in plan order, whose instants never decrease,
  // and the completions in end order; a tick sees every event up to and
  // including its instant.
  std::size_t acquired = 0, ended = 0;
  for (std::size_t k = 0; k < ticks.size(); ++k) {
    const std::uint64_t now = ticks[k].cycles;
    for (; acquired < plan.batches.size() && plan.batches[acquired].acquired_cycles <= now;
         ++acquired) {
      const PlannedBatch& batch = plan.batches[acquired];
      const std::span<const PlannedJob> jobs = batch_jobs(acquired);
      const std::uint64_t at = batch.acquired_cycles;
      if (batch.steal_shard >= 0)
        flight_.record(jobs.front().fabric_id, at, EventKind::kSteal, jobs.front().task.stream_id,
                       jobs.front().task.frame_index,
                       static_cast<std::uint64_t>(batch.steal_shard));
      for (const PlannedJob& job : jobs) {
        const FrameTask& task = job.task;
        flight_.record(job.fabric_id, at, EventKind::kDispatch, task.stream_id, task.frame_index,
                       static_cast<std::uint64_t>(task.stage));
        FabricHealth& fh = fabric[static_cast<std::size_t>(job.fabric_id)];
        ++(job.prep.cache_hit ? fh.cache_hits : fh.cache_misses);
        if (job.prep.switched) {
          flight_.record(job.fabric_id, at, EventKind::kReconfig, task.stream_id,
                         task.frame_index, job.prep.total());
          ++fh.switches;
        }
      }
    }
    for (; ended < by_end.size() && end_of(by_end[ended]) <= now; ++ended)
      for (const PlannedJob& job : batch_jobs(by_end[ended])) {
        ++fabric[static_cast<std::size_t>(job.fabric_id)].jobs_done;
        left_on(job) -= compute_cycles(job);
        StreamWork& w = work[static_cast<std::size_t>(job.task.stream_id)];
        if (completes_frame(job.task.stage) && w.done + 1 < w.cycles.size()) ++w.done;
      }

    HealthSnapshot snap;
    snap.epoch = k + 1;
    snap.modeled_now_cycles = now;
    snap.queue = ticks[k].queue;
    const std::uint64_t since = k == 0 ? 0 : ticks[k - 1].cycles;
    const auto epoch_len = static_cast<double>(std::max<std::uint64_t>(now - since, 1));
    snap.fabrics = fabric;
    for (std::size_t f = 0; f < fabrics; ++f) {
      FabricHealth& fh = snap.fabrics[f];
      fh.utilization = static_cast<double>(busy[k * fabrics + f]) / epoch_len;
      // The previous snapshot holds the counters as the last tick saw them.
      const FabricHealth before =
          snapshots_.empty() ? FabricHealth{} : snapshots_.back().fabrics[f];
      const std::uint64_t misses = fh.cache_misses - before.cache_misses;
      const std::uint64_t prepares = fh.cache_hits - before.cache_hits + misses;
      fh.cache_pressure =
          prepares > 0 ? static_cast<double>(misses) / static_cast<double>(prepares) : 0.0;
    }

    // The pool has drained every unfinished job by `drain`, at the latest
    // once its busiest capability has.
    const auto t = static_cast<double>(now);
    const double drain = t + std::max(drain_cycles(me_left, plan.me_fabrics),
                                      drain_cycles(transform_left, plan.transform_fabrics));

    snap.streams.reserve(work.size());
    for (std::size_t s = 0; s < work.size(); ++s) {
      const StreamBudget& b = plan.streams[s];
      const StreamWork& w = work[s];
      StreamHealth sh;
      sh.stream_id = static_cast<int>(s);
      sh.shed = b.rung == DegradationRung::kReject;
      sh.frames_total = static_cast<int>(w.cycles.size() - 1);
      sh.frames_done = static_cast<int>(w.done);
      sh.consumed_cycles = w.cycles[w.done];
      sh.total_cycles = w.cycles.back();
      sh.deadline_cycles = b.deadline_cycles;
      if (!sh.shed && sh.deadline_cycles > 0.0 && sh.total_cycles > 0.0) {
        if (sh.frames_done >= sh.frames_total) {
          sh.projected_completion_cycles = static_cast<double>(w.last_end);
        } else if (sh.consumed_cycles > 0.0) {
          // Projected completion at the current rate (`now` cycles bought
          // consumed_cycles of this stream's work), but no later than the
          // pool's drain: a stream that shared the pool early speeds up
          // once the others finish.
          sh.projected_completion_cycles =
              std::min(t * (sh.total_cycles / sh.consumed_cycles), drain);
        } else {
          // Nothing finished yet: optimistic floor (start now, ideal rate).
          // The watchdog's warmup gate keeps this from tripping early.
          sh.projected_completion_cycles = t + sh.total_cycles;
        }
        sh.burn_rate = sh.projected_completion_cycles / sh.deadline_cycles;
      }
      snap.streams.push_back(sh);
    }

    const std::vector<WatchdogTrip> fired = dogs_.evaluate(snap);
    snapshots_.push_back(std::move(snap));
    if (snapshots_.size() > kMaxSnapshots) {
      snapshots_.erase(snapshots_.begin());
      ++snapshots_evicted_;
    }
    for (const WatchdogTrip& trip : fired) {
      flight_.record(control, now, EventKind::kWatchdogTrip, trip.stream_id, -1,
                     static_cast<std::uint64_t>(trip.kind));
      trips_.push_back(trip);
    }
  }
}

std::string HealthMonitor::health_json(double host_wall_seconds) const {
  std::ostringstream os;
  os << "{\"schema_version\": " << kSchemaVersion << ", \"kind\": \"health\""
     << ", \"host_wall_seconds\": " << json_number(host_wall_seconds)
     << ", \"fabrics\": " << fabrics_
     << ", \"anomalies_total\": " << anomalies_total()
     << ", \"watchdog_config\": {\"growth_epochs\": " << config_.watchdogs.growth_epochs
     << ", \"growth_min_depth\": " << config_.watchdogs.growth_min_depth
     << ", \"starvation_age_bound\": " << config_.watchdogs.starvation_age_bound
     << ", \"burn_threshold\": " << json_number(config_.watchdogs.burn_threshold)
     << ", \"burn_warmup\": " << json_number(config_.watchdogs.burn_warmup)
     << "}";
  os << ", \"snapshots_evicted\": " << snapshots_evicted_ << ", \"snapshots\": [";
  for (std::size_t i = 0; i < snapshots_.size(); ++i) {
    if (i != 0) os << ", ";
    os << to_json(snapshots_[i]);
  }
  os << "], \"trips\": [";
  for (std::size_t i = 0; i < trips_.size(); ++i) {
    const WatchdogTrip& t = trips_[i];
    if (i != 0) os << ", ";
    os << "{\"kind\": \"" << to_string(t.kind) << "\", \"epoch\": " << t.epoch
       << ", \"stream\": " << t.stream_id << ", \"detail\": \""
       << json_escape(t.detail) << "\"}";
  }
  os << "]";
  os << ", \"flight_recorder\": " << flight_.json() << "}\n";
  return os.str();
}

bool HealthMonitor::dump(const std::string& path,
                         double host_wall_seconds) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << health_json(host_wall_seconds);
  return static_cast<bool>(out);
}

}  // namespace dsra::runtime::health
