#include "runtime/health/monitor.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/report.hpp"

namespace dsra::runtime::health {

HealthMonitor::HealthMonitor(HealthMonitorConfig config)
    : config_(std::move(config)),
      flight_(config_.flight),
      dogs_(config_.watchdogs) {}

void HealthMonitor::begin_run(int fabrics, std::vector<StreamBudget> budgets) {
  const auto fabric_count = static_cast<std::size_t>(std::max(fabrics, 0));
  flight_.begin_run(fabrics);
  dogs_.reset();
  fabrics_.assign(fabric_count, FabricCounters{});
  at_prev_tick_.assign(fabric_count, FabricCounters{});
  busy_.assign(fabric_count, {});
  streams_.clear();
  streams_.reserve(budgets.size());
  for (StreamBudget& b : budgets) {
    StreamState state;
    state.prefix.reserve(b.frame_cycles.size() + 1);
    state.prefix.push_back(0.0);
    for (double c : b.frame_cycles) state.prefix.push_back(state.prefix.back() + c);
    state.frames_done = b.frames_done_at_start;
    state.budget = std::move(b);
    streams_.push_back(std::move(state));
  }
  epoch_ = 0;
  prev_tick_cycles_ = 0;
  snapshots_.clear();
  snapshots_evicted_ = 0;
  trips_.clear();
}

void HealthMonitor::on_prepare(int fabric, bool cache_hit, bool switched,
                               std::uint64_t busy_start, std::uint64_t busy_end) {
  if (fabric < 0 || static_cast<std::size_t>(fabric) >= fabrics_.size()) return;
  busy_[static_cast<std::size_t>(fabric)].push_back(BusyInterval{busy_start, busy_end});
  FabricCounters& c = fabrics_[static_cast<std::size_t>(fabric)];
  if (cache_hit) {
    ++c.cache_hits;
  } else {
    ++c.cache_misses;
  }
  if (switched) ++c.switches;
}

void HealthMonitor::on_job_done(int fabric) {
  if (fabric < 0 || static_cast<std::size_t>(fabric) >= fabrics_.size()) return;
  ++fabrics_[static_cast<std::size_t>(fabric)].jobs_done;
}

void HealthMonitor::on_frame_done(int stream_index) {
  if (stream_index < 0 || static_cast<std::size_t>(stream_index) >= streams_.size()) return;
  ++streams_[static_cast<std::size_t>(stream_index)].frames_done;
}

HealthSnapshot HealthMonitor::assemble(std::uint64_t now_cycles, QueueHealthSample queue) {
  HealthSnapshot snap;
  snap.epoch = ++epoch_;
  snap.modeled_now_cycles = now_cycles;
  snap.queue = std::move(queue);

  const std::uint64_t epoch_start = prev_tick_cycles_;
  const auto epoch_len =
      static_cast<double>(std::max<std::uint64_t>(now_cycles - epoch_start, 1));
  prev_tick_cycles_ = now_cycles;
  snap.fabrics.reserve(fabrics_.size());
  for (std::size_t f = 0; f < fabrics_.size(); ++f) {
    const FabricCounters& c = fabrics_[f];
    FabricCounters& prev = at_prev_tick_[f];
    FabricHealth fh;
    fh.fabric = static_cast<int>(f);
    fh.jobs_done = c.jobs_done;
    fh.cache_hits = c.cache_hits;
    fh.cache_misses = c.cache_misses;
    fh.switches = c.switches;
    // Credit the part of each acquired job's busy interval inside this
    // epoch; keep the ones that run past it for the next tick.
    std::uint64_t busy = 0;
    std::vector<BusyInterval>& jobs = busy_[f];
    std::size_t kept = 0;
    for (const BusyInterval& b : jobs) {
      const std::uint64_t from = std::max(b.start, epoch_start);
      const std::uint64_t to = std::min(b.end, now_cycles);
      if (to > from) busy += to - from;
      if (b.end > now_cycles) jobs[kept++] = b;
    }
    jobs.resize(kept);
    fh.utilization = static_cast<double>(busy) / epoch_len;
    const std::uint64_t misses = c.cache_misses - prev.cache_misses;
    const std::uint64_t prepares = c.cache_hits - prev.cache_hits + misses;
    fh.cache_pressure =
        prepares > 0 ? static_cast<double>(misses) / static_cast<double>(prepares) : 0.0;
    prev = c;
    snap.fabrics.push_back(fh);
  }

  const auto now = static_cast<double>(now_cycles);
  snap.streams.reserve(streams_.size());
  for (const StreamState& st : streams_) {
    StreamHealth sh;
    sh.stream_id = st.budget.stream_id;
    sh.shed = st.budget.shed;
    sh.frames_total = static_cast<int>(st.budget.frame_cycles.size());
    sh.frames_done = std::min(st.frames_done, sh.frames_total);
    sh.consumed_cycles = st.prefix[static_cast<std::size_t>(sh.frames_done)];
    sh.total_cycles = st.prefix.back();
    sh.deadline_cycles = st.budget.deadline_cycles;
    if (!sh.shed && sh.deadline_cycles > 0.0 && sh.total_cycles > 0.0) {
      if (sh.frames_done >= sh.frames_total) {
        // Completed: the projection is exact — total work at the realised
        // rate; keep it frozen rather than drifting with the clock.
        sh.projected_completion_cycles = sh.total_cycles;
      } else if (sh.consumed_cycles > 0.0) {
        // Projected completion at the current rate: `now` cycles bought
        // consumed_cycles of this stream's work.
        sh.projected_completion_cycles = now * (sh.total_cycles / sh.consumed_cycles);
      } else {
        // Nothing finished yet: optimistic floor (start now, ideal rate).
        // The watchdog's warmup gate keeps this from tripping early.
        sh.projected_completion_cycles = now + sh.total_cycles;
      }
      sh.burn_rate = sh.projected_completion_cycles / sh.deadline_cycles;
    }
    snap.streams.push_back(sh);
  }
  return snap;
}

HealthSnapshot HealthMonitor::tick(std::uint64_t now_cycles, QueueHealthSample queue) {
  HealthSnapshot snap = assemble(now_cycles, std::move(queue));
  const std::vector<WatchdogTrip> fired = dogs_.evaluate(snap);
  snapshots_.push_back(snap);
  if (snapshots_.size() > config_.max_snapshots) {
    snapshots_.erase(snapshots_.begin());
    ++snapshots_evicted_;
  }
  for (const WatchdogTrip& t : fired) {
    trips_.push_back(t);
    flight_.record(flight_.control_ring(), now_cycles, EventKind::kWatchdogTrip, t.stream_id, -1,
                   static_cast<std::uint64_t>(t.kind));
    if (on_trip_) on_trip_(t, snap);
  }
  if (!fired.empty() && !config_.dump_path.empty()) dump(config_.dump_path);
  return snap;
}

std::string HealthMonitor::health_json(double host_wall_seconds) const {
  std::ostringstream os;
  os << "{\"schema_version\": " << kSchemaVersion << ", \"kind\": \"health\""
     << ", \"host_wall_seconds\": " << json_number(host_wall_seconds)
     << ", \"fabrics\": " << fabrics_.size()
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
