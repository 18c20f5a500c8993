#include "runtime/health/monitor.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "common/report.hpp"

namespace dsra::runtime::health {

HealthMonitor::HealthMonitor(HealthMonitorConfig config)
    : config_(std::move(config)),
      flight_(config_.flight),
      dogs_(config_.watchdogs) {}

HealthMonitor::~HealthMonitor() { stop_sampler(); }

void HealthMonitor::begin_run(int fabrics, std::vector<StreamBudget> budgets) {
  stop_sampler();
  std::lock_guard<std::mutex> lock(m_);
  fabric_count_ = std::max(fabrics, 0);
  flight_.begin_run(fabric_count_);
  dogs_.reset();
  fabric_counters_ = std::make_unique<FabricCounters[]>(
      static_cast<std::size_t>(fabric_count_));
  streams_.clear();
  for (StreamBudget& b : budgets) {
    auto state = std::make_unique<StreamState>();
    state->prefix.reserve(b.frame_cycles.size() + 1);
    state->prefix.push_back(0.0);
    for (double c : b.frame_cycles) {
      state->prefix.push_back(state->prefix.back() + c);
    }
    state->frames_done.store(b.frames_done_at_start,
                             std::memory_order_relaxed);
    state->budget = std::move(b);
    streams_.push_back(std::move(state));
  }
  epoch_.store(0, std::memory_order_relaxed);
  anomalies_.store(0, std::memory_order_relaxed);
  inflight_.store(0, std::memory_order_relaxed);
  queue_sampler_ = nullptr;
  snapshots_.clear();
  snapshots_evicted_ = 0;
  trips_.clear();
  prev_t_ns_ = flight_.now_ns();
  prev_busy_ns_.assign(static_cast<std::size_t>(fabric_count_), 0);
  prev_hits_.assign(static_cast<std::size_t>(fabric_count_), 0);
  prev_misses_.assign(static_cast<std::size_t>(fabric_count_), 0);

  if (config_.epoch_host_ms > 0.0) {
    sampler_stop_ = false;
    sampler_ = std::thread([this] {
      const auto period = std::chrono::duration<double, std::milli>(
          config_.epoch_host_ms);
      std::unique_lock<std::mutex> lk(sampler_m_);
      while (!sampler_stop_) {
        if (sampler_cv_.wait_for(lk, period, [this] { return sampler_stop_; })) {
          break;
        }
        lk.unlock();
        tick();
        lk.lock();
      }
    });
  }
}

void HealthMonitor::attach_queue(std::function<QueueHealthSample()> sampler) {
  std::lock_guard<std::mutex> lock(m_);
  queue_sampler_ = std::move(sampler);
}

void HealthMonitor::finish_run() {
  stop_sampler();
  tick();
  std::lock_guard<std::mutex> lock(m_);
  queue_sampler_ = nullptr;
}

void HealthMonitor::stop_sampler() {
  {
    std::lock_guard<std::mutex> lk(sampler_m_);
    sampler_stop_ = true;
  }
  sampler_cv_.notify_all();
  if (sampler_.joinable()) sampler_.join();
}

void HealthMonitor::on_prepare(int fabric, bool cache_hit, bool switched) {
  if (fabric < 0 || fabric >= fabric_count_) return;
  inflight_.fetch_add(1, std::memory_order_relaxed);
  FabricCounters& c = fabric_counters_[static_cast<std::size_t>(fabric)];
  if (cache_hit) {
    c.cache_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    c.cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  if (switched) c.switches.fetch_add(1, std::memory_order_relaxed);
}

void HealthMonitor::on_job_done(int fabric, std::int64_t busy_ns) {
  if (fabric < 0 || fabric >= fabric_count_) return;
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  FabricCounters& c = fabric_counters_[static_cast<std::size_t>(fabric)];
  c.jobs_done.fetch_add(1, std::memory_order_relaxed);
  if (busy_ns > 0) {
    c.busy_ns.fetch_add(static_cast<std::uint64_t>(busy_ns),
                        std::memory_order_relaxed);
  }
}

void HealthMonitor::on_frame_done(int stream_index) {
  if (stream_index < 0 ||
      static_cast<std::size_t>(stream_index) >= streams_.size()) {
    return;
  }
  streams_[static_cast<std::size_t>(stream_index)]->frames_done.fetch_add(
      1, std::memory_order_relaxed);
}

HealthSnapshot HealthMonitor::assemble_locked() {
  HealthSnapshot snap;
  snap.epoch = epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap.t_ns = flight_.now_ns();
  snap.inflight_jobs = static_cast<std::uint64_t>(
      std::max<std::int64_t>(inflight_.load(std::memory_order_relaxed), 0));
  if (queue_sampler_) snap.queue = queue_sampler_();

  const double epoch_ns =
      static_cast<double>(std::max<std::int64_t>(snap.t_ns - prev_t_ns_, 1));
  snap.fabrics.reserve(static_cast<std::size_t>(fabric_count_));
  for (int f = 0; f < fabric_count_; ++f) {
    const FabricCounters& c = fabric_counters_[static_cast<std::size_t>(f)];
    FabricHealth fh;
    fh.fabric = f;
    fh.jobs_done = c.jobs_done.load(std::memory_order_relaxed);
    fh.cache_hits = c.cache_hits.load(std::memory_order_relaxed);
    fh.cache_misses = c.cache_misses.load(std::memory_order_relaxed);
    fh.switches = c.switches.load(std::memory_order_relaxed);
    const std::uint64_t busy = c.busy_ns.load(std::memory_order_relaxed);
    const std::uint64_t busy_delta = busy - prev_busy_ns_[static_cast<std::size_t>(f)];
    fh.utilization =
        std::min(static_cast<double>(busy_delta) / epoch_ns, 1.0);
    const std::uint64_t hit_delta =
        fh.cache_hits - prev_hits_[static_cast<std::size_t>(f)];
    const std::uint64_t miss_delta =
        fh.cache_misses - prev_misses_[static_cast<std::size_t>(f)];
    const std::uint64_t prepares = hit_delta + miss_delta;
    fh.cache_pressure =
        prepares > 0 ? static_cast<double>(miss_delta) /
                           static_cast<double>(prepares)
                     : 0.0;
    prev_busy_ns_[static_cast<std::size_t>(f)] = busy;
    prev_hits_[static_cast<std::size_t>(f)] = fh.cache_hits;
    prev_misses_[static_cast<std::size_t>(f)] = fh.cache_misses;
    snap.fabrics.push_back(fh);
  }
  prev_t_ns_ = snap.t_ns;

  // Modeled "now": the monitor follows the lanes, which have no modeled
  // clock of their own (the plan runs ahead of them), so approximate it
  // as the analytic work encoded so far spread across the pool — the
  // same clock domain the deadlines are expressed in.
  double consumed_all = 0.0;
  snap.streams.reserve(streams_.size());
  for (const auto& st : streams_) {
    StreamHealth sh;
    sh.stream_id = st->budget.stream_id;
    sh.shed = st->budget.shed;
    sh.frames_total = static_cast<int>(st->budget.frame_cycles.size());
    sh.frames_done = std::min(
        st->frames_done.load(std::memory_order_relaxed), sh.frames_total);
    sh.consumed_cycles = st->prefix[static_cast<std::size_t>(sh.frames_done)];
    sh.total_cycles = st->prefix.back();
    sh.deadline_cycles = st->budget.deadline_cycles;
    consumed_all += sh.consumed_cycles;
    snap.streams.push_back(sh);
  }
  snap.modeled_now_cycles =
      fabric_count_ > 0 ? consumed_all / fabric_count_ : consumed_all;

  for (StreamHealth& sh : snap.streams) {
    if (sh.shed || sh.deadline_cycles <= 0.0 || sh.total_cycles <= 0.0) {
      continue;  // best-effort / shed: burn rate stays 0
    }
    if (sh.frames_done >= sh.frames_total) {
      // Completed: the projection is exact — total work at the realised
      // rate; keep it frozen rather than drifting with modeled_now.
      sh.projected_completion_cycles = sh.total_cycles;
    } else if (sh.consumed_cycles > 0.0) {
      // Projected completion at the current rate: modeled_now cycles
      // bought consumed_cycles of this stream's work.
      sh.projected_completion_cycles =
          snap.modeled_now_cycles * (sh.total_cycles / sh.consumed_cycles);
    } else {
      // Nothing finished yet: optimistic floor (start now, ideal rate).
      // The watchdog's warmup gate keeps this from tripping early.
      sh.projected_completion_cycles =
          snap.modeled_now_cycles + sh.total_cycles;
    }
    sh.burn_rate = sh.projected_completion_cycles / sh.deadline_cycles;
  }
  return snap;
}

HealthSnapshot HealthMonitor::tick() {
  HealthSnapshot snap;
  std::vector<WatchdogTrip> fired;
  {
    std::lock_guard<std::mutex> lock(m_);
    snap = assemble_locked();
    fired = dogs_.evaluate(snap);
    snapshots_.push_back(snap);
    if (snapshots_.size() > config_.max_snapshots) {
      snapshots_.erase(snapshots_.begin());
      ++snapshots_evicted_;
    }
    for (const WatchdogTrip& t : fired) trips_.push_back(t);
  }
  if (!fired.empty()) handle_trips(fired, snap);
  return snap;
}

void HealthMonitor::handle_trips(const std::vector<WatchdogTrip>& fired,
                                 const HealthSnapshot& snap) {
  for (const WatchdogTrip& t : fired) {
    flight_.record(flight_.control_ring(), EventKind::kWatchdogTrip,
                   t.stream_id, -1, static_cast<std::uint64_t>(t.kind));
    anomalies_.fetch_add(1, std::memory_order_relaxed);
    if (on_trip_) on_trip_(t, snap);
  }
  if (!config_.dump_path.empty()) dump(config_.dump_path);
}

std::vector<WatchdogTrip> HealthMonitor::trips() const {
  std::lock_guard<std::mutex> lock(m_);
  return trips_;
}

std::vector<HealthSnapshot> HealthMonitor::snapshots() const {
  std::lock_guard<std::mutex> lock(m_);
  return snapshots_;
}

std::string HealthMonitor::health_json(double host_wall_seconds) const {
  std::ostringstream os;
  os << "{\"schema_version\": " << kSchemaVersion << ", \"kind\": \"health\""
     << ", \"host_wall_seconds\": " << json_number(host_wall_seconds)
     << ", \"fabrics\": " << fabric_count_
     << ", \"anomalies_total\": " << anomalies_total()
     << ", \"watchdog_config\": {\"stall_epochs\": "
     << config_.watchdogs.stall_epochs
     << ", \"growth_epochs\": " << config_.watchdogs.growth_epochs
     << ", \"growth_min_depth\": " << config_.watchdogs.growth_min_depth
     << ", \"starvation_age_bound\": " << config_.watchdogs.starvation_age_bound
     << ", \"burn_threshold\": " << json_number(config_.watchdogs.burn_threshold)
     << ", \"burn_warmup\": " << json_number(config_.watchdogs.burn_warmup)
     << "}";
  {
    std::lock_guard<std::mutex> lock(m_);
    os << ", \"snapshots_evicted\": " << snapshots_evicted_
       << ", \"snapshots\": [";
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
  }
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
