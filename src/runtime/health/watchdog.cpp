#include "runtime/health/watchdog.hpp"

#include <algorithm>
#include <sstream>

namespace dsra::runtime::health {

std::vector<WatchdogTrip> Watchdogs::evaluate(const HealthSnapshot& snap) {
  std::vector<WatchdogTrip> trips;

  // Queue growth: strictly monotone depth increase, once past the floor.
  // The first snapshot establishes the baseline.
  if (seen_any_ && snap.queue.depth > prev_depth_) {
    ++growth_run_;
  } else {
    growth_run_ = 0;
  }
  if (!growth_latched_ && growth_run_ >= config_.growth_epochs &&
      snap.queue.depth >= config_.growth_min_depth) {
    growth_latched_ = true;
    std::ostringstream os;
    os << "depth grew " << growth_run_ << " consecutive epochs to "
       << snap.queue.depth;
    trips.push_back({WatchdogKind::kQueueGrowth, snap.epoch, -1, os.str()});
  }

  // Starvation: the ageing valve promises to serve a job soon after it
  // reaches aging_threshold; a job past this bound means the valve failed.
  if (!starvation_latched_ &&
      snap.queue.oldest_age > config_.starvation_age_bound) {
    starvation_latched_ = true;
    std::ostringstream os;
    os << "oldest queued job aged " << snap.queue.oldest_age
       << " dispatches (bound " << config_.starvation_age_bound << ")";
    trips.push_back({WatchdogKind::kStarvation, snap.epoch, -1, os.str()});
  }

  // SLA burn: projected completion overshoots the deadline after warmup.
  for (const StreamHealth& s : snap.streams) {
    if (s.shed || s.deadline_cycles <= 0.0) continue;
    if (s.frames_done >= s.frames_total && s.frames_total > 0) continue;
    if (static_cast<double>(snap.modeled_now_cycles) <
        config_.burn_warmup * s.deadline_cycles) {
      continue;
    }
    if (s.burn_rate <= config_.burn_threshold) continue;
    if (std::find(burn_latched_streams_.begin(), burn_latched_streams_.end(),
                  s.stream_id) != burn_latched_streams_.end()) {
      continue;
    }
    burn_latched_streams_.push_back(s.stream_id);
    std::ostringstream os;
    os << "stream " << s.stream_id << " burn rate " << s.burn_rate
       << " (projected " << s.projected_completion_cycles << " vs deadline "
       << s.deadline_cycles << ")";
    trips.push_back({WatchdogKind::kSlaBurn, snap.epoch, s.stream_id, os.str()});
  }

  seen_any_ = true;
  prev_depth_ = snap.queue.depth;
  return trips;
}

}  // namespace dsra::runtime::health
