#include "runtime/health/snapshot.hpp"

#include <sstream>

#include "common/report.hpp"

namespace dsra::runtime::health {

std::string to_json(const HealthSnapshot& snap) {
  std::ostringstream os;
  os << "{\"epoch\": " << snap.epoch
     << ", \"modeled_now_cycles\": " << snap.modeled_now_cycles
     << ", \"queue\": {\"depth\": " << snap.queue.depth
     << ", \"oldest_age\": " << snap.queue.oldest_age
     << ", \"dispatches\": " << snap.queue.dispatches
     << ", \"completions\": " << snap.queue.completions
     << ", \"steals\": " << snap.queue.steals
     << ", \"batches\": " << snap.queue.batches << ", \"shards\": [";
  for (std::size_t i = 0; i < snap.queue.shards.size(); ++i) {
    const ShardHealth& s = snap.queue.shards[i];
    if (i != 0) os << ", ";
    os << "{\"shard\": " << s.shard << ", \"depth\": " << s.depth
       << ", \"oldest_age\": " << s.oldest_age << "}";
  }
  os << "]}, \"fabrics\": [";
  for (std::size_t i = 0; i < snap.fabrics.size(); ++i) {
    const FabricHealth& f = snap.fabrics[i];
    if (i != 0) os << ", ";
    os << "{\"fabric\": " << f.fabric
       << ", \"utilization\": " << json_number(f.utilization)
       << ", \"cache_pressure\": " << json_number(f.cache_pressure)
       << ", \"jobs_done\": " << f.jobs_done
       << ", \"cache_hits\": " << f.cache_hits
       << ", \"cache_misses\": " << f.cache_misses
       << ", \"switches\": " << f.switches << "}";
  }
  os << "], \"streams\": [";
  for (std::size_t i = 0; i < snap.streams.size(); ++i) {
    const StreamHealth& s = snap.streams[i];
    if (i != 0) os << ", ";
    os << "{\"stream\": " << s.stream_id
       << ", \"shed\": " << (s.shed ? "true" : "false")
       << ", \"frames_done\": " << s.frames_done
       << ", \"frames_total\": " << s.frames_total
       << ", \"consumed_cycles\": " << json_number(s.consumed_cycles)
       << ", \"total_cycles\": " << json_number(s.total_cycles)
       << ", \"deadline_cycles\": " << json_number(s.deadline_cycles)
       << ", \"burn_rate\": " << json_number(s.burn_rate)
       << ", \"projected_completion_cycles\": "
       << json_number(s.projected_completion_cycles) << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dsra::runtime::health
