#include "runtime/health/flight_recorder.hpp"

#include <algorithm>
#include <sstream>

namespace dsra::runtime::health {
namespace {

constexpr std::size_t kMinCapacity = 16;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = kMinCapacity;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : capacity_(round_up_pow2(config.capacity_per_ring)) {}

void FlightRecorder::begin_run(int fabrics) {
  rings_.assign(static_cast<std::size_t>(std::max(fabrics, 0)) + 1, Ring{});
  seq_ = 0;
}

void FlightRecorder::record(int ring, std::uint64_t t_cycles, EventKind kind, int stream_id,
                            int frame_index, std::uint64_t value) {
  if (ring < 0 || static_cast<std::size_t>(ring) >= rings_.size()) return;
  Ring& r = rings_[static_cast<std::size_t>(ring)];
  const FlightEvent ev{++seq_, t_cycles, kind, ring, stream_id, frame_index, value};
  if (r.slots.size() < capacity_)
    r.slots.push_back(ev);
  else
    r.slots[r.head % capacity_] = ev;
  ++r.head;
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  for (const Ring& ring : rings_) out.insert(out.end(), ring.slots.begin(), ring.slots.end());
  std::sort(out.begin(), out.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.seq < b.seq; });
  return out;
}

std::uint64_t FlightRecorder::dropped() const {
  std::uint64_t total = 0;
  for (const Ring& ring : rings_) total += ring.head - ring.slots.size();
  return total;
}

std::string FlightRecorder::json() const {
  std::ostringstream os;
  os << "{\"capacity_per_ring\": " << capacity_
     << ", \"recorded\": " << recorded() << ", \"dropped\": " << dropped()
     << ", \"events\": [";
  const std::vector<FlightEvent> events = snapshot();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& ev = events[i];
    if (i != 0) os << ", ";
    os << "{\"seq\": " << ev.seq << ", \"t_cycles\": " << ev.t_cycles
       << ", \"kind\": \"" << to_string(ev.kind) << "\", \"ring\": " << ev.ring
       << ", \"stream\": " << ev.stream_id
       << ", \"frame\": " << ev.frame_index << ", \"value\": " << ev.value
       << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace dsra::runtime::health
