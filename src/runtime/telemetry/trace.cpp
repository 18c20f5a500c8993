#include "runtime/telemetry/trace.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "runtime/sim_schedule.hpp"

namespace dsra::runtime::telemetry {

std::vector<JobTrace> TraceRecorder::merged() const {
  std::vector<JobTrace> out;
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer.size();
  out.reserve(total);
  for (const auto& buffer : buffers_) out.insert(out.end(), buffer.begin(), buffer.end());
  std::sort(out.begin(), out.end(), [](const JobTrace& a, const JobTrace& b) {
    return std::tuple(a.stream_id, a.frame_index, a.stage) <
           std::tuple(b.stream_id, b.frame_index, b.stage);
  });
  return out;
}

std::vector<Span> build_spans(const std::vector<JobTrace>& jobs, const SimSchedule& sim) {
  // The schedule is the authority on the modeled-cycle domain; the
  // recorded traces contribute the host timestamps and the fetch/switch
  // breakdown. Join on (stream, frame, stage) — unique per run.
  std::map<std::tuple<int, int, StageKind>, const JobTrace*> trace_of;
  for (const JobTrace& t : jobs) trace_of[{t.stream_id, t.frame_index, t.stage}] = &t;

  std::vector<Span> spans;
  spans.reserve(5 * sim.jobs.size());
  for (const SimStageJob& j : sim.jobs) {
    const auto it = trace_of.find({j.stream_id, j.frame_index, j.stage});
    if (it == trace_of.end()) continue;  // job ran before recording started
    const JobTrace& t = *it->second;

    Span base;
    base.stream_id = j.stream_id;
    base.frame_index = j.frame_index;
    base.fabric_id = j.fabric_id;
    base.stage = j.stage;
    base.context = t.context;

    // Stream track: the wait for silicon, then the whole-job occupancy.
    Span wait = base;
    wait.kind = SpanKind::kQueueWait;
    wait.track = TrackKind::kStream;
    wait.track_id = j.stream_id;
    wait.cycle_start = j.ready_cycles;
    wait.cycle_end = j.start_cycles;
    wait.host_start_ns = t.ready_ns;
    wait.host_end_ns = t.dispatch_ns;
    spans.push_back(std::move(wait));

    Span dispatch = base;
    dispatch.kind = SpanKind::kDispatch;
    dispatch.track = TrackKind::kStream;
    dispatch.track_id = j.stream_id;
    dispatch.worker = t.worker;
    dispatch.cycle_start = j.start_cycles;
    dispatch.cycle_end = j.end_cycles;
    dispatch.host_start_ns = t.dispatch_ns;
    dispatch.host_end_ns = t.done_ns;
    spans.push_back(std::move(dispatch));

    // Fabric track: the job's modeled duration decomposes as
    // [fetch][switch][compute] — the order Fabric::prepare pays them in.
    std::uint64_t cursor = j.start_cycles;
    if (t.fetch_cycles > 0) {
      Span fetch = base;
      fetch.kind = SpanKind::kCacheFetch;
      fetch.track = TrackKind::kFabric;
      fetch.track_id = j.fabric_id;
      fetch.cycle_start = cursor;
      fetch.cycle_end = cursor + t.fetch_cycles;
      fetch.host_start_ns = t.dispatch_ns;
      fetch.host_end_ns = t.prepared_ns;
      cursor += t.fetch_cycles;
      spans.push_back(std::move(fetch));
    }
    if (t.switch_cycles > 0) {
      Span reconfig = base;
      reconfig.kind = t.partial_switch ? SpanKind::kReconfigDelta : SpanKind::kReconfigFull;
      reconfig.track = TrackKind::kFabric;
      reconfig.track_id = j.fabric_id;
      reconfig.cycle_start = cursor;
      reconfig.cycle_end = cursor + t.switch_cycles;
      reconfig.host_start_ns = t.dispatch_ns;
      reconfig.host_end_ns = t.prepared_ns;
      cursor += t.switch_cycles;
      spans.push_back(std::move(reconfig));
    }
    Span compute = base;
    compute.kind = SpanKind::kStageCompute;
    compute.track = TrackKind::kFabric;
    compute.track_id = j.fabric_id;
    compute.cycle_start = cursor;
    compute.cycle_end = j.end_cycles;
    compute.host_start_ns = t.prepared_ns;
    compute.host_end_ns = t.done_ns;
    spans.push_back(std::move(compute));
  }

  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tuple(a.track, a.track_id, a.cycle_start, a.kind, a.stream_id, a.frame_index,
                      a.stage) < std::tuple(b.track, b.track_id, b.cycle_start, b.kind,
                                            b.stream_id, b.frame_index, b.stage);
  });
  return spans;
}

}  // namespace dsra::runtime::telemetry
