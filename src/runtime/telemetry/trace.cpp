#include "runtime/telemetry/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "runtime/executor.hpp"
#include "runtime/sim_schedule.hpp"

namespace dsra::runtime::telemetry {

namespace {

/// Append one job's spans: identity, context, reconfiguration breakdown
/// and host stamps from @p t, modeled bounds from @p ready / @p start /
/// @p end.
void append_spans(const JobTrace& t, std::uint64_t ready, std::uint64_t start,
                  std::uint64_t end, std::vector<Span>& spans) {
  const auto add = [&](SpanKind kind, std::uint64_t cycle_start, std::uint64_t cycle_end,
                       std::int64_t host_start_ns, std::int64_t host_end_ns) {
    const bool stream_track = kind == SpanKind::kQueueWait || kind == SpanKind::kDispatch;
    Span span;
    span.kind = kind;
    span.track = stream_track ? TrackKind::kStream : TrackKind::kFabric;
    span.track_id = stream_track ? t.stream_id : t.fabric_id;
    span.stream_id = t.stream_id;
    span.frame_index = t.frame_index;
    span.fabric_id = t.fabric_id;
    if (kind == SpanKind::kDispatch) span.worker = t.worker;
    span.stage = t.stage;
    span.context = t.context;
    span.cycle_start = cycle_start;
    span.cycle_end = cycle_end;
    span.host_start_ns = host_start_ns;
    span.host_end_ns = host_end_ns;
    spans.push_back(std::move(span));
  };
  // Stream track: the wait for silicon, then the whole-job occupancy.
  add(SpanKind::kQueueWait, ready, start, t.ready_ns, t.dispatch_ns);
  add(SpanKind::kDispatch, start, end, t.dispatch_ns, t.done_ns);
  // Fabric track: the job's modeled duration decomposes as
  // [fetch][switch][compute] — the order Fabric::prepare pays them in.
  std::uint64_t cursor = start;
  if (t.fetch_cycles > 0) {
    add(SpanKind::kCacheFetch, cursor, cursor + t.fetch_cycles, t.dispatch_ns, t.prepared_ns);
    cursor += t.fetch_cycles;
  }
  if (t.switch_cycles > 0) {
    add(t.partial_switch ? SpanKind::kReconfigDelta : SpanKind::kReconfigFull, cursor,
        cursor + t.switch_cycles, t.dispatch_ns, t.prepared_ns);
    cursor += t.switch_cycles;
  }
  add(SpanKind::kStageCompute, cursor, end, t.prepared_ns, t.done_ns);
}

void sort_spans(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return std::tuple(a.track, a.track_id, a.cycle_start, a.kind, a.stream_id, a.frame_index,
                      a.stage) < std::tuple(b.track, b.track_id, b.cycle_start, b.kind,
                                            b.stream_id, b.frame_index, b.stage);
  });
}

}  // namespace

std::vector<Span> TraceRecorder::join(std::span<const PlannedJob> plan) {
  rows_.assign(plan.size(), JobTrace{});
  for (std::size_t w = 0; w < buffers_.size(); ++w)
    for (const HostStamp& stamp : buffers_[w]) {
      JobTrace& t = rows_.at(stamp.job);
      t.worker = static_cast<int>(w);
      t.ready_ns = stamp.ready_ns;
      t.dispatch_ns = stamp.start_ns;
      t.prepared_ns = stamp.start_ns;  // the planner prepared the context
      t.done_ns = stamp.end_ns;
    }

  std::vector<Span> spans;
  spans.reserve(5 * plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const PlannedJob& job = plan[i];
    JobTrace& t = rows_[i];
    t.stream_id = job.task.stream_id;
    t.frame_index = job.task.frame_index;
    t.stage = job.task.stage;
    t.fabric_id = job.fabric_id;
    t.context = *job.context;
    t.fetch_cycles = job.prep.fetch_cycles;
    t.switch_cycles = job.prep.switch_cycles;
    t.cache_hit = job.prep.cache_hit;
    t.switched = job.prep.switched;
    t.partial_switch = job.prep.partial;
    append_spans(t, job.ready_cycles, job.start_cycles, job.end_cycles, spans);
  }
  sort_spans(spans);
  return spans;
}

std::vector<Span> build_spans(const std::vector<JobTrace>& rows, const SimSchedule& sim) {
  if (rows.size() != sim.jobs.size())
    throw std::invalid_argument("build_spans: " + std::to_string(rows.size()) +
                                " trace rows for " + std::to_string(sim.jobs.size()) +
                                " scheduled jobs");
  std::vector<Span> spans;
  spans.reserve(5 * rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JobTrace& t = rows[i];
    const SimStageJob& j = sim.jobs[i];
    if (std::tuple(t.stream_id, t.frame_index, t.stage, t.fabric_id) !=
        std::tuple(j.stream_id, j.frame_index, j.stage, j.fabric_id))
      throw std::invalid_argument("build_spans: trace row " + std::to_string(i) +
                                  " is not the schedule's job " + std::to_string(i) +
                                  "; both must list the jobs in plan order");
    append_spans(t, j.ready_cycles, j.start_cycles, j.end_cycles, spans);
  }
  sort_spans(spans);
  return spans;
}

}  // namespace dsra::runtime::telemetry
