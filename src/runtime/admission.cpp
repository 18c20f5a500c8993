#include "runtime/admission.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>
#include <tuple>
#include <utility>

#include "dct/dct2d.hpp"
#include "me/systolic.hpp"
#include "runtime/stats.hpp"

namespace dsra::runtime {

namespace {

constexpr std::uint64_t kNoDeadline = std::numeric_limits<std::uint64_t>::max();

std::uint64_t deadline_or_max(const StreamSla& sla) {
  return sla.deadline_cycles == 0 ? kNoDeadline : sla.deadline_cycles;
}

/// ceil(a / b) for positive ints.
int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// The resolution rung's halving rule, per axis: halve, keep 8-pixel
/// block alignment, never go below the floor.
int halved(int dim, int min_dimension) {
  return std::max(min_dimension, ceil_div(dim / 2, 8) * 8);
}

/// Every frame of @p job already runs under @p impl.
bool runs_only(const StreamJob& job, const std::string& impl) {
  if (job.impl_name != impl) return false;
  return std::all_of(job.frame_impls.begin(), job.frame_impls.end(),
                     [&](const std::string& name) { return name == impl; });
}

/// 2x2-average downscale of @p src to @p width x @p height. Edge clamping
/// matches the encoder's own border handling, so odd source sizes behave.
video::Frame downscale(const video::Frame& src, int width, int height) {
  video::Frame out(width, height);
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      const int sum = src.clamped_at(2 * x, 2 * y) + src.clamped_at(2 * x + 1, 2 * y) +
                      src.clamped_at(2 * x, 2 * y + 1) +
                      src.clamped_at(2 * x + 1, 2 * y + 1);
      out.set(x, y, static_cast<std::uint8_t>((sum + 2) / 4));
    }
  }
  return out;
}

}  // namespace

AdmissionController::AdmissionController(const KernelLibrary& library,
                                         const FabricPool& pool,
                                         me::SystolicParams me_params,
                                         AdmissionConfig config)
    : library_(library), pool_(pool), me_params_(me_params), config_(config) {
  report_.enabled = config_.enabled;
}

std::uint64_t AdmissionController::frame_cycles(const StreamJob& job, int frame) const {
  return frame_cycles(job, job.config.width, job.config.height, job.impl_for(frame), frame);
}

FrameCycles model_frame_cycles(const dct::DctImplementation& impl,
                               const video::CodecConfig& codec,
                               const me::SystolicParams& me_params, int width, int height,
                               bool intra) {
  // Mirrors the encoder's charging exactly (content-independent, so the
  // prediction is exact before any pixel is touched):
  //   intra: ceil(w/8) * ceil(h/8) blocks, no ME;
  //   inter: ceil(w/mb) * ceil(h/mb) macroblocks, each paying one ME
  //     search on an mb-PE module array plus ceil(mb/8)^2 residual blocks
  //     (the codec's sub-block loop runs the full macroblock extent even
  //     at the frame border).
  const int mb = codec.me_block;
  if (width <= 0 || height <= 0 || mb <= 0) return {};
  const auto block_cycles = static_cast<std::uint64_t>(dct::cycles_for_block(impl));
  FrameCycles cycles;
  if (intra) {
    cycles.dct = static_cast<std::uint64_t>(ceil_div(width, 8)) *
                 static_cast<std::uint64_t>(ceil_div(height, 8)) * block_cycles;
    return cycles;
  }
  const std::uint64_t macroblocks = static_cast<std::uint64_t>(ceil_div(width, mb)) *
                                    static_cast<std::uint64_t>(ceil_div(height, mb));
  const auto sub = static_cast<std::uint64_t>(ceil_div(mb, 8));
  me::SystolicParams search = me_params;
  search.block = mb;  // the encoder searches mb x mb blocks
  cycles.dct = macroblocks * sub * sub * block_cycles;
  cycles.me = macroblocks * me::systolic_cycles_per_block(codec.me_range, search);
  return cycles;
}

std::uint64_t AdmissionController::frame_cycles(const StreamJob& job, int w, int h,
                                                const std::string& impl_name,
                                                int frame) const {
  const dct::DctImplementation* impl = library_.impl(impl_name);
  if (impl == nullptr) return 0;
  return stage_cycles(StageKind::kWholeFrame,
                      model_frame_cycles(*impl, job.config.codec, me_params_, w, h, frame == 0));
}

std::string AdmissionController::cheapest_fitting_impl() const {
  std::string best;
  std::uint64_t best_cycles = kNoDeadline;
  for (const std::string& name : library_.names()) {
    if (pool_.fabrics_hosting(name, kCapDctTransform) == 0) continue;
    const dct::DctImplementation* impl = library_.impl(name);
    if (impl == nullptr) continue;
    const auto cycles = static_cast<std::uint64_t>(dct::cycles_for_block(*impl));
    if (cycles < best_cycles || (cycles == best_cycles && name < best)) {
      best = name;
      best_cycles = cycles;
    }
  }
  return best;
}

bool AdmissionController::apply_qp_bump(StreamJob& job, double factor) {
  if (!(factor > 1.0)) return false;
  job.config.codec.quantiser_scale *= factor;
  return true;
}

bool AdmissionController::apply_resolution_drop(StreamJob& job, int min_dimension) {
  const int nw = halved(job.config.width, min_dimension);
  const int nh = halved(job.config.height, min_dimension);
  if (nw >= job.config.width && nh >= job.config.height)
    return false;  // already at (or below) the floor
  for (video::Frame& frame : job.frames) frame = downscale(frame, nw, nh);
  job.config.width = nw;
  job.config.height = nh;
  return true;
}

bool AdmissionController::apply_impl_swap(StreamJob& job) const {
  const std::string cheapest = cheapest_fitting_impl();
  if (cheapest.empty() || runs_only(job, cheapest)) return false;
  job.impl_name = cheapest;
  // The stream's condition-resolved per-frame contexts are overridden by
  // one admission-forced context; the forced change is itself a context
  // transition the run's switch accounting must see.
  for (std::string& impl : job.frame_impls) impl = cheapest;
  ++job.condition_switches;
  return true;
}

int AdmissionController::host_set_of(const std::string& context) {
  const auto [it, inserted] =
      host_set_ids_.try_emplace(context, static_cast<int>(host_sets_.size()));
  if (inserted) host_sets_.push_back(pool_.hosting_fabric_ids(context, kCapDctTransform));
  return it->second;
}

AdmissionController::PilotStream AdmissionController::pilot_of(const StreamJob& job,
                                                               int width, int height,
                                                               const std::string* forced_impl) {
  PilotStream pilot;
  pilot.sla = job.config.sla;
  const int frames = static_cast<int>(job.frames.size());
  pilot.cycles.reserve(static_cast<std::size_t>(frames));
  pilot.host_set.reserve(static_cast<std::size_t>(frames));
  for (int f = 0; f < frames; ++f) {
    const std::string& impl = forced_impl != nullptr ? *forced_impl : job.impl_for(f);
    pilot.cycles.push_back(frame_cycles(job, width, height, impl, f));
    pilot.host_set.push_back(host_set_of(impl));
  }
  return pilot;
}

AdmissionController::PilotOutcome AdmissionController::pilot() const {
  const std::vector<PilotStream>& set = admitted_;
  PilotOutcome outcome;
  outcome.completion_cycles.assign(set.size(), 0);
  outcome.p99_cycles.assign(set.size(), 0);

  // List-schedule the set in the queue's service order, modeled as FIFO
  // with EDF ties: earliest-ready frame first (each queue shard is a FIFO
  // by readiness and the ageing valve serves the oldest head — streams
  // re-ready their next frame as the previous one completes, so the pool
  // interleaves them), tightest deadline breaking ties (the queue's EDF
  // tie-break), then the lower lane, onto the least-loaded eligible
  // fabric, the first-listed host winning ties. Affinity batching and
  // the run cap reorder dispatch within that bound; the headroom absorbs
  // the difference.
  //
  // Each job is a whole frame whose cost is known before it runs, ready
  // when its previous frame ends and started at max(ready, fabric free):
  // the greedy clocks are the schedule, so completion, per-frame latency
  // (end - ready), busy cycles and makespan are read straight off them.
  // A lane holds at most one pending entry, so (ready, deadline, lane)
  // is a strict order and a binary heap pops it exactly.
  using Pending = std::tuple<std::uint64_t, std::uint64_t, std::size_t>;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending;
  std::vector<std::size_t> first(set.size() + 1, 0);  // lane offsets into latency
  for (std::size_t i = 0; i < set.size(); ++i) {
    first[i + 1] = first[i] + set[i].cycles.size();
    if (!set[i].cycles.empty()) pending.emplace(0, deadline_or_max(set[i].sla), i);
  }
  std::vector<double> latency(first.back(), 0.0);
  std::vector<std::uint64_t> fabric_free(static_cast<std::size_t>(pool_.size()), 0);
  std::vector<std::size_t> next(set.size(), 0);
  std::uint64_t busy = 0;
  std::uint64_t makespan = 0;

  while (!pending.empty()) {
    const auto [ready, deadline, lane] = pending.top();
    pending.pop();
    const PilotStream& stream = set[lane];
    const std::size_t f = next[lane]++;
    const std::vector<int>& hosts = host_sets_[static_cast<std::size_t>(stream.host_set[f])];
    if (hosts.empty()) {
      outcome.placeable = false;
      outcome.completion_cycles[lane] = kNoDeadline;  // nothing downstream can run
      outcome.p99_cycles[lane] = kNoDeadline;
      continue;
    }
    int fabric = hosts.front();
    for (const int h : hosts)
      if (fabric_free[static_cast<std::size_t>(h)] < fabric_free[static_cast<std::size_t>(fabric)])
        fabric = h;
    std::uint64_t& free = fabric_free[static_cast<std::size_t>(fabric)];
    const std::uint64_t end = std::max(ready, free) + stream.cycles[f];
    free = end;
    busy += stream.cycles[f];
    makespan = std::max(makespan, end);
    latency[first[lane] + f] = static_cast<double>(end - ready);
    outcome.completion_cycles[lane] = end;
    if (next[lane] < stream.cycles.size()) pending.emplace(end, deadline, lane);
  }
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (outcome.p99_cycles[i] == kNoDeadline) continue;  // unplaceable lane
    std::vector<double> samples(latency.begin() + static_cast<std::ptrdiff_t>(first[i]),
                                latency.begin() + static_cast<std::ptrdiff_t>(first[i + 1]));
    outcome.p99_cycles[i] =
        static_cast<std::uint64_t>(std::llround(percentile(std::move(samples), 99.0)));
  }

  // Pool pressure: predicted busy cycles against what the eligible
  // fabrics can serve over the deadline horizon. Over 1.0 = the admitted
  // demand cannot fit even with perfect packing.
  std::vector<bool> used_set(host_sets_.size(), false);
  for (const PilotStream& stream : set)
    for (const int id : stream.host_set) used_set[static_cast<std::size_t>(id)] = true;
  std::vector<bool> eligible(static_cast<std::size_t>(pool_.size()), false);
  for (std::size_t id = 0; id < host_sets_.size(); ++id)
    if (used_set[id])
      for (const int f : host_sets_[id]) eligible[static_cast<std::size_t>(f)] = true;
  const auto fabrics = static_cast<std::uint64_t>(
      std::count(eligible.begin(), eligible.end(), true));
  std::uint64_t horizon = 0;
  for (const PilotStream& stream : set)
    if (stream.sla.deadline_cycles > 0)
      horizon = std::max(horizon, stream.sla.deadline_cycles);
  if (horizon == 0) horizon = makespan;
  if (fabrics > 0 && horizon > 0)
    outcome.pressure = static_cast<double>(busy) /
                       (static_cast<double>(fabrics) * static_cast<double>(horizon));
  return outcome;
}

bool AdmissionController::feasible(const PilotOutcome& outcome) const {
  if (!outcome.placeable) return false;
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    const StreamSla& sla = admitted_[i].sla;
    if (sla.deadline_cycles > 0) {
      const double predicted =
          static_cast<double>(outcome.completion_cycles[i]) * config_.headroom;
      if (predicted > static_cast<double>(sla.deadline_cycles)) return false;
    }
    if (sla.p99_budget_cycles > 0) {
      const double predicted =
          static_cast<double>(outcome.p99_cycles[i]) * config_.headroom;
      if (predicted > static_cast<double>(sla.p99_budget_cycles)) return false;
    }
  }
  return true;
}

AdmissionDecision AdmissionController::admit(StreamJob& candidate) {
  ++report_.arrived;
  AdmissionDecision decision;
  decision.stream_id = candidate.id;
  decision.name = candidate.config.name;
  decision.deadline_cycles = candidate.config.sla.deadline_cycles;
  decision.p99_budget_cycles = candidate.config.sla.p99_budget_cycles;

  // The ladder walks the candidate's shape — geometry and per-frame
  // contexts, all the pilot reads. Each trial rides at the back of
  // admitted_ and is popped unless it fits; the candidate itself takes a
  // rung's mutations (and its frames their one downscale) only when that
  // rung commits.
  const auto fits = [&](int width, int height, const std::string* forced_impl,
                        PilotOutcome& outcome) {
    admitted_.push_back(pilot_of(candidate, width, height, forced_impl));
    outcome = pilot();
    if (feasible(outcome)) return true;
    admitted_.pop_back();
    return false;
  };
  const auto commit = [&](const PilotOutcome& outcome, DegradationRung rung,
                          const std::string& note) {
    const std::size_t self = admitted_.size() - 1;
    candidate.admission_rung = rung;
    candidate.predicted_completion_cycles = outcome.completion_cycles[self];
    candidate.predicted_p99_cycles = outcome.p99_cycles[self];
    last_pressure_ = outcome.pressure;
    decision.admitted = true;
    decision.rung = rung;
    decision.predicted_completion_cycles = candidate.predicted_completion_cycles;
    decision.predicted_p99_cycles = candidate.predicted_p99_cycles;
    decision.note = note;
    ++report_.admitted;
    switch (rung) {
      case DegradationRung::kNone: ++report_.admitted_clean; break;
      case DegradationRung::kQpBump: ++report_.qp_bumps; break;
      case DegradationRung::kResolutionDrop: ++report_.resolution_drops; break;
      case DegradationRung::kImplSwap: ++report_.impl_swaps; break;
      case DegradationRung::kReject: break;
    }
    report_.pool_pressure = last_pressure_;
    report_.decisions.push_back(decision);
  };

  // Rung 0: as requested. Feasible newcomers still pay the QP bump when
  // the pool is already running hot — quality for admission headroom.
  const int width = candidate.config.width;
  const int height = candidate.config.height;
  PilotOutcome base;
  if (fits(width, height, nullptr, base)) {
    if (base.pressure >= config_.qp_pressure &&
        apply_qp_bump(candidate, config_.qp_bump_factor)) {
      std::ostringstream note;
      note << "pool pressure " << base.pressure << ": admitted with qp bump";
      commit(base, DegradationRung::kQpBump, note.str());
    } else {
      commit(base, DegradationRung::kNone, "fits as requested");
    }
    return decision;
  }

  // The QP bump alone cannot rescue feasibility — quantisation changes
  // bits, not array cycles, in this cost model — so the deadline-driven
  // walk goes straight to the resolution rung, which carries the QP bump
  // with it (rungs are cumulative concessions). At the floor the drop is
  // a no-op and the impl swap is tried at full size.
  const int dropped_width = halved(width, config_.min_dimension);
  const int dropped_height = halved(height, config_.min_dimension);
  const bool dropped = dropped_width < width || dropped_height < height;
  const auto concede = [&] {
    apply_qp_bump(candidate, config_.qp_bump_factor);
    apply_resolution_drop(candidate, config_.min_dimension);  // no-op at the floor
  };
  PilotOutcome outcome;
  if (dropped && fits(dropped_width, dropped_height, nullptr, outcome)) {
    concede();
    commit(outcome, DegradationRung::kResolutionDrop, "admitted at half resolution");
    return decision;
  }

  const std::string cheapest = cheapest_fitting_impl();
  if (!cheapest.empty() && !runs_only(candidate, cheapest) &&
      fits(dropped ? dropped_width : width, dropped ? dropped_height : height, &cheapest,
           outcome)) {
    concede();
    (void)apply_impl_swap(candidate);
    commit(outcome, DegradationRung::kImplSwap,
           "admitted on " + cheapest + (dropped ? " at half resolution" : ""));
    return decision;
  }

  // No rung fits: shed. The candidate keeps its original configuration
  // (no concession was ever applied to it) but is marked rejected and
  // never dispatched.
  candidate.admission_rung = DegradationRung::kReject;
  candidate.next_frame = static_cast<int>(candidate.frames.size());
  candidate.predicted_completion_cycles = base.completion_cycles.back();
  candidate.predicted_p99_cycles = base.p99_cycles.back();
  decision.rung = DegradationRung::kReject;
  decision.predicted_completion_cycles = candidate.predicted_completion_cycles;
  decision.predicted_p99_cycles = candidate.predicted_p99_cycles;
  decision.note = "no rung fits the deadline";
  ++report_.rejected;
  report_.decisions.push_back(decision);
  return decision;
}

AdmissionReport AdmissionController::admit_all(std::vector<StreamJob>& streams) {
  for (StreamJob& stream : streams) admit(stream);
  report_.pool_pressure = last_pressure_;
  return report_;
}

}  // namespace dsra::runtime
