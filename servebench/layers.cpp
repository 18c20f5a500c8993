#include "layers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "core/arch.hpp"
#include "core/config_codec.hpp"
#include "dct/dct2d.hpp"
#include "mapper/flow.hpp"
#include "me/systolic.hpp"
#include "runtime/sharded_queue.hpp"
#include "runtime/sim_schedule.hpp"

namespace servebench {

using namespace dsra;
using namespace dsra::runtime;
using Clock = std::chrono::steady_clock;

namespace {

/// Results the timed calls produce are folded in here, so no call is dead
/// code to the optimiser.
volatile std::uint64_t g_sink = 0;
void keep(std::uint64_t v) { g_sink = g_sink + v; }

/// Times single operations until the replay budget is spent.
struct OpTimer {
  double budget_s;
  double total_s = 0.0;
  std::uint64_t ops = 0;

  template <typename Op>
  void time(Op&& op) {
    const auto t0 = Clock::now();
    op();
    total_s += seconds_since(t0);
    ++ops;
  }
  [[nodiscard]] bool spent() const { return total_s >= budget_s; }
  [[nodiscard]] double mean_us() const {
    return ops > 0 ? 1e6 * total_s / static_cast<double>(ops) : 0.0;
  }
};

template <typename Queue>
void drain_noop(Queue& queue, int fabric_ids, int max_batch) {
  // Each id tracks the context it "has active", so affinity batching
  // schedules around the switches it would cause.
  std::vector<std::optional<std::string>> active(static_cast<std::size_t>(fabric_ids));
  std::vector<CompletedTask> done;
  bool any = true;
  while (any) {
    any = false;
    for (int f = 0; f < fabric_ids; ++f) {
      const std::vector<FrameTask> batch = queue.acquire_batch(
          f, active[static_cast<std::size_t>(f)], kCapAllKernels, nullptr, max_batch);
      if (batch.empty()) continue;
      any = true;
      done.clear();
      for (const FrameTask& task : batch) done.push_back(CompletedTask{task, 0});
      active[static_cast<std::size_t>(f)] = queue.required_context(batch.back());
      queue.complete_batch(done, f);
    }
  }
}

template <typename Queue>
double drive_once_us(std::vector<StreamJob> streams, const JobQueueConfig& cfg, int fabric_ids) {
  const auto t0 = Clock::now();
  Queue queue(streams, cfg);
  drain_noop(queue, fabric_ids, cfg.max_batch);
  const double seconds = seconds_since(t0);
  const std::uint64_t jobs = queue.dispatches();
  return jobs > 0 ? 1e6 * seconds / static_cast<double>(jobs) : 0.0;
}

}  // namespace

double replay_mapper_compile_ms(const Workload& w, int& attempts) {
  OpTimer timer{1e9};
  std::vector<ArrayGeometry> geometries = w.library.geometries;
  std::sort(geometries.begin(), geometries.end());
  geometries.erase(std::unique(geometries.begin(), geometries.end()), geometries.end());
  for (const ArrayGeometry& g : geometries) {
    const ArrayArch array = ArrayArch::distributed_arithmetic(g.width, g.height);
    for (const auto& impl : dct::all_implementations(w.library.precision)) {
      const Netlist netlist = impl->build_netlist();
      map::FlowParams params;
      params.place.seed = 17;  // the library's placement seed
      timer.time([&] {
        try {
          keep(map::compile(netlist, array, params).bitstream.size());
        } catch (const std::runtime_error&) {
          // Infeasible on this geometry: the refusal is mapper work too.
        }
      });
    }
  }
  attempts = static_cast<int>(timer.ops);
  return timer.mean_us() / 1e3;
}

double replay_me_search_us(const std::vector<StreamJob>& streams,
                           const me::SystolicParams& params) {
  OpTimer timer{kReplayBudgetS};
  for (const StreamJob& s : streams) {
    const int n = s.config.codec.me_block;
    me::SystolicParams p = params;
    p.block = n;
    for (std::size_t f = 1; f < s.frames.size() && !timer.spent(); ++f) {
      const video::Frame& cur = s.frames[f];
      const video::Frame& ref = s.frames[f - 1];
      for (int by = 0; by + n <= cur.height(); by += n)
        for (int bx = 0; bx + n <= cur.width(); bx += n)
          timer.time([&] {
            keep(me::systolic_search(cur, ref, bx, by, s.config.codec.me_range, p).cycles);
          });
    }
    if (timer.spent()) break;
  }
  return timer.mean_us();
}

double replay_dct_forward_us(const KernelLibrary& library, const std::vector<StreamJob>& streams,
                             const std::set<std::string>& impls) {
  if (impls.empty()) return 0.0;
  double total_s = 0.0;
  std::uint64_t ops = 0;
  for (const std::string& name : impls) {
    const dct::DctImplementation* impl = library.impl(name);
    if (impl == nullptr) continue;
    OpTimer timer{kReplayBudgetS / static_cast<double>(impls.size())};
    for (const StreamJob& s : streams) {
      for (const video::Frame& frame : s.frames) {
        for (int by = 0; by + 8 <= frame.height(); by += 8) {
          for (int bx = 0; bx + 8 <= frame.width(); bx += 8) {
            dct::PixelBlock block{};
            for (int y = 0; y < 8; ++y)
              for (int x = 0; x < 8; ++x) block[y][x] = frame.at(bx + x, by + y) - 128;
            timer.time([&] {
              const dct::Block8x8 c = dct::forward_2d(*impl, block);
              keep(static_cast<std::uint64_t>(std::fabs(c[0][0])));
            });
          }
        }
        if (timer.spent()) break;
      }
      if (timer.spent()) break;
    }
    total_s += timer.total_s;
    ops += timer.ops;
  }
  return ops > 0 ? 1e6 * total_s / static_cast<double>(ops) : 0.0;
}

double replay_region_delta_us(const KernelLibrary& library, const FabricPool& pool,
                              const std::vector<telemetry::JobTrace>& jobs, int& pairs) {
  // Each worker's jobs in dispatch order give the context sequence its
  // slot switched through.
  std::map<int, std::vector<const telemetry::JobTrace*>> by_worker;
  for (const telemetry::JobTrace& j : jobs) by_worker[j.fabric_id].push_back(&j);
  std::set<std::tuple<int, std::string, std::string>> switched;  // (slot, from, to)
  for (auto& [slot, list] : by_worker) {
    std::sort(list.begin(), list.end(),
              [](const auto* a, const auto* b) { return a->dispatch_ns < b->dispatch_ns; });
    std::string resident;
    for (const telemetry::JobTrace* j : list) {
      if (j->switched && !resident.empty() && resident != j->context)
        switched.emplace(slot, resident, j->context);
      resident = j->context;
    }
  }
  pairs = 0;
  double total_s = 0.0;
  std::uint64_t ops = 0;
  for (const auto& [slot, from, to] : switched) {
    if (slot < 0 || slot >= pool.size()) continue;
    const Fabric& fabric = pool.at(slot);
    const ConfigDelta* delta = library.delta(fabric.geometry(), from, to);
    if (delta == nullptr) continue;  // contexts on different grids: full reload only
    ++pairs;
    const ConfigRegion region = fabric.partition().region();
    const ConfigFrameImage grid = pool.composite_image(fabric.physical_id());
    const ConfigFrameImage base = translate_frame_image(
        library.frame_image(from, fabric.geometry()), region, grid.width, grid.height);
    OpTimer timer{kReplayBudgetS / static_cast<double>(switched.size())};
    while (!timer.spent()) {
      timer.time([&] {
        const ConfigDelta fabric_delta =
            translate_config_delta(*delta, region, grid.width, grid.height);
        const RegionDelta sealed =
            decode_region_delta(encode_region_delta(fabric_delta, region));
        keep(apply_region_delta(base, sealed.delta, sealed.region).frames.size());
      });
    }
    total_s += timer.total_s;
    ops += timer.ops;
  }
  return ops > 0 ? 1e6 * total_s / static_cast<double>(ops) : 0.0;
}

double replay_sim_us_per_job(const std::vector<StreamJob>& finished, const RunReport& report,
                             const SchedulerConfig& cfg, const FabricPool& pool) {
  OpTimer timer{kReplayBudgetS};
  std::uint64_t jobs = 0;
  do {
    timer.time([&] {
      const SimSchedule sim = simulate_timeline(finished, report.timeline,
                                                cfg.queue.pipeline_lookahead,
                                                &pool.physical_of());
      jobs = sim.jobs.size();
      keep(sim.makespan_cycles);
    });
  } while (!timer.spent() && timer.ops < 20);
  return jobs > 0 ? timer.mean_us() / static_cast<double>(jobs) : 0.0;
}

double replay_admission_us(const KernelLibrary& library, const FabricPool& pool,
                           const SchedulerConfig& cfg, std::vector<StreamJob>& fresh) {
  if (fresh.empty()) return 0.0;
  AdmissionController controller(library, pool, cfg.me, cfg.admission);
  const auto t0 = Clock::now();
  const AdmissionReport report = controller.admit_all(fresh);
  const double seconds = seconds_since(t0);
  keep(report.admitted);
  return 1e6 * seconds / static_cast<double>(fresh.size());
}

double replay_queue_us_per_job(const std::vector<StreamJob>& streams, const JobQueueConfig& cfg,
                               int fabric_ids) {
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r)
    runs.push_back(cfg.shards > 1 ? drive_once_us<ShardedJobQueue>(streams, cfg, fabric_ids)
                                  : drive_once_us<JobQueue>(streams, cfg, fabric_ids));
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

}  // namespace servebench
