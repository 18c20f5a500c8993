// Multi-stream encode runtime throughput.
//
// Serves a mixed-condition workload of concurrent encode streams (each
// stream's battery / channel condition selects a different DCT bitstream)
// over a pool of simulated array fabrics, twice: once with naive
// round-robin dispatch and once with configuration-affinity batching. The
// point of the comparison is the paper's dynamic-reconfiguration cost
// made operational: batching frames that share a bitstream amortizes the
// configuration-port switch cycles that round-robin pays over and over.
#include <cstdio>

#include "bench_common.hpp"
#include "runtime/scheduler.hpp"

using namespace dsra;
using namespace dsra::runtime;

namespace {

std::vector<StreamJob> build_workload() {
  struct Spec {
    const char* name;
    int size;
    soc::RuntimeCondition condition;
  };
  // Ten concurrent callers in different conditions; adjacent streams want
  // different bitstreams, the worst case for affinity-blind dispatch.
  const Spec specs[] = {
      {"full-battery-a", 64, {1.00, 0.95}}, {"half-battery-a", 64, {0.50, 0.95}},
      {"tunnel-a", 48, {0.90, 0.30}},       {"low-battery-a", 48, {0.10, 0.90}},
      {"full-battery-b", 80, {0.95, 0.90}}, {"half-battery-b", 64, {0.45, 0.85}},
      {"tunnel-b", 64, {0.80, 0.25}},       {"low-battery-b", 48, {0.15, 0.80}},
      {"full-battery-c", 48, {0.98, 0.99}}, {"half-battery-c", 48, {0.55, 0.95}},
  };
  std::vector<StreamJob> jobs;
  int id = 0;
  for (const Spec& spec : specs) {
    StreamConfig cfg;
    cfg.name = spec.name;
    cfg.width = spec.size;
    cfg.height = spec.size;
    cfg.frame_budget = 8;
    cfg.condition = spec.condition;
    cfg.codec.me_range = 4;
    cfg.seed = 2004 + static_cast<std::uint64_t>(id) * 31;
    jobs.push_back(make_synthetic_job(id, cfg));
    ++id;
  }
  return jobs;
}

RunReport run_policy(const KernelLibrary& library, SchedulingPolicy policy, int fabrics) {
  SchedulerConfig cfg;
  // Bound the context store to about half the library so the cache has to
  // work for its hits.
  FabricConfig fabric;
  fabric.context_capacity_bytes = library.total_bytes() / 2;
  cfg.fabric_configs.assign(fabrics, fabric);
  cfg.queue.policy = policy;
  auto jobs = build_workload();
  return MultiStreamScheduler(library, cfg).run(jobs);
}

}  // namespace

int main() {
  BenchJson json("runtime_throughput");
  std::printf("compiling the kernel library (6 DCT implementations + ME context)...\n");
  const KernelLibrary library;
  std::printf("library ready: %zu DCT bitstreams + the ME context, %zu bytes total\n\n",
              library.names().size(), library.total_bytes());

  const int fabrics = 2;
  const RunReport rr = run_policy(library, SchedulingPolicy::kRoundRobin, fabrics);
  const RunReport af = run_policy(library, SchedulingPolicy::kAffinityBatched, fabrics);

  stream_table(af).print();
  std::printf("\n");
  policy_compare_table(rr, af).print();

  const std::int64_t saved = static_cast<std::int64_t>(rr.total_reconfig_cycles) -
                             static_cast<std::int64_t>(af.total_reconfig_cycles);
  std::printf("\n%zu streams on %d fabrics, %llu frames each run\n", af.streams.size(), fabrics,
              static_cast<unsigned long long>(af.total_frames));
  std::printf("affinity batching: %.1f frames/s wall, saved %lld reconfig cycles (%.1f%%)\n",
              af.frames_per_second, static_cast<long long>(saved),
              rr.total_reconfig_cycles > 0
                  ? 100.0 * static_cast<double>(saved) /
                        static_cast<double>(rr.total_reconfig_cycles)
                  : 0.0);

  bench_common::stamp_reproducibility(
      json, 2004,
      "streams=6;frames=8;sizes=4x64+2x48;me_range=4;seed_stride=31");
  json.metric("frames", static_cast<double>(af.total_frames));
  json.metric("roundrobin_reconfig_cycles", static_cast<double>(rr.total_reconfig_cycles));
  json.metric("affinity_reconfig_cycles", static_cast<double>(af.total_reconfig_cycles));
  json.metric("roundrobin_switches", static_cast<double>(rr.total_switches));
  json.metric("affinity_switches", static_cast<double>(af.total_switches));
  json.metric("affinity_frames_per_second", af.frames_per_second);
  // Measurable amortization is the acceptance bar.
  json.bar("reconfig_cycles_saved_by_affinity", static_cast<double>(saved), ">", 0.0);
  return bench_common::finish(json);
}
