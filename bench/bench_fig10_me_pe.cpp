// Experiment F10 - Fig 10: the ME processing element (AbsDiff + Add/Acc +
// Register-Multiplexer). Reports the PE datapath behaviour on the fabric:
// operations per cycle, SAD latency through the registered adder tree, and
// google-benchmark timings of the cycle simulation.
#include <benchmark/benchmark.h>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "me/systolic.hpp"
#include "video/synthetic.hpp"

namespace {

using namespace dsra;

void report() {
  me::SystolicParams params;
  params.block = 4;
  params.modules = 1;
  const Netlist nl = me::build_systolic_netlist(params);
  const ClusterCensus c = nl.census();

  ReportTable pe("Fig 10 PE module structure (one module, block 4)");
  pe.set_header({"cluster", "count", "role"});
  pe.add_row({"MuxReg", format_i64(c.mux_regs), "current/search pixel distribution registers"});
  pe.add_row({"AbsDiff", format_i64(c.abs_diffs), "|previous - current| per PE"});
  pe.add_row({"AddAcc (add)", format_i64(c.adders), "registered adder tree"});
  pe.add_row({"AddAcc (acc)", format_i64(c.accumulators), "SAD accumulation"});
  pe.add_row({"Comp", format_i64(c.comparators), "running-minimum SAD + index"});
  pe.print();

  // Latency: column enters -> SAD sample ready.
  int depth = 0;
  while ((1 << depth) < params.block) ++depth;
  ReportTable lat("PE module timing");
  lat.set_header({"quantity", "cycles"});
  lat.add_row({"pixel register stage", "1"});
  lat.add_row({"adder tree depth", format_i64(depth)});
  lat.add_row({"columns per candidate", format_i64(params.block)});
  lat.add_row({"total per candidate (non-overlapped)", format_i64(params.block + depth + 2)});
  lat.print();
  std::printf("\n");
}

void bm_pe_module_cycle(benchmark::State& state) {
  me::SystolicParams params;
  params.block = static_cast<int>(state.range(0));
  params.modules = 1;
  const Netlist nl = me::build_systolic_netlist(params);
  Simulator sim(nl);
  Rng rng(1);
  for (int i = 0; i < params.block; ++i) {
    sim.set_input("cur" + std::to_string(i), rng.next_range(0, 255));
    sim.set_input("ref0_" + std::to_string(i), rng.next_range(0, 255));
  }
  sim.set_input("acc_en", 1);
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.output("sad0"));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(params.block));
  state.counters["PEs"] = params.block;
}

}  // namespace

BENCHMARK(bm_pe_module_cycle)->Arg(4)->Arg(8)->Arg(16);

int main(int argc, char** argv) {
  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  report();

  {
    me::SystolicParams params;
    params.block = 4;
    params.modules = 1;
    const ClusterCensus c = me::build_systolic_netlist(params).census();
    json.metric("pe_mux_regs", c.mux_regs);
    json.metric("pe_abs_diffs", c.abs_diffs);
    json.metric("pe_adders", c.adders);
    json.metric("pe_accumulators", c.accumulators);
    json.metric("pe_comparators", c.comparators);
  }
  json.write();

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
