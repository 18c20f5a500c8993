// Shared reporting for the per-figure DCT benches (Figs 4-9).
//
// Each bench prints: the implementation's resource census (its Table 1
// column), cycle counts, accuracy in wide and paper precision, and the
// mapped design's area / power / Fmax on the DA fabric - then runs a
// google-benchmark timing section for the functional and array-level
// transforms.
#pragma once

#include <benchmark/benchmark.h>

#include <cmath>

#include "common/report.hpp"
#include "common/rng.hpp"
#include "cost/compare.hpp"
#include "dct/impl.hpp"
#include "mapper/flow.hpp"

namespace dsra::bench {

struct AccuracyStats {
  double mean_abs_err = 0.0;
  double max_abs_err = 0.0;
  double rms_err = 0.0;
};

inline AccuracyStats measure_accuracy(const dct::DctImplementation& impl, int trials,
                                      std::uint64_t seed) {
  Rng rng(seed);
  AccuracyStats s;
  double sq = 0.0;
  int count = 0;
  for (int t = 0; t < trials; ++t) {
    dct::IVec8 x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    dct::Vec8 xd{};
    for (int i = 0; i < dct::kN; ++i) xd[static_cast<std::size_t>(i)] = static_cast<double>(x[static_cast<std::size_t>(i)]);
    const dct::Vec8 want = dct::dct8(xd);
    const dct::Vec8 got = impl.transform_real(x);
    for (int u = 0; u < dct::kN; ++u) {
      const double e = std::abs(got[static_cast<std::size_t>(u)] - want[static_cast<std::size_t>(u)]);
      s.mean_abs_err += e;
      s.max_abs_err = std::max(s.max_abs_err, e);
      sq += e * e;
      ++count;
    }
  }
  s.mean_abs_err /= count;
  s.rms_err = std::sqrt(sq / count);
  return s;
}

/// Print the full per-implementation report; returns the compiled design
/// for further use.
inline map::CompiledDesign print_impl_report(const dct::DctImplementation& impl) {
  std::printf("%s (%s): %s\n\n", impl.name().c_str(), impl.paper_figure().c_str(),
              impl.description().c_str());

  const Netlist nl = impl.build_netlist();
  const ClusterCensus census = nl.census();
  ReportTable res("resource usage (= its Table 1 column)");
  res.set_header({"adders", "subtracters", "shift regs", "accs", "mem clusters", "total",
                  "ROM bits"});
  res.add_row({format_i64(census.adders), format_i64(census.subtracters),
               format_i64(census.shift_regs), format_i64(census.accumulators),
               format_i64(census.mem_clusters), format_i64(census.total()),
               format_i64(nl.rom_bits())});
  res.print();

  ReportTable timing("transform timing");
  timing.set_header({"serial width", "cycles / 8-pt transform", "cycles / 8x8 block"});
  timing.add_row({format_i64(impl.serial_width()), format_i64(impl.cycles_per_transform()),
                  format_i64(16 * impl.cycles_per_transform() + 8)});
  timing.print();

  const AccuracyStats wide = measure_accuracy(impl, 200, 99);
  auto paper_impl = [&]() -> std::unique_ptr<dct::DctImplementation> {
    const std::string n = impl.name();
    const dct::DaPrecision p = dct::DaPrecision::paper();
    if (n == "da_basic") return dct::make_da_basic(p);
    if (n == "mixed_rom") return dct::make_mixed_rom(p);
    if (n == "cordic1") return dct::make_cordic1(p);
    if (n == "cordic2") return dct::make_cordic2(p);
    if (n == "scc_even_odd") return dct::make_scc_even_odd(p);
    return dct::make_scc_full(p);
  }();
  const AccuracyStats paper = measure_accuracy(*paper_impl, 200, 99);

  ReportTable acc("accuracy vs double-precision DCT (200 random 12-bit blocks)");
  acc.set_header({"precision", "ROM word", "mean |err|", "max |err|", "RMS err"});
  acc.add_row({"wide", format_i64(impl.precision().rom_width) + " bits",
               format_double(wide.mean_abs_err, 4), format_double(wide.max_abs_err, 4),
               format_double(wide.rms_err, 4)});
  acc.add_row({"paper (Fig 4 labels)", "8 bits", format_double(paper.mean_abs_err, 2),
               format_double(paper.max_abs_err, 2), format_double(paper.rms_err, 2)});
  acc.print();

  // Map onto the DA fabric and report implementation cost.
  const ArrayArch arch = ArrayArch::distributed_arithmetic(12, 8);
  map::FlowParams params;
  params.place.seed = 23;
  map::CompiledDesign design = map::compile(nl, arch, params);

  Simulator sim(nl);
  impl.drive_constants(sim);
  Rng rng(7);
  for (int t = 0; t < 32; ++t) {
    dct::IVec8 x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    (void)dct::run_da_transform(sim, x, impl.serial_width());
  }
  const cost::AreaReport area = cost::domain_design_area(nl, arch.channels());
  const cost::PowerReport power =
      cost::domain_power(nl, sim, &design.routes, 100.0, area);

  ReportTable mapped("mapped on the DA array (12x8 fabric, 100 MHz workload)");
  mapped.set_header({"area (um^2)", "config bits", "power (mW)", "Fmax (MHz)",
                     "bitstream (bits)", "route WL"});
  mapped.add_row({format_double(area.total(), 0), format_i64(area.config_bits),
                  format_double(power.total(), 3), format_double(design.timing.fmax_mhz, 1),
                  format_i64(design.bitstream_size_bits()),
                  format_double(design.routes.wirelength, 0)});
  mapped.print();
  std::printf("\n");
  return design;
}

/// google-benchmark kernels shared by the per-figure benches.
inline void register_dct_benchmarks(const std::string& name,
                                    std::unique_ptr<dct::DctImplementation> impl) {
  auto* shared = impl.release();  // owned by the registered lambdas (leaked at exit)

  benchmark::RegisterBenchmark((name + "/functional_transform").c_str(),
                               [shared](benchmark::State& state) {
                                 Rng rng(1);
                                 dct::IVec8 x{};
                                 for (auto& v : x) v = rng.next_range(-2048, 2047);
                                 for (auto _ : state) {
                                   benchmark::DoNotOptimize(shared->transform(x));
                                 }
                                 state.SetItemsProcessed(state.iterations() * 8);
                               });

  benchmark::RegisterBenchmark(
      (name + "/array_cycle_simulation").c_str(), [shared](benchmark::State& state) {
        const Netlist nl = shared->build_netlist();
        Simulator sim(nl);
        shared->drive_constants(sim);
        Rng rng(2);
        dct::IVec8 x{};
        for (auto& v : x) v = rng.next_range(-2048, 2047);
        for (auto _ : state) {
          benchmark::DoNotOptimize(dct::run_da_transform(sim, x, shared->serial_width()));
        }
        state.SetItemsProcessed(state.iterations() * 8);
        state.counters["array_cycles_per_transform"] =
            static_cast<double>(shared->cycles_per_transform());
      });
}

/// @p json is the bench main's result, constructed first thing in main so
/// its host_wall_seconds covers the figure tables printed before this.
inline int run_dct_fig_bench(BenchJson& json, int argc, char** argv,
                             std::unique_ptr<dct::DctImplementation> impl) {
  const map::CompiledDesign design = print_impl_report(*impl);

  // Machine-readable result next to the tables (BENCH_<binary>.json).
  const AccuracyStats acc = measure_accuracy(*impl, 200, 99);
  json.metric("cycles_per_transform", impl->cycles_per_transform());
  json.metric("clusters", impl->build_netlist().census().total());
  json.metric("bitstream_bits", static_cast<double>(design.bitstream_size_bits()));
  json.metric("fmax_mhz", design.timing.fmax_mhz);
  json.metric("mean_abs_err_wide", acc.mean_abs_err);
  json.metric("rms_err_wide", acc.rms_err);
  json.write();

  const std::string name = impl->name();
  register_dct_benchmarks(name, std::move(impl));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace dsra::bench
