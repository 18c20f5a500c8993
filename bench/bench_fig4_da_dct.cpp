// Experiment F4 - Fig 4: the basic Distributed-Arithmetic DCT (8 shift
// registers, 8 x 256-word LUTs, 8 shift-accumulators). Also reports the
// exact-labels variant: 12-bit inputs, 256x8 ROMs and *16-bit truncating*
// shift-accumulators (kShiftRegLsb / kShiftAccTrunc), quantifying the
// "precision of the output result" trade the paper mentions.
#include "dct_bench_common.hpp"

int main(int argc, char** argv) {
  using namespace dsra;
  BenchJson json(BenchJson::name_from_argv0(argc > 0 ? argv[0] : nullptr));
  {
    auto exact_labels = dct::make_da_basic_fig4_exact();
    const bench::AccuracyStats acc = bench::measure_accuracy(*exact_labels, 200, 99);
    ReportTable t("Fig 4 exact-labels datapath (16-bit truncating accumulators)");
    t.set_header({"variant", "acc width", "mean |err|", "max |err|", "RMS err"});
    t.add_row({"LSB-first truncating", "16 bits", format_double(acc.mean_abs_err, 2),
               format_double(acc.max_abs_err, 2), format_double(acc.rms_err, 2)});
    t.print();
    std::printf("(error is dominated by the 8-bit ROM quantisation; the truncating\n"
                " accumulator itself adds at most ~2 output ulps - see test_da_trunc)\n\n");
  }
  return bench::run_dct_fig_bench(json, argc, argv, dct::make_da_basic());
}
