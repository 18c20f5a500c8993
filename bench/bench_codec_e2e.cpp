// Experiment A2 - end-to-end encoder ablation. The paper's motivation is
// that implementations trade quality, area and cycles; this bench encodes
// the same synthetic sequence with every DCT implementation and several ME
// algorithms and reports PSNR / bits / array cycles side by side.
#include <cstdio>

#include "common/report.hpp"
#include "dct/impl.hpp"
#include "me/fast_search.hpp"
#include "me/systolic.hpp"
#include "video/codec.hpp"
#include "video/synthetic.hpp"

int main() {
  using namespace dsra;
  BenchJson json("codec_e2e");

  video::SyntheticConfig scfg;
  scfg.width = 96;
  scfg.height = 96;
  scfg.frames = 4;
  const auto frames = video::generate_sequence(scfg);
  video::CodecConfig ccfg;

  // --- DCT implementation sweep (systolic full-search ME) ----------------
  ReportTable dct_table("encoder vs DCT implementation (96x96, 4 frames, qs=8)");
  dct_table.set_header({"DCT impl", "mean PSNR (dB)", "total bits", "DCT cycles",
                        "clusters", "cycles/8x8"});
  {
    const video::ToyEncoder ref_enc(nullptr, me::systolic_search_fn(), ccfg);
    const auto ref_stats = ref_enc.encode_sequence(frames);
    double psnr = 0.0, bits = 0.0;
    for (const auto& s : ref_stats) {
      psnr += s.psnr_db;
      bits += s.bits;
    }
    dct_table.add_row({"double-precision reference", format_double(psnr / ref_stats.size(), 2),
                       format_double(bits, 0), "-", "-", "-"});
  }
  for (const auto& impl : dct::all_implementations()) {
    const video::ToyEncoder enc(impl.get(), me::systolic_search_fn(), ccfg);
    const auto stats = enc.encode_sequence(frames);
    double psnr = 0.0, bits = 0.0;
    std::uint64_t cycles = 0;
    for (const auto& s : stats) {
      psnr += s.psnr_db;
      bits += s.bits;
      cycles += s.dct_array_cycles;
    }
    dct_table.add_row({impl->name(), format_double(psnr / stats.size(), 2),
                       format_double(bits, 0), format_i64(static_cast<std::int64_t>(cycles)),
                       format_i64(impl->build_netlist().census().total()),
                       format_i64(16 * impl->cycles_per_transform() + 8)});
    json.metric("psnr_db_" + impl->name(), psnr / static_cast<double>(stats.size()));
    json.metric("bits_" + impl->name(), bits);
    json.metric("dct_cycles_" + impl->name(), static_cast<double>(cycles));
  }
  dct_table.print();

  // --- ME algorithm sweep (reference DCT) --------------------------------
  struct Algo {
    const char* name;
    video::MotionSearchFn fn;
  };
  const Algo algos[] = {
      {"systolic full search", me::systolic_search_fn()},
      {"three-step search", me::three_step_search_fn()},
      {"diamond search", me::diamond_search_fn()},
  };
  ReportTable me_table("encoder vs ME algorithm (reference DCT)");
  me_table.set_header({"ME algorithm", "mean PSNR (dB)", "total bits", "ME cycles"});
  for (const Algo& algo : algos) {
    const video::ToyEncoder enc(nullptr, algo.fn, ccfg);
    const auto stats = enc.encode_sequence(frames);
    double psnr = 0.0, bits = 0.0;
    std::uint64_t cycles = 0;
    for (const auto& s : stats) {
      psnr += s.psnr_db;
      bits += s.bits;
      cycles += s.me_array_cycles;
    }
    me_table.add_row({algo.name, format_double(psnr / stats.size(), 2), format_double(bits, 0),
                      format_i64(static_cast<std::int64_t>(cycles))});
  }
  me_table.print();
  std::printf("\nfast searches trade a small PSNR/bits penalty for an order of magnitude\n"
              "fewer array cycles - the run-time flexibility the conclusion argues for.\n");
  json.write();
  return 0;
}
