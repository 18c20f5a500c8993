// Integration: every DCT implementation's netlist, executed cycle-accurately
// by the array simulator, must reproduce its functional model bit for bit;
// and after place-and-route + bitstream generation + read-back, the
// extracted design must still do so.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "cost/area.hpp"
#include "dct/impl.hpp"
#include "mapper/flow.hpp"

namespace dsra::dct {
namespace {

IVec8 random_block(Rng& rng, int bits) {
  IVec8 x{};
  const std::int64_t hi = (1ll << (bits - 1)) - 1;
  for (auto& v : x) v = rng.next_range(-hi - 1, hi);
  return x;
}

class DctArrayTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<DctImplementation> make(DaPrecision precision = DaPrecision::wide()) const {
    auto impls = all_implementations(precision);
    return std::move(impls[static_cast<std::size_t>(GetParam())]);
  }
};

TEST_P(DctArrayTest, SimulatorMatchesFunctionalModelBitExactly) {
  // Both precisions: the paper's 8-bit ROMs as well as the wide ones.
  for (const DaPrecision precision : {DaPrecision::wide(), DaPrecision::paper()}) {
    auto impl = make(precision);
    const Netlist nl = impl->build_netlist();
    Simulator sim(nl);
    impl->drive_constants(sim);
    // The extremes of input_bits first (all +max, all -max-1), then
    // random blocks.
    const std::int64_t hi = (1ll << (impl->precision().input_bits - 1)) - 1;
    std::vector<IVec8> inputs(2);
    inputs[0].fill(hi);
    inputs[1].fill(-hi - 1);
    Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 25; ++trial)
      inputs.push_back(random_block(rng, impl->precision().input_bits));
    for (std::size_t trial = 0; trial < inputs.size(); ++trial) {
      const IVec8 want = impl->transform(inputs[trial]);
      const IVec8 got = run_da_transform(sim, inputs[trial], impl->serial_width());
      for (int u = 0; u < kN; ++u)
        ASSERT_EQ(got[static_cast<std::size_t>(u)], want[static_cast<std::size_t>(u)])
            << impl->name() << " rom_width " << precision.rom_width << " X" << u
            << " input " << trial;
    }
  }
}

TEST_P(DctArrayTest, BackToBackTransformsNeedNoFlush) {
  // The load cycle clears the accumulators, so consecutive transforms on
  // the same configured array must be independent.
  auto impl = make();
  const Netlist nl = impl->build_netlist();
  Simulator sim(nl);
  impl->drive_constants(sim);
  Rng rng(77);
  IVec8 first{};
  first.fill((1ll << (impl->precision().input_bits - 1)) - 1);  // saturate state
  (void)run_da_transform(sim, first, impl->serial_width());
  const IVec8 x = random_block(rng, impl->precision().input_bits);
  const IVec8 got = run_da_transform(sim, x, impl->serial_width());
  const IVec8 want = impl->transform(x);
  for (int u = 0; u < kN; ++u)
    ASSERT_EQ(got[static_cast<std::size_t>(u)], want[static_cast<std::size_t>(u)]) << u;
}

TEST_P(DctArrayTest, CompilesOntoDaArrayAndExtractedDesignStillMatches) {
  auto impl = make();
  const Netlist nl = impl->build_netlist();

  // Size the fabric from the census (CORDIC1 needs 12 Mem sites).
  const ArrayArch arch = ArrayArch::distributed_arithmetic(12, 8, 4);
  ASSERT_GE(arch.count_of(ClusterKind::kMem), nl.census().mem_clusters) << impl->name();

  map::FlowParams params;
  params.place.seed = 5;
  const map::CompiledDesign design = map::compile(nl, arch, params);
  EXPECT_TRUE(design.routes.success);
  EXPECT_GT(design.timing.fmax_mhz, 0.0);
  EXPECT_GT(design.bitstream_size_bits(), 0);

  const map::ExtractedDesign extracted = map::extract_design(arch, design.bitstream);
  EXPECT_EQ(extracted.netlist.validate(), "");

  Simulator sim(extracted.netlist);
  impl->drive_constants(sim);
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const IVec8 x = random_block(rng, impl->precision().input_bits);
    const IVec8 want = impl->transform(x);
    const IVec8 got = run_da_transform(sim, x, impl->serial_width());
    for (int u = 0; u < kN; ++u)
      ASSERT_EQ(got[static_cast<std::size_t>(u)], want[static_cast<std::size_t>(u)])
          << impl->name() << " X" << u;
  }
}

TEST_P(DctArrayTest, ActivityIsNonZeroAfterWorkload) {
  auto impl = make();
  const Netlist nl = impl->build_netlist();
  Simulator sim(nl);
  impl->drive_constants(sim);
  Rng rng(5);
  for (int t = 0; t < 4; ++t)
    (void)run_da_transform(sim, random_block(rng, impl->precision().input_bits),
                           impl->serial_width());
  EXPECT_GT(sim.total_toggles(), 0u);
  EXPECT_EQ(sim.cycle(), 4u * static_cast<unsigned>(impl->cycles_per_transform()));
}

std::string impl_name_of(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"da_basic", "mixed_rom",    "cordic1",
                                "cordic2",  "scc_even_odd", "scc_full"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllSix, DctArrayTest, ::testing::Range(0, 6), impl_name_of);

}  // namespace
}  // namespace dsra::dct
