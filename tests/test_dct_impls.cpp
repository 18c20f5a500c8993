// Functional correctness of the six DCT implementations (Figs 4-9):
// accuracy against the double-precision reference, bit-exactness of the
// DA machinery, scaling metadata, and Table 1 resource counts.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "dct/impl.hpp"
#include "dct/reference.hpp"

namespace dsra::dct {
namespace {

IVec8 random_block(Rng& rng, int bits) {
  IVec8 x{};
  const std::int64_t hi = (1ll << (bits - 1)) - 1;
  for (auto& v : x) v = rng.next_range(-hi - 1, hi);
  return x;
}

class DctImplTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<DctImplementation> make() const {
    auto impls = all_implementations(DaPrecision::wide());
    return std::move(impls[static_cast<std::size_t>(GetParam())]);
  }
};

TEST_P(DctImplTest, MatchesReferenceOnRandomInputs) {
  auto impl = make();
  Rng rng(42 + static_cast<std::uint64_t>(GetParam()));
  // Error bound: coefficient quantisation (2^-f per coeff, 8 coeffs, inputs
  // up to 2^11) plus margin for the fold stages.
  const double tol =
      8.0 * 2048.0 / std::pow(2.0, impl->precision().coeff_frac_bits) * 2.0 + 1e-6;
  for (int trial = 0; trial < 200; ++trial) {
    const IVec8 x = random_block(rng, impl->precision().input_bits);
    Vec8 xd{};
    for (int i = 0; i < kN; ++i) xd[static_cast<std::size_t>(i)] = static_cast<double>(x[static_cast<std::size_t>(i)]);
    const Vec8 want = dct8(xd);
    const Vec8 got = impl->transform_real(x);
    for (int u = 0; u < kN; ++u)
      ASSERT_NEAR(got[static_cast<std::size_t>(u)], want[static_cast<std::size_t>(u)], tol)
          << impl->name() << " output " << u << " trial " << trial;
  }
}

TEST_P(DctImplTest, DcInputProducesDcOnlyOutput) {
  auto impl = make();
  IVec8 x{};
  x.fill(100);
  const Vec8 got = impl->transform_real(x);
  // X0 = sqrt(8) * 100, all others ~0.
  EXPECT_NEAR(got[0], std::sqrt(8.0) * 100.0, 1.0);
  for (int u = 1; u < kN; ++u) EXPECT_NEAR(got[static_cast<std::size_t>(u)], 0.0, 1.0) << u;
}

TEST_P(DctImplTest, LinearityHoldsInRawDomain) {
  auto impl = make();
  Rng rng(7);
  // The datapath is linear in the inputs (no rounding between stages in
  // wide mode): T(a) + T(b) == T(a+b) when no overflow occurs, up to the
  // constant rounding offset CORDIC2 injects once per transform.
  for (int trial = 0; trial < 50; ++trial) {
    IVec8 a = random_block(rng, 10), b = random_block(rng, 10), sum{};
    for (int i = 0; i < kN; ++i)
      sum[static_cast<std::size_t>(i)] = a[static_cast<std::size_t>(i)] + b[static_cast<std::size_t>(i)];
    const IVec8 ta = impl->transform(a), tb = impl->transform(b), ts = impl->transform(sum);
    const IVec8 zero_out = impl->transform(IVec8{});
    for (int u = 0; u < kN; ++u)
      ASSERT_EQ(ts[static_cast<std::size_t>(u)] + zero_out[static_cast<std::size_t>(u)],
                ta[static_cast<std::size_t>(u)] + tb[static_cast<std::size_t>(u)])
          << impl->name() << " output " << u;
  }
}

TEST_P(DctImplTest, ZeroInputGivesRoundingOffsetOnly) {
  auto impl = make();
  const IVec8 out = impl->transform(IVec8{});
  for (int u = 0; u < kN; ++u)
    EXPECT_NEAR(impl->to_real(u, out[static_cast<std::size_t>(u)]), 0.0, 1e-9)
        << impl->name() << " output " << u;
}

TEST_P(DctImplTest, NetlistIsValid) {
  auto impl = make();
  const Netlist nl = impl->build_netlist();
  EXPECT_EQ(nl.validate(), "");
  EXPECT_EQ(nl.inputs().size() >= 11u, true);  // x0..x7 + load/en/sub
  EXPECT_EQ(nl.outputs().size(), 8u);
}

std::string impl_name_of(const ::testing::TestParamInfo<int>& info) {
  static const char* names[] = {"da_basic", "mixed_rom",    "cordic1",
                                "cordic2",  "scc_even_odd", "scc_full"};
  return names[info.param];
}

INSTANTIATE_TEST_SUITE_P(AllSix, DctImplTest, ::testing::Range(0, 6), impl_name_of);

// --- DA look-up tables: the linear form and the bit-serial loop ----------

TEST(DaLut, EveryWideRomIsLinear) {
  // Each ROM the six wide implementations map is the unsaturated LUT of
  // its own single-input words, so their transforms take the dot-product
  // form of da_eval.
  for (const auto& impl : all_implementations(DaPrecision::wide())) {
    int roms = 0;
    const Netlist nl = impl->build_netlist();
    for (const auto& node : nl.nodes()) {
      const auto* mem = std::get_if<MemCfg>(&node.config);
      if (mem == nullptr) continue;
      ++roms;
      std::vector<std::int64_t> weights;
      for (std::size_t bit = 1; bit < mem->contents.size(); bit <<= 1)
        weights.push_back(mem->contents[bit]);
      const DaLut lut = build_da_lut(weights, mem->width);
      EXPECT_TRUE(lut.linear) << impl->name() << " " << node.name;
      EXPECT_EQ(lut.words, mem->contents) << impl->name() << " " << node.name;
    }
    EXPECT_GT(roms, 0) << impl->name();
  }
}

TEST(DaLut, DotProductFormEqualsTheSerialLoop) {
  // Random coefficient sets, some of which saturate their ROM words:
  // da_eval must equal the cycle-by-cycle loop either way, including at
  // the extremes of the serial width, with bits above it (which the loop
  // never shifts out) and with a narrow accumulator that wraps.
  Rng rng(21);
  int linear = 0, saturating = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const int inputs = static_cast<int>(rng.next_range(1, 8));
    const int rom_width = static_cast<int>(rng.next_range(2, 5)) * 4;
    std::vector<std::int64_t> coeffs(static_cast<std::size_t>(inputs));
    for (auto& c : coeffs) c = rng.next_range(-300, 300);
    const DaLut lut = build_da_lut(coeffs, rom_width);
    (lut.linear ? linear : saturating) += 1;
    const int ws = static_cast<int>(rng.next_range(1, 4)) * 4;
    const int acc_bits = trial % 2 == 0 ? 32 : 16;
    const std::int64_t hi = (1ll << (ws - 1)) - 1;
    std::vector<std::int64_t> x(static_cast<std::size_t>(inputs));
    const std::int64_t span = trial % 5 == 2 ? 1ll << 20 : hi + 1;
    for (auto& v : x)
      v = trial % 5 == 0 ? hi : trial % 5 == 1 ? -hi - 1 : rng.next_range(-span, span - 1);
    ASSERT_EQ(da_eval(lut, x, ws, acc_bits), da_eval_serial(lut.words, x, ws, acc_bits))
        << "trial " << trial << " linear " << lut.linear;
  }
  EXPECT_GT(linear, 0);
  EXPECT_GT(saturating, 0);
}

TEST(DaLut, SaturatingRomTakesTheSerialLoopAndMatchesItsNetlist) {
  // 100 + 100 = 200 does not fit an 8-bit word: the ROM saturates, so it
  // is not the sum of its single-input words.
  const std::vector<std::int64_t> coeffs = {100, 100, 100};
  const DaLut lut = build_da_lut(coeffs, 8);
  EXPECT_FALSE(lut.linear);
  EXPECT_EQ(lut.words[3], 127);
  EXPECT_EQ(lut.words[7], 127);

  const int ws = 12, acc_bits = 32;
  Netlist nl("saturating_da");
  const DaControls ctl = add_da_controls(nl);
  std::vector<NetId> bits;
  for (int i = 0; i < 3; ++i) {
    const NetId x = nl.add_input("x" + std::to_string(i), ws);
    bits.push_back(add_shift_reg(nl, "sr" + std::to_string(i), x, ws, ctl.load, ctl.en));
  }
  nl.add_output("y", add_da_unit(nl, "u", bits, lut, 8, acc_bits, ctl.load, ctl.en, ctl.sub));
  ASSERT_EQ(nl.validate(), "");

  Simulator sim(nl);
  Rng rng(22);
  for (int trial = 0; trial < 40; ++trial) {
    std::array<std::int64_t, 3> x{};
    for (auto& v : x) v = trial == 0 ? 2047 : trial == 1 ? -2048 : rng.next_range(-2048, 2047);
    for (int i = 0; i < 3; ++i)
      sim.set_input("x" + std::to_string(i), x[static_cast<std::size_t>(i)]);
    sim.set_input("load", 1);
    sim.set_input("en", 0);
    sim.set_input("sub", 0);
    sim.step();
    sim.set_input("load", 0);
    sim.set_input("en", 1);
    for (int k = 0; k < ws; ++k) {
      sim.set_input("sub", k == 0 ? 1 : 0);  // MSB first: the sign cycle leads
      sim.step();
    }
    ASSERT_EQ(sim.output("y"), da_eval(lut, x, ws, acc_bits)) << "trial " << trial;
  }
}

// --- Table 1 (the paper's area-usage table) ------------------------------

struct Table1Row {
  const char* impl;
  int adders, subtracters, shift_regs, accs, mems, total;
};

TEST(Table1, ClusterCountsMatchThePaperExactly) {
  // Paper Table 1 columns; da_basic (Fig 4) is not a column but must match
  // the basic-DA budget (same as SCC).
  const Table1Row rows[] = {
      {"da_basic", 0, 0, 8, 8, 8, 24},
      {"mixed_rom", 4, 4, 8, 8, 8, 32},
      {"cordic1", 8, 8, 8, 12, 12, 48},
      {"cordic2", 10, 10, 6, 6, 6, 38},
      {"scc_even_odd", 4, 4, 8, 8, 8, 32},
      {"scc_full", 0, 0, 8, 8, 8, 24},
  };
  auto impls = all_implementations();
  ASSERT_EQ(impls.size(), 6u);
  for (std::size_t k = 0; k < impls.size(); ++k) {
    const auto census = impls[k]->build_netlist().census();
    const Table1Row& want = rows[k];
    EXPECT_EQ(impls[k]->name(), want.impl);
    EXPECT_EQ(census.adders, want.adders) << want.impl;
    EXPECT_EQ(census.subtracters, want.subtracters) << want.impl;
    EXPECT_EQ(census.shift_regs, want.shift_regs) << want.impl;
    EXPECT_EQ(census.accumulators, want.accs) << want.impl;
    EXPECT_EQ(census.mem_clusters, want.mems) << want.impl;
    EXPECT_EQ(census.total(), want.total) << want.impl;
  }
}

TEST(Table1, SccFullUsesSixteenTimesTheRomOfSccEvenOdd) {
  // Paper: "The implementation requires 256 words ROM which is 16 times
  // more than the previous implementation".
  const auto eo = make_scc_even_odd()->build_netlist();
  const auto full = make_scc_full()->build_netlist();
  EXPECT_EQ(full.rom_bits(), 16 * eo.rom_bits());
}

TEST(Table1, CyclesPerTransformTrackSerialWidth) {
  for (const auto& impl : all_implementations()) {
    EXPECT_EQ(impl->cycles_per_transform(), impl->serial_width() + 1) << impl->name();
    EXPECT_GE(impl->serial_width(), impl->precision().input_bits) << impl->name();
  }
}

}  // namespace
}  // namespace dsra::dct
