// The truncating LSB-first shift-accumulator (the real form of Fig 4's
// 16-bit accumulator): cluster semantics, bit-exact netlist equivalence,
// and the accuracy trade against the exact MSB-first accumulator.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/sim.hpp"
#include "dct/impl.hpp"
#include "dct/reference.hpp"

namespace dsra::dct {
namespace {

TEST(ShiftRegLsb, SerialisesLsbFirst) {
  const AddShiftCfg cfg{8, AddShiftOp::kShiftRegLsb, 0, false};
  ClusterState st;
  st.reset(cfg);
  eval_seq(cfg, st, std::vector<std::int64_t>{wrap_to_width(0b10110010, 8), 1, 0});
  std::string bits;
  for (int k = 0; k < 8; ++k) {
    std::vector<std::int64_t> out(1, 0);
    eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 1}, out);
    bits += out[0] ? '1' : '0';
    eval_seq(cfg, st, std::vector<std::int64_t>{0, 0, 1});
  }
  EXPECT_EQ(bits, "01001101");  // LSB first
}

TEST(ShiftAccTrunc, IdentityLutRecoversScaledValue) {
  // DA over one input with coefficient 1: result = v * 2^(s - B + 1),
  // up to truncation.
  Rng rng(3);
  const int width = 10, acc_bits = 24, s = 12;
  for (int trial = 0; trial < 200; ++trial) {
    const std::int64_t v = rng.next_range(-(1ll << 9), (1ll << 9) - 1);
    const std::vector<std::int64_t> lut = {0, 1};
    const std::array<std::int64_t, 1> in = {wrap_to_width(v, width)};
    const std::int64_t got = da_eval_trunc(lut, in, width, acc_bits, s);
    const double scale = std::ldexp(1.0, s - width + 1);
    EXPECT_NEAR(static_cast<double>(got), static_cast<double>(v) * scale, 2.0) << v;
  }
}

TEST(ShiftAccTrunc, TracksExactDaWithinTwoUlps) {
  Rng rng(4);
  for (int trial = 0; trial < 300; ++trial) {
    // Random 4-coefficient LUT, 12-bit inputs.
    std::vector<std::int64_t> coeffs(4);
    for (auto& c : coeffs) c = rng.next_range(-100, 100);
    const auto lut = build_da_lut(coeffs, 12);
    std::array<std::int64_t, 4> in{};
    for (auto& v : in) v = rng.next_range(-2048, 2047);
    const int ws = 12, s = 10;
    const std::int64_t exact = da_eval(lut, in, ws, 32);
    const std::int64_t trunc = da_eval_trunc(lut.words, in, ws, 32, s);
    const double scale = std::ldexp(1.0, s - ws + 1);
    EXPECT_NEAR(static_cast<double>(trunc), static_cast<double>(exact) * scale, 2.0);
  }
}

TEST(ShiftAccTrunc, SixteenBitAccumulatorMatchesFig4Labels) {
  // Fig 4: 12-bit inputs, 8-bit ROM words, *16-bit* shift-accumulator.
  // With addend shift 7 the datapath fits and the output approximates the
  // exact DA value / 2^4.
  Rng rng(5);
  const Mat8& m = dct8_matrix();
  std::vector<double> row(m[1].begin(), m[1].end());
  const auto lut = build_da_lut(quantize_row(row, 5), 8);  // 8-bit ROM
  double worst = 0.0;
  for (int trial = 0; trial < 200; ++trial) {
    IVec8 x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    const std::int64_t exact = da_eval(lut, x, 12, 32);
    const std::int64_t t16 = da_eval_trunc(lut.words, x, 12, 16, 7);
    const double scale = std::ldexp(1.0, 7 - 12 + 1);  // 2^-4
    worst = std::max(worst,
                     std::abs(static_cast<double>(t16) - static_cast<double>(exact) * scale));
  }
  EXPECT_LT(worst, 2.5) << "16-bit truncating accumulator must stay within ~2 ulps";
}

TEST(ShiftAccTrunc, NetlistMatchesFunctionalMirrorBitExactly) {
  // kShiftRegLsb -> 4-word ROM -> kShiftAccTrunc on the simulator vs
  // da_eval_trunc.
  const int ws = 12, acc_bits = 16, s = 7;
  std::vector<std::int64_t> coeffs = {37, -21};
  const auto lut = build_da_lut(coeffs, 8);

  Netlist nl("trunc_da");
  const NetId load = nl.add_input("load", 1);
  const NetId en = nl.add_input("en", 1);
  const NetId sub = nl.add_input("sub", 1);
  std::vector<NetId> bits;
  for (int i = 0; i < 2; ++i) {
    const NetId x = nl.add_input("x" + std::to_string(i), ws);
    const NodeId sr = nl.add_node("sr" + std::to_string(i),
                                  AddShiftCfg{ws, AddShiftOp::kShiftRegLsb, 0, false});
    nl.connect_input(sr, "d", x);
    nl.connect_input(sr, "load", load);
    nl.connect_input(sr, "en", en);
    bits.push_back(nl.output_net(sr, "q"));
  }
  MemCfg mem;
  mem.words = 4;
  mem.width = 8;
  mem.addr_mode = MemAddrMode::kBit;
  mem.contents = lut.words;
  const NodeId rom = nl.add_node("rom", mem);
  nl.connect_input(rom, "a0", bits[0]);
  nl.connect_input(rom, "a1", bits[1]);
  const NodeId acc = nl.add_node("acc", AddShiftCfg{acc_bits, AddShiftOp::kShiftAccTrunc, s, false});
  nl.connect_input(acc, "a", nl.output_net(rom, "q"));
  nl.connect_input(acc, "clr", load);
  nl.connect_input(acc, "en", en);
  nl.connect_input(acc, "sub", sub);
  nl.add_output("y", nl.output_net(acc, "y"));
  ASSERT_EQ(nl.validate(), "");

  Simulator sim(nl);
  Rng rng(6);
  for (int trial = 0; trial < 50; ++trial) {
    std::array<std::int64_t, 2> x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    sim.set_input("x0", x[0]);
    sim.set_input("x1", x[1]);
    sim.set_input("load", 1);
    sim.set_input("en", 0);
    sim.set_input("sub", 0);
    sim.step();
    sim.set_input("load", 0);
    sim.set_input("en", 1);
    // LSB-first: the sign (MSB) strobe fires on the LAST serial cycle.
    for (int k = 0; k < ws; ++k) {
      sim.set_input("sub", k == ws - 1 ? 1 : 0);
      sim.step();
    }
    EXPECT_EQ(sim.output("y"), da_eval_trunc(lut.words, x, ws, acc_bits, s)) << trial;
  }
}

TEST(Fig4Exact, SameClusterBudgetAsBasicDa) {
  auto impl = make_da_basic_fig4_exact();
  const ClusterCensus c = impl->build_netlist().census();
  EXPECT_EQ(c.shift_regs, 8);
  EXPECT_EQ(c.accumulators, 8);
  EXPECT_EQ(c.mem_clusters, 8);
  EXPECT_EQ(c.total(), 24);
  // Exactly the widths Fig 4 labels.
  EXPECT_EQ(impl->precision().input_bits, 12);
  EXPECT_EQ(impl->precision().rom_width, 8);
}

TEST(Fig4Exact, ArraySimulationMatchesModelBitExactly) {
  auto impl = make_da_basic_fig4_exact();
  const Netlist nl = impl->build_netlist();
  ASSERT_EQ(nl.validate(), "");
  Simulator sim(nl);
  Rng rng(9);
  for (int trial = 0; trial < 25; ++trial) {
    IVec8 x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    const IVec8 want = impl->transform(x);
    const IVec8 got = run_da_transform(sim, x, impl->serial_width(), /*lsb_first=*/true);
    for (int u = 0; u < kN; ++u)
      ASSERT_EQ(got[static_cast<std::size_t>(u)], want[static_cast<std::size_t>(u)]) << u;
  }
}

TEST(Fig4Exact, AccuracyDominatedByRomQuantisationNotTruncation) {
  // The 16-bit truncating accumulator loses at most ~2 ulps; the 8-bit ROM
  // quantisation dominates the error, so the exact-labels datapath tracks
  // the (already approximate) 8-bit-ROM MSB-first variant closely.
  auto exact_labels = make_da_basic_fig4_exact();
  auto msb_variant = make_da_basic(DaPrecision::paper());
  Rng rng(10);
  double worst = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    IVec8 x{};
    for (auto& v : x) v = rng.next_range(-2048, 2047);
    const Vec8 a = exact_labels->transform_real(x);
    const Vec8 b = msb_variant->transform_real(x);
    for (int u = 0; u < kN; ++u)
      worst = std::max(worst, std::abs(a[static_cast<std::size_t>(u)] -
                                       b[static_cast<std::size_t>(u)]));
  }
  EXPECT_LT(worst, 3.0);
}

TEST(ShiftAccTrunc, CensusCountsAsAccumulator) {
  Netlist nl("t");
  (void)nl.add_node("a", AddShiftCfg{16, AddShiftOp::kShiftAccTrunc, 7, false});
  (void)nl.add_node("b", AddShiftCfg{16, AddShiftOp::kShiftRegLsb, 0, false});
  EXPECT_EQ(nl.census().accumulators, 1);
  EXPECT_EQ(nl.census().shift_regs, 1);
}

}  // namespace
}  // namespace dsra::dct
