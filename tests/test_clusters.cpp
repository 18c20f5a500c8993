// Cluster functional semantics (the paper's six cluster kinds), port
// metadata, configuration validation and the bitstream codec round-trip.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/cluster_eval.hpp"
#include "core/config_codec.hpp"

namespace dsra {
namespace {

/// Helper: evaluate a combinational cluster once.
std::vector<std::int64_t> comb(const ClusterConfig& cfg, std::vector<std::int64_t> in) {
  ClusterState st;
  st.reset(cfg);
  std::vector<std::int64_t> out(static_cast<std::size_t>(output_count(cfg)), 0);
  eval_comb(cfg, st, in, out);
  return out;
}

class WidthParam : public ::testing::TestWithParam<int> {};

TEST_P(WidthParam, AbsDiffComputesAllThreeOps) {
  const int w = GetParam();
  Rng rng(10);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t a = rng.next_range(-(1ll << (w - 2)), (1ll << (w - 2)) - 1);
    const std::int64_t b = rng.next_range(-(1ll << (w - 2)), (1ll << (w - 2)) - 1);
    EXPECT_EQ(comb(AbsDiffCfg{w, AbsDiffOp::kAdd, false}, {a, b})[0], wrap_to_width(a + b, w));
    EXPECT_EQ(comb(AbsDiffCfg{w, AbsDiffOp::kSub, false}, {a, b})[0], wrap_to_width(a - b, w));
    EXPECT_EQ(comb(AbsDiffCfg{w, AbsDiffOp::kAbsDiff, false}, {a, b})[0],
              wrap_to_width(std::abs(a - b), w));
  }
}

TEST_P(WidthParam, AddShiftConstantShifts) {
  const int w = GetParam();
  const std::int64_t v = 5;
  EXPECT_EQ(comb(AddShiftCfg{w, AddShiftOp::kShiftLeft, 2, false}, {v})[0],
            wrap_to_width(v << 2, w));
  EXPECT_EQ(comb(AddShiftCfg{w, AddShiftOp::kShiftRight, 1, false}, {-8})[0], -4);
}

INSTANTIATE_TEST_SUITE_P(Widths, WidthParam, ::testing::Values(8, 12, 16, 24, 32));

TEST(Clusters, MuxRegSelectsAndRegisters) {
  // Combinational: output follows sel immediately.
  EXPECT_EQ(comb(MuxRegCfg{8, false}, {11, 22, 0})[0], 11);
  EXPECT_EQ(comb(MuxRegCfg{8, false}, {11, 22, 1})[0], 22);

  // Registered: output lags one clock.
  const MuxRegCfg cfg{8, true};
  ClusterState st;
  st.reset(cfg);
  std::vector<std::int64_t> out(1, 0);
  eval_comb(cfg, st, std::vector<std::int64_t>{7, 9, 0}, out);
  EXPECT_EQ(out[0], 0);  // reset state
  eval_seq(cfg, st, std::vector<std::int64_t>{7, 9, 0});
  eval_comb(cfg, st, std::vector<std::int64_t>{1, 2, 0}, out);
  EXPECT_EQ(out[0], 7);
}

TEST(Clusters, AddAccAccumulatesWithClearAndEnable) {
  const AddAccCfg cfg{16, AddAccOp::kAccumulate, false};
  ClusterState st;
  st.reset(cfg);
  auto clock = [&](std::int64_t a, std::int64_t clr, std::int64_t en) {
    eval_seq(cfg, st, std::vector<std::int64_t>{a, clr, en});
  };
  clock(5, 0, 1);
  clock(7, 0, 1);
  clock(100, 0, 0);  // disabled: ignored
  std::vector<std::int64_t> out(1, 0);
  eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 0}, out);
  EXPECT_EQ(out[0], 12);
  clock(0, 1, 0);  // clear
  eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 0}, out);
  EXPECT_EQ(out[0], 0);
}

TEST(Clusters, CompMinMaxOfTwo) {
  EXPECT_EQ(comb(CompCfg{16, CompOp::kMin2}, {5, 9})[0], 5);
  EXPECT_EQ(comb(CompCfg{16, CompOp::kMax2}, {5, 9})[0], 9);
  EXPECT_EQ(comb(CompCfg{16, CompOp::kMin2}, {-5, 3})[0], -5);
}

TEST(Clusters, CompRunningMinTracksValueAndIndex) {
  const CompCfg cfg{16, CompOp::kRunMin};
  ClusterState st;
  st.reset(cfg);
  const std::vector<std::int64_t> stream = {50, 30, 70, 30, 10, 90};
  for (const std::int64_t v : stream)
    eval_seq(cfg, st, std::vector<std::int64_t>{v, 0, 1});
  std::vector<std::int64_t> out(2, 0);
  eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 0}, out);
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[1], 4);  // first strict minimum at index 4
  // Reset clears.
  eval_seq(cfg, st, std::vector<std::int64_t>{0, 1, 0});
  eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 0}, out);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 0);
}

TEST(Clusters, CompRunningMinKeepsFirstOnTies) {
  const CompCfg cfg{16, CompOp::kRunMin};
  ClusterState st;
  st.reset(cfg);
  for (const std::int64_t v : {40, 20, 20, 20})
    eval_seq(cfg, st, std::vector<std::int64_t>{v, 0, 1});
  std::vector<std::int64_t> out(2, 0);
  eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 0}, out);
  EXPECT_EQ(out[1], 1);  // first 20
}

TEST(Clusters, ShiftRegSerialisesMsbFirst) {
  const AddShiftCfg cfg{8, AddShiftOp::kShiftReg, 0, false};
  ClusterState st;
  st.reset(cfg);
  // Load 0b10110010 (-78 as signed 8-bit).
  eval_seq(cfg, st, std::vector<std::int64_t>{wrap_to_width(0b10110010, 8), 1, 0});
  std::string bits;
  for (int k = 0; k < 8; ++k) {
    std::vector<std::int64_t> out(1, 0);
    eval_comb(cfg, st, std::vector<std::int64_t>{0, 0, 1}, out);
    bits += out[0] ? '1' : '0';
    eval_seq(cfg, st, std::vector<std::int64_t>{0, 0, 1});
  }
  EXPECT_EQ(bits, "10110010");
}

TEST(Clusters, ShiftAccImplementsExactTwosComplementDa) {
  // acc over bits of value v with a 1-entry "LUT" == identity: result = v.
  const AddShiftCfg acc_cfg{32, AddShiftOp::kShiftAcc, 0, false};
  Rng rng(11);
  for (int trial = 0; trial < 100; ++trial) {
    const int width = 12;
    const std::int64_t v = rng.next_range(-(1ll << 11), (1ll << 11) - 1);
    ClusterState st;
    st.reset(acc_cfg);
    for (int k = width - 1; k >= 0; --k) {
      const std::int64_t bit = (static_cast<std::uint64_t>(v) >> k) & 1;
      // inputs: a, clr, en, sub
      eval_seq(acc_cfg, st,
               std::vector<std::int64_t>{bit, 0, 1, k == width - 1 ? 1 : 0});
    }
    std::vector<std::int64_t> out(1, 0);
    eval_comb(acc_cfg, st, std::vector<std::int64_t>{0, 0, 0, 0}, out);
    EXPECT_EQ(out[0], v);
  }
}

TEST(Clusters, MemRomBitAddressing) {
  MemCfg cfg;
  cfg.words = 16;
  cfg.width = 8;
  cfg.addr_mode = MemAddrMode::kBit;
  cfg.contents.resize(16);
  for (int i = 0; i < 16; ++i) cfg.contents[static_cast<std::size_t>(i)] = i * 3 - 20;
  for (int addr = 0; addr < 16; ++addr) {
    std::vector<std::int64_t> in = {addr & 1, (addr >> 1) & 1, (addr >> 2) & 1, (addr >> 3) & 1};
    EXPECT_EQ(comb(cfg, in)[0], addr * 3 - 20);
  }
}

TEST(Clusters, MemRamWritesAndReadsBack) {
  MemCfg cfg;
  cfg.words = 16;
  cfg.width = 12;
  cfg.mode = MemMode::kRam;
  cfg.addr_mode = MemAddrMode::kWord;
  ClusterState st;
  st.reset(cfg);
  // inputs: addr, din, we
  eval_seq(cfg, st, std::vector<std::int64_t>{5, -100, 1});
  eval_seq(cfg, st, std::vector<std::int64_t>{9, 77, 1});
  eval_seq(cfg, st, std::vector<std::int64_t>{3, 1, 0});  // we=0: no write
  std::vector<std::int64_t> out(1, 0);
  eval_comb(cfg, st, std::vector<std::int64_t>{5, 0, 0}, out);
  EXPECT_EQ(out[0], -100);
  eval_comb(cfg, st, std::vector<std::int64_t>{9, 0, 0}, out);
  EXPECT_EQ(out[0], 77);
  eval_comb(cfg, st, std::vector<std::int64_t>{3, 0, 0}, out);
  EXPECT_EQ(out[0], 0);
}

TEST(Clusters, ValidationCatchesIllegalConfigs) {
  EXPECT_NE(validate(AddShiftCfg{13, AddShiftOp::kAdd, 0, false}), "");
  EXPECT_NE(validate(AddShiftCfg{16, AddShiftOp::kShiftLeft, 40, false}), "");
  MemCfg bad_words;
  bad_words.words = 12;  // not a power of two
  EXPECT_NE(validate(bad_words), "");
  MemCfg bad_contents;
  bad_contents.words = 4;
  bad_contents.width = 4;
  bad_contents.contents = {100, 0, 0, 0};  // does not fit 4 bits
  EXPECT_NE(validate(bad_contents), "");
  EXPECT_EQ(validate(AddShiftCfg{16, AddShiftOp::kAdd, 0, false}), "");
}

TEST(Clusters, PortMetadataConsistency) {
  for (const ClusterConfig& cfg :
       {ClusterConfig{MuxRegCfg{8, true}}, ClusterConfig{AbsDiffCfg{12, AbsDiffOp::kAbsDiff, false}},
        ClusterConfig{AddAccCfg{16, AddAccOp::kAccumulate, false}},
        ClusterConfig{CompCfg{16, CompOp::kRunMin}},
        ClusterConfig{AddShiftCfg{16, AddShiftOp::kShiftAcc, 0, false}}, ClusterConfig{[] {
          MemCfg m;
          m.words = 256;
          m.width = 8;
          return m;
        }()}}) {
    const auto ports = ports_of(cfg);
    EXPECT_FALSE(ports.empty());
    int outs = 0;
    for (const auto& p : ports) {
      EXPECT_GE(port_index(cfg, p.name), 0);
      if (p.dir == PortDir::kOut) ++outs;
    }
    EXPECT_EQ(outs, output_count(cfg));
    EXPECT_EQ(static_cast<int>(ports.size()) - outs, input_count(cfg));
  }
}

TEST(Clusters, RegisteredClustersHaveNoCombPath) {
  EXPECT_FALSE(has_comb_path(MuxRegCfg{8, true}));
  EXPECT_TRUE(has_comb_path(MuxRegCfg{8, false}));
  EXPECT_FALSE(has_comb_path(AddShiftCfg{16, AddShiftOp::kShiftAcc, 0, false}));
  EXPECT_TRUE(has_comb_path(MemCfg{}));  // asynchronous ROM read
}

TEST(ConfigCodec, RoundTripsEveryKind) {
  std::vector<ClusterConfig> configs = {
      MuxRegCfg{16, true},
      AbsDiffCfg{12, AbsDiffOp::kAbsDiff, true},
      AddAccCfg{20, AddAccOp::kAccumulate, false},
      CompCfg{16, CompOp::kRunMax},
      AddShiftCfg{24, AddShiftOp::kShiftAcc, 0, false},
  };
  MemCfg mem;
  mem.words = 16;
  mem.width = 10;
  mem.addr_mode = MemAddrMode::kBit;
  mem.contents.resize(16);
  Rng rng(12);
  for (auto& v : mem.contents) v = rng.next_range(-512, 511);
  configs.push_back(mem);

  for (const auto& cfg : configs) {
    BitWriter w;
    encode_config(cfg, w);
    BitReader r(w.bytes());
    const ClusterConfig back = decode_config(r);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(back, cfg);
  }
}

TEST(ConfigCodec, MemoryConfigBitsDominatedByContents) {
  MemCfg mem;
  mem.words = 256;
  mem.width = 8;
  EXPECT_GE(config_bit_count(mem), 256 * 8);
  EXPECT_LT(config_bit_count(AddShiftCfg{16, AddShiftOp::kAdd, 0, false}), 32);
}

}  // namespace
}  // namespace dsra
