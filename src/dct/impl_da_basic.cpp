// Fig 4: basic Distributed-Arithmetic DCT (paper section 3.1).
//
// Eight parallel-to-serial shift registers feed the same 8-bit address to
// eight 256-word LUTs (one per output coefficient), each followed by a
// shift-accumulator. One transform takes input_bits serial cycles.
#include "common/ints.hpp"
#include "dct/impl.hpp"

namespace dsra::dct {

namespace {

class DaBasicImpl final : public DctImplementation {
 public:
  explicit DaBasicImpl(DaPrecision p) : DctImplementation(p) {
    const Mat8& m = dct8_matrix();
    for (int u = 0; u < kN; ++u) {
      std::vector<double> row(m[u].begin(), m[u].end());
      luts_[static_cast<std::size_t>(u)] =
          build_da_lut(quantize_row(row, prec_.coeff_frac_bits), prec_.rom_width);
    }
  }

  [[nodiscard]] std::string name() const override { return "da_basic"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 4"; }
  [[nodiscard]] std::string description() const override {
    return "bit-serial DA: 8 shift registers, 8x256-word LUTs, 8 shift-accumulators";
  }
  [[nodiscard]] int serial_width() const override {
    return round_up_to_element(prec_.input_bits);
  }

  [[nodiscard]] bool affine_datapath() const override {
    return all_linear(luts_) && serial_width() >= prec_.input_bits;
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    IVec8 serial{};
    for (int i = 0; i < kN; ++i)
      serial[static_cast<std::size_t>(i)] =
          wrap_to_width(x[static_cast<std::size_t>(i)], serial_width());
    IVec8 out{};
    for (int u = 0; u < kN; ++u)
      out[static_cast<std::size_t>(u)] =
          da_eval(luts_[static_cast<std::size_t>(u)], serial, serial_width(), prec_.acc_bits);
    return out;
  }

  [[nodiscard]] Netlist build_netlist() const override {
    Netlist nl("dct_" + name());
    const DaControls ctl = add_da_controls(nl);
    const int ws = serial_width();

    std::vector<NetId> bits;
    for (int i = 0; i < kN; ++i) {
      const NetId x = nl.add_input("x" + std::to_string(i), ws);
      bits.push_back(add_shift_reg(nl, "sr" + std::to_string(i), x, ws, ctl.load, ctl.en));
    }
    for (int u = 0; u < kN; ++u) {
      const NetId y =
          add_da_unit(nl, "u" + std::to_string(u), bits, luts_[static_cast<std::size_t>(u)],
                      prec_.rom_width, prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
      nl.add_output("X" + std::to_string(u), y);
    }
    return nl;
  }

 private:
  std::array<DaLut, kN> luts_;
};

/// Fig 4 with the paper's exact widths: the LSB-first datapath with 16-bit
/// truncating shift-accumulators. The raw output word equals the exact DA
/// value scaled by 2^(addend_shift - input_bits + 1) = 2^-4, plus bounded
/// truncation error.
class Fig4ExactImpl final : public DctImplementation {
 public:
  Fig4ExactImpl() : DctImplementation(DaPrecision::paper()) {
    const Mat8& m = dct8_matrix();
    for (int u = 0; u < kN; ++u) {
      std::vector<double> row(m[u].begin(), m[u].end());
      luts_[static_cast<std::size_t>(u)] =
          build_da_lut(quantize_row(row, prec_.coeff_frac_bits), prec_.rom_width).words;
    }
  }

  [[nodiscard]] std::string name() const override { return "da_basic_fig4_exact"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 4 (exact labels)"; }
  [[nodiscard]] std::string description() const override {
    return "12-bit inputs, 256x8 ROMs, 16-bit truncating shift-accumulators";
  }
  [[nodiscard]] int serial_width() const override { return prec_.input_bits; }

  [[nodiscard]] std::array<Readout, kN> readout() const override {
    // raw = exact_DA * 2^(kAddendShift - B + 1); exact_DA carries
    // coeff_frac_bits of fraction -> effective fraction bits:
    std::array<Readout, kN> r{};
    r.fill({0, prec_.coeff_frac_bits + kAddendShift - prec_.input_bits + 1, 1.0});
    return r;
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    IVec8 serial{};
    for (int i = 0; i < kN; ++i)
      serial[static_cast<std::size_t>(i)] =
          wrap_to_width(x[static_cast<std::size_t>(i)], serial_width());
    IVec8 out{};
    for (int u = 0; u < kN; ++u)
      out[static_cast<std::size_t>(u)] = da_eval_trunc(
          luts_[static_cast<std::size_t>(u)], serial, serial_width(), kAccBits, kAddendShift);
    return out;
  }

  [[nodiscard]] Netlist build_netlist() const override {
    Netlist nl("dct_" + name());
    const DaControls ctl = add_da_controls(nl);
    const int ws = serial_width();

    std::vector<NetId> bits;
    for (int i = 0; i < kN; ++i) {
      const NetId x = nl.add_input("x" + std::to_string(i), ws);
      const NodeId sr = nl.add_node("sr" + std::to_string(i),
                                    AddShiftCfg{ws, AddShiftOp::kShiftRegLsb, 0, false});
      nl.connect_input(sr, "d", x);
      nl.connect_input(sr, "load", ctl.load);
      nl.connect_input(sr, "en", ctl.en);
      bits.push_back(nl.output_net(sr, "q"));
    }
    for (int u = 0; u < kN; ++u) {
      MemCfg mem;
      mem.words = 256;
      mem.width = prec_.rom_width;
      mem.addr_mode = MemAddrMode::kBit;
      mem.contents = luts_[static_cast<std::size_t>(u)];
      const NodeId rom = nl.add_node("u" + std::to_string(u) + "_rom", mem);
      for (std::size_t i = 0; i < bits.size(); ++i)
        nl.connect_input(rom, "a" + std::to_string(i), bits[i]);
      const NodeId acc =
          nl.add_node("u" + std::to_string(u) + "_acc",
                      AddShiftCfg{kAccBits, AddShiftOp::kShiftAccTrunc, kAddendShift, false});
      nl.connect_input(acc, "a", nl.output_net(rom, "q"));
      nl.connect_input(acc, "clr", ctl.load);
      nl.connect_input(acc, "en", ctl.en);
      nl.connect_input(acc, "sub", ctl.sub);
      nl.add_output("X" + std::to_string(u), nl.output_net(acc, "y"));
    }
    return nl;
  }

 private:
  static constexpr int kAccBits = 16;     ///< Fig 4: "16-bit Shift Acc"
  static constexpr int kAddendShift = 7;  ///< 8-bit ROM word at the acc top

  std::array<std::vector<std::int64_t>, kN> luts_;
};

}  // namespace

std::unique_ptr<DctImplementation> make_da_basic(DaPrecision p) {
  return std::make_unique<DaBasicImpl>(p);
}

std::unique_ptr<DctImplementation> make_da_basic_fig4_exact() {
  return std::make_unique<Fig4ExactImpl>();
}

}  // namespace dsra::dct
