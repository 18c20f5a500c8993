// Fig 5: Mixed-ROM DCT (paper section 3.2).
//
// The 8x8 DCT matrix reduces to two 4x4 matrices through the even/odd
// symmetry M[u][7-i] = +/- M[u][i]: input butterflies form sums
// s_i = x_i + x_{7-i} (driving the even coefficients) and differences
// d_i = x_i - x_{7-i} (driving the odd ones). The ROMs shrink from 256 to
// 16 words ("16 times less" - paper) at the cost of 4 adders and 4
// subtracters.
#include "common/ints.hpp"
#include "dct/impl.hpp"

namespace dsra::dct {

namespace {

class MixedRomImpl final : public DctImplementation {
 public:
  explicit MixedRomImpl(DaPrecision p) : DctImplementation(p) {
    const Mat8& m = dct8_matrix();
    for (int j = 0; j < 4; ++j) {
      const int ue = 2 * j;      // even output
      const int uo = 2 * j + 1;  // odd output
      std::vector<double> even_row, odd_row;
      for (int i = 0; i < 4; ++i) {
        even_row.push_back(m[ue][i]);  // M[ue][7-i] == M[ue][i]
        odd_row.push_back(m[uo][i]);   // M[uo][7-i] == -M[uo][i]
      }
      even_luts_[static_cast<std::size_t>(j)] =
          build_da_lut(quantize_row(even_row, prec_.coeff_frac_bits), prec_.rom_width);
      odd_luts_[static_cast<std::size_t>(j)] =
          build_da_lut(quantize_row(odd_row, prec_.coeff_frac_bits), prec_.rom_width);
    }
  }

  [[nodiscard]] std::string name() const override { return "mixed_rom"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 5"; }
  [[nodiscard]] std::string description() const override {
    return "even/odd 4x4 decomposition: input butterflies + 16-word ROMs";
  }
  [[nodiscard]] int serial_width() const override {
    // One butterfly of growth, padded to the 4-bit element granularity.
    return round_up_to_element(prec_.input_bits + 1);
  }

  [[nodiscard]] bool affine_datapath() const override {
    return all_linear(even_luts_) && all_linear(odd_luts_) &&
           serial_width() >= prec_.input_bits + 1;
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    const int ws = serial_width();
    std::array<std::int64_t, 4> s{}, d{};
    for (int i = 0; i < 4; ++i) {
      s[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(7 - i)], ws);
      d[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(7 - i)], ws);
    }
    IVec8 out{};
    for (int j = 0; j < 4; ++j) {
      out[static_cast<std::size_t>(2 * j)] =
          da_eval(even_luts_[static_cast<std::size_t>(j)], s, ws, prec_.acc_bits);
      out[static_cast<std::size_t>(2 * j + 1)] =
          da_eval(odd_luts_[static_cast<std::size_t>(j)], d, ws, prec_.acc_bits);
    }
    return out;
  }

  [[nodiscard]] Netlist build_netlist() const override {
    Netlist nl("dct_" + name());
    const DaControls ctl = add_da_controls(nl);
    const int ws = serial_width();

    std::array<NetId, kN> x{};
    for (int i = 0; i < kN; ++i)
      x[static_cast<std::size_t>(i)] = nl.add_input("x" + std::to_string(i), ws);

    std::vector<NetId> s_bits, d_bits;
    for (int i = 0; i < 4; ++i) {
      const NodeId add = nl.add_node("bfly_s" + std::to_string(i),
                                     AddShiftCfg{ws, AddShiftOp::kAdd, 0, false});
      nl.connect_input(add, "a", x[static_cast<std::size_t>(i)]);
      nl.connect_input(add, "b", x[static_cast<std::size_t>(7 - i)]);
      s_bits.push_back(
          add_shift_reg(nl, "sr_s" + std::to_string(i), nl.output_net(add, "y"), ws, ctl.load, ctl.en));

      const NodeId sub = nl.add_node("bfly_d" + std::to_string(i),
                                     AddShiftCfg{ws, AddShiftOp::kSub, 0, false});
      nl.connect_input(sub, "a", x[static_cast<std::size_t>(i)]);
      nl.connect_input(sub, "b", x[static_cast<std::size_t>(7 - i)]);
      d_bits.push_back(
          add_shift_reg(nl, "sr_d" + std::to_string(i), nl.output_net(sub, "y"), ws, ctl.load, ctl.en));
    }

    for (int j = 0; j < 4; ++j) {
      const NetId even = add_da_unit(nl, "even" + std::to_string(j), s_bits,
                                     even_luts_[static_cast<std::size_t>(j)], prec_.rom_width,
                                     prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
      nl.add_output("X" + std::to_string(2 * j), even);
      const NetId odd = add_da_unit(nl, "odd" + std::to_string(j), d_bits,
                                    odd_luts_[static_cast<std::size_t>(j)], prec_.rom_width,
                                    prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
      nl.add_output("X" + std::to_string(2 * j + 1), odd);
    }
    return nl;
  }

 private:
  std::array<DaLut, 4> even_luts_;
  std::array<DaLut, 4> odd_luts_;
};

}  // namespace

std::unique_ptr<DctImplementation> make_mixed_rom(DaPrecision p) {
  return std::make_unique<MixedRomImpl>(p);
}

}  // namespace dsra::dct
