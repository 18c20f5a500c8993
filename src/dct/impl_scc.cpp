// Figs 8 & 9: Skew-Circular-Convolution DCT after Li (sections 3.5).
//
// Fig 8 (SccEvenOdd): the input fold (4 adders / 4 subtracters) splits the
// transform; the even half is the N/2 DCT as a 4-input DA, the odd half a
// length-4 *negacyclic* convolution - ROM contents are rotations of a
// single kernel h_b = cos(3^b pi/16) with separable signs (scc_tables).
// 16-word ROMs throughout.
//
// Fig 9 (SccFull): no input arithmetic at all. All 8 samples serialise
// into 256-word ROMs; the four odd-output ROMs realise one shared circular
// kernel applied to the permuted input ("the implementation requires 256
// words ROM, 16 times more than the previous implementation, but does not
// require adder/subtracters" - paper).
#include "common/ints.hpp"
#include "dct/impl.hpp"
#include "dct/scc_tables.hpp"

namespace dsra::dct {

namespace {

class SccEvenOddImpl final : public DctImplementation {
 public:
  explicit SccEvenOddImpl(DaPrecision p) : DctImplementation(p) {
    const Mat8& m = dct8_matrix();
    const Scc4Tables& t = scc4_tables();
    // Even half: direct 4-input DA rows over s (M[u][7-i] == M[u][i]).
    for (int j = 0; j < 4; ++j) {
      std::vector<double> row;
      for (int i = 0; i < 4; ++i) row.push_back(m[2 * j][i]);
      even_luts_[static_cast<std::size_t>(j)] = make_lut(row);
    }
    // Odd half: convolution row j computes output odd_u_of_row[j]. The
    // address bits arrive in exponent order D_a = d_{input_of_a[a]}; each
    // ROM stores 0.5 * sign_out(j) * sign_in(a) * negacyclic(j, a).
    for (int j = 0; j < 4; ++j) {
      std::vector<double> row;
      for (int a = 0; a < 4; ++a)
        row.push_back(0.5 * t.sign_out[static_cast<std::size_t>(j)] *
                      t.sign_in[static_cast<std::size_t>(a)] * t.negacyclic(j, a));
      odd_luts_[static_cast<std::size_t>(j)] = make_lut(row);
    }
  }

  [[nodiscard]] std::string name() const override { return "scc_even_odd"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 8"; }
  [[nodiscard]] std::string description() const override {
    return "Li's algorithm: fold + even 4-pt DA + odd skew-circular convolution";
  }
  [[nodiscard]] int serial_width() const override {
    // One fold stage of growth, padded to element granularity.
    return round_up_to_element(prec_.input_bits + 1);
  }

  [[nodiscard]] bool affine_datapath() const override {
    return all_linear(even_luts_) && all_linear(odd_luts_) &&
           serial_width() >= prec_.input_bits + 1;
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    const Scc4Tables& t = scc4_tables();
    const int ws = serial_width();
    std::array<std::int64_t, 4> s{}, conv_in{};
    std::array<std::int64_t, 4> d{};
    for (int i = 0; i < 4; ++i) {
      s[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] + x[static_cast<std::size_t>(7 - i)], ws);
      d[static_cast<std::size_t>(i)] = wrap_to_width(
          x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(7 - i)], ws);
    }
    for (int a = 0; a < 4; ++a)
      conv_in[static_cast<std::size_t>(a)] =
          d[static_cast<std::size_t>(t.input_of_a[static_cast<std::size_t>(a)])];

    IVec8 out{};
    for (int j = 0; j < 4; ++j) {
      out[static_cast<std::size_t>(2 * j)] =
          da_eval(even_luts_[static_cast<std::size_t>(j)], s, ws, prec_.acc_bits);
      const int u = t.odd_u_of_row[static_cast<std::size_t>(j)];
      out[static_cast<std::size_t>(u)] =
          da_eval(odd_luts_[static_cast<std::size_t>(j)], conv_in, ws, prec_.acc_bits);
    }
    return out;
  }

  [[nodiscard]] Netlist build_netlist() const override {
    const Scc4Tables& t = scc4_tables();
    Netlist nl("dct_" + name());
    const DaControls ctl = add_da_controls(nl);
    const int ws = serial_width();

    std::array<NetId, kN> x{};
    for (int i = 0; i < kN; ++i)
      x[static_cast<std::size_t>(i)] = nl.add_input("x" + std::to_string(i), ws);

    std::vector<NetId> s_bits(4), d_bits_by_a(4);
    std::array<NetId, 4> d_net{};
    for (int i = 0; i < 4; ++i) {
      const NodeId add = nl.add_node("fold_s" + std::to_string(i),
                                     AddShiftCfg{ws, AddShiftOp::kAdd, 0, false});
      nl.connect_input(add, "a", x[static_cast<std::size_t>(i)]);
      nl.connect_input(add, "b", x[static_cast<std::size_t>(7 - i)]);
      s_bits[static_cast<std::size_t>(i)] = add_shift_reg(
          nl, "sr_s" + std::to_string(i), nl.output_net(add, "y"), ws, ctl.load, ctl.en);

      const NodeId sub = nl.add_node("fold_d" + std::to_string(i),
                                     AddShiftCfg{ws, AddShiftOp::kSub, 0, false});
      nl.connect_input(sub, "a", x[static_cast<std::size_t>(i)]);
      nl.connect_input(sub, "b", x[static_cast<std::size_t>(7 - i)]);
      d_net[static_cast<std::size_t>(i)] = nl.output_net(sub, "y");
    }
    // Serialise the differences in convolution (exponent) order - this is
    // Li's input reordering stage.
    for (int a = 0; a < 4; ++a) {
      const int i = t.input_of_a[static_cast<std::size_t>(a)];
      d_bits_by_a[static_cast<std::size_t>(a)] =
          add_shift_reg(nl, "sr_conv" + std::to_string(a), d_net[static_cast<std::size_t>(i)],
                        ws, ctl.load, ctl.en);
    }

    for (int j = 0; j < 4; ++j) {
      const NetId even = add_da_unit(nl, "even" + std::to_string(j), s_bits,
                                     even_luts_[static_cast<std::size_t>(j)], prec_.rom_width,
                                     prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
      nl.add_output("X" + std::to_string(2 * j), even);
      const NetId odd = add_da_unit(nl, "conv" + std::to_string(j), d_bits_by_a,
                                    odd_luts_[static_cast<std::size_t>(j)], prec_.rom_width,
                                    prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
      nl.add_output("X" + std::to_string(t.odd_u_of_row[static_cast<std::size_t>(j)]), odd);
    }
    return nl;
  }

 private:
  [[nodiscard]] DaLut make_lut(std::vector<double> coeffs) const {
    return build_da_lut(quantize_row(coeffs, prec_.coeff_frac_bits), prec_.rom_width);
  }

  std::array<DaLut, 4> even_luts_;
  std::array<DaLut, 4> odd_luts_;
};

class SccFullImpl final : public DctImplementation {
 public:
  explicit SccFullImpl(DaPrecision p) : DctImplementation(p) {
    const Mat8& m = dct8_matrix();
    const Scc8Tables& t = scc8_tables();
    for (int u = 0; u < kN; ++u) {
      std::vector<double> row;
      if (u % 2 == 0) {
        // Even rows: direct DA coefficients.
        for (int i = 0; i < kN; ++i) row.push_back(m[u][i]);
      } else {
        // Odd rows: one shared circular kernel over the permuted input.
        const int au = t.a_of_odd_u[static_cast<std::size_t>(u / 2)];
        for (int i = 0; i < kN; ++i)
          row.push_back(0.5 * t.circulant(au, t.a_of_input[static_cast<std::size_t>(i)]));
      }
      luts_[static_cast<std::size_t>(u)] = make_lut(row);
    }
  }

  [[nodiscard]] std::string name() const override { return "scc_full"; }
  [[nodiscard]] std::string paper_figure() const override { return "Fig 9"; }
  [[nodiscard]] std::string description() const override {
    return "circulant 256-word ROMs over permuted inputs, no input adders";
  }
  [[nodiscard]] int serial_width() const override {
    return round_up_to_element(prec_.input_bits);
  }

  [[nodiscard]] bool affine_datapath() const override {
    return all_linear(luts_) && serial_width() >= prec_.input_bits;
  }

  [[nodiscard]] IVec8 transform(const IVec8& x) const override {
    const int ws = serial_width();
    IVec8 serial{};
    for (int i = 0; i < kN; ++i)
      serial[static_cast<std::size_t>(i)] =
          wrap_to_width(x[static_cast<std::size_t>(i)], ws);
    IVec8 out{};
    for (int u = 0; u < kN; ++u)
      out[static_cast<std::size_t>(u)] =
          da_eval(luts_[static_cast<std::size_t>(u)], serial, ws, prec_.acc_bits);
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
          add_da_unit(nl, "row" + std::to_string(u), bits, luts_[static_cast<std::size_t>(u)],
                      prec_.rom_width, prec_.acc_bits, ctl.load, ctl.en, ctl.sub);
      nl.add_output("X" + std::to_string(u), y);
    }
    return nl;
  }

 private:
  [[nodiscard]] DaLut make_lut(std::vector<double> coeffs) const {
    return build_da_lut(quantize_row(coeffs, prec_.coeff_frac_bits), prec_.rom_width);
  }

  std::array<DaLut, kN> luts_;
};

}  // namespace

std::unique_ptr<DctImplementation> make_scc_even_odd(DaPrecision p) {
  return std::make_unique<SccEvenOddImpl>(p);
}

std::unique_ptr<DctImplementation> make_scc_full(DaPrecision p) {
  return std::make_unique<SccFullImpl>(p);
}

}  // namespace dsra::dct
