#include "me/systolic.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/ints.hpp"

namespace dsra::me {

namespace {

/// Batch structure: the search window is covered in bands of `modules`
/// vertically adjacent dy values; within a band, dx sweeps the window.
/// Candidate (dx, dy) of module m in band b has dy = -range + b*modules + m.
struct BatchPlan {
  int range;
  int modules;
  [[nodiscard]] int bands() const {
    return static_cast<int>(ceil_div(2 * range + 1, modules));
  }
  [[nodiscard]] int batches() const { return bands() * (2 * range + 1); }
  /// Golden-order position of candidate (dx, dy) for tie-breaking.
  [[nodiscard]] int order_index(int dx, int dy) const {
    return (dy + range) * (2 * range + 1) + (dx + range);
  }
};

int tree_depth(int block) {
  int d = 0;
  while ((1 << d) < block) ++d;
  return d;
}

/// Copies the w x h rectangle of @p f at (x0, y0) into @p dst (row-major,
/// stride w) with the edge clamping of Frame::clamped_at.
void load_clamped(const Frame& f, int x0, int y0, int w, int h, std::uint8_t* dst) {
  const int fw = f.width();
  const int lo = std::clamp(-x0, 0, w);       // first column inside the frame
  const int hi = std::clamp(fw - x0, lo, w);  // first column right of it
  for (int r = 0; r < h; ++r, dst += w) {
    const std::uint8_t* row =
        f.data().data() +
        static_cast<std::size_t>(std::clamp(y0 + r, 0, f.height() - 1)) *
            static_cast<std::size_t>(fw);
    std::fill(dst, dst + lo, row[0]);
    if (hi > lo) std::copy(row + x0 + lo, row + x0 + hi, dst + lo);
    std::fill(dst + hi, dst + w, row[fw - 1]);
  }
}

/// The array's search-area memory: the n x n current block and the
/// edge-clamped (n + 2 range)^2 reference window around it, loaded once
/// per macroblock. Candidate (dx, dy) then reads n contiguous rows of the
/// window, and its SAD equals video::block_sad on the frames.
class SearchArea {
 public:
  SearchArea(const Frame& cur, const Frame& ref, int bx, int by, int n, int range)
      : n_(n), range_(range), stride_(n + 2 * range),
        cur_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n)),
        window_(static_cast<std::size_t>(stride_) * static_cast<std::size_t>(stride_)) {
    load_clamped(cur, bx, by, n, n, cur_.data());
    load_clamped(ref, bx - range, by - range, stride_, stride_, window_.data());
  }

  [[nodiscard]] std::int64_t sad(int dx, int dy) const {
    const std::uint8_t* c = cur_.data();
    const std::uint8_t* w = window_.data() + (dy + range_) * stride_ + (dx + range_);
#if defined(__SSE2__)
    // psadbw sums |a - b| over each 8-byte half; a row's last 16-byte
    // load ends at column dx + range + n - 1 < stride, inside the window.
    if (n_ % 16 == 0) {
      __m128i acc = _mm_setzero_si128();
      for (int y = 0; y < n_; ++y, c += n_, w += stride_)
        for (int x = 0; x < n_; x += 16)
          acc = _mm_add_epi64(
              acc, _mm_sad_epu8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(c + x)),
                                _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + x))));
      alignas(16) std::uint64_t lanes[2];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes), acc);
      return static_cast<std::int64_t>(lanes[0] + lanes[1]);
    }
#endif
    std::int64_t sad = 0;
    for (int y = 0; y < n_; ++y, c += n_, w += stride_)
      for (int x = 0; x < n_; ++x)
        sad += std::abs(static_cast<int>(c[x]) - static_cast<int>(w[x]));
    return sad;
  }

 private:
  int n_;
  int range_;
  int stride_;
  std::vector<std::uint8_t> cur_;
  std::vector<std::uint8_t> window_;
};

}  // namespace

std::uint64_t systolic_cycles_per_block(int range, const SystolicParams& params) {
  const BatchPlan plan{range, params.modules};
  // Steady state: one batch of `modules` candidates every `block` cycles;
  // one pipeline fill of (block - 1) + adder-tree depth + 1 at the start.
  const std::uint64_t fill =
      static_cast<std::uint64_t>(params.block - 1 + tree_depth(params.block) + 1);
  return fill + static_cast<std::uint64_t>(plan.batches()) * params.block;
}

SystolicRun systolic_search(const Frame& cur, const Frame& ref, int bx, int by, int range,
                            const SystolicParams& params) {
  const BatchPlan plan{range, params.modules};
  const int n = params.block;

  SystolicRun run;
  run.all_sads.assign(static_cast<std::size_t>((2 * range + 1) * (2 * range + 1)), 0);

  // Per-module running minimum (the Comp cluster semantics: first minimum
  // wins within a module's own candidate stream).
  struct ModuleBest {
    std::int64_t sad = -1;
    int order = 0;
    MotionVector mv;
  };
  std::vector<ModuleBest> best(static_cast<std::size_t>(params.modules));
  const SearchArea area(cur, ref, bx, by, n, range);

  for (int band = 0; band < plan.bands(); ++band) {
    for (int dx = -range; dx <= range; ++dx) {
      // One batch: `modules` candidates, `block` cycles.
      const int active_modules = std::min(params.modules, 2 * range + 1 - band * params.modules);
      // Memory traffic for this batch: the current-block column is shared
      // by all modules; the search columns of the modules overlap by
      // construction (dy differs by 1).
      run.ref_pixels_fetched += static_cast<std::uint64_t>(n) * (n + active_modules - 1);
      run.ref_pixels_fetched_naive += static_cast<std::uint64_t>(active_modules) * n * n;
      run.pe_ops += static_cast<std::uint64_t>(active_modules) * n * n;

      for (int m = 0; m < active_modules; ++m) {
        const int dy = -range + band * params.modules + m;
        const std::int64_t sad = area.sad(dx, dy);
        run.all_sads[static_cast<std::size_t>(plan.order_index(dx, dy))] = sad;
        ModuleBest& mb = best[static_cast<std::size_t>(m)];
        if (mb.sad < 0 || sad < mb.sad) {
          mb.sad = sad;
          mb.order = plan.order_index(dx, dy);
          mb.mv = {dx, dy};
        }
      }
    }
  }

  // The current block is loaded into the PE registers once and reused for
  // the entire search (the MuxReg hold path).
  run.cur_pixels_fetched = static_cast<std::uint64_t>(n) * n;

  // Controller-side combine: earliest golden-order candidate wins ties,
  // matching the exhaustive reference exactly.
  MotionSearchResult result;
  result.sad = -1;
  for (const auto& mb : best) {
    if (mb.sad < 0) continue;
    if (result.sad < 0 || mb.sad < result.sad ||
        (mb.sad == result.sad && mb.order < plan.order_index(result.mv.dx, result.mv.dy))) {
      result.sad = mb.sad;
      result.mv = mb.mv;
    }
  }
  result.candidates_evaluated = (2 * range + 1) * (2 * range + 1);
  run.cycles = systolic_cycles_per_block(range, params);
  result.array_cycles = run.cycles;
  run.pe_utilization =
      static_cast<double>(run.pe_ops) /
      (static_cast<double>(params.modules) * params.block * static_cast<double>(run.cycles));
  run.result = result;
  return run;
}

video::MotionSearchFn systolic_search_fn(const SystolicParams& params) {
  return [params](const Frame& cur, const Frame& ref, int bx, int by, int n,
                  int range) -> MotionSearchResult {
    SystolicParams p = params;
    p.block = n;
    return systolic_search(cur, ref, bx, by, range, p).result;
  };
}

Netlist build_systolic_netlist(const SystolicParams& params) {
  const int n = params.block;
  if ((n & (n - 1)) != 0) throw std::invalid_argument("systolic block must be a power of two");
  const int pix_w = round_up_to_element(params.pixel_bits + 1);  // signed headroom
  const int tree_w = 16;
  const int sad_w = 20;

  Netlist nl("me_systolic_" + std::to_string(params.modules) + "x" + std::to_string(n));
  const NetId pixel_hold = nl.add_input("pixel_hold", 1);
  const NetId acc_clr = nl.add_input("acc_clr", 1);
  const NetId acc_en = nl.add_input("acc_en", 1);
  const NetId min_reset = nl.add_input("min_reset", 1);
  const NetId min_en = nl.add_input("min_en", 1);

  // Shared current-pixel column, distributed through MuxReg registers with
  // a hold path (in1 loops back) so the block can be retained and reused.
  // Pixel ports carry unsigned 8-bit samples on signed nets, so they are
  // sized with headroom (pix_w), not at the raw sample width.
  std::vector<NetId> cur_reg(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const NetId cur_in = nl.add_input("cur" + std::to_string(i), pix_w);
    const NodeId mux = nl.add_node("cur_reg" + std::to_string(i), MuxRegCfg{pix_w, true});
    nl.connect_input(mux, "a", cur_in);
    const NetId out = nl.output_net(mux, "y");
    nl.connect_input(mux, "b", out);  // hold loop (registered, no comb cycle)
    nl.connect_input(mux, "sel", pixel_hold);
    cur_reg[static_cast<std::size_t>(i)] = out;
  }

  for (int m = 0; m < params.modules; ++m) {
    const std::string mod = "m" + std::to_string(m);
    std::vector<NetId> level;
    for (int i = 0; i < n; ++i) {
      const NetId ref_in =
          nl.add_input("ref" + std::to_string(m) + "_" + std::to_string(i), pix_w);
      const NodeId rmux =
          nl.add_node(mod + "_ref_reg" + std::to_string(i), MuxRegCfg{pix_w, true});
      nl.connect_input(rmux, "a", ref_in);
      const NetId rout = nl.output_net(rmux, "y");
      nl.connect_input(rmux, "b", rout);
      nl.connect_input(rmux, "sel", pixel_hold);

      const NodeId ad = nl.add_node(mod + "_pe" + std::to_string(i),
                                    AbsDiffCfg{pix_w, AbsDiffOp::kAbsDiff, false});
      nl.connect_input(ad, "a", cur_reg[static_cast<std::size_t>(i)]);
      nl.connect_input(ad, "b", rout);
      level.push_back(nl.output_net(ad, "y"));
    }

    // Pipelined adder tree (registered AddAcc adders).
    int stage = 0;
    while (level.size() > 1) {
      std::vector<NetId> next;
      for (std::size_t k = 0; k + 1 < level.size(); k += 2) {
        const NodeId add =
            nl.add_node(mod + "_tree" + std::to_string(stage) + "_" + std::to_string(k / 2),
                        AddAccCfg{tree_w, AddAccOp::kAdd, true});
        nl.connect_input(add, "a", level[k]);
        nl.connect_input(add, "b", level[k + 1]);
        next.push_back(nl.output_net(add, "y"));
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
      ++stage;
    }

    const NodeId acc = nl.add_node(mod + "_sad_acc", AddAccCfg{sad_w, AddAccOp::kAccumulate, false});
    nl.connect_input(acc, "a", level[0]);
    nl.connect_input(acc, "clr", acc_clr);
    nl.connect_input(acc, "en", acc_en);
    const NetId sad = nl.output_net(acc, "y");
    nl.add_output("sad" + std::to_string(m), sad);

    const NodeId comp = nl.add_node(mod + "_min", CompCfg{sad_w, CompOp::kRunMin});
    nl.connect_input(comp, "a", sad);
    nl.connect_input(comp, "reset", min_reset);
    nl.connect_input(comp, "en", min_en);
    nl.add_output("best" + std::to_string(m), nl.output_net(comp, "y"));
    nl.add_output("best_idx" + std::to_string(m), nl.output_net(comp, "idx"));
  }
  return nl;
}

NetlistSearchResult run_systolic_netlist(Simulator& sim, const Frame& cur, const Frame& ref,
                                         int bx, int by, int range,
                                         const SystolicParams& params) {
  const BatchPlan plan{range, params.modules};
  const int n = params.block;
  const int depth = tree_depth(n);
  NetlistSearchResult out;

  sim.set_input("min_reset", 1);
  sim.set_input("pixel_hold", 0);
  sim.set_input("acc_clr", 1);
  sim.set_input("acc_en", 0);
  sim.set_input("min_en", 0);
  sim.step();
  sim.set_input("min_reset", 0);

  // Candidate metadata per module, in comparator-sample order.
  std::vector<std::vector<MotionVector>> module_candidates(
      static_cast<std::size_t>(params.modules));

  for (int band = 0; band < plan.bands(); ++band) {
    for (int dx = -range; dx <= range; ++dx) {
      // Non-overlapped batch: stream n columns, drain the tree, accumulate,
      // then sample the comparator. (The steady-state pipelined timing is
      // modelled by systolic_cycles_per_block; this demo favours clarity.)
      const int total = n + depth + 1;
      for (int t = 0; t < total; ++t) {
        for (int i = 0; i < n; ++i) {
          const int col = t;
          const std::uint8_t cpx = col < n ? cur.clamped_at(bx + col, by + i) : 0;
          sim.set_input("cur" + std::to_string(i), cpx);
          for (int m = 0; m < params.modules; ++m) {
            const int dy = -range + band * params.modules + m;
            const std::uint8_t rpx =
                (col < n && dy <= range) ? ref.clamped_at(bx + dx + col, by + dy + i) : 0;
            sim.set_input("ref" + std::to_string(m) + "_" + std::to_string(i), rpx);
          }
        }
        // Column sums reach the accumulator after the pixel registers
        // (1 cycle) plus the tree depth.
        sim.set_input("acc_clr", t == 0 ? 1 : 0);
        sim.set_input("acc_en", (t >= 1 + depth) ? 1 : 0);
        sim.set_input("min_en", 0);
        sim.step();
        out.cycles += 1;
      }
      // SAD complete: sample the running-minimum comparators.
      sim.set_input("acc_en", 0);
      sim.set_input("min_en", 1);
      sim.step();
      out.cycles += 1;
      sim.set_input("min_en", 0);
      for (int m = 0; m < params.modules; ++m) {
        const int dy = -range + band * params.modules + m;
        module_candidates[static_cast<std::size_t>(m)].push_back(
            {dx, dy <= range ? dy : range + 1});
      }
    }
  }

  // Controller decode: per-module best index -> candidate; combine across
  // modules preferring the earliest golden-order candidate on ties.
  std::int64_t best_sad = -1;
  int best_order = 0;
  for (int m = 0; m < params.modules; ++m) {
    const auto& cands = module_candidates[static_cast<std::size_t>(m)];
    const std::int64_t sad = sim.output("best" + std::to_string(m));
    const auto idx = static_cast<std::size_t>(sim.output("best_idx" + std::to_string(m)));
    if (idx >= cands.size()) continue;
    const MotionVector mv = cands[idx];
    if (mv.dy > range) continue;  // idle module slot in the last band
    const int order = plan.order_index(mv.dx, mv.dy);
    if (best_sad < 0 || sad < best_sad || (sad == best_sad && order < best_order)) {
      best_sad = sad;
      best_order = order;
      out.mv = mv;
      out.sad = sad;
    }
  }
  return out;
}

}  // namespace dsra::me
