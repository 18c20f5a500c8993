// Experiment F11 - Fig 11: the 4x16 low-power 2-D systolic ME array.
// Regenerates the figure's operating characteristics: cycles per
// macroblock across search ranges (16-cycle candidate batches, 4
// candidates in parallel), PE utilisation, the memory-bandwidth saving of
// the Register-Multiplexer distribution, and motion-vector agreement with
// the exhaustive search - plus the fast-search alternatives the same
// fabric supports.
#include <cstdio>

#include "common/report.hpp"
#include "me/fast_search.hpp"
#include "me/pipeline.hpp"
#include "me/systolic.hpp"
#include "video/synthetic.hpp"

int main() {
  using namespace dsra;
  BenchJson json("fig11_me_systolic");

  video::SyntheticConfig cfg;
  cfg.width = 96;
  cfg.height = 96;
  cfg.frames = 2;
  const auto frames = video::generate_sequence(cfg);

  const me::SystolicParams params;  // the paper's 4 x 16

  ReportTable sweep("4x16 systolic array vs search range (16x16 macroblock)");
  sweep.set_header({"range", "candidates", "cycles/MB", "cycles/candidate", "PE util",
                    "ref px fetched", "naive", "saving"});
  for (const int range : {2, 4, 8, 16}) {
    const me::SystolicRun run = me::systolic_search(frames[1], frames[0], 32, 32, range, params);
    json.metric("cycles_per_mb_range" + std::to_string(range),
                static_cast<double>(run.cycles));
    const int cands = (2 * range + 1) * (2 * range + 1);
    sweep.add_row({format_i64(range), format_i64(cands), format_i64(static_cast<std::int64_t>(run.cycles)),
                   format_double(static_cast<double>(run.cycles) / cands, 2),
                   format_percent(run.pe_utilization),
                   format_i64(static_cast<std::int64_t>(run.ref_pixels_fetched)),
                   format_i64(static_cast<std::int64_t>(run.ref_pixels_fetched_naive)),
                   format_percent(1.0 - static_cast<double>(run.ref_pixels_fetched) /
                                            static_cast<double>(run.ref_pixels_fetched_naive))});
  }
  sweep.print();
  std::printf("paper: \"The first round of SAD calculations would take 16 clock cycles\";\n"
              "steady state here: one batch of 4 candidates per 16 cycles.\n\n");

  // Motion-field agreement and cycle comparison across algorithms. The
  // baseline is the systolic full search (tests prove it reproduces the
  // exhaustive search's vectors exactly), which also carries the cycle
  // counts fast algorithms are measured against.
  const int range = 8;
  const auto golden = me::motion_field(frames[1], frames[0], 16, range,
                                       me::systolic_search_fn(params));
  struct Algo {
    const char* name;
    video::MotionSearchFn fn;
  };
  const Algo algos[] = {
      {"systolic full search", me::systolic_search_fn(params)},
      {"three-step search", me::three_step_search_fn(params)},
      {"diamond search", me::diamond_search_fn(params)},
  };
  ReportTable field("motion-field quality vs exhaustive search (range 8)");
  field.set_header({"algorithm", "identical MVs", "SAD ratio", "cycles ratio", "mean cycles/MB"});
  for (const Algo& algo : algos) {
    const auto f = me::motion_field(frames[1], frames[0], 16, range, algo.fn);
    const auto cmp = me::compare_fields(f, golden);
    const auto stats = me::field_stats(f);
    field.add_row({algo.name,
                   format_i64(cmp.identical_mvs) + "/" + format_i64(cmp.blocks),
                   format_double(cmp.mean_sad_ratio, 3), format_double(cmp.cycles_ratio, 3),
                   format_double(static_cast<double>(stats.total_cycles) / stats.blocks, 0)});
  }
  field.print();

  // Computation suspension (the [17]-style early abort).
  std::uint64_t rows_eval = 0, rows_total = 0;
  int exact = 0, blocks = 0;
  for (int by = 0; by + 16 <= cfg.height; by += 16) {
    for (int bx = 0; bx + 16 <= cfg.width; bx += 16) {
      const auto s = me::suspended_full_search(frames[1], frames[0], bx, by, 16, range);
      const auto g = me::full_search(frames[1], frames[0], bx, by, 16, range);
      rows_eval += s.rows_evaluated;
      rows_total += s.rows_total;
      exact += s.result.mv == g.mv;
      ++blocks;
    }
  }
  std::printf("\ncomputation suspension: %d/%d exact MVs, %.1f%% of block rows skipped\n",
              exact, blocks,
              100.0 * (1.0 - static_cast<double>(rows_eval) / static_cast<double>(rows_total)));

  json.metric("suspension_exact_mvs", exact);
  json.metric("suspension_blocks", blocks);
  json.write();
  return 0;
}
