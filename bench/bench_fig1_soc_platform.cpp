// Experiment F1 - Fig 1: the reconfigurable System-on-Chip platform.
// Regenerates the platform-level behaviour: all six DCT implementations
// compiled and stored, the reconfiguration-latency matrix between them,
// runtime-policy switching, and full-frame pipeline timing decomposition.
#include <cstdio>

#include "common/report.hpp"
#include "soc/platform.hpp"

int main() {
  using namespace dsra;
  BenchJson json("fig1_soc_platform");

  soc::Platform platform;
  const int mapped = platform.build_dct_library();
  std::printf("platform: %d DCT implementations compiled onto %s; ME fabric %s\n\n", mapped,
              platform.da_array().name().c_str(), platform.me_array().name().c_str());

  // Reconfiguration latencies (32-bit configuration port).
  ReportTable sw("bitstreams and reconfiguration latency");
  sw.set_header({"implementation", "bitstream bytes", "switch cycles", "@100MHz (us)"});
  for (const auto& name : platform.reconfig().names()) {
    const auto bytes = platform.reconfig().bitstream(name).size();
    const auto cycles = platform.reconfig().switch_cycles(name);
    sw.add_row({name, format_i64(static_cast<std::int64_t>(bytes)),
                format_i64(static_cast<std::int64_t>(cycles)),
                format_double(static_cast<double>(cycles) / 100.0, 1)});
  }
  sw.print();

  // Runtime-policy switching (conclusion of the paper).
  ReportTable policy("dynamic reconfiguration policy");
  policy.set_header({"condition", "selected impl", "switch cycles"});
  struct Case {
    const char* label;
    soc::RuntimeCondition cond;
  };
  const Case cases[] = {
      {"full battery, clean channel", {1.0, 1.0}},
      {"mid battery", {0.5, 1.0}},
      {"low battery", {0.15, 1.0}},
      {"noisy channel", {0.9, 0.3}},
  };
  for (const Case& c : cases) {
    const std::string impl = soc::select_dct_implementation(c.cond);
    const std::uint64_t cycles = platform.reconfigure_dct(impl);
    policy.add_row({c.label, impl, format_i64(static_cast<std::int64_t>(cycles))});
  }
  policy.print();

  // Frame pipeline decomposition for a QCIF-like frame.
  platform.reconfigure_dct("da_basic");
  ReportTable frame("inter-frame pipeline estimate (176x144, range 8)");
  frame.set_header({"component", "cycles", "share"});
  const soc::FrameTiming t = platform.estimate_inter_frame(176, 144, 8);
  const double total = static_cast<double>(t.total());
  frame.add_row({"motion estimation (ME array)", format_i64(static_cast<std::int64_t>(t.me_cycles)),
                 format_percent(t.me_cycles / total)});
  frame.add_row({"DCT (DA array)", format_i64(static_cast<std::int64_t>(t.dct_cycles)),
                 format_percent(t.dct_cycles / total)});
  frame.add_row({"bus transfers", format_i64(static_cast<std::int64_t>(t.bus_cycles)),
                 format_percent(t.bus_cycles / total)});
  frame.add_row({"total", format_i64(static_cast<std::int64_t>(t.total())), "100%"});
  frame.print();
  std::printf("\nat 100 MHz this frame takes %.2f ms -> %.1f fps (ME dominates, as the\n"
              "paper's motivation for dedicated ME fabrics expects)\n",
              total / 100e3, 100e6 / total);

  json.metric("dct_implementations", mapped);
  for (const auto& name : platform.reconfig().names())
    json.metric("switch_cycles_" + name,
                static_cast<double>(platform.reconfig().switch_cycles(name)));
  json.metric("inter_frame_cycles_qcif", total);
  json.metric("inter_frame_fps_at_100mhz", 100e6 / total);
  json.write();
  return 0;
}
