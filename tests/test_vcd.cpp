// One-step VCD waveform export tests (TraceRecorder).
#include <gtest/gtest.h>

#include <sstream>

#include "src/netlist/adders.hpp"
#include "src/obs/probe.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sta/sta.hpp"
#include "src/sta/synthesis_report.hpp"
#include "src/tech/library.hpp"
#include "src/util/contracts.hpp"

namespace vosim {
namespace {

const CellLibrary& lib() { return make_fdsoi28_lvt(); }

int count_occurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(Vcd, HeaderDeclaresEveryNet) {
  const AdderNetlist rca = build_rca(4);
  TimingSimulator sim(rca.netlist, lib(), {1.0, 1.0, 0.0});
  TraceRecorder obs;
  sim.attach_observer(&obs);
  std::vector<std::uint8_t> in(rca.netlist.primary_inputs().size(), 0);
  in[0] = 1;
  sim.step(in);

  std::ostringstream os;
  obs.write(os);
  const std::string vcd = os.str();
  EXPECT_EQ(count_occurrences(vcd, "$var wire 1 "),
            static_cast<int>(rca.netlist.num_nets()) + 1);  // + clk marker
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("clk_sample"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
}

TEST(Vcd, TraceMatchesToggleCount) {
  const AdderNetlist rca = build_rca(8);
  const double cp_ns =
      analyze_timing(rca.netlist, lib(), {1, 1.0, 0.0}).critical_path_ps *
      1e-3;
  TimingSimulator sim(rca.netlist, lib(), {2.0 * cp_ns, 1.0, 0.0});
  TraceRecorder rec;
  sim.attach_observer(&rec);
  std::vector<std::uint8_t> zeros(rca.netlist.primary_inputs().size(), 0);
  std::vector<std::uint8_t> ones(rca.netlist.primary_inputs().size(), 1);
  sim.settle(zeros);
  const StepResult r = sim.step(ones);
  EXPECT_EQ(rec.trace().size(), r.toggles_total);
  // Events are time-ordered.
  double prev = -1.0;
  for (const TraceEvent& e : rec.trace()) {
    EXPECT_GE(e.time_ps, prev);
    prev = e.time_ps;
  }
}

TEST(Vcd, RecorderRequiresObservedStep) {
  // A recorder that never saw a step has no baseline to dump.
  TraceRecorder obs;
  std::ostringstream os;
  EXPECT_THROW(obs.write(os), ContractViolation);
}

TEST(Vcd, TraceClearedBetweenSteps) {
  const AdderNetlist rca = build_rca(4);
  TimingSimulator sim(rca.netlist, lib(), {1.0, 1.0, 0.0});
  TraceRecorder rec;
  sim.attach_observer(&rec);
  std::vector<std::uint8_t> in(rca.netlist.primary_inputs().size(), 0);
  in[0] = 1;
  sim.step(in);
  const std::size_t first = rec.trace().size();
  EXPECT_GT(first, 0u);
  // Identical inputs: nothing toggles in the second step.
  sim.step(in);
  EXPECT_EQ(rec.trace().size(), 0u);
}

// FNV-1a over the dump's bytes.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(Vcd, OverscaledStepDumpIsPinned) {
  // examples/waveform_debug.cpp's step: 0x00+0x00 -> 0xFF+0x01 on rca8
  // at its synthesis critical path and 0.7 V, so the carry ripple is
  // still in flight at the capture edge. The dump is pinned byte for
  // byte; re-record the hash only for an intended format change.
  const AdderNetlist rca = build_rca(8);
  const double cp_ns = synthesize_report(rca.netlist, lib()).critical_path_ns;
  TimingSimulator sim(rca.netlist, lib(), {cp_ns, 0.7, 0.0});
  TraceRecorder rec;
  sim.attach_observer(&rec);
  std::vector<std::uint8_t> in(rca.netlist.primary_inputs().size(), 0);
  sim.settle(in);
  for (int i = 0; i < 8; ++i) in[static_cast<std::size_t>(i)] = 1;
  in[8] = 1;
  const StepResult r = sim.step(in);
  ASSERT_GT(r.settle_time_ps, cp_ns * 1e3);

  std::ostringstream os;
  rec.write(os);
  EXPECT_EQ(os.str().size(), 1308u);
  EXPECT_EQ(fnv1a(os.str()), 0xc4910ea5df5e38a2ULL);
}

}  // namespace
}  // namespace vosim
