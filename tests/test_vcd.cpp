// VCD waveform export tests.
#include <gtest/gtest.h>

#include <sstream>

#include "src/netlist/adders.hpp"
#include "src/obs/probe.hpp"
#include "src/sim/event_sim.hpp"
#include "src/sim/vcd.hpp"
#include "src/seq/seq_dut.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/seq/seq_vcd.hpp"
#include "src/sta/sta.hpp"
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

TEST(Vcd, DetachStopsRecording) {
  const AdderNetlist rca = build_rca(4);
  TimingSimulator sim(rca.netlist, lib(), {1.0, 1.0, 0.0});
  TraceRecorder rec;
  sim.attach_observer(&rec);
  std::vector<std::uint8_t> in(rca.netlist.primary_inputs().size(), 0);
  in[0] = 1;
  sim.step(in);
  EXPECT_GT(rec.trace().size(), 0u);
  sim.detach_observer(&rec);
  const std::size_t frozen = rec.trace().size();
  in[0] = 0;
  sim.step(in);
  // Detached: the recorder keeps the last observed step untouched.
  EXPECT_EQ(rec.trace().size(), frozen);
}

// ------------------------------------------------- multi-cycle writer
TEST(VcdWriterMultiCycle, PipelinedTraceSmoke) {
  // Satellite check: a pipelined multi-cycle run exports per-cycle
  // timestamps, stage scopes and register-bank words that a VCD viewer
  // can open — structural assertions on the emitted text.
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  SeqSim sim(seq, lib(), {1.5, 1.0, 0.0});  // event engine (the default)
  SeqVcdRecorder rec(sim);
  const int cycles = 5;
  for (int c = 0; c < cycles; ++c)
    sim.step_cycle(17 + 11 * c, 29 + 7 * c);
  ASSERT_EQ(rec.cycles(), static_cast<std::size_t>(cycles));

  std::ostringstream os;
  rec.write(os);
  const std::string vcd = os.str();

  // Scopes: one per stage plus the register module.
  EXPECT_NE(vcd.find("$scope module stage0 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module stage1 $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module registers $end"), std::string::npos);
  // Register banks as multi-bit words: 16-bit input bank, 32-bit
  // inter-stage bank, 18-bit output register.
  EXPECT_NE(vcd.find("$var wire 16 "), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 32 "), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 18 "), std::string::npos);
  EXPECT_NE(vcd.find("bank_in"), std::string::npos);
  EXPECT_NE(vcd.find("out_reg"), std::string::npos);
  // Every capture edge gets a timestamp (cycles are spaced by the
  // capture period Tclk − t_setup): #T, #2·T, … and the clk marker
  // pulses each cycle.
  const long tclk_ps = 1500 - static_cast<long>(lib().dff_setup_ps());
  for (int c = 1; c <= cycles; ++c)
    EXPECT_NE(vcd.find("#" + std::to_string(tclk_ps * c)),
              std::string::npos)
        << "cycle " << c;
  EXPECT_EQ(count_occurrences(vcd, "1~~"), cycles);
  // Binary word dumps are present (b<bits> <id> lines).
  EXPECT_GT(count_occurrences(vcd, "\nb"), cycles);

  // Timestamps strictly increase through the whole dump.
  long last = -1;
  std::istringstream is(vcd);
  std::string line;
  bool in_dump = false;
  while (std::getline(is, line)) {
    if (line == "$enddefinitions $end") in_dump = true;
    if (!in_dump || line.empty() || line[0] != '#') continue;
    const long t = std::stol(line.substr(1));
    EXPECT_GT(t, last);
    last = t;
  }
  EXPECT_GE(last, tclk_ps * cycles);
}

TEST(VcdWriterMultiCycle, BatchRecordsTheSameDumpAsSingleCycles) {
  // The stage recorders see every cycle of a multi-word batch (stage by
  // stage within each 64-cycle chunk) and rebuild the same dump as one
  // cycle per call. The triad is over-scaled, so transitions stay in
  // flight across capture edges and errors latch into the banks.
  const SeqDut seq = build_seq_circuit("pipe2-mul8");
  const OperatingTriad triad{0.6, 0.7, 0.0};
  constexpr std::size_t kCycles = 70;
  std::vector<std::uint64_t> ops;
  for (std::size_t c = 0; c < kCycles; ++c) {
    ops.push_back((37 * c + 5) & 255);
    ops.push_back((101 * c + 3) & 255);
  }

  SeqSim batched(seq, lib(), triad);
  SeqVcdRecorder batched_rec(batched);
  std::ostringstream none;
  EXPECT_THROW(batched_rec.write(none), ContractViolation);
  std::vector<SeqCycleResult> results(kCycles);
  batched.step_cycle_batch(ops, kCycles, results);

  SeqSim single(seq, lib(), triad);
  SeqVcdRecorder single_rec(single);
  std::size_t errors = 0;
  for (std::size_t c = 0; c < kCycles; ++c) {
    const SeqCycleResult r = single.step_cycle(ops[2 * c], ops[2 * c + 1]);
    if (r.output_valid && r.captured != r.expected) ++errors;
  }
  EXPECT_GT(errors, 0u);

  ASSERT_EQ(batched_rec.cycles(), kCycles);
  ASSERT_EQ(single_rec.cycles(), kCycles);
  std::ostringstream batched_vcd;
  std::ostringstream single_vcd;
  batched_rec.write(batched_vcd);
  single_rec.write(single_vcd);
  EXPECT_EQ(batched_vcd.str(), single_vcd.str());
}

TEST(VcdWriterMultiCycle, MergesScopesAndToleratesEmptyCycles) {
  // Two scopes, a bank word, and cycles where one or both scopes have
  // no transitions at all: the writer must still emit the launch-edge
  // word updates and the clk pulse for every cycle, with strictly
  // increasing timestamps.
  const AdderNetlist a = build_rca(2);
  const AdderNetlist b = build_rca(2);
  VcdWriter w(1000.0);
  const std::size_t s0 = w.add_scope("alpha", a.netlist);
  const std::size_t s1 = w.add_scope("beta", b.netlist);
  ASSERT_EQ(s0, 0u);
  ASSERT_EQ(s1, 1u);
  w.add_word("bank", 4);

  const std::size_t na = a.netlist.num_nets();
  const std::size_t nb = b.netlist.num_nets();
  w.begin({std::vector<std::uint8_t>(na, 0),
           std::vector<std::uint8_t>(nb, 0)});

  // Cycle 0: only scope alpha toggles.
  w.append_cycle({{TraceEvent{10.0, 0, 1}, TraceEvent{250.0, 1, 1}}, {}},
                 {0x5});
  // Cycle 1: completely event-free (both scopes quiet, word unchanged).
  w.append_cycle({{}, {}}, {0x5});
  // Cycle 2: only scope beta toggles; the bank word changes.
  w.append_cycle({{}, {TraceEvent{400.0, 2, 1}}}, {0xA});
  EXPECT_EQ(w.cycles(), 3u);

  std::ostringstream os;
  w.write(os);
  const std::string vcd = os.str();

  EXPECT_NE(vcd.find("$scope module alpha $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module beta $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 4 "), std::string::npos);
  // One clk pulse per cycle despite the empty cycle 1.
  EXPECT_EQ(count_occurrences(vcd, "1~~"), 3);
  // Capture-edge timestamps for all three cycles.
  EXPECT_NE(vcd.find("#1000"), std::string::npos);
  EXPECT_NE(vcd.find("#2000"), std::string::npos);
  EXPECT_NE(vcd.find("#3000"), std::string::npos);
  // The bank word is re-emitted only when it changes: initial 0101 and
  // the cycle-2 launch-edge 1010.
  EXPECT_EQ(count_occurrences(vcd, "b0101 "), 1);
  EXPECT_EQ(count_occurrences(vcd, "b1010 "), 1);

  // Timestamps strictly increase through the dump.
  long last = -1;
  std::istringstream is(vcd);
  std::string line;
  bool in_dump = false;
  while (std::getline(is, line)) {
    if (line == "$enddefinitions $end") in_dump = true;
    if (!in_dump || line.empty() || line[0] != '#') continue;
    const long t = std::stol(line.substr(1));
    EXPECT_GT(t, last);
    last = t;
  }
  EXPECT_EQ(last, 3000);
}

}  // namespace
}  // namespace vosim
