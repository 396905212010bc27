// VCD (Value Change Dump) waveform export — for inspecting how timing
// errors form in a waveform viewer (GTKWave etc.). Traces come from a
// TraceRecorder (src/obs/probe.hpp) or a SeqVcdRecorder
// (src/seq/seq_vcd.hpp) attached to event engines.
//
// write_vcd dumps one combinational step(); VcdWriter generalizes to
// multi-cycle (pipelined) runs: several net scopes (one per pipeline
// stage), multi-bit register-bank words latched at each cycle start,
// per-cycle timestamps on one continuous time axis (cycle c spans
// [c·Tclk, (c+1)·Tclk)) and a clk marker pulsing at every capture edge.
#ifndef VOSIM_SIM_VCD_HPP
#define VOSIM_SIM_VCD_HPP

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/sim_engine.hpp"

namespace vosim {

/// Writes one recorded step as a VCD file: all of `netlist`'s nets are
/// declared, `initial` (one value per net, the pre-step baseline) is
/// dumped at #0 and every transition in `events` follows with 1 ps
/// resolution. A `clk_sample` marker pulses at `tclk_ps` so the capture
/// edge is visible. Throws ContractViolation when `initial` is empty
/// (i.e. no baseline was recorded).
void write_vcd(const Netlist& netlist, double tclk_ps,
               std::span<const std::uint8_t> initial,
               std::span<const TraceEvent> events, std::ostream& os);

/// Multi-cycle, multi-scope VCD assembly. Usage: declare scopes (net
/// groups from a netlist) and words (register banks), then begin() with
/// the cycle-0 baseline values, append_cycle() per clock with that
/// cycle's committed transitions (times relative to the cycle start)
/// and the bank words latched at its launch edge, and write().
class VcdWriter {
 public:
  /// `tclk_ps` spaces the cycles on the time axis.
  explicit VcdWriter(double tclk_ps);

  /// Declares one scope of single-bit vars named after the netlist's
  /// nets. All scopes must be declared before begin(). Returns the
  /// scope index append_cycle events are keyed by.
  std::size_t add_scope(std::string name, const Netlist& netlist);

  /// Declares a multi-bit word variable (e.g. a register bank); emitted
  /// at every cycle start. Returns the word index.
  std::size_t add_word(std::string name, int bits);

  /// Sets the #0 baseline: one value vector per declared scope.
  void begin(std::vector<std::vector<std::uint8_t>> scope_initial);

  /// Appends one cycle: scope_events[s] are scope s's transitions with
  /// times relative to this cycle's launch edge; words[w] is word w's
  /// value latched at the launch edge. Taken by value — callers that
  /// own their traces can move them in and avoid holding the dump
  /// twice.
  void append_cycle(std::vector<std::vector<TraceEvent>> scope_events,
                    std::vector<std::uint64_t> words);

  std::size_t cycles() const noexcept { return cycles_.size(); }

  /// Emits the whole dump. Requires begin() and >= 1 cycle.
  void write(std::ostream& os) const;

 private:
  struct Scope {
    std::string name;
    const Netlist* netlist;
    std::size_t id_offset;  ///< first VCD identifier index of its nets
  };
  struct Word {
    std::string name;
    int bits;
    std::size_t id;
  };
  struct Cycle {
    std::vector<std::vector<TraceEvent>> scope_events;
    std::vector<std::uint64_t> words;
  };

  double tclk_ps_;
  std::size_t next_id_ = 0;
  std::vector<Scope> scopes_;
  std::vector<Word> words_;
  std::vector<std::vector<std::uint8_t>> initial_;
  std::vector<Cycle> cycles_;
  bool begun_ = false;
};

}  // namespace vosim

#endif  // VOSIM_SIM_VCD_HPP
