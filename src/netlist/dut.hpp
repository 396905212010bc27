// Generic datapath DUT ("device under test"): the one abstraction the
// whole VOS stack above the netlist layer is built on. A DutNetlist is
// a finalized gate netlist plus named operand input buses, one output
// bus word, and display metadata; adders, multipliers, adder trees and
// MAC trees all convert into it, so the simulators (VosDutSim), the
// characterizer (characterize_dut), the variability study and the
// adaptive runtime work for any arithmetic configuration — the paper's
// Section IV claim ("compliant with different arithmetic
// configurations") made structural.
#ifndef VOSIM_NETLIST_DUT_HPP
#define VOSIM_NETLIST_DUT_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/netlist/adder_tree.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/multiplier.hpp"
#include "src/netlist/netlist.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

/// One named operand bus: LSB-first primary-input nets.
struct DutBus {
  std::string name;
  std::vector<NetId> nets;
};

/// A generic DUT. Primary inputs not covered by any operand bus (e.g.
/// a carry-in) are held at logic zero by every consumer. The output is
/// read as a single LSB-first bus word.
struct DutNetlist {
  Netlist netlist = Netlist("dut");
  std::vector<DutBus> inputs;   ///< operand buses, LSB-first nets
  std::vector<NetId> outputs;   ///< result bus, LSB first
  std::string kind;             ///< registry spec, e.g. "mul8-wallace"
  std::string display_name;     ///< e.g. "8x8 Wallace multiplier"

  std::size_t num_operands() const noexcept { return inputs.size(); }
  int operand_width(std::size_t i) const {
    return static_cast<int>(inputs.at(i).nets.size());
  }
  int output_width() const noexcept {
    return static_cast<int>(outputs.size());
  }
  /// Widths of every operand bus, in order.
  std::vector<int> operand_widths() const;
};

/// Pin mapping of a DUT: positions of every operand bit among the
/// primary inputs and of the output bits in the packed primary-output
/// word. Shared by the simulators (VosDutSim, SeqSim) and the
/// characterizer's grid fast path so operand scatter and output gather
/// cannot diverge between them. Construction validates
/// the bus contracts loudly (ContractViolation with a message naming
/// the offending bus): operand buses are limited to max_word_bits (63)
/// bits, the output bus to 64 (it is packed into one std::uint64_t —
/// wide product buses up to 2·width bits are fine, silent truncation
/// is not), every operand net must be a primary input, every output
/// net a primary output, and the netlist may expose at most 64 primary
/// outputs (StepResult packs them into one word).
class DutPinMap {
 public:
  explicit DutPinMap(const DutNetlist& dut);

  /// Scatters `count` operations into primary-input lane words, the
  /// engines' only input form (SimEngine): lane k of pi_words[j] is PI
  /// j's value in operation k, whose operands occupy
  /// operands[k*num_operands(), (k+1)*num_operands()). pi_words holds
  /// one word per PI and is overwritten; pins outside the operand
  /// buses (e.g. a carry-in) stay zero. Operand b must fit in
  /// operand_width(b) bits. Precondition: count <= lanes::kWordLanes.
  void scatter_lanes(std::span<const std::uint64_t> operands,
                     std::size_t count,
                     std::span<lanes::Word> pi_words) const;

  /// Extracts the output bus word from values packed in primary-output
  /// order (bit i = primary output i).
  std::uint64_t gather_output(std::uint64_t po_word) const;

  std::size_t num_operands() const noexcept { return in_slots_.size(); }
  int operand_width(std::size_t i) const {
    return static_cast<int>(in_slots_.at(i).size());
  }
  int output_width() const noexcept {
    return static_cast<int>(out_slot_.size());
  }

  /// PI position of every bit of operand bus `i` (bit order).
  std::span<const std::size_t> input_slots(std::size_t i) const {
    return in_slots_.at(i);
  }
  /// PO position of every output-bus bit (bit order).
  std::span<const std::size_t> output_slots() const noexcept {
    return out_slot_;
  }

 private:
  std::vector<std::vector<std::size_t>> in_slots_;  ///< PI positions
  std::vector<std::size_t> out_slot_;               ///< PO positions
  std::size_t num_pis_ = 0;
};

/// Wraps an already-built netlist and its buses as a DUT (the netlist
/// is copied). Bus contracts are checked by the first DutPinMap built
/// over the result.
DutNetlist make_dut(const Netlist& netlist,
                    std::vector<std::vector<NetId>> input_buses,
                    std::vector<NetId> output_bus,
                    std::string kind = "dut");

/// Adapts a generated adder: buses a/b, output = sum bits + carry-out.
DutNetlist to_dut(AdderNetlist adder);

/// Adapts a generated multiplier: buses a/b, output = the 2·width-bit
/// product.
DutNetlist to_dut(MultiplierNetlist mul);

/// Adapts a generated reduction tree: one bus per leaf.
DutNetlist to_dut(AdderTreeNetlist tree);

/// Builds a MAC reduction tree DUT: `terms` products a[t]·b[t] of
/// `width`-bit operands, summed without precision loss by a balanced
/// adder tree (output width 2·width + log2(terms)). `terms` must be a
/// power of two >= 2; widths 2..16. Composed from the array-multiplier
/// and adder-tree generators via append_copy.
DutNetlist build_mac_dut(int terms, int width);

/// Builds a DUT from a circuit spec string — the `--circuit` registry:
///   rca8 bka16 ksa12 skl8 csel16 cska8 hca8    exact adders
///   loa8-4 trunc8-4 cut8-4 specw8-3            approximate adders
///                                              (width-k, k defaults
///                                               to width/2)
///   mul8-array mul8-wallace                    multipliers
///   tree8x8                                    adder tree (leaves x
///                                              leaf width)
///   mac4x8                                     MAC tree (terms x
///                                              operand width)
/// Throws std::invalid_argument with the supported grammar on a
/// malformed spec.
DutNetlist build_circuit(const std::string& spec);

/// One-line list of supported circuit spec forms (for CLI usage text).
std::string known_circuits_help();

/// Canonical example specs covering every combinational registry family
/// (one buildable spec per form) — the corpus behind `--list-circuits`
/// and the registry's "did you mean …?" suggestions.
std::vector<std::string> circuit_registry_examples();

}  // namespace vosim

#endif  // VOSIM_NETLIST_DUT_HPP
