// Zero-delay functional ("golden") evaluation of a netlist. Lives in
// the netlist module (it needs only the canonical cell truth tables) so
// structural passes can use it without depending on the simulators.
#ifndef VOSIM_NETLIST_EVAL_HPP
#define VOSIM_NETLIST_EVAL_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/tech/cell.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

/// Evaluates every net of the finalized netlist given primary-input
/// values (in primary-input order). Returns one 0/1 value per net.
std::vector<std::uint8_t> evaluate_logic(const Netlist& netlist,
                                         std::span<const std::uint8_t> inputs);

/// Lane-parallel evaluation of one cell function: bit k of the result
/// is cell_truth(kind) applied to bit k of each input word. Lane-wise
/// identical to the truth tables (SimEngine.PackedEvalMatchesTruthTables
/// checks every kind against every minterm).
constexpr lanes::Word eval_cell_packed(CellKind kind, lanes::Word a,
                                       lanes::Word b, lanes::Word c) {
  switch (kind) {
    case CellKind::kInv: return ~a;
    case CellKind::kBuf: return a;
    case CellKind::kNand2: return ~(a & b);
    case CellKind::kNor2: return ~(a | b);
    case CellKind::kAnd2: return a & b;
    case CellKind::kOr2: return a | b;
    case CellKind::kXor2: return a ^ b;
    case CellKind::kXnor2: return ~(a ^ b);
    case CellKind::kAoi21: return ~((a & b) | c);
    case CellKind::kOai21: return ~((a | b) & c);
    case CellKind::kAo21: return (a & b) | c;
    case CellKind::kMaj3: return (a & b) | (c & (a | b));
    case CellKind::kTieLo: return 0;
    case CellKind::kTieHi: return ~lanes::Word{0};
  }
  return 0;
}

/// Lane-parallel evaluate_logic: pi_words[i] holds one input pattern
/// per lane for primary input i; `values` (sized num_nets) receives one
/// packed word per net. Bit-for-bit the per-lane evaluate_logic result.
void evaluate_logic_packed(const Netlist& netlist,
                           std::span<const lanes::Word> pi_words,
                           std::span<lanes::Word> values);

/// Packs selected net values into a word, bit i = value of nets[i].
std::uint64_t pack_word(std::span<const std::uint8_t> values,
                        std::span<const NetId> nets);

}  // namespace vosim

#endif  // VOSIM_NETLIST_EVAL_HPP
