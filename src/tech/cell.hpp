// Standard-cell descriptions: logic function plus timing/power/area data.
#ifndef VOSIM_TECH_CELL_HPP
#define VOSIM_TECH_CELL_HPP

#include <cstdint>
#include <initializer_list>
#include <string>

namespace vosim {

/// Cell kinds available in the technology library. TIE cells provide
/// constants; MAJ3 is the mirror-adder carry cell found in arithmetic-
/// oriented libraries.
enum class CellKind : std::uint8_t {
  kInv,
  kBuf,
  kNand2,
  kNor2,
  kAnd2,
  kOr2,
  kXor2,
  kXnor2,
  kAoi21,  // !((a & b) | c)
  kOai21,  // !((a | b) & c)
  kAo21,   // (a & b) | c — speed-skewed prefix-combine cell
  kMaj3,   // majority(a, b, c) — full-adder carry
  kTieLo,
  kTieHi,
};

/// Number of distinct cell kinds (array sizing).
inline constexpr int cell_kind_count = 14;

/// Short library name, e.g. "NAND2_X1".
std::string cell_kind_name(CellKind kind);

/// Canonical logic function of a cell kind: bit i of the result is the
/// output for packed input minterm i (pin 0 = LSB). The simulators use
/// this directly so they need no library handle on the hot path.
std::uint16_t cell_truth(CellKind kind);

/// Number of input pins of a cell kind.
int cell_num_inputs(CellKind kind);

/// One characterized library cell. Delay/energy figures are at the
/// nominal corner (1.0 V, no bias, TT); the TransistorModel scales them
/// to other operating points.
struct Cell {
  CellKind kind = CellKind::kInv;
  int num_inputs = 1;
  std::uint16_t truth = 0;      ///< output bit for input minterm i
  double area_um2 = 0.0;        ///< layout area
  double input_cap_ff = 0.0;    ///< capacitance per input pin
  double intrinsic_delay_ps = 0.0;  ///< unloaded propagation delay
  double drive_ps_per_ff = 0.0;     ///< delay slope vs output load
  double leakage_nw = 0.0;      ///< static power at nominal corner
};

/// Builds the truth table word for an n-input function given output bits
/// listed minterm-major (index = packed input bits, pin0 = LSB).
constexpr std::uint16_t truth_from_bits(std::initializer_list<int> outs) {
  std::uint16_t t = 0;
  int i = 0;
  for (int o : outs) {
    if (o != 0) t = static_cast<std::uint16_t>(t | (1u << i));
    ++i;
  }
  return t;
}

}  // namespace vosim

#endif  // VOSIM_TECH_CELL_HPP
