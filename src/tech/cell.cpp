#include "src/tech/cell.hpp"

namespace vosim {

std::string cell_kind_name(CellKind kind) {
  switch (kind) {
    case CellKind::kInv: return "INV_X1";
    case CellKind::kBuf: return "BUF_X1";
    case CellKind::kNand2: return "NAND2_X1";
    case CellKind::kNor2: return "NOR2_X1";
    case CellKind::kAnd2: return "AND2_X1";
    case CellKind::kOr2: return "OR2_X1";
    case CellKind::kXor2: return "XOR2_X1";
    case CellKind::kXnor2: return "XNOR2_X1";
    case CellKind::kAoi21: return "AOI21_X1";
    case CellKind::kOai21: return "OAI21_X1";
    case CellKind::kAo21: return "AO21_X1";
    case CellKind::kMaj3: return "MAJ3_X1";
    case CellKind::kTieLo: return "TIELO";
    case CellKind::kTieHi: return "TIEHI";
  }
  return "UNKNOWN";
}

std::uint16_t cell_truth(CellKind kind) {
  switch (kind) {
    case CellKind::kInv: return truth_from_bits({1, 0});
    case CellKind::kBuf: return truth_from_bits({0, 1});
    case CellKind::kNand2: return truth_from_bits({1, 1, 1, 0});
    case CellKind::kNor2: return truth_from_bits({1, 0, 0, 0});
    case CellKind::kAnd2: return truth_from_bits({0, 0, 0, 1});
    case CellKind::kOr2: return truth_from_bits({0, 1, 1, 1});
    case CellKind::kXor2: return truth_from_bits({0, 1, 1, 0});
    case CellKind::kXnor2: return truth_from_bits({1, 0, 0, 1});
    case CellKind::kAoi21: return truth_from_bits({1, 1, 1, 0, 0, 0, 0, 0});
    case CellKind::kOai21: return truth_from_bits({1, 1, 1, 1, 1, 0, 0, 0});
    case CellKind::kAo21: return truth_from_bits({0, 0, 0, 1, 1, 1, 1, 1});
    case CellKind::kMaj3: return truth_from_bits({0, 0, 0, 1, 0, 1, 1, 1});
    case CellKind::kTieLo: return truth_from_bits({0});
    case CellKind::kTieHi: return truth_from_bits({1});
  }
  return 0;
}

int cell_num_inputs(CellKind kind) {
  switch (kind) {
    case CellKind::kInv:
    case CellKind::kBuf: return 1;
    case CellKind::kNand2:
    case CellKind::kNor2:
    case CellKind::kAnd2:
    case CellKind::kOr2:
    case CellKind::kXor2:
    case CellKind::kXnor2: return 2;
    case CellKind::kAoi21:
    case CellKind::kOai21:
    case CellKind::kAo21:
    case CellKind::kMaj3: return 3;
    case CellKind::kTieLo:
    case CellKind::kTieHi: return 0;
  }
  return 0;
}

}  // namespace vosim
