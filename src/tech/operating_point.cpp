#include "src/tech/operating_point.hpp"

#include <cmath>

#include "src/util/table.hpp"

namespace vosim {

std::string triad_label(const OperatingTriad& t) {
  // Two decimals for Vdd (trailing zeros trimmed): "0.5" like the paper,
  // but off-grid supplies such as 0.45 V stay distinguishable.
  std::string s = format_double(t.tclk_ns, 3) + "," + format_double(t.vdd_v, 2);
  if (t.vbb_v > 0.0) {
    s += ",±" + format_double(t.vbb_v, 0);  // paper prints FBB as ±2
  } else {
    s += "," + format_double(t.vbb_v, 0);
  }
  return s;
}

}  // namespace vosim
