#include "src/netlist/dut.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <stdexcept>
#include <utility>

#include "src/netlist/approx_adders.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/fuzzy.hpp"

namespace vosim {

namespace {

constexpr bool is_pow2(int n) { return n >= 1 && (n & (n - 1)) == 0; }

/// Registry token for an adder architecture (lowercase CLI spelling).
std::string adder_arch_token(AdderArch arch) {
  switch (arch) {
    case AdderArch::kRipple: return "rca";
    case AdderArch::kBrentKung: return "bka";
    case AdderArch::kKoggeStone: return "ksa";
    case AdderArch::kSklansky: return "skl";
    case AdderArch::kCarrySelect: return "csel";
    case AdderArch::kCarrySkip: return "cska";
    case AdderArch::kHanCarlson: return "hca";
    case AdderArch::kLowerOr: return "loa";
    case AdderArch::kTruncated: return "trunc";
    case AdderArch::kCarryCut: return "cut";
    case AdderArch::kSpeculativeWindow: return "specw";
  }
  return "?";
}

std::size_t net_slot(std::span<const NetId> nets, NetId net,
                     const char* what, const std::string& bus) {
  const auto it = std::find(nets.begin(), nets.end(), net);
  if (it == nets.end())
    throw ContractViolation(std::string("DutPinMap: net ") +
                            std::to_string(net) + " of bus '" + bus +
                            "' is not a primary " + what +
                            " of the netlist");
  return static_cast<std::size_t>(it - nets.begin());
}

}  // namespace

std::vector<int> DutNetlist::operand_widths() const {
  std::vector<int> w;
  w.reserve(inputs.size());
  for (const DutBus& bus : inputs)
    w.push_back(static_cast<int>(bus.nets.size()));
  return w;
}

DutPinMap::DutPinMap(const DutNetlist& dut) {
  const auto pis = dut.netlist.primary_inputs();
  const auto pos = dut.netlist.primary_outputs();
  num_pis_ = pis.size();
  if (dut.inputs.empty())
    throw ContractViolation("DutPinMap: DUT '" + dut.kind +
                            "' declares no operand buses");
  if (pos.size() > 64)
    throw ContractViolation(
        "DutPinMap: netlist '" + dut.netlist.name() + "' has " +
        std::to_string(pos.size()) +
        " primary outputs; the packed-word simulators support at most 64");
  for (const DutBus& bus : dut.inputs) {
    if (bus.nets.empty() ||
        bus.nets.size() > static_cast<std::size_t>(max_word_bits))
      throw ContractViolation(
          "DutPinMap: operand bus '" + bus.name + "' is " +
          std::to_string(bus.nets.size()) +
          " bits; operand words support 1.." +
          std::to_string(max_word_bits) + " bits (max_word_bits)");
    std::vector<std::size_t> slots;
    slots.reserve(bus.nets.size());
    for (const NetId net : bus.nets)
      slots.push_back(net_slot(pis, net, "input", bus.name));
    in_slots_.push_back(std::move(slots));
  }
  if (dut.outputs.empty() || dut.outputs.size() > 64)
    throw ContractViolation(
        "DutPinMap: output bus of '" + dut.kind + "' is " +
        std::to_string(dut.outputs.size()) +
        " bits; packed std::uint64_t output words support 1..64 bits");
  out_slot_.reserve(dut.outputs.size());
  for (const NetId net : dut.outputs)
    out_slot_.push_back(net_slot(pos, net, "output", "out"));
}

void DutPinMap::scatter_lanes(std::span<const std::uint64_t> operands,
                              std::size_t count,
                              std::span<lanes::Word> pi_words) const {
  const std::size_t nops = in_slots_.size();
  VOSIM_EXPECTS(count <= lanes::kWordLanes);
  VOSIM_EXPECTS(operands.size() == count * nops);
  VOSIM_EXPECTS(pi_words.size() == num_pis_);
  std::fill(pi_words.begin(), pi_words.end(), lanes::Word{0});
  for (std::size_t b = 0; b < nops; ++b) {
    const auto& slots = in_slots_[b];
    std::uint64_t seen = 0;
    for (std::size_t k = 0; k < count; ++k) seen |= operands[k * nops + b];
    VOSIM_EXPECTS((seen & ~mask_n(static_cast<int>(slots.size()))) == 0);
    lanes::scatter(operands.data() + b, nops, count, slots,
                   pi_words.data());
  }
}

std::uint64_t DutPinMap::gather_output(std::uint64_t po_word) const {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < out_slot_.size(); ++i)
    out |= ((po_word >> out_slot_[i]) & 1ULL) << i;
  return out;
}

DutNetlist make_dut(const Netlist& netlist,
                    std::vector<std::vector<NetId>> input_buses,
                    std::vector<NetId> output_bus, std::string kind) {
  DutNetlist dut{.netlist = netlist,
                 .inputs = {},
                 .outputs = std::move(output_bus),
                 .kind = kind,
                 .display_name = std::move(kind)};
  dut.inputs.reserve(input_buses.size());
  for (std::size_t k = 0; k < input_buses.size(); ++k)
    dut.inputs.push_back(
        DutBus{"op" + std::to_string(k), std::move(input_buses[k])});
  return dut;
}

DutNetlist to_dut(AdderNetlist adder) {
  const std::string token =
      adder_arch_token(adder.arch) + std::to_string(adder.width);
  DutNetlist dut{.netlist = std::move(adder.netlist),
                 .inputs = {DutBus{"a", std::move(adder.a)},
                            DutBus{"b", std::move(adder.b)}},
                 .outputs = std::move(adder.sum),
                 .kind = token,
                 .display_name = std::to_string(adder.width) + "-bit " +
                                 adder_arch_name(adder.arch)};
  return dut;
}

DutNetlist to_dut(MultiplierNetlist mul) {
  const std::string w = std::to_string(mul.width);
  DutNetlist dut{.netlist = std::move(mul.netlist),
                 .inputs = {DutBus{"a", std::move(mul.a)},
                            DutBus{"b", std::move(mul.b)}},
                 .outputs = std::move(mul.prod),
                 .kind = "mul" + w + "-" + mul_arch_name(mul.arch),
                 .display_name = w + "x" + w + " " +
                                 mul_arch_name(mul.arch) + " multiplier"};
  return dut;
}

DutNetlist to_dut(AdderTreeNetlist tree) {
  DutNetlist dut{.netlist = std::move(tree.netlist),
                 .inputs = {},
                 .outputs = std::move(tree.sum),
                 .kind = "tree" + std::to_string(tree.num_leaves) + "x" +
                         std::to_string(tree.leaf_width),
                 .display_name = std::to_string(tree.num_leaves) +
                                 "-leaf adder tree (" +
                                 std::to_string(tree.leaf_width) + "-bit)"};
  dut.inputs.reserve(tree.leaves.size());
  for (std::size_t t = 0; t < tree.leaves.size(); ++t)
    dut.inputs.push_back(
        DutBus{"x" + std::to_string(t), std::move(tree.leaves[t])});
  return dut;
}

DutNetlist build_mac_dut(int terms, int width) {
  VOSIM_EXPECTS(is_pow2(terms) && terms >= 2);
  VOSIM_EXPECTS(width >= 2 && width <= 16);
  DutNetlist dut{
      .netlist = Netlist("mac" + std::to_string(terms) + "x" +
                         std::to_string(width)),
      .inputs = {},
      .outputs = {},
      .kind = "mac" + std::to_string(terms) + "x" + std::to_string(width),
      .display_name = std::to_string(terms) + "-term " +
                      std::to_string(width) + "x" + std::to_string(width) +
                      " MAC tree"};
  Netlist& nl = dut.netlist;

  // One multiplier instance per term (the generator output is used as a
  // template and stamped down via append_copy), products collected as
  // the leaves of one reduction tree.
  const MultiplierNetlist mul = build_array_multiplier(width);
  const AdderTreeNetlist tree = build_adder_tree(terms, 2 * width);
  const auto mul_pis = mul.netlist.primary_inputs();
  std::vector<std::vector<NetId>> products;
  for (int t = 0; t < terms; ++t) {
    DutBus a{"a" + std::to_string(t), {}};
    DutBus b{"b" + std::to_string(t), {}};
    for (int i = 0; i < width; ++i)
      a.nets.push_back(nl.add_input(a.name + "_" + std::to_string(i)));
    for (int i = 0; i < width; ++i)
      b.nets.push_back(nl.add_input(b.name + "_" + std::to_string(i)));
    // Substitutes in the template's own PI order.
    std::vector<NetId> subs(mul_pis.size(), invalid_net);
    for (int i = 0; i < width; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      subs[static_cast<std::size_t>(
          std::find(mul_pis.begin(), mul_pis.end(), mul.a[ui]) -
          mul_pis.begin())] = a.nets[ui];
      subs[static_cast<std::size_t>(
          std::find(mul_pis.begin(), mul_pis.end(), mul.b[ui]) -
          mul_pis.begin())] = b.nets[ui];
    }
    const std::vector<NetId> map = append_copy(
        nl, mul.netlist, subs, "m" + std::to_string(t) + "_");
    std::vector<NetId> prod;
    prod.reserve(mul.prod.size());
    for (const NetId p : mul.prod) prod.push_back(map[p]);
    products.push_back(std::move(prod));
    dut.inputs.push_back(std::move(a));
    dut.inputs.push_back(std::move(b));
  }

  const auto tree_pis = tree.netlist.primary_inputs();
  std::vector<NetId> tree_subs(tree_pis.size(), invalid_net);
  for (int t = 0; t < terms; ++t) {
    const auto& leaf = tree.leaves[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < leaf.size(); ++i)
      tree_subs[static_cast<std::size_t>(
          std::find(tree_pis.begin(), tree_pis.end(), leaf[i]) -
          tree_pis.begin())] = products[static_cast<std::size_t>(t)][i];
  }
  const std::vector<NetId> tmap =
      append_copy(nl, tree.netlist, tree_subs, "acc_");
  dut.outputs.reserve(tree.sum.size());
  for (const NetId s : tree.sum) {
    dut.outputs.push_back(tmap[s]);
    nl.mark_output(tmap[s]);
  }
  nl.finalize();
  return dut;
}

namespace {

[[noreturn]] void bad_spec(const std::string& spec) {
  std::string msg =
      "unknown circuit spec '" + spec + "'; " + known_circuits_help();
  const std::vector<std::string> examples = circuit_registry_examples();
  const std::string near = closest_match(spec, examples);
  if (!near.empty()) msg += " — did you mean '" + near + "'?";
  throw std::invalid_argument(msg);
}

/// Parses the decimal run starting at spec[pos]; advances pos.
int parse_num(const std::string& spec, std::size_t& pos) {
  if (pos >= spec.size() ||
      !std::isdigit(static_cast<unsigned char>(spec[pos])))
    bad_spec(spec);
  int v = 0;
  while (pos < spec.size() &&
         std::isdigit(static_cast<unsigned char>(spec[pos])))
    v = v * 10 + (spec[pos++] - '0');
  return v;
}

}  // namespace

DutNetlist build_circuit(const std::string& spec) {
  std::size_t pos = 0;
  while (pos < spec.size() &&
         std::isalpha(static_cast<unsigned char>(spec[pos])))
    ++pos;
  const std::string token = spec.substr(0, pos);
  if (token.empty()) bad_spec(spec);

  if (token == "mul") {
    const int width = parse_num(spec, pos);
    if (spec.compare(pos, std::string::npos, "-array") == 0)
      return to_dut(build_array_multiplier(width));
    if (spec.compare(pos, std::string::npos, "-wallace") == 0)
      return to_dut(build_wallace_multiplier(width));
    bad_spec(spec);
  }
  if (token == "tree" || token == "mac") {
    const int n = parse_num(spec, pos);
    if (pos >= spec.size() || spec[pos] != 'x') bad_spec(spec);
    ++pos;
    const int width = parse_num(spec, pos);
    if (pos != spec.size()) bad_spec(spec);
    return token == "tree" ? to_dut(build_adder_tree(n, width))
                           : build_mac_dut(n, width);
  }

  // Adder families: exact archs take just a width; approximate archs
  // take width[-k] with k defaulting to width/2.
  const struct {
    const char* tok;
    AdderArch arch;
    bool approx;
  } adders[] = {
      {"rca", AdderArch::kRipple, false},
      {"bka", AdderArch::kBrentKung, false},
      {"ksa", AdderArch::kKoggeStone, false},
      {"skl", AdderArch::kSklansky, false},
      {"csel", AdderArch::kCarrySelect, false},
      {"cska", AdderArch::kCarrySkip, false},
      {"hca", AdderArch::kHanCarlson, false},
      {"loa", AdderArch::kLowerOr, true},
      {"trunc", AdderArch::kTruncated, true},
      {"cut", AdderArch::kCarryCut, true},
      {"specw", AdderArch::kSpeculativeWindow, true},
  };
  for (const auto& entry : adders) {
    if (token != entry.tok) continue;
    const int width = parse_num(spec, pos);
    if (!entry.approx) {
      if (pos != spec.size()) bad_spec(spec);
      return to_dut(build_adder(entry.arch, width));
    }
    int k = width / 2;
    if (pos < spec.size()) {
      if (spec[pos] != '-') bad_spec(spec);
      ++pos;
      k = parse_num(spec, pos);
      if (pos != spec.size()) bad_spec(spec);
    }
    switch (entry.arch) {
      case AdderArch::kLowerOr: return to_dut(build_lower_or(width, k));
      case AdderArch::kTruncated:
        return to_dut(build_truncated(width, k));
      case AdderArch::kCarryCut:
        return to_dut(build_carry_cut(width, k));
      default: return to_dut(build_speculative_window(width, k));
    }
  }
  bad_spec(spec);
}

std::string known_circuits_help() {
  return "supported circuits: rca<w> bka<w> ksa<w> skl<w> csel<w> "
         "cska<w> hca<w> | loa<w>[-k] trunc<w>[-k] cut<w>[-k] "
         "specw<w>[-k] | mul<w>-array mul<w>-wallace | "
         "tree<leaves>x<w> | mac<terms>x<w> (e.g. rca8, mul8-wallace, "
         "mac4x8)";
}

std::vector<std::string> circuit_registry_examples() {
  return {"rca8",     "rca16",   "bka8",        "bka16",       "ksa16",
          "skl16",    "csel16",  "cska16",      "hca16",       "loa8-4",
          "trunc8-4", "cut8-4",  "specw8-3",    "mul8-array",
          "mul8-wallace", "tree8x8", "mac4x8"};
}

}  // namespace vosim
