#include "src/seq/seq_dut.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/netlist/adder_tree.hpp"
#include "src/netlist/adders.hpp"
#include "src/netlist/eval.hpp"
#include "src/netlist/multiplier.hpp"
#include "src/tech/library.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/fuzzy.hpp"

namespace vosim {

namespace {

/// Creates an LSB-first primary-input bus.
std::vector<NetId> input_bus(Netlist& nl, const std::string& name,
                             int width) {
  std::vector<NetId> bus;
  bus.reserve(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    bus.push_back(nl.add_input(name + "_" + std::to_string(i)));
  return bus;
}

/// Fills `subs` (sized to src's PI count) so src bus net i maps to
/// dst_nets[i]; the remaining positions must be covered by other buses.
void substitute_bus(std::vector<NetId>& subs, std::span<const NetId> src_pis,
                    std::span<const NetId> bus,
                    std::span<const NetId> dst_nets) {
  VOSIM_EXPECTS(bus.size() == dst_nets.size());
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const auto it = std::find(src_pis.begin(), src_pis.end(), bus[i]);
    VOSIM_EXPECTS(it != src_pis.end());
    subs[static_cast<std::size_t>(it - src_pis.begin())] = dst_nets[i];
  }
}

std::vector<NetId> map_bus(const std::vector<NetId>& map,
                           std::span<const NetId> bus) {
  std::vector<NetId> out;
  out.reserve(bus.size());
  for (const NetId n : bus) out.push_back(map[n]);
  return out;
}

/// Pads `bus` with the shared constant-zero net up to `width` bits.
std::vector<NetId> zext(std::span<const NetId> bus, int width, NetId zero) {
  VOSIM_EXPECTS(static_cast<int>(bus.size()) <= width);
  std::vector<NetId> out(bus.begin(), bus.end());
  out.resize(static_cast<std::size_t>(width), zero);
  return out;
}

/// Stamps a ripple-carry adder of `width` bits summing buses a and b
/// (each zero-extended to `width`); returns the (width+1)-bit sum bus.
std::vector<NetId> stamp_rca(Netlist& nl, const std::string& prefix,
                             int width, std::span<const NetId> a,
                             std::span<const NetId> b, NetId zero) {
  const AdderNetlist add = build_rca(width);
  const auto pis = add.netlist.primary_inputs();
  std::vector<NetId> subs(pis.size(), invalid_net);
  const std::vector<NetId> ax = zext(a, width, zero);
  const std::vector<NetId> bx = zext(b, width, zero);
  substitute_bus(subs, pis, add.a, ax);
  substitute_bus(subs, pis, add.b, bx);
  const std::vector<NetId> map = append_copy(nl, add.netlist, subs, prefix);
  return map_bus(map, add.sum);
}

/// Stamps a `width`-bit array multiplier over buses a and b; returns the
/// 2·width-bit product bus.
std::vector<NetId> stamp_mul(Netlist& nl, const std::string& prefix,
                             int width, std::span<const NetId> a,
                             std::span<const NetId> b) {
  const MultiplierNetlist mul = build_array_multiplier(width);
  const auto pis = mul.netlist.primary_inputs();
  std::vector<NetId> subs(pis.size(), invalid_net);
  substitute_bus(subs, pis, mul.a, a);
  substitute_bus(subs, pis, mul.b, b);
  const std::vector<NetId> map = append_copy(nl, mul.netlist, subs, prefix);
  return map_bus(map, mul.prod);
}

/// Buffers every bit of a bus (register pass-through inside a stage).
std::vector<NetId> buffer_bus(Netlist& nl, const std::string& name,
                              std::span<const NetId> bus) {
  std::vector<NetId> out;
  out.reserve(bus.size());
  for (std::size_t i = 0; i < bus.size(); ++i)
    out.push_back(nl.add_gate(CellKind::kBuf, {bus[i]},
                              name + "_" + std::to_string(i)));
  return out;
}

DutNetlist finish_stage(Netlist nl, std::vector<DutBus> inputs,
                        std::vector<NetId> outputs, std::string kind) {
  for (const NetId n : outputs) nl.mark_output(n);
  nl.finalize();
  DutNetlist dut{.netlist = std::move(nl),
                 .inputs = std::move(inputs),
                 .outputs = std::move(outputs),
                 .kind = kind,
                 .display_name = std::move(kind)};
  return dut;
}

/// pipe2-mul8 stage 0: the four 4x4 partial products of an 8x8
/// multiply (p00 = aL·bL, p01 = aL·bH, p10 = aH·bL, p11 = aH·bH),
/// 32 output bits.
DutNetlist pipe2_mul8_stage0() {
  Netlist nl("pipe2_mul8_s0");
  const std::vector<NetId> a = input_bus(nl, "a", 8);
  const std::vector<NetId> b = input_bus(nl, "b", 8);
  const std::span<const NetId> aL{a.data(), 4};
  const std::span<const NetId> aH{a.data() + 4, 4};
  const std::span<const NetId> bL{b.data(), 4};
  const std::span<const NetId> bH{b.data() + 4, 4};
  struct Part {
    std::span<const NetId> x;
    std::span<const NetId> y;
    const char* tag;
  };
  const Part parts[] = {
      {aL, bL, "p00"}, {aL, bH, "p01"}, {aH, bL, "p10"}, {aH, bH, "p11"}};
  std::vector<NetId> out;
  for (const Part& part : parts) {
    const std::vector<NetId> p =
        stamp_mul(nl, std::string(part.tag) + "_", 4, part.x, part.y);
    out.insert(out.end(), p.begin(), p.end());
  }
  return finish_stage(std::move(nl), {DutBus{"a", a}, DutBus{"b", b}},
                      std::move(out), "pipe2-mul8.s0");
}

/// pipe2-mul8 stage 1: shift-align and sum the four partial products —
/// p00 + ((p01 + p10) << 4) + (p11 << 8) via a 4-leaf 16-bit adder
/// tree, 18 output bits (a·b zero-extended).
DutNetlist pipe2_mul8_stage1() {
  Netlist nl("pipe2_mul8_s1");
  std::vector<DutBus> inputs;
  std::vector<std::vector<NetId>> p;
  for (const char* name : {"p00", "p01", "p10", "p11"}) {
    p.push_back(input_bus(nl, name, 8));
    inputs.push_back(DutBus{name, p.back()});
  }
  const NetId zero = nl.add_gate(CellKind::kTieLo, {}, "zero");
  const auto shifted = [&](const std::vector<NetId>& bus, int shift) {
    std::vector<NetId> leaf(static_cast<std::size_t>(shift), zero);
    leaf.insert(leaf.end(), bus.begin(), bus.end());
    leaf.resize(16, zero);
    return leaf;
  };
  const AdderTreeNetlist tree = build_adder_tree(4, 16);
  const auto pis = tree.netlist.primary_inputs();
  std::vector<NetId> subs(pis.size(), invalid_net);
  substitute_bus(subs, pis, tree.leaves[0], shifted(p[0], 0));
  substitute_bus(subs, pis, tree.leaves[1], shifted(p[1], 4));
  substitute_bus(subs, pis, tree.leaves[2], shifted(p[2], 4));
  substitute_bus(subs, pis, tree.leaves[3], shifted(p[3], 8));
  const std::vector<NetId> map =
      append_copy(nl, tree.netlist, subs, "sum_");
  return finish_stage(std::move(nl), std::move(inputs),
                      map_bus(map, tree.sum), "pipe2-mul8.s1");
}

SeqDut build_pipe2_mul8() {
  std::vector<DutNetlist> stages;
  stages.push_back(pipe2_mul8_stage0());
  stages.push_back(pipe2_mul8_stage1());
  return make_seq_dut(std::move(stages), "pipe2-mul8",
                      "2-stage pipelined 8x8 multiplier");
}

/// pipe3-mac4x8 stage 0: four 8x8 products (64 output bits — the
/// packed-word ceiling).
DutNetlist pipe3_mac_stage0() {
  Netlist nl("pipe3_mac_s0");
  std::vector<DutBus> inputs;
  std::vector<NetId> out;
  for (int t = 0; t < 4; ++t) {
    const std::string ta = "a" + std::to_string(t);
    const std::string tb = "b" + std::to_string(t);
    const std::vector<NetId> a = input_bus(nl, ta, 8);
    const std::vector<NetId> b = input_bus(nl, tb, 8);
    const std::vector<NetId> prod =
        stamp_mul(nl, "m" + std::to_string(t) + "_", 8, a, b);
    out.insert(out.end(), prod.begin(), prod.end());
    inputs.push_back(DutBus{ta, a});
    inputs.push_back(DutBus{tb, b});
  }
  return finish_stage(std::move(nl), std::move(inputs), std::move(out),
                      "pipe3-mac4x8.s0");
}

/// pipe3-mac4x8 stage 1: pairwise sums s0 = p0+p1, s1 = p2+p3
/// (2 × 17 = 34 output bits).
DutNetlist pipe3_mac_stage1() {
  Netlist nl("pipe3_mac_s1");
  std::vector<DutBus> inputs;
  std::vector<std::vector<NetId>> p;
  for (int t = 0; t < 4; ++t) {
    const std::string name = "p" + std::to_string(t);
    p.push_back(input_bus(nl, name, 16));
    inputs.push_back(DutBus{name, p.back()});
  }
  const NetId zero = nl.add_gate(CellKind::kTieLo, {}, "zero");
  std::vector<NetId> out = stamp_rca(nl, "s0_", 16, p[0], p[1], zero);
  const std::vector<NetId> s1 = stamp_rca(nl, "s1_", 16, p[2], p[3], zero);
  out.insert(out.end(), s1.begin(), s1.end());
  return finish_stage(std::move(nl), std::move(inputs), std::move(out),
                      "pipe3-mac4x8.s1");
}

/// pipe3-mac4x8 stage 2: the final s0 + s1 (18 output bits, the same
/// width as the combinational mac4x8).
DutNetlist pipe3_mac_stage2() {
  Netlist nl("pipe3_mac_s2");
  const std::vector<NetId> s0 = input_bus(nl, "s0", 17);
  const std::vector<NetId> s1 = input_bus(nl, "s1", 17);
  const NetId zero = nl.add_gate(CellKind::kTieLo, {}, "zero");
  // rca17 sum + carry-out = 18 bits, the combinational mac4x8 width.
  std::vector<NetId> sum = stamp_rca(nl, "acc_", 17, s0, s1, zero);
  return finish_stage(std::move(nl), {DutBus{"s0", s0}, DutBus{"s1", s1}},
                      std::move(sum), "pipe3-mac4x8.s2");
}

SeqDut build_pipe3_mac4x8() {
  std::vector<DutNetlist> stages;
  stages.push_back(pipe3_mac_stage0());
  stages.push_back(pipe3_mac_stage1());
  stages.push_back(pipe3_mac_stage2());
  return make_seq_dut(std::move(stages), "pipe3-mac4x8",
                      "3-stage pipelined 4-term 8x8 MAC");
}

/// fir4-pipe stage 0: s = x0 + x1 plus delay registers for the later
/// taps (buffered pass-throughs feeding the next bank).
DutNetlist fir4_stage0() {
  Netlist nl("fir4_s0");
  std::vector<DutBus> inputs;
  std::vector<std::vector<NetId>> x;
  for (int t = 0; t < 4; ++t) {
    const std::string name = "x" + std::to_string(t);
    x.push_back(input_bus(nl, name, 8));
    inputs.push_back(DutBus{name, x.back()});
  }
  const NetId zero = nl.add_gate(CellKind::kTieLo, {}, "zero");
  std::vector<NetId> out = stamp_rca(nl, "s_", 8, x[0], x[1], zero);
  const std::vector<NetId> d2 = buffer_bus(nl, "d2", x[2]);
  const std::vector<NetId> d3 = buffer_bus(nl, "d3", x[3]);
  out.insert(out.end(), d2.begin(), d2.end());
  out.insert(out.end(), d3.begin(), d3.end());
  return finish_stage(std::move(nl), std::move(inputs), std::move(out),
                      "fir4-pipe.s0");
}

/// fir4-pipe stage 1: s2 = s + x2, x3 delayed once more.
DutNetlist fir4_stage1() {
  Netlist nl("fir4_s1");
  const std::vector<NetId> s = input_bus(nl, "s", 9);
  const std::vector<NetId> x2 = input_bus(nl, "x2", 8);
  const std::vector<NetId> x3 = input_bus(nl, "x3", 8);
  const NetId zero = nl.add_gate(CellKind::kTieLo, {}, "zero");
  std::vector<NetId> out = stamp_rca(nl, "s2_", 9, s, x2, zero);
  const std::vector<NetId> d3 = buffer_bus(nl, "d3", x3);
  out.insert(out.end(), d3.begin(), d3.end());
  return finish_stage(
      std::move(nl),
      {DutBus{"s", s}, DutBus{"x2", x2}, DutBus{"x3", x3}},
      std::move(out), "fir4-pipe.s1");
}

/// fir4-pipe stage 2: y = s2 + x3 — the 4-tap moving sum.
DutNetlist fir4_stage2() {
  Netlist nl("fir4_s2");
  const std::vector<NetId> s2 = input_bus(nl, "s2", 10);
  const std::vector<NetId> x3 = input_bus(nl, "x3", 8);
  const NetId zero = nl.add_gate(CellKind::kTieLo, {}, "zero");
  std::vector<NetId> sum = stamp_rca(nl, "y_", 10, s2, x3, zero);
  return finish_stage(std::move(nl),
                      {DutBus{"s2", s2}, DutBus{"x3", x3}},
                      std::move(sum), "fir4-pipe.s2");
}

SeqDut build_fir4_pipe() {
  std::vector<DutNetlist> stages;
  stages.push_back(fir4_stage0());
  stages.push_back(fir4_stage1());
  stages.push_back(fir4_stage2());
  return make_seq_dut(std::move(stages), "fir4-pipe",
                      "3-stage 4-tap moving-sum FIR pipeline");
}

}  // namespace

int SeqDut::num_flops() const {
  int flops = 0;
  for (const DutBus& bus : stages.front().inputs)
    flops += static_cast<int>(bus.nets.size());
  for (const DutNetlist& s : stages) flops += s.output_width();
  return flops;
}

std::size_t SeqDut::num_gates() const {
  std::size_t gates = 0;
  for (const DutNetlist& s : stages) gates += s.netlist.num_gates();
  return gates;
}

SeqDut make_seq_dut(std::vector<DutNetlist> stages, std::string kind,
                    std::string display_name) {
  if (stages.empty())
    throw ContractViolation("make_seq_dut: a pipeline needs >= 1 stage");
  for (const DutNetlist& s : stages) {
    const DutPinMap check(s);  // validates the stage's bus contracts
    (void)check;
  }
  for (std::size_t k = 1; k < stages.size(); ++k) {
    int fed = 0;
    for (const int w : stages[k].operand_widths()) fed += w;
    if (fed != stages[k - 1].output_width())
      throw ContractViolation(
          "make_seq_dut('" + kind + "'): stage " + std::to_string(k) +
          " consumes " + std::to_string(fed) + " bits but stage " +
          std::to_string(k - 1) + " registers " +
          std::to_string(stages[k - 1].output_width()));
  }
  return SeqDut{std::move(stages), std::move(kind),
                std::move(display_name)};
}

SeqDut wrap_as_pipeline(DutNetlist dut) {
  const std::string kind = "seq(" + dut.kind + ")";
  const std::string display = "registered " + dut.display_name;
  std::vector<DutNetlist> stages;
  stages.push_back(std::move(dut));
  return make_seq_dut(std::move(stages), kind, display);
}

std::vector<std::uint64_t> split_bank_word(std::uint64_t word,
                                           std::span<const int> widths) {
  std::vector<std::uint64_t> out;
  out.reserve(widths.size());
  int shift = 0;
  for (const int w : widths) {
    out.push_back((word >> shift) & mask_n(w));
    shift += w;
  }
  return out;
}

std::uint64_t seq_settled_output(const SeqDut& seq,
                                 std::span<const std::uint64_t> operands) {
  VOSIM_EXPECTS(operands.size() == seq.num_operands());
  std::vector<std::uint64_t> words(operands.begin(), operands.end());
  std::uint64_t out = 0;
  for (std::size_t k = 0; k < seq.stages.size(); ++k) {
    const DutNetlist& stage = seq.stages[k];
    const DutPinMap pins(stage);
    std::vector<lanes::Word> pi_words(
        stage.netlist.primary_inputs().size());
    pins.scatter_lanes(words, 1, pi_words);
    std::vector<std::uint8_t> inputs;
    lanes::unpack_lane(pi_words, 0, inputs);
    const std::vector<std::uint8_t> values =
        evaluate_logic(stage.netlist, inputs);
    out = pins.gather_output(
        pack_word(values, stage.netlist.primary_outputs()));
    // The registered word splits into the next stage's operand words.
    if (k + 1 < seq.stages.size())
      words = split_bank_word(out, seq.stages[k + 1].operand_widths());
  }
  return out;
}

double seq_clock_energy_fj(const SeqDut& seq, const CellLibrary& lib,
                           double vdd_v) {
  return seq.num_flops() * lib.dff_clock_energy_fj() * vdd_v * vdd_v;
}

std::string unknown_circuit_message(const std::string& spec) {
  std::string msg = "unknown circuit spec '" + spec + "'; " +
                    known_circuits_help() + "; " +
                    known_seq_circuits_help();
  std::vector<std::string> candidates = seq_circuit_registry();
  const std::vector<std::string> comb = circuit_registry_examples();
  candidates.insert(candidates.end(), comb.begin(), comb.end());
  const std::string near = closest_match(spec, candidates);
  if (!near.empty()) msg += " — did you mean '" + near + "'?";
  return msg;
}

SeqDut build_seq_circuit(const std::string& spec) {
  if (spec == "pipe2-mul8") return build_pipe2_mul8();
  if (spec == "pipe3-mac4x8") return build_pipe3_mac4x8();
  if (spec == "fir4-pipe") return build_fir4_pipe();
  throw std::invalid_argument(unknown_circuit_message(spec));
}

bool is_seq_circuit_spec(const std::string& spec) {
  return spec.rfind("pipe", 0) == 0 ||
         spec.find("-pipe") != std::string::npos;
}

std::vector<std::string> seq_circuit_registry() {
  return {"pipe2-mul8", "pipe3-mac4x8", "fir4-pipe"};
}

std::string known_seq_circuits_help() {
  return "supported pipelines: pipe2-mul8 pipe3-mac4x8 fir4-pipe "
         "(clocked multi-stage circuits; see DESIGN.md §10)";
}

}  // namespace vosim
