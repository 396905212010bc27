#include "src/apps/approx_arith.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "src/netlist/eval.hpp"
#include "src/seq/seq_sim.hpp"
#include "src/util/bits.hpp"
#include "src/util/contracts.hpp"
#include "src/util/lanes.hpp"

namespace vosim {

namespace {

/// Additions per simulator call: whole 64-lane words, so every
/// levelized pass runs full while the adapters' scratch and the
/// simulators' batch buffers stay bounded whatever the vector length.
constexpr std::size_t kChunk = 4 * lanes::kWordLanes;

void expect_same_length(std::span<const std::uint64_t> a,
                        std::span<const std::uint64_t> b,
                        std::span<const std::uint64_t> out) {
  VOSIM_EXPECTS(a.size() == b.size() && a.size() == out.size());
}

/// Streams a + b through a simulator one chunk at a time:
/// `run(ops, n, sums)` gets n interleaved (a, b) operand pairs, masked
/// to the operand widths, and writes the n sums.
template <typename Run>
void stream_chunks(std::span<const std::uint64_t> a,
                   std::span<const std::uint64_t> b,
                   std::span<std::uint64_t> out, std::uint64_t ma,
                   std::uint64_t mb, Run&& run) {
  expect_same_length(a, b, out);
  std::array<std::uint64_t, 2 * kChunk> ops;
  for (std::size_t done = 0; done < a.size(); done += kChunk) {
    const std::size_t n = std::min(kChunk, a.size() - done);
    for (std::size_t i = 0; i < n; ++i) {
      ops[2 * i] = a[done + i] & ma;
      ops[2 * i + 1] = b[done + i] & mb;
    }
    run(std::span<const std::uint64_t>(ops.data(), 2 * n), n,
        out.subspan(done, n));
  }
}

}  // namespace

BatchAdderFn exact_adder_fn(int width) {
  VOSIM_EXPECTS(width >= 1 && width <= max_word_bits);
  return [width](std::span<const std::uint64_t> a,
                 std::span<const std::uint64_t> b,
                 std::span<std::uint64_t> out) {
    expect_same_length(a, b, out);
    const std::uint64_t m = mask_n(width);
    for (std::size_t i = 0; i < a.size(); ++i)
      out[i] = exact_add(a[i] & m, b[i] & m, width);
  };
}

BatchAdderFn settled_adder_fn(const DutNetlist& dut) {
  DutPinMap pins(dut);
  VOSIM_EXPECTS(pins.num_operands() == 2);
  std::vector<NetId> out_nets;  // the net behind each output-bus bit
  for (const std::size_t slot : pins.output_slots())
    out_nets.push_back(dut.netlist.primary_outputs()[slot]);
  return [&dut, pins = std::move(pins), out_nets = std::move(out_nets)](
             std::span<const std::uint64_t> a,
             std::span<const std::uint64_t> b,
             std::span<std::uint64_t> out) {
    std::vector<lanes::Word> pi_words(dut.netlist.primary_inputs().size());
    std::vector<lanes::Word> values(dut.netlist.num_nets());
    stream_chunks(
        a, b, out, mask_n(pins.operand_width(0)),
        mask_n(pins.operand_width(1)),
        [&](std::span<const std::uint64_t> ops, std::size_t n,
            std::span<std::uint64_t> sums) {
          for (std::size_t done = 0; done < n; done += lanes::kWordLanes) {
            const std::size_t count = std::min(lanes::kWordLanes, n - done);
            pins.scatter_lanes(ops.subspan(2 * done, 2 * count), count,
                               pi_words);
            evaluate_logic_packed(dut.netlist, pi_words, values);
            lanes::gather(values.data(), out_nets, count, &sums[done], 1);
          }
        });
  };
}

BatchAdderFn model_adder_fn(const VosAdderModel& model, Rng& rng) {
  return [&model, &rng](std::span<const std::uint64_t> a,
                        std::span<const std::uint64_t> b,
                        std::span<std::uint64_t> out) {
    expect_same_length(a, b, out);
    const std::uint64_t m = mask_n(model.width());
    for (std::size_t i = 0; i < a.size(); ++i)
      out[i] = model.add(a[i] & m, b[i] & m, rng);
  };
}

BatchAdderFn sim_batch_adder_fn(VosDutSim& sim) {
  VOSIM_EXPECTS(sim.num_operands() == 2);
  return [&sim](std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out) {
    stream_chunks(a, b, out, mask_n(sim.operand_width(0)),
                  mask_n(sim.operand_width(1)),
                  [&sim](std::span<const std::uint64_t> ops, std::size_t n,
                         std::span<std::uint64_t> sums) {
                    std::array<VosOpResult, kChunk> rs;
                    sim.apply_batch(ops, n, rs);
                    for (std::size_t i = 0; i < n; ++i)
                      sums[i] = rs[i].sampled;
                  });
  };
}

BatchAdderFn seq_batch_adder_fn(SeqSim& sim) {
  VOSIM_EXPECTS(sim.num_operands() == 2);
  VOSIM_EXPECTS(sim.latency_cycles() == 1);
  return [&sim](std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out) {
    stream_chunks(a, b, out, mask_n(sim.seq().operand_width(0)),
                  mask_n(sim.seq().operand_width(1)),
                  [&sim](std::span<const std::uint64_t> ops, std::size_t n,
                         std::span<std::uint64_t> sums) {
                    std::array<SeqCycleResult, kChunk> rs;
                    sim.step_cycle_batch(ops, n, rs);
                    for (std::size_t i = 0; i < n; ++i)
                      sums[i] = rs[i].captured;
                  });
  };
}

void approx_sub(const BatchAdderFn& add, int width,
                std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out) {
  expect_same_length(a, b, out);
  const std::uint64_t m = mask_n(width);
  const std::size_t n = a.size();
  std::vector<std::uint64_t> lhs(n);
  std::vector<std::uint64_t> rhs(n);
  for (std::size_t i = 0; i < n; ++i) {
    lhs[i] = a[i] & m;
    rhs[i] = (~b[i]) & m;
  }
  add(lhs, rhs, lhs);
  for (std::size_t i = 0; i < n; ++i) {
    lhs[i] &= m;
    rhs[i] = 1;
  }
  add(lhs, rhs, out);
  for (std::uint64_t& v : out) v &= m;
}

void approx_mul(const BatchAdderFn& add, int width,
                std::span<const std::uint64_t> x,
                std::span<const std::uint64_t> y,
                std::span<std::uint64_t> out) {
  expect_same_length(x, y, out);
  const std::uint64_t m = mask_n(width);
  const std::size_t n = x.size();
  std::vector<std::uint64_t> acc(n, 0);
  std::vector<std::uint64_t> ys(n);
  std::uint64_t any = 0;  // union of the multipliers' set bits
  for (std::size_t k = 0; k < n; ++k) {
    ys[k] = y[k] & m;
    any |= ys[k];
  }
  // Pass i gathers the elements whose multiplier has bit i set.
  std::vector<std::size_t> idx;
  std::vector<std::uint64_t> lhs;
  std::vector<std::uint64_t> rhs;
  for (int i = 0; i < width && (any >> i) != 0; ++i) {
    idx.clear();
    lhs.clear();
    rhs.clear();
    for (std::size_t k = 0; k < n; ++k) {
      if (((ys[k] >> i) & 1ULL) == 0) continue;
      idx.push_back(k);
      lhs.push_back(acc[k]);
      rhs.push_back(((x[k] & m) << i) & m);
    }
    if (idx.empty()) continue;
    add(lhs, rhs, lhs);
    for (std::size_t j = 0; j < idx.size(); ++j) acc[idx[j]] = lhs[j] & m;
  }
  std::copy(acc.begin(), acc.end(), out.begin());
}

}  // namespace vosim
