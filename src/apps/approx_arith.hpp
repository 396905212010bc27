// Building blocks for error-resilient applications: all arithmetic is
// routed through a pluggable adder so kernels run identically on the
// exact adder, the timing simulator or the statistical VOS model —
// "mapping error-resilient applications onto approximate operator
// models" (paper Sections I and IV).
//
// The adder, BatchAdderFn (src/model/trainer.hpp, where it is also
// Algorithm 1's training oracle), takes whole operand vectors. A kernel
// issues its additions as passes of mutually independent additions, one
// vector per pass, and every backend performs a pass's additions in
// element order. The kernel alone fixes the operation schedule, so every
// backend runs the same one (DESIGN.md §9).
#ifndef VOSIM_APPS_APPROX_ARITH_HPP
#define VOSIM_APPS_APPROX_ARITH_HPP

#include <cstdint>
#include <span>

#include "src/model/vos_model.hpp"
#include "src/sim/vos_dut.hpp"

namespace vosim {

/// Exact reference adder.
BatchAdderFn exact_adder_fn(int width);

/// The settled (zero-delay) function of a two-operand DUT as an adder:
/// evaluate_logic_packed through the DUT's pin map, 64 operations per
/// pass in element order, inputs outside the operand buses held at
/// zero. Each sum is VosOpResult::settled for those operands, so an
/// approximate adder yields its own approximate sums. A gate-level
/// simulation that is STA error-free (VosDutSim::sta_error_free)
/// computes exactly this function. `dut` must outlive the function.
BatchAdderFn settled_adder_fn(const DutNetlist& dut);

/// Statistical VOS model as an adder: one model draw per element, in
/// element order. `rng` must outlive the function.
BatchAdderFn model_adder_fn(const VosAdderModel& model, Rng& rng);

/// A gate-level VOS simulation as an adder (sampled, possibly faulty
/// outputs): the vectors stream through VosDutSim::apply_batch in
/// fixed chunks of whole 64-lane words, so scratch stays bounded by the
/// chunk. Simulator state carries across calls, so this is bit-exact
/// with one apply() per element. `sim` must be a two-operand DUT and
/// outlive the function; its engine (event-driven or levelized) is
/// whatever it was built with.
BatchAdderFn sim_batch_adder_fn(VosDutSim& sim);

class SeqSim;

/// A clocked (registered) pipeline simulation as an adder: one clock
/// cycle per element through SeqSim::step_cycle_batch, in the same
/// chunks. Because a single-stage pipeline's result registers at the
/// very next edge, the captured output IS the element's sum, and each
/// add launches from the previous element's at-edge state, exactly as
/// the registered datapath would see it. `sim` must wrap a two-operand
/// single-stage SeqDut (see wrap_as_pipeline) and outlive the function.
/// This is the campaign's sim-seq backend: truncating clocked
/// semantics, per-flop setup margin, register energy.
BatchAdderFn seq_batch_adder_fn(SeqSim& sim);

/// Element-wise subtraction a-b via two's complement: two passes
/// (a + ~b, then + 1), results masked to `width` bits (wraps like
/// hardware). `out` may alias `a` or `b`.
void approx_sub(const BatchAdderFn& add, int width,
                std::span<const std::uint64_t> a,
                std::span<const std::uint64_t> b,
                std::span<std::uint64_t> out);

/// Element-wise shift-and-add multiplication: pass i adds x << i into
/// the accumulators of the elements whose y has bit i set, so every
/// partial-product accumulation goes through the routed adder and each
/// element performs popcount(y) additions. Results masked to `width`
/// bits. `out` may alias `x` or `y`.
void approx_mul(const BatchAdderFn& add, int width,
                std::span<const std::uint64_t> x,
                std::span<const std::uint64_t> y,
                std::span<std::uint64_t> out);

}  // namespace vosim

#endif  // VOSIM_APPS_APPROX_ARITH_HPP
