#include "src/sta/sta.hpp"

#include <algorithm>

#include "src/tech/gate_timing.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

TimingAnalysis analyze_timing(const Netlist& netlist, const CellLibrary& lib,
                              const OperatingTriad& op) {
  VOSIM_EXPECTS(netlist.finalized());
  TimingAnalysis out;
  out.arrival_ps.assign(netlist.num_nets(), 0.0);
  const std::vector<double> load = netlist.compute_net_loads(lib);
  // argmax input per gate output, for path tracing.
  std::vector<NetId> worst_input(netlist.num_nets(), invalid_net);

  for (const GateId gid : netlist.topo_order()) {
    const Gate& g = netlist.gate(gid);
    double in_arr = 0.0;
    NetId argmax = invalid_net;
    for (std::uint8_t i = 0; i < g.num_inputs; ++i) {
      const double a = out.arrival_ps[g.in[i]];
      if (argmax == invalid_net || a > in_arr) {
        in_arr = a;
        argmax = g.in[i];
      }
    }
    const double d = gate_delay_ps(lib.cell(g.kind), load[g.out],
                                   lib.transistor_model(), op);
    out.arrival_ps[g.out] = in_arr + d;
    worst_input[g.out] = argmax;
  }

  NetId worst_po = invalid_net;
  for (const NetId po : netlist.primary_outputs()) {
    out.output_arrival_ps.push_back(out.arrival_ps[po]);
    if (worst_po == invalid_net ||
        out.arrival_ps[po] > out.arrival_ps[worst_po])
      worst_po = po;
  }
  VOSIM_ENSURES(worst_po != invalid_net);
  out.critical_path_ps = out.arrival_ps[worst_po];

  // Trace back from the worst output to a primary input.
  for (NetId n = worst_po; n != invalid_net; n = worst_input[n])
    out.critical_nets.push_back(n);
  std::reverse(out.critical_nets.begin(), out.critical_nets.end());
  return out;
}

std::vector<double> arrival_times_ps(const Netlist& netlist,
                                     std::span<const double> gate_delay_ps) {
  VOSIM_EXPECTS(netlist.finalized());
  VOSIM_EXPECTS(gate_delay_ps.size() == netlist.num_gates());
  std::vector<double> arrival(netlist.num_nets(), 0.0);
  for (const GateId gid : netlist.topo_order()) {
    const Gate& g = netlist.gate(gid);
    double in_arr = 0.0;
    for (std::uint8_t i = 0; i < g.num_inputs; ++i)
      in_arr = std::max(in_arr, arrival[g.in[i]]);
    arrival[g.out] = in_arr + gate_delay_ps[gid];
  }
  return arrival;
}

}  // namespace vosim
