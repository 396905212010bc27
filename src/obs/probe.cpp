#include "src/obs/probe.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "src/obs/metrics.hpp"
#include "src/util/contracts.hpp"

namespace vosim {

// ------------------------------------------------------- TraceRecorder

namespace {

/// VCD identifier for a net: printable-ASCII base-94 code.
std::string vcd_id(NetId net) {
  std::string id;
  std::uint32_t v = net;
  do {
    id.push_back(static_cast<char>('!' + (v % 94)));
    v /= 94;
  } while (v != 0);
  return id;
}

constexpr const char* clk_id = "~~";  // reserved marker identifier

/// Writes one recorded step as a VCD file: all of `netlist`'s nets are
/// declared, `initial` (one value per net, the pre-step baseline) is
/// dumped at #0 and every transition in `events` follows with 1 ps
/// resolution. A `clk_sample` marker pulses at `tclk_ps` so the capture
/// edge is visible.
void write_vcd(const Netlist& netlist, double tclk_ps,
               std::span<const std::uint8_t> initial,
               std::span<const TraceEvent> events, std::ostream& os) {
  VOSIM_EXPECTS(initial.size() == netlist.num_nets());
  const Netlist& nl = netlist;

  os << "$timescale 1ps $end\n";
  os << "$scope module " << nl.name() << " $end\n";
  for (NetId n = 0; n < nl.num_nets(); ++n)
    os << "$var wire 1 " << vcd_id(n) << " " << nl.net_name(n) << " $end\n";
  os << "$var wire 1 " << clk_id << " clk_sample $end\n";
  os << "$upscope $end\n$enddefinitions $end\n";

  os << "#0\n$dumpvars\n";
  for (NetId n = 0; n < nl.num_nets(); ++n)
    os << static_cast<int>(initial[n]) << vcd_id(n) << "\n";
  os << "0" << clk_id << "\n$end\n";

  // Merge the transition trace with the sampling-edge marker.
  bool clk_emitted = false;
  long last_time = -1;
  auto emit_time = [&](double t_ps) {
    const long t = std::lround(t_ps);
    if (t != last_time) {
      os << "#" << t << "\n";
      last_time = t;
    }
  };
  for (const TraceEvent& e : events) {
    if (!clk_emitted && e.time_ps >= tclk_ps) {
      emit_time(tclk_ps);
      os << "1" << clk_id << "\n";
      clk_emitted = true;
    }
    emit_time(e.time_ps);
    os << static_cast<int>(e.value) << vcd_id(e.net) << "\n";
  }
  if (!clk_emitted) {
    emit_time(tclk_ps);
    os << "1" << clk_id << "\n";
  }
}

}  // namespace

void TraceRecorder::on_step_begin(const SimEngine& engine,
                                  std::span<const std::uint8_t> initial) {
  engine_ = &engine;
  trace_.clear();
  initial_.assign(initial.begin(), initial.end());
}

void TraceRecorder::on_transition(const SimEngine&, const TraceEvent& ev) {
  trace_.push_back(ev);
}

void TraceRecorder::write(std::ostream& os) const {
  if (engine_ == nullptr)
    throw ContractViolation(
        "TraceRecorder::write: no step observed yet (attach the recorder "
        "to an event engine and run step() first)");
  write_vcd(engine_->netlist(), engine_->triad().tclk_ns * 1e3, initial_,
            trace_, os);
}

// -------------------------------------------------- ProvenanceSummary

std::string ProvenanceSummary::top_culprits_string(std::size_t k) const {
  std::string out;
  for (std::size_t i = 0; i < culprits.size() && i < k; ++i) {
    if (!out.empty()) out += ',';
    out += culprits[i].name;
    out += '=';
    out += std::to_string(culprits[i].bits);
  }
  return out;
}

ProvenanceSummary combine_stage_summaries(
    std::span<const ProvenanceSummary> stages, std::size_t top_k) {
  VOSIM_EXPECTS(!stages.empty());
  ProvenanceSummary out;
  out.ops = stages.back().ops;
  out.bitwise_ber = stages.back().bitwise_ber;
  for (const ProvenanceSummary& s : stages) {
    out.erroneous_ops += s.erroneous_ops;
    out.attributed_bits += s.attributed_bits;
    out.lane_words += s.lane_words;
    out.culprits.insert(out.culprits.end(), s.culprits.begin(),
                        s.culprits.end());
    out.slack_p50_ps = std::max(out.slack_p50_ps, s.slack_p50_ps);
    out.slack_p95_ps = std::max(out.slack_p95_ps, s.slack_p95_ps);
    out.slack_max_ps = std::max(out.slack_max_ps, s.slack_max_ps);
  }
  std::sort(out.culprits.begin(), out.culprits.end(),
            [](const CulpritCount& a, const CulpritCount& b) {
              return a.bits != b.bits ? a.bits > b.bits
                                      : a.name < b.name;
            });
  if (out.culprits.size() > top_k) out.culprits.resize(top_k);
  return out;
}

// --------------------------------------------------- ErrorProvenance

namespace {
// Slack histogram range: [0, 10 ns] covers every sane VOS overrun; the
// clamping edge bucket absorbs pathological settles.
constexpr double kSlackHiPs = 1e4;
constexpr std::size_t kSlackBins = 128;
}  // namespace

ErrorProvenance::ErrorProvenance(const Netlist& netlist,
                                 const DutPinMap& pins, int stage)
    : slack_hist_(0.0, kSlackHiPs, kSlackBins) {
  init(netlist, pins.output_slots(), stage);
}

ErrorProvenance::ErrorProvenance(const DutNetlist& dut)
    : slack_hist_(0.0, kSlackHiPs, kSlackBins) {
  const DutPinMap pins(dut);
  init(dut.netlist, pins.output_slots(), -1);
}

void ErrorProvenance::init(const Netlist& netlist,
                           std::span<const std::size_t> out_slots,
                           int stage) {
  VOSIM_EXPECTS(netlist.finalized());
  VOSIM_EXPECTS(out_slots.size() <= 64);
  netlist_ = &netlist;
  stage_ = stage;

  const auto pos = netlist.primary_outputs();
  out_net_.reserve(out_slots.size());
  for (const std::size_t s : out_slots) out_net_.push_back(pos[s]);

  const std::size_t nnets = netlist.num_nets();
  level_.assign(nnets, 0);
  cone_mask_.assign(nnets, 0);
  for (std::size_t i = 0; i < out_net_.size(); ++i)
    cone_mask_[out_net_[i]] |= 1ULL << i;

  const auto topo = netlist.topo_order();
  for (const GateId gid : topo) {
    const Gate& g = netlist.gate(gid);
    int lvl = 0;
    for (std::uint8_t i = 0; i < g.num_inputs; ++i)
      lvl = std::max(lvl, level_[g.in[i]]);
    level_[g.out] = lvl + 1;
  }
  // Backward cone propagation: walking gates in reverse topological
  // order, a gate's inputs inherit every output bit its own net can
  // reach — exact fan-in-cone membership in one pass.
  for (std::size_t t = topo.size(); t-- > 0;) {
    const Gate& g = netlist.gate(topo[t]);
    const std::uint64_t m = cone_mask_[g.out];
    if (m == 0) continue;
    for (std::uint8_t i = 0; i < g.num_inputs; ++i) cone_mask_[g.in[i]] |= m;
  }

  // Attribution scan order: gate-output nets by (level, NetId). Primary
  // inputs are excluded — they switch at the launch edge and can never
  // miss the capture.
  nets_by_level_.reserve(netlist.num_gates());
  for (GateId gid = 0; gid < netlist.num_gates(); ++gid)
    nets_by_level_.push_back(netlist.gate(gid).out);
  std::sort(nets_by_level_.begin(), nets_by_level_.end(),
            [this](NetId a, NetId b) {
              return level_[a] != level_[b] ? level_[a] < level_[b] : a < b;
            });

  culprit_bits_.assign(nnets, 0);
  bit_err_.assign(out_net_.size(), 0);
}

void ErrorProvenance::on_step_end(const SimEngine& engine,
                                  std::span<const std::uint8_t> sampled,
                                  std::span<const std::uint8_t> settled,
                                  const StepResult& result) {
  ++ops_;
  std::uint64_t err = 0;
  for (std::size_t i = 0; i < out_net_.size(); ++i)
    err |= static_cast<std::uint64_t>((sampled[out_net_[i]] ^
                                       settled[out_net_[i]]) &
                                      1u)
           << i;
  if (err == 0) return;
  ++erroneous_ops_;

  const double tclk_ps = engine.triad().tclk_ns * 1e3;
  const double slack = std::max(0.0, result.settle_time_ps - tclk_ps);
  slack_hist_.add(slack);
  slack_max_ps_ = std::max(slack_max_ps_, slack);

  // Lowest-level failing net inside each erroneous bit's cone. The PO
  // net of bit i is in its own cone and fails exactly when bit i is
  // erroneous, so every bit finds a culprit.
  std::uint64_t remaining = err;
  for (const NetId net : nets_by_level_) {
    const std::uint64_t hit = cone_mask_[net] & remaining;
    if (hit == 0 || ((sampled[net] ^ settled[net]) & 1u) == 0) continue;
    culprit_bits_[net] += static_cast<std::uint64_t>(std::popcount(hit));
    remaining &= ~hit;
    if (remaining == 0) break;
  }
  VOSIM_ENSURES(remaining == 0);

  attributed_bits_ += static_cast<std::uint64_t>(std::popcount(err));
  for (std::size_t i = 0; i < bit_err_.size(); ++i)
    bit_err_[i] += (err >> i) & 1ULL;
}

void ErrorProvenance::on_lane_word(const SimEngine&, std::size_t) {
  ++lane_words_;
}

ProvenanceSummary ErrorProvenance::summary() const {
  ProvenanceSummary s;
  s.ops = ops_;
  s.erroneous_ops = erroneous_ops_;
  s.attributed_bits = attributed_bits_;
  s.lane_words = lane_words_;
  s.bitwise_ber.resize(bit_err_.size(), 0.0);
  if (ops_ > 0)
    for (std::size_t i = 0; i < bit_err_.size(); ++i)
      s.bitwise_ber[i] =
          static_cast<double>(bit_err_[i]) / static_cast<double>(ops_);
  for (NetId net = 0; net < static_cast<NetId>(culprit_bits_.size()); ++net) {
    if (culprit_bits_[net] == 0) continue;
    CulpritCount c;
    c.net = net;
    c.level = level_[net];
    c.bits = culprit_bits_[net];
    c.name = stage_ >= 0
                 ? "s" + std::to_string(stage_) + ":" + netlist_->net_name(net)
                 : netlist_->net_name(net);
    s.culprits.push_back(std::move(c));
  }
  std::sort(s.culprits.begin(), s.culprits.end(),
            [](const CulpritCount& a, const CulpritCount& b) {
              return a.bits != b.bits ? a.bits > b.bits : a.net < b.net;
            });
  s.slack_p50_ps = slack_hist_.quantile(0.5);
  s.slack_p95_ps = slack_hist_.quantile(0.95);
  s.slack_max_ps = slack_max_ps_;
  return s;
}

void ErrorProvenance::publish(const std::string& prefix,
                              std::size_t top_k) const {
  obs::MetricsRegistry& reg = obs::metrics();
  reg.counter(prefix + ".ops").add(ops_);
  reg.counter(prefix + ".erroneous_ops").add(erroneous_ops_);
  reg.counter(prefix + ".attributed_bits").add(attributed_bits_);
  reg.counter(prefix + ".lane_words").add(lane_words_);
  for (std::size_t i = 0; i < bit_err_.size(); ++i)
    if (bit_err_[i] != 0)
      reg.counter(prefix + ".bit" + std::to_string(i)).add(bit_err_[i]);
  const ProvenanceSummary s = summary();
  for (std::size_t i = 0; i < s.culprits.size() && i < top_k; ++i)
    reg.counter(prefix + ".culprit." + s.culprits[i].name)
        .add(s.culprits[i].bits);
  // Slack distribution on the registry's log10 latency scale: ps
  // recorded as ns (1 ps -> 1e-3), so typical VOS overruns land in the
  // resolvable bucket range.
  obs::LatencyHisto& slack = reg.histogram(prefix + ".slack");
  for (std::size_t b = 0; b < slack_hist_.bucket_count(); ++b)
    for (std::size_t n = 0; n < slack_hist_.count(b); ++n)
      slack.observe(slack_hist_.center(b) * 1e-3);
}

void ErrorProvenance::merge(const ErrorProvenance& other) {
  VOSIM_EXPECTS(culprit_bits_.size() == other.culprit_bits_.size());
  VOSIM_EXPECTS(bit_err_.size() == other.bit_err_.size());
  ops_ += other.ops_;
  erroneous_ops_ += other.erroneous_ops_;
  attributed_bits_ += other.attributed_bits_;
  lane_words_ += other.lane_words_;
  for (std::size_t i = 0; i < culprit_bits_.size(); ++i)
    culprit_bits_[i] += other.culprit_bits_[i];
  for (std::size_t i = 0; i < bit_err_.size(); ++i)
    bit_err_[i] += other.bit_err_[i];
  slack_hist_.merge(other.slack_hist_);
  slack_max_ps_ = std::max(slack_max_ps_, other.slack_max_ps_);
}

}  // namespace vosim
