#include "src/obs/metrics.hpp"

#include <chrono>
#include <cmath>
#include <sstream>

#include "src/util/jsonl.hpp"  // jsonl::num — shortest decimal form

namespace vosim::obs {
namespace {

/// Log10-seconds bucket range: 100 ns .. 100 s, 6 buckets per decade.
constexpr double kLogLo = -7.0;
constexpr double kLogHi = 2.0;
constexpr std::size_t kLogBins = 54;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpinGuard {
  explicit SpinGuard(std::atomic_flag& f) noexcept : flag(f) {
    while (flag.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~SpinGuard() { flag.clear(std::memory_order_release); }
  std::atomic_flag& flag;
};

}  // namespace

unsigned thread_shard() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const unsigned slot =
      next.fetch_add(1, std::memory_order_relaxed) %
      static_cast<unsigned>(kMetricShards);
  return slot;
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t sum = 0;
  for (const Shard& s : shards_) sum += s.v.load(std::memory_order_relaxed);
  return sum;
}

void Counter::reset() noexcept {
  for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
}

void Gauge::add(double d) noexcept {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d,
                                   std::memory_order_relaxed)) {
  }
}

LatencyHisto::Shard::Shard() : hist(kLogLo, kLogHi, kLogBins) {}

LatencyHisto::LatencyHisto() : shards_(new Shard[kMetricShards]) {}

void LatencyHisto::observe(double seconds) noexcept {
  const double log_s = std::log10(std::max(seconds, 1e-9));
  Shard& s = shards_[thread_shard()];
  SpinGuard g(s.lock);
  s.hist.add(log_s);
  s.stats.add(seconds);
}

LatencyHisto::Snapshot LatencyHisto::snapshot() const {
  Histogram merged(kLogLo, kLogHi, kLogBins);
  RunningStats stats;
  for (std::size_t i = 0; i < kMetricShards; ++i) {
    const Shard& s = shards_[i];
    SpinGuard g(s.lock);
    merged.merge(s.hist);
    stats.merge(s.stats);
  }
  Snapshot snap;
  snap.count = stats.count();
  if (snap.count == 0) return snap;
  snap.mean = stats.mean();
  snap.min = stats.min();
  snap.max = stats.max();
  snap.p50 = std::pow(10.0, merged.quantile(0.50));
  snap.p95 = std::pow(10.0, merged.quantile(0.95));
  snap.p99 = std::pow(10.0, merged.quantile(0.99));
  return snap;
}

void LatencyHisto::reset() noexcept {
  for (std::size_t i = 0; i < kMetricShards; ++i) {
    Shard& s = shards_[i];
    SpinGuard g(s.lock);
    s.hist = Histogram(kLogLo, kLogHi, kLogBins);
    s.stats = RunningStats();
  }
}

std::string MetricsSnapshot::to_json() const {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    out << (first ? "" : ",") << '"' << name << "\":" << v;
    first = false;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    out << (first ? "" : ",") << '"' << name << "\":" << jsonl::num(v);
    first = false;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "" : ",") << '"' << name << "\":{\"count\":" << h.count
        << ",\"mean\":" << jsonl::num(h.mean)
        << ",\"min\":" << jsonl::num(h.min)
        << ",\"max\":" << jsonl::num(h.max)
        << ",\"p50\":" << jsonl::num(h.p50)
        << ",\"p95\":" << jsonl::num(h.p95)
        << ",\"p99\":" << jsonl::num(h.p99) << '}';
    first = false;
  }
  out << "}}";
  return out.str();
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

LatencyHisto& MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(m_);
  auto it = histos_.find(name);
  if (it == histos_.end()) {
    it = histos_
             .emplace(std::string(name), std::make_unique<LatencyHisto>())
             .first;
  }
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(m_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histos_) snap.histograms[name] = h->snapshot();
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histos_) h->reset();
}

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never dtor'd
  return *registry;
}

ScopedTimer::ScopedTimer(LatencyHisto& h) noexcept
    : histo_(h), start_ns_(now_ns()) {}

ScopedTimer::~ScopedTimer() {
  histo_.observe(static_cast<double>(now_ns() - start_ns_) * 1e-9);
}

}  // namespace vosim::obs
