#include "src/obs/manifest.hpp"

#include <cstdlib>
#include <sstream>

#include "src/util/jsonl.hpp"  // jsonl field accessors

namespace vosim::obs {
namespace {

constexpr char kMarker[] = "\"vosim_manifest\":";

std::uint64_t fnv1a(const std::string& s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << v;
  return out.str();
}

}  // namespace

std::uint64_t RunManifest::config_hash() const noexcept {
  return fnv1a(config);
}

std::string RunManifest::to_jsonl() const {
  std::ostringstream out;
  out << '{' << kMarker << "1,\"store_version\":" << store_version
      << ",\"tool\":\"" << tool << "\",\"engine\":\"" << engine
      << "\",\"lane_width\":" << lane_width << ",\"shard\":\"" << shard
      << "\",\"config_hash\":\"" << hex64(config_hash()) << "\"}";
  return out.str();
}

bool RunManifest::is_manifest_line(const std::string& line) {
  return line.find(kMarker) != std::string::npos;
}

std::optional<RunManifest> RunManifest::parse(const std::string& line) {
  if (!is_manifest_line(line)) return std::nullopt;
  RunManifest m;
  std::string raw;
  if (!jsonl::raw_field(line, "tool", raw)) return std::nullopt;
  m.tool = raw;
  if (jsonl::raw_field(line, "engine", raw)) m.engine = raw;
  if (jsonl::raw_field(line, "shard", raw)) m.shard = raw;
  std::uint64_t u = 0;
  if (jsonl::u64_field(line, "lane_width", u)) m.lane_width = u;
  double v = 0.0;
  if (jsonl::num_field(line, "store_version", v)) {
    m.store_version = static_cast<int>(v);
  }
  if (jsonl::raw_field(line, "config_hash", raw)) {
    m.parsed_hash = std::strtoull(raw.c_str(), nullptr, 16);
  }
  return m;
}

}  // namespace vosim::obs
