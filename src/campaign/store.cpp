#include "src/campaign/store.hpp"

#include <filesystem>
#include <map>
#include <stdexcept>

#include "src/obs/manifest.hpp"

namespace vosim {

using jsonl::append_num;
using jsonl::append_u64;
using jsonl::num_field;
using jsonl::raw_field;
using jsonl::u64_field;

std::string CampaignCellKey::to_string() const {
  std::string s;
  s.reserve(workload.size() + circuit.size() + backend.size() + 160);
  s.append(workload).append(1, '|').append(circuit).append(1, '|')
      .append(backend).append(1, '|');
  append_num(s, triad.tclk_ns);
  s += ',';
  append_num(s, triad.vdd_v);
  s += ',';
  append_num(s, triad.vbb_v);
  for (const std::uint64_t field :
       {seed, train_patterns, characterize_patterns, chip, store_version}) {
    s += '|';
    append_u64(s, field);
  }
  return s;
}

CampaignStore::CampaignStore(std::string path) : path_(std::move(path)) {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;  // a fresh store: the file appears on first insert
  std::string line;
  std::uintmax_t complete_bytes = 0;  // through the last '\n'
  bool torn = false;
  while (std::getline(in, line)) {
    // getline hits end-of-file only on a line without its '\n': the
    // torn tail of an append cut short by a crash. It is dropped and
    // cut off below, or the next insert would be glued onto it.
    if (in.eof()) {
      torn = true;
      break;
    }
    complete_bytes += line.size() + 1;
    const auto cell = parse_jsonl(line);
    if (cell.has_value()) {
      cells_.insert_or_assign(cell->key.to_string(), *cell);
    } else if (obs::RunManifest::is_manifest_line(line)) {
      manifest_line_ = line;  // last manifest wins, like cells
    }
  }
  if (!torn) return;
  in.close();
  std::error_code ec;
  std::filesystem::resize_file(path_, complete_bytes, ec);
  if (ec)
    throw std::runtime_error("campaign store: cannot cut the torn tail of " +
                             path_ + ": " + ec.message());
}

const std::string& CampaignStore::manifest_line() const {
  std::lock_guard<std::mutex> lock(m_);
  return manifest_line_;
}

void CampaignStore::append_line(const std::string& line) {
  if (!out_.is_open()) {
    out_.open(path_, std::ios::app);
    if (!out_)
      throw std::runtime_error("campaign store: cannot append to " + path_);
  }
  out_ << line << '\n';
  // One flush per line: a killed run keeps every line it completed.
  if (!out_.flush())
    throw std::runtime_error("campaign store: cannot append to " + path_);
}

void CampaignStore::write_header(const std::string& line) {
  std::lock_guard<std::mutex> lock(m_);
  if (path_.empty() || !manifest_line_.empty()) return;
  append_line(line);
  manifest_line_ = line;
}

std::size_t CampaignStore::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return cells_.size();
}

std::optional<CampaignCell> CampaignStore::find(
    const CampaignCellKey& key) const {
  return find(key.to_string());
}

std::optional<CampaignCell> CampaignStore::find(
    const std::string& canonical_key) const {
  std::lock_guard<std::mutex> lock(m_);
  const auto it = cells_.find(canonical_key);
  if (it == cells_.end()) return std::nullopt;
  return it->second;
}

void CampaignStore::insert(const CampaignCell& cell) {
  std::lock_guard<std::mutex> lock(m_);
  cells_.insert_or_assign(cell.key.to_string(), cell);
  if (!path_.empty()) append_line(to_jsonl(cell));
}

std::string CampaignStore::to_jsonl(const CampaignCell& cell) {
  // Names are identifiers (registry tokens), so no string escaping is
  // needed; parse_jsonl rejects anything it did not write.
  const CampaignCellKey& k = cell.key;
  std::string s;
  s.reserve(k.workload.size() + k.circuit.size() + k.backend.size() +
            cell.metric.size() + cell.culprits.size() + 400);
  s.append("{\"workload\":\"").append(k.workload)
      .append("\",\"circuit\":\"").append(k.circuit)
      .append("\",\"backend\":\"").append(k.backend)
      .append("\",\"tclk_ns\":");
  append_num(s, k.triad.tclk_ns);
  s.append(",\"vdd_v\":");
  append_num(s, k.triad.vdd_v);
  s.append(",\"vbb_v\":");
  append_num(s, k.triad.vbb_v);
  s.append(",\"seed\":");
  append_u64(s, k.seed);
  s.append(",\"train_patterns\":");
  append_u64(s, k.train_patterns);
  s.append(",\"characterize_patterns\":");
  append_u64(s, k.characterize_patterns);
  s.append(",\"chip\":");
  append_u64(s, k.chip);
  s.append(",\"store_version\":");
  append_u64(s, k.store_version);
  s.append(",\"metric\":\"").append(cell.metric).append("\",\"quality\":");
  append_num(s, cell.quality);
  s.append(",\"normalized\":");
  append_num(s, cell.normalized);
  s.append(",\"energy_per_op_fj\":");
  append_num(s, cell.energy_per_op_fj);
  s.append(",\"baseline_fj\":");
  append_num(s, cell.baseline_fj);
  s.append(",\"ber\":");
  append_num(s, cell.ber);
  s.append(",\"adds\":");
  append_u64(s, cell.adds);
  s.append(",\"elapsed_s\":");
  append_num(s, cell.elapsed_s);
  if (!cell.culprits.empty())
    s.append(",\"culprits\":\"").append(cell.culprits).append(1, '"');
  s += '}';
  return s;
}

std::optional<CampaignCell> CampaignStore::parse_jsonl(
    const std::string& line) {
  CampaignCell cell;
  if (!raw_field(line, "workload", cell.key.workload) ||
      !raw_field(line, "circuit", cell.key.circuit) ||
      !raw_field(line, "backend", cell.key.backend) ||
      !num_field(line, "tclk_ns", cell.key.triad.tclk_ns) ||
      !num_field(line, "vdd_v", cell.key.triad.vdd_v) ||
      !num_field(line, "vbb_v", cell.key.triad.vbb_v) ||
      !u64_field(line, "seed", cell.key.seed) ||
      !u64_field(line, "train_patterns", cell.key.train_patterns) ||
      !u64_field(line, "characterize_patterns",
                 cell.key.characterize_patterns) ||
      !raw_field(line, "metric", cell.metric) ||
      !num_field(line, "quality", cell.quality) ||
      !num_field(line, "normalized", cell.normalized) ||
      !num_field(line, "energy_per_op_fj", cell.energy_per_op_fj) ||
      !num_field(line, "baseline_fj", cell.baseline_fj) ||
      !num_field(line, "ber", cell.ber) ||
      !u64_field(line, "adds", cell.adds) ||
      !num_field(line, "elapsed_s", cell.elapsed_s))
    return std::nullopt;
  // Pre-fleet stores have no chip field: those cells are the nominal
  // die (chip 0). A present-but-garbled chip still rejects the line.
  std::string chip_raw;
  if (raw_field(line, "chip", chip_raw)) {
    if (!u64_field(line, "chip", cell.key.chip)) return std::nullopt;
  } else {
    cell.key.chip = 0;
  }
  // Lines written before cells carried their store version are
  // version 9; a present-but-garbled version rejects the line.
  std::string version_raw;
  if (raw_field(line, "store_version", version_raw)) {
    if (!u64_field(line, "store_version", cell.key.store_version))
      return std::nullopt;
  } else {
    cell.key.store_version = 9;
  }
  // Optional provenance field (absent on provenance-free runs and on
  // every pre-provenance store).
  if (!raw_field(line, "culprits", cell.culprits)) cell.culprits.clear();
  return cell;
}

MergeStats merge_stores(const std::vector<std::string>& inputs,
                        const std::string& out_path,
                        bool strip_timing) {
  MergeStats stats;
  std::map<std::string, CampaignCell> merged;
  for (const std::string& path : inputs) {
    std::ifstream in(path);
    if (!in)
      throw std::runtime_error("merge-store: cannot read " + path);
    ++stats.files;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      ++stats.lines;
      auto cell = CampaignStore::parse_jsonl(line);
      if (!cell.has_value()) {
        // Run-manifest headers describe one producing run, so a merged
        // store keeps none of them; they are excluded, not "malformed".
        if (obs::RunManifest::is_manifest_line(line)) {
          ++stats.manifests;
        } else {
          ++stats.skipped;
        }
        continue;
      }
      merged.insert_or_assign(cell->key.to_string(), *cell);
    }
  }
  std::ofstream out(out_path, std::ios::trunc);
  if (!out)
    throw std::runtime_error("merge-store: cannot write " + out_path);
  for (auto& [key, cell] : merged) {
    if (strip_timing) cell.elapsed_s = 0.0;
    out << CampaignStore::to_jsonl(cell) << '\n';
  }
  stats.cells = merged.size();
  return stats;
}

}  // namespace vosim
