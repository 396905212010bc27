// Per-run manifest: which tool/engine/lane width/shard produced a
// store or a daemon, plus an FNV-1a hash of the launch configuration.
//
// The manifest is written as the first line of a file-backed campaign
// store ("{\"vosim_manifest\":1,...}") and returned by the serve
// daemon's `stats` verb. Backward compatibility is structural: the
// line has no "workload" field, so CampaignStore::parse_jsonl rejects
// it and pre-manifest readers skip it as an unparseable line, while
// merge_stores counts and excludes it explicitly (DESIGN.md §12).
#ifndef VOSIM_OBS_MANIFEST_HPP
#define VOSIM_OBS_MANIFEST_HPP

#include <cstdint>
#include <optional>
#include <string>

namespace vosim::obs {

/// Store-format revision, stamped into manifests and into every cell's
/// key (CampaignCellKey::store_version). It moves whenever the values a
/// cell key names change meaning — 10: every backend runs each
/// workload's one batch schedule — so a store written before cannot
/// answer lookups with cells computed the old way.
inline constexpr int kStoreVersion = 10;

struct RunManifest {
  std::string tool;              ///< CLI subcommand or "serve"
  std::string engine = "event";  ///< backend engine token
  /// Levelized lanes per pass: always 64 in what this version writes,
  /// still parsed so stores stamped with another width stay readable.
  std::uint64_t lane_width = 64;
  std::string shard = "0/1";     ///< "index/count"
  /// Canonical launch configuration (hashed, never serialized).
  std::string config;
  int store_version = kStoreVersion;

  /// FNV-1a of `config`.
  std::uint64_t config_hash() const noexcept;

  /// Single-line JSON object (doubles as a store header line):
  /// {"vosim_manifest":1,"store_version":10,"tool":"campaign",
  ///  "engine":"levelized","lane_width":64,"shard":"0/1",
  ///  "config_hash":"deadbeef01234567"}
  std::string to_jsonl() const;

  /// True when `line` is a manifest line (cheap substring probe).
  static bool is_manifest_line(const std::string& line);
  /// Parses a to_jsonl() line; nullopt when it is not a manifest.
  /// `config` cannot be recovered (only its hash travels); the parsed
  /// hash is exposed via `parsed_hash`.
  static std::optional<RunManifest> parse(const std::string& line);

  /// Hash recovered by parse() (config itself is not serialized).
  std::uint64_t parsed_hash = 0;
};

}  // namespace vosim::obs

#endif  // VOSIM_OBS_MANIFEST_HPP
