#include "src/util/jsonl.hpp"

#include <charconv>
#include <cstdlib>

namespace vosim::jsonl {

/// std::to_chars with a precision formats as printf's %g does and
/// std::from_chars reads as strtod does (both correctly rounded), so
/// these are the bytes of the snprintf/strtod rule every stored key and
/// line was written with (tests/test_campaign.cpp checks them against
/// it). %.17g always round-trips; %.15g goes first so common values
/// stay readable.
void append_num(std::string& out, double v) {
  char buf[32];  // "%.17g" of a double needs at most 24
  char* end = std::to_chars(buf, buf + sizeof buf, v,
                            std::chars_format::general, 15)
                  .ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  if (back != v)
    end = std::to_chars(buf, buf + sizeof buf, v,
                        std::chars_format::general, 17)
              .ptr;
  out.append(buf, end);
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string num(double v) {
  std::string out;
  append_num(out, v);
  return out;
}

bool raw_field(const std::string& line, const std::string& field,
               std::string& out) {
  const std::string needle = "\"" + field + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t begin = at + needle.size();
  if (begin >= line.size()) return false;
  if (line[begin] == '"') {
    const std::size_t end = line.find('"', begin + 1);
    if (end == std::string::npos) return false;
    out = line.substr(begin + 1, end - begin - 1);
    return true;
  }
  std::size_t end = begin;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  out = line.substr(begin, end - begin);
  return !out.empty();
}

bool num_field(const std::string& line, const std::string& field,
               double& out) {
  std::string raw;
  if (!raw_field(line, field, raw)) return false;
  char* end = nullptr;
  out = std::strtod(raw.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool u64_field(const std::string& line, const std::string& field,
               std::uint64_t& out) {
  std::string raw;
  if (!raw_field(line, field, raw)) return false;
  // strtoull would silently wrap "-1"; these fields are never written
  // negative, so a sign means corruption.
  if (raw[0] == '-' || raw[0] == '+') return false;
  char* end = nullptr;
  out = std::strtoull(raw.c_str(), &end, 10);
  return end != nullptr && *end == '\0';
}

}  // namespace vosim::jsonl
