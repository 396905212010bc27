// Minimal JSONL codec shared by the campaign store, the merge tool, the
// serve daemon's wire format and the obs writers (metrics snapshots,
// trace events, run manifests). Only handles the flat object lines this
// codebase writes — identifiers and numbers, no escapes or nesting.
#ifndef VOSIM_UTIL_JSONL_HPP
#define VOSIM_UTIL_JSONL_HPP

#include <cstdint>
#include <string>

namespace vosim::jsonl {

/// Appends the decimal form of a double: the printf "%.15g" form when
/// it reads back as the same double, else "%.17g" (which always does).
void append_num(std::string& out, double v);
/// Appends the decimal form of an unsigned integer.
void append_u64(std::string& out, std::uint64_t v);
/// append_num into a fresh string.
std::string num(double v);
/// Extracts the raw token after `"field":` — a number, or the body of
/// a quoted string. Returns false when the field is absent.
bool raw_field(const std::string& line, const std::string& field,
               std::string& out);
bool num_field(const std::string& line, const std::string& field,
               double& out);
bool u64_field(const std::string& line, const std::string& field,
               std::uint64_t& out);

}  // namespace vosim::jsonl

#endif  // VOSIM_UTIL_JSONL_HPP
