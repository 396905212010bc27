// Minimal command-line argument parsing for the vosim tools: positional
// arguments plus --key=value / --key value options and --flags. A bare
// "--" ends option parsing; everything after it is positional.
#ifndef VOSIM_UTIL_ARGS_HPP
#define VOSIM_UTIL_ARGS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace vosim {

/// Reads `text` as a non-negative decimal integer: digits only (no
/// sign, space or trailing junk) and within 64 bits. Throws
/// std::invalid_argument naming `option` otherwise.
std::uint64_t parse_uint(const std::string& text, const std::string& option);

/// Parsed argv. Options may appear anywhere; everything else is
/// positional in order.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);
  /// Convenience for tests.
  explicit ArgParser(const std::vector<std::string>& args);

  const std::string& program() const noexcept { return program_; }
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// True when --name was present (with or without a value).
  bool has(const std::string& name) const;

  /// Option value; empty optional when absent, "" for a bare flag.
  std::optional<std::string> value(const std::string& name) const;

  /// Typed getters with defaults. Throw std::invalid_argument on
  /// malformed numbers, and when the option is present but has no value
  /// (e.g. "--patterns --csv=x" — the value-taking key must not be
  /// silently demoted to a flag). Every integer option is a count, a
  /// size or a seed, so get_uint reads it by parse_uint's rule.
  std::string get(const std::string& name,
                  const std::string& fallback) const;
  std::uint64_t get_uint(const std::string& name,
                         std::uint64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// List-valued option: every occurrence of --name contributes its
  /// comma-separated items in order ("--w fir,blur --w dot" ->
  /// {fir, blur, dot}); empty items are dropped. Returns `fallback`
  /// when the option never appears, and throws std::invalid_argument
  /// when any occurrence is a bare value-less flag.
  std::vector<std::string> get_list(
      const std::string& name,
      const std::vector<std::string>& fallback = {}) const;

  /// Canonical one-line reconstruction of the invocation (positionals
  /// in order, then options in parse order as --key=value / --key).
  /// Stable for identical invocations — the run-manifest config hash
  /// is computed over this string.
  std::string canonical() const;

 private:
  void parse(const std::vector<std::string>& args);
  /// Like value(), but throws std::invalid_argument when the option is
  /// present as a bare flag — used by the value-taking getters.
  std::optional<std::string> required_value(const std::string& name) const;

  std::string program_ = "vosim";
  std::vector<std::string> positional_;
  // nullopt value = bare flag; "" = explicitly empty value (--key=).
  std::vector<std::pair<std::string, std::optional<std::string>>> options_;
};

}  // namespace vosim

#endif  // VOSIM_UTIL_ARGS_HPP
