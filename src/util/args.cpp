#include "src/util/args.hpp"

#include <charconv>
#include <stdexcept>

#include "src/util/contracts.hpp"

namespace vosim {

std::uint64_t parse_uint(const std::string& text, const std::string& option) {
  // from_chars takes no sign or leading space for an unsigned type, so
  // "-1" cannot wrap to 2^64 - 1 the way strtoul would.
  std::uint64_t out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end)
    throw std::invalid_argument(option +
                                " takes a non-negative integer, not '" +
                                text + "'");
  return out;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  VOSIM_EXPECTS(argc >= 1);
  program_ = argv[0];
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

ArgParser::ArgParser(const std::vector<std::string>& args) { parse(args); }

void ArgParser::parse(const std::vector<std::string>& args) {
  bool options_ended = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (options_ended || arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    // "--" ends option parsing; every later token is positional even if
    // it starts with "--".
    if (arg == "--") {
      options_ended = true;
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      options_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
      continue;
    }
    // "--key value" when the next token is not an option itself;
    // otherwise a bare flag (no value). Flags are kept distinct from
    // empty-valued options so the typed getters can reject "--key
    // --other" loudly instead of misparsing --key as a flag.
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      options_.emplace_back(body, args[i + 1]);
      ++i;
    } else {
      options_.emplace_back(body, std::nullopt);
    }
  }
}

bool ArgParser::has(const std::string& name) const {
  for (const auto& [key, value] : options_)
    if (key == name) return true;
  return false;
}

std::optional<std::string> ArgParser::value(const std::string& name) const {
  for (const auto& [key, val] : options_)
    if (key == name) return val.value_or("");
  return std::nullopt;
}

std::optional<std::string> ArgParser::required_value(
    const std::string& name) const {
  for (const auto& [key, val] : options_) {
    if (key != name) continue;
    if (!val.has_value())
      throw std::invalid_argument("missing value for option --" + name);
    return val;
  }
  return std::nullopt;
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto v = required_value(name);
  return v.has_value() ? *v : fallback;
}

std::uint64_t ArgParser::get_uint(const std::string& name,
                                  std::uint64_t fallback) const {
  const auto v = required_value(name);
  return v.has_value() ? parse_uint(*v, "--" + name) : fallback;
}

std::vector<std::string> ArgParser::get_list(
    const std::string& name,
    const std::vector<std::string>& fallback) const {
  std::vector<std::string> items;
  bool present = false;
  for (const auto& [key, val] : options_) {
    if (key != name) continue;
    present = true;
    if (!val.has_value())
      throw std::invalid_argument("missing value for option --" + name);
    std::size_t begin = 0;
    while (begin <= val->size()) {
      std::size_t end = val->find(',', begin);
      if (end == std::string::npos) end = val->size();
      if (end > begin) items.push_back(val->substr(begin, end - begin));
      begin = end + 1;
    }
  }
  return present ? items : fallback;
}

std::string ArgParser::canonical() const {
  std::string out;
  for (const std::string& p : positional_) {
    if (!out.empty()) out += ' ';
    out += p;
  }
  for (const auto& [key, val] : options_) {
    if (!out.empty()) out += ' ';
    out += "--" + key;
    if (val.has_value()) out += "=" + *val;
  }
  return out;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto v = required_value(name);
  if (!v.has_value()) return fallback;
  std::size_t used = 0;
  const double out = std::stod(*v, &used);
  if (used != v->size())
    throw std::invalid_argument("not a number: --" + name + "=" + *v);
  return out;
}

}  // namespace vosim
