#include "support/cli.h"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace rumor {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& value,
                            const std::string& expected) {
  throw std::invalid_argument("--" + name + " expects " + expected + ", got '" + value + "'");
}

}  // namespace

std::optional<bool> parse_bool_word(const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  return std::nullopt;
}

Cli::Cli(int argc, char** argv, bool allow_positionals) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 && allow_positionals) {
      positionals_.push_back(arg);
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + arg + "' (options start with --)");
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare flag
    }
  }
}

bool Cli::has(const std::string& name) const { return values_.count(name) > 0; }

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE) bad_value(name, it->second, "an integer");
  return static_cast<std::int64_t>(v);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const char* text = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE) bad_value(name, it->second, "a number");
  return v;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<bool> v = parse_bool_word(it->second);
  if (!v) bad_value(name, it->second, "true/false, 1/0 or yes/no");
  return *v;
}

}  // namespace rumor
