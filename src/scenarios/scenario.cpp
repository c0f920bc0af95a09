#include "scenarios/scenario.h"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "support/cli.h"
#include "support/contracts.h"
#include "support/json.h"

namespace rumor {

std::string to_string(ParamKind k) {
  switch (k) {
    case ParamKind::integer:
      return "int";
    case ParamKind::real:
      return "real";
    case ParamKind::flag:
      return "flag";
  }
  return "?";
}

std::string format_param_value(ParamKind kind, double value) {
  switch (kind) {
    case ParamKind::integer:
      return std::to_string(static_cast<std::int64_t>(value));
    case ParamKind::real:
      return json_number(value);
    case ParamKind::flag:
      return value != 0.0 ? "true" : "false";
  }
  return "?";
}

const ParamSpec* ScenarioSpec::find_param(const std::string& param_name) const {
  for (const ParamSpec& p : params) {
    if (p.name == param_name) return &p;
  }
  return nullptr;
}

namespace {

// A bad override is a user input error, not a broken invariant: it throws a
// plain std::invalid_argument (no source location) that points at the schema.
[[noreturn]] void bad_override(const ScenarioSpec& spec, const std::string& message) {
  throw std::invalid_argument(message + "; see: rumor_cli describe --scenario " + spec.name);
}

double parse_override(const ScenarioSpec& spec, const ParamSpec& param, const std::string& text) {
  switch (param.kind) {
    case ParamKind::flag: {
      const std::optional<bool> flag = parse_bool_word(text);
      if (!flag) {
        bad_override(spec, "parameter '" + param.name + "' expects a flag, got '" + text + "'");
      }
      return *flag ? 1.0 : 0.0;
    }
    case ParamKind::integer:
    case ParamKind::real: {
      char* end = nullptr;
      const double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
        bad_override(spec, "parameter '" + param.name + "' expects a number, got '" + text + "'");
      }
      if (param.kind == ParamKind::integer && v != std::floor(v)) {
        bad_override(spec,
                     "parameter '" + param.name + "' expects an integer, got '" + text + "'");
      }
      return v;
    }
  }
  return 0.0;
}

}  // namespace

ScenarioParams ScenarioParams::resolve(const ScenarioSpec& spec,
                                       const std::map<std::string, std::string>& overrides) {
  for (const auto& [name, text] : overrides) {
    (void)text;
    if (spec.find_param(name) == nullptr) {
      bad_override(spec, "scenario '" + spec.name + "' has no parameter '" + name + "'");
    }
  }

  ScenarioParams out;
  for (const ParamSpec& p : spec.params) {
    double v = p.fallback;
    auto it = overrides.find(p.name);
    if (it != overrides.end()) {
      v = parse_override(spec, p, it->second);
      if (v < p.min_value || v > p.max_value) {
        bad_override(spec, "parameter '" + p.name + "' = " + it->second + " is outside [" +
                               format_param_value(p.kind, p.min_value) + ", " +
                               format_param_value(p.kind, p.max_value) + "]");
      }
    }
    out.values_[p.name] = v;
    out.items_.emplace_back(p.name, format_param_value(p.kind, v));
  }
  return out;
}

double ScenarioParams::raw(const std::string& name) const {
  auto it = values_.find(name);
  DG_REQUIRE(it != values_.end(), "unresolved scenario parameter '" + name + "'");
  return it->second;
}

std::int64_t ScenarioParams::integer(const std::string& name) const {
  return static_cast<std::int64_t>(raw(name));
}

double ScenarioParams::real(const std::string& name) const { return raw(name); }

bool ScenarioParams::flag(const std::string& name) const { return raw(name) != 0.0; }

}  // namespace rumor
