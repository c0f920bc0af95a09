// Scenario specifications: named, parameterized recipes for DynamicNetworks.
//
// A ScenarioSpec couples a CLI-stable name with a parameter schema (typed,
// defaulted, range-checked) and a factory that turns resolved parameter
// values into the runner's NetworkFactory. The registry (registry.h)
// enumerates every dynamic-network family and static baseline in the tree as
// one of these, so drivers, tests, and benches all construct workloads from
// the same table instead of bespoke main() wiring.
//
// Determinism contract: the NetworkFactory produced by a spec must derive all
// randomness (graph construction and network evolution alike) from the
// per-trial seed it receives, so that a (scenario, params, seed) triple fully
// reproduces a run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/runner.h"

namespace rumor {

enum class ParamKind { integer, real, flag };

std::string to_string(ParamKind k);

// One entry of a scenario's parameter schema. Values are carried as doubles
// (exact for the integer magnitudes used here); `kind` drives validation and
// formatting.
struct ParamSpec {
  std::string name;
  ParamKind kind = ParamKind::real;
  double fallback = 0.0;  // default when the caller does not override
  double min_value = 0.0;  // inclusive bounds, checked on resolve
  double max_value = 0.0;
  std::string description;
};

struct ScenarioSpec;

// Resolved parameter values for one scenario: schema defaults overlaid with
// caller overrides, validated (unknown names, type mismatches, and range
// violations all throw a plain std::invalid_argument whose message ends in
// "; see: rumor_cli describe --scenario NAME").
class ScenarioParams {
 public:
  static ScenarioParams resolve(const ScenarioSpec& spec,
                                const std::map<std::string, std::string>& overrides);

  std::int64_t integer(const std::string& name) const;
  double real(const std::string& name) const;
  bool flag(const std::string& name) const;

  // Resolved values in schema order, formatted for manifests and logs.
  const std::vector<std::pair<std::string, std::string>>& items() const { return items_; }

 private:
  double raw(const std::string& name) const;

  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> items_;
};

struct ScenarioSpec {
  std::string name;          // stable CLI identifier, e.g. "dynamic_star"
  std::string summary;       // one-line description for `rumor_cli list`
  std::string paper_anchor;  // theorem/section or related-work citation
  std::vector<ParamSpec> params;

  // Builds the per-trial network factory from resolved parameters. The
  // returned factory owns copies of everything it needs.
  NetworkFactory (*make_factory)(const ScenarioParams& params) = nullptr;

  const ParamSpec* find_param(const std::string& param_name) const;
};

// Formats a schema value per its kind ("256", "0.25", "true").
std::string format_param_value(ParamKind kind, double value);

}  // namespace rumor
