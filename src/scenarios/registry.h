// The scenario registry: every dynamic-network family and static baseline in
// the tree as a named, parameterized ScenarioSpec.
//
// Names are stable CLI identifiers (snake_case); `rumor_cli list` renders the
// table, and tests iterate it to guarantee every entry constructs and runs.
// Adding a family = appending one spec here; drivers pick it up unchanged.
#pragma once

#include "scenarios/scenario.h"

namespace rumor {

// All registered scenarios, in catalog order (static baselines first, then
// the paper's dynamic families, then related-work models).
const std::vector<ScenarioSpec>& scenario_registry();

// Lookup by name; nullptr when absent.
const ScenarioSpec* find_scenario(const std::string& name);

// Lookup that throws a plain std::invalid_argument (with the catalog of valid
// names and a `rumor_cli describe` hint) when absent — the driver-facing
// variant.
const ScenarioSpec& require_scenario(const std::string& name);

}  // namespace rumor
