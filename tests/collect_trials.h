// Test helper: gathers per-trial results through RunnerOptions::trial_sink,
// the library's one per-trial output path.
#pragma once

#include <vector>

#include "core/runner.h"

namespace rumor {

// Points options.trial_sink at *out, which then receives a copy of every
// trial's SpreadResult in the order the runner delivers them (trial order).
inline void collect_trials(RunnerOptions& options, std::vector<SpreadResult>* out) {
  options.trial_sink = [out](int, const SpreadResult& r) { out->push_back(r); };
}

}  // namespace rumor
