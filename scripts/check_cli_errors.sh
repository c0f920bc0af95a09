#!/usr/bin/env bash
# CLI input-error smoke: a bad command line exits 2 with a plain message that
# names the culprit — never a contract failure with a source location, never
# a silent fallback. Scenario-schema errors point at `rumor_cli describe`.
#
# Usage: scripts/check_cli_errors.sh path/to/rumor_cli
set -euo pipefail
cli=${1:?usage: check_cli_errors.sh path/to/rumor_cli}
if [ ! -x "$cli" ]; then
  echo "check_cli_errors.sh: rumor_cli not found or not executable at '$cli'" >&2
  echo "  build it first: cmake --build build --target rumor_cli" >&2
  exit 2
fi

tmp_err=$(mktemp)
trap 'rm -f "$tmp_err"' EXIT

# expect_error "EXPECTED STDERR SUBSTRING" rumor_cli-args...
expect_error() {
  local want=$1
  shift
  local code=0
  "${cli}" "$@" >/dev/null 2>"$tmp_err" || code=$?
  if [ "$code" -ne 2 ]; then
    echo "rumor_cli $*: expected exit 2, got $code" >&2
    cat "$tmp_err" >&2
    exit 1
  fi
  if ! grep -qF -- "$want" "$tmp_err"; then
    echo "rumor_cli $*: expected stderr to contain: $want" >&2
    cat "$tmp_err" >&2
    exit 1
  fi
  if grep -qE 'precondition failed|invariant failed|\.cpp:[0-9]' "$tmp_err"; then
    echo "rumor_cli $*: error leaks a contract failure or source location:" >&2
    cat "$tmp_err" >&2
    exit 1
  fi
}

expect_error "--json expects true/false, 1/0 or yes/no, got 'ture'" \
  run --scenario static_clique --n 16 --trials 2 --json=ture
expect_error "unknown scenario 'bogus' (known: " run --scenario bogus
expect_error "; see: rumor_cli describe --scenario NAME" describe --scenario bogus
expect_error "scenario 'static_torus' has no parameter 'side'; see: rumor_cli describe --scenario static_torus" \
  run --scenario static_torus --side 1000
expect_error "parameter 'rows' = 2 is outside [3, 4096]; see: rumor_cli describe --scenario static_torus" \
  run --scenario static_torus --rows 2
expect_error "parameter 'rows' expects an integer, got '4.5'; see: rumor_cli describe --scenario static_torus" \
  run --scenario static_torus --rows 4.5
expect_error "--trials expects an integer, got '3x'" run --scenario static_clique --trials 3x

echo "cli errors hold: exit 2, named culprit, no source location"
