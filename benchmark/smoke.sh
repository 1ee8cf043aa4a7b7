#!/usr/bin/env bash
# The whole harness at 12-16 customers, in under a minute: the goldens,
# then for two seeds every workload's three set-ups and checked runs and
# one traced run. Same code paths and output checks as run.sh; the
# timings it prints mean nothing. For CI.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
"$here/run.sh" check
"$here/run.sh" suite --scale smoke --seed 42
"$here/run.sh" suite --scale smoke --seed 7
