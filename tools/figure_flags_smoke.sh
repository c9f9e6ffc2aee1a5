#!/usr/bin/env bash
# Figure-binary flag smoke (ctest): `--help` must list the accepted flags
# and exit 0 without running the experiment; an unknown flag must exit 1
# and name the flag, also without running.
#
#   tools/figure_flags_smoke.sh <figure binary, e.g. build/bench/fig6_beta>
set -uo pipefail

bin=${1:?usage: figure_flags_smoke.sh <figure binary>}
status=0

help_out=$("$bin" --help 2>&1)
help_rc=$?
if [[ $help_rc -ne 0 ]]; then
  echo "FAIL: --help exited $help_rc, expected 0"
  status=1
fi
for flag in --full --trials --divisor --seed --csv; do
  if [[ $help_out != *"$flag"* ]]; then
    echo "FAIL: --help does not list $flag"
    status=1
  fi
done
if [[ $help_out == *"scale: divisor="* ]]; then
  echo "FAIL: --help ran the experiment"
  status=1
fi

bad_out=$("$bin" --trials=1 --no-such-flag 2>&1)
bad_rc=$?
if [[ $bad_rc -ne 1 ]]; then
  echo "FAIL: an unknown flag exited $bad_rc, expected 1"
  status=1
fi
if [[ $bad_out != *"--no-such-flag"* ]]; then
  echo "FAIL: the unknown-flag error does not name the flag: $bad_out"
  status=1
fi
if [[ $bad_out == *"scale: divisor="* ]]; then
  echo "FAIL: an unknown flag ran the experiment"
  status=1
fi

[[ $status -eq 0 ]] && echo "figure flags smoke OK"
exit "$status"
