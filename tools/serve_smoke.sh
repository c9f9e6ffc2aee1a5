#!/usr/bin/env bash
# Online-serve smoke (ctest + CI): pipe the canned event stream through
# `taskdrop_cli serve` and require the decision log to be byte-identical
# to the committed golden — the online admission service's end-to-end
# determinism contract (stats go to a side channel, so the log carries no
# timing noise).
#
#   tools/serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden> [stdio]
#
# With `stdio` the daemon reads stdin and writes stdout instead of
# --stream/--out, and must also answer a peer that sends one event and
# waits: the event's decisions have to arrive before the daemon sees EOF.
set -euo pipefail

usage="usage: serve_smoke.sh <taskdrop_cli> <events.stream> <decisions.golden> [stdio]"
cli=${1:?$usage}
stream=${2:?$usage}
golden=${3:?$usage}
mode=${4:-files}

tmp_dir=$(mktemp -d)
trap 'rm -rf "$tmp_dir"' EXIT

serve_args=(--scenario=spec_hc --mapper=PAM --dropper=heuristic --volatile)

if [[ $mode == stdio ]]; then
  "$cli" serve "${serve_args[@]}" --stats-out="$tmp_dir/stats.txt" \
      < "$stream" > "$tmp_dir/decisions.log"
  diff "$golden" "$tmp_dir/decisions.log"

  # Interactive peer: one event in, its first decision back, input still
  # open.
  mkfifo "$tmp_dir/in.fifo" "$tmp_dir/out.fifo"
  "$cli" serve "${serve_args[@]}" --stats-out=/dev/null \
      < "$tmp_dir/in.fifo" > "$tmp_dir/out.fifo" &
  daemon=$!
  exec 3> "$tmp_dir/in.fifo"
  exec 4< "$tmp_dir/out.fifo"
  grep -m1 '^arrive' "$stream" >&3
  first=""
  read -r -t 10 -u 4 first || true
  exec 3>&-
  cat <&4 > /dev/null
  exec 4<&-
  wait "$daemon"
  if [[ $first != "$(head -n1 "$golden")" ]]; then
    echo "serve smoke: no decision came back before EOF (got '$first')" >&2
    exit 1
  fi
else
  "$cli" serve "${serve_args[@]}" --stream="$stream" \
      --out="$tmp_dir/decisions.log" --stats-out="$tmp_dir/stats.txt"
  diff "$golden" "$tmp_dir/decisions.log"
fi
cat "$tmp_dir/stats.txt"
echo "serve smoke OK ($mode): decision log is byte-identical to" \
     "$(basename "$golden")"
