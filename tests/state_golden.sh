#!/usr/bin/env bash
# Golden campaign fingerprints. Every non-comment line of the golden file is
#   <model> TAB <extra fuzz flags> TAB <expected line>
# and names the campaign
#   cftcg fuzz <model> --max-execs 20000 --seed 3 <extra fuzz flags>
# whose first output line starting with the expected line's first word must
# match it character for character: the final `state:` line (corpus /
# coverage / provenance digests), or for a `--profile` campaign the
# `profile:` line of VM dispatch and step totals. A VM or
# lowering change that claims to keep campaigns and their profiles
# bit-identical is held to that claim here.
#
# The optional residual golden holds the `residual` trace events (best branch
# distance per uncovered outcome) of traced campaigns, one event per line:
#   <model> TAB <extra fuzz flags> TAB <event JSON without its "t" field>
# Its campaigns are the distinct model/flags pairs it lists, each run as
#   cftcg fuzz <model> --max-execs 20000 --seed 3 <extra fuzz flags> --trace
# and a campaign that leaves no residual is listed once with the event `none`.
# The distances must match bit for bit (the trace prints them round-trip).
#
# The optional trace golden holds, per model, the per-execution events of
#   cftcg fuzz <model> --max-execs 20000 --seed 3 --trace
# one per line as <model> TAB <event JSON>: the `new`, `frontier` and
# `corpus` events in emission order, then the `objective` events sorted
# (their emission order is not part of the contract). Timestamps (`t`,
# `time_s`) and the `lane` field are dropped before comparing.
#
# usage: state_golden.sh <cftcg binary> <golden file>
#                        [<residual golden> [<trace golden>]]       check
#        state_golden.sh <cftcg binary> <golden file>
#                        [<residual golden> [<trace golden>]] --write
#                                                                   re-capture
# Re-capture only for a change that is meant to alter campaigns.
set -euo pipefail

cli=$(realpath "$1")
golden=$(realpath "$2")
shift 2
residual_golden=""
trace_golden=""
mode=check
for arg in "$@"; do
  if [ "$arg" = "--write" ]; then
    mode=--write
  elif [ -z "$residual_golden" ]; then
    residual_golden=$(realpath "$arg")
  else
    trace_golden=$(realpath "$arg")
  fi
done

work=$(mktemp -d /tmp/cftcg_golden.XXXXXX)
trap 'rm -rf "$work"' EXIT
cd "$work"

failures=0
checked=0
out="$work/golden.new"
: > "$out"
while IFS= read -r line || [ -n "$line" ]; do
  if [ -z "$line" ] || [ "${line:0:1}" = "#" ]; then
    printf '%s\n' "$line" >> "$out"
    continue
  fi
  IFS=$'\t' read -r model flags want <<< "$line"
  key=${want%% *}
  # shellcheck disable=SC2086  # flags is a word list by design
  got=$("$cli" fuzz "$model" --max-execs 20000 --seed 3 $flags |
        awk -v k="$key " 'index($0, k) == 1 && !found { print; found = 1 }')
  printf '%s\t%s\t%s\n' "$model" "$flags" "$got" >> "$out"
  checked=$((checked + 1))
  if [ "$mode" != "--write" ] && [ "$got" != "$want" ]; then
    echo "DRIFT: $model $flags"
    echo "  golden: $want"
    echo "  now:    $got"
    failures=$((failures + 1))
  fi
done < "$golden"

residual_checked=0
if [ -n "$residual_golden" ]; then
  rout="$work/residual.new"
  grep '^#' "$residual_golden" > "$rout" || true
  # Campaign keys in order of first appearance.
  grep -v '^#' "$residual_golden" | grep -v '^$' | cut -f1,2 | awk '!seen[$0]++' \
    > "$work/keys"
  while IFS=$'\t' read -r model flags; do
    want=$(grep -v '^#' "$residual_golden" |
           awk -F'\t' -v m="$model" -v f="$flags" '$1 == m && $2 == f { print $3 }')
    # shellcheck disable=SC2086  # flags is a word list by design
    "$cli" fuzz "$model" --max-execs 20000 --seed 3 $flags --trace "$work/t.jsonl" \
      > /dev/null
    got=$(grep '"ev":"residual"' "$work/t.jsonl" | sed 's/^{"t":[^,]*,/{/' || true)
    [ -n "$got" ] || got=none
    printf '%s\n' "$got" | awk -v m="$model" -v f="$flags" '{ printf "%s\t%s\t%s\n", m, f, $0 }' \
      >> "$rout"
    residual_checked=$((residual_checked + 1))
    if [ "$mode" != "--write" ] && [ "$got" != "$want" ]; then
      echo "RESIDUAL DRIFT: $model $flags"
      diff <(printf '%s\n' "$want") <(printf '%s\n' "$got") | sed 's/^/  /' || true
      failures=$((failures + 1))
    fi
  done < "$work/keys"
fi

trace_checked=0
if [ -n "$trace_golden" ]; then
  tout="$work/trace.new"
  grep '^#' "$trace_golden" > "$tout" || true
  normalize() { sed -E 's/^\{"t":[^,]*,/{/; s/,"time_s":[^,}]*//; s/,"lane":[0-9]+//'; }
  for model in $(grep -v '^#' "$trace_golden" | grep -v '^$' | cut -f1 | awk '!seen[$0]++'); do
    want=$(grep -v '^#' "$trace_golden" | awk -F'\t' -v m="$model" '$1 == m { print $2 }')
    "$cli" fuzz "$model" --max-execs 20000 --seed 3 --trace "$work/t.jsonl" > /dev/null
    got=$( (grep -E '"ev":"(new|frontier|corpus)"' "$work/t.jsonl" | normalize || true;
            grep '"ev":"objective"' "$work/t.jsonl" | normalize | LC_ALL=C sort || true) )
    printf '%s\n' "$got" | awk -v m="$model" '{ printf "%s\t%s\n", m, $0 }' >> "$tout"
    trace_checked=$((trace_checked + 1))
    if [ "$mode" != "--write" ] && [ "$got" != "$want" ]; then
      echo "TRACE DRIFT: $model"
      diff <(printf '%s\n' "$want") <(printf '%s\n' "$got") | sed 's/^/  /' | head -20 || true
      failures=$((failures + 1))
    fi
  done
fi

if [ "$mode" = "--write" ]; then
  cp "$out" "$golden"
  echo "re-captured $checked campaign fingerprint(s) into $golden"
  if [ -n "$residual_golden" ]; then
    cp "$rout" "$residual_golden"
    echo "re-captured $residual_checked campaign residual table(s) into $residual_golden"
  fi
  if [ -n "$trace_golden" ]; then
    cp "$tout" "$trace_golden"
    echo "re-captured $trace_checked campaign event sequence(s) into $trace_golden"
  fi
  exit 0
fi
if [ "$failures" -ne 0 ]; then
  echo "$failures of $((checked + residual_checked + trace_checked)) campaign fingerprint(s)" \
    "drifted"
  exit 1
fi
echo "all $checked campaign fingerprints match"
[ -z "$residual_golden" ] ||
  echo "all $residual_checked campaign residual tables match"
[ -z "$trace_golden" ] ||
  echo "all $trace_checked campaign event sequences match"
