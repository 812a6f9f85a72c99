#!/usr/bin/env bash
# Golden campaign fingerprints. Every non-comment line of the golden file is
#   <model> TAB <extra fuzz flags> TAB <expected state: line>
# and names the campaign
#   cftcg fuzz <model> --max-execs 20000 --seed 3 <extra fuzz flags>
# whose final `state:` line (corpus / coverage / provenance digests) must
# match character for character. A VM or lowering change that claims to keep
# campaigns bit-identical is held to that claim here.
#
# usage: state_golden.sh <cftcg binary> <golden file>           check
#        state_golden.sh <cftcg binary> <golden file> --write   re-capture
# Re-capture only for a change that is meant to alter campaigns.
set -euo pipefail

cli=$(realpath "$1")
golden=$(realpath "$2")
mode=${3:-check}

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
  # shellcheck disable=SC2086  # flags is a word list by design
  got=$("$cli" fuzz "$model" --max-execs 20000 --seed 3 $flags | grep '^state:')
  printf '%s\t%s\t%s\n' "$model" "$flags" "$got" >> "$out"
  checked=$((checked + 1))
  if [ "$mode" != "--write" ] && [ "$got" != "$want" ]; then
    echo "DRIFT: $model $flags"
    echo "  golden: $want"
    echo "  now:    $got"
    failures=$((failures + 1))
  fi
done < "$golden"

if [ "$mode" = "--write" ]; then
  cp "$out" "$golden"
  echo "re-captured $checked campaign fingerprint(s) into $golden"
  exit 0
fi
if [ "$failures" -ne 0 ]; then
  echo "$failures of $checked campaign fingerprint(s) drifted"
  exit 1
fi
echo "all $checked campaign fingerprints match"
