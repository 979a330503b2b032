#!/usr/bin/env bash
# Runs scripts/harness_parity.sh with <harness> and compares its output
# with the expected output beside this script, in harness_parity/: the
# text outputs verbatim, the decision traces by SHA-256 (two of them pass
# 1 MB). Exits non-zero, printing the difference, when any number moved:
#
#   tests/harness_parity_check.sh build/src/harness
#
# A change that means to move them regenerates the expected output:
#
#   scripts/harness_parity.sh build/src/harness tests/harness_parity
#   (cd tests/harness_parity && sha256sum ./*.jsonl | sed 's| \./| |' \
#      >traces.sha256 && rm ./*.jsonl)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <harness>" >&2
  exit 2
fi
here=$(cd "$(dirname "$0")" && pwd)
expected=$here/harness_parity
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$here/../scripts/harness_parity.sh" "$1" "$out"
diff -r -x '*.jsonl' -x traces.sha256 "$expected" "$out"
(cd "$out" && sha256sum --check --quiet "$expected/traces.sha256")
