#!/usr/bin/env bash
# Runs fourteen batch invocations that pin what `harness` prints on every
# stack it composes -- serial, traced, migrating, tenant-gated, journaled
# and recovered, sharded, sharded and journaled and recovered -- into fresh
# journal directories. Each run's output (exit code included, the columns
# that measure time left out) and each decision trace land in <out-dir>, so
# two builds print the same numbers exactly when `diff -r` between their
# out-dirs is empty:
#
#   scripts/harness_parity.sh build-a/src/harness /tmp/parity-a
#   scripts/harness_parity.sh build-b/src/harness /tmp/parity-b
#   diff -r /tmp/parity-a /tmp/parity-b
#
# Left out: wall_ms, arrivals_per_s, decision_p50_ns and placement_p50_ns
# everywhere, and checkpoint_seq and replayed_ops of the sharded --recover
# rows -- a shard checkpoints after a drained batch, and where batches end
# varies from run to run.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <harness> <out-dir>" >&2
  exit 2
fi
harness=$(realpath "$1")
mkdir -p "$2"
out=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# Relative paths, so every run prints the same file names.
cd "$work"

timing="wall_ms arrivals_per_s decision_p50_ns placement_p50_ns"

# drop_columns <name>...: rewrites each aligned table (a header row above a
# row of dashes, then rows of as many fields) without the named columns;
# every other line passes unchanged.
drop_columns() {
  awk -v names="$*" '
    { line[NR] = $0 }
    END {
      split(names, list, " ")
      for (k in list) drop[list[k]] = 1
      cols = 0
      for (i = 1; i <= NR; ++i) {
        if (i < NR && line[i + 1] ~ /^-+ *$/) {
          cols = split(line[i], head)
          for (c = 1; c <= cols; ++c) keep[c] = !(head[c] in drop)
          print kept(line[i]); print "--"; ++i
        } else if (cols > 0 && split(line[i], field) == cols) {
          print kept(line[i])
        } else {
          cols = 0
          print line[i]
        }
      }
    }
    function kept(text,    f, n, c, row) {
      n = split(text, f)
      row = ""
      for (c = 1; c <= n; ++c) if (keep[c]) row = row (row == "" ? "" : "  ") f[c]
      return row
    }'
}

# run <name> <flag>...: one harness run; `extra_drop` names more columns.
run() {
  local name=$1 status=0
  shift
  "$harness" "$@" >"$name.out" 2>&1 || status=$?
  {
    drop_columns $timing ${extra_drop:-} <"$name.out"
    echo "exit: $status"
  } >"$out/$name.txt"
}

printf '5,9,0.6\n0,4,0.7\n1,6,0.5\n2,8,0.2\n' >unsorted.csv
G="--n=2000 --d=2 --mu=10 --seed=3"

run 01_bestfit $G --policy=BestFit
run 02_traced $G --trace-out=02.jsonl --check-roundtrip --metrics-out=02.json
run 03_unsorted_csv --trace=unsorted.csv --policy=FirstFit \
  --trace-out=03.jsonl --check-roundtrip
run 04_migrate $G --policy=BestFit --migrate-budget=4 --trace-out=04.jsonl \
  --check-roundtrip
run 05_migrate_volume $G --policy=BestFit --migrate-budget=inf \
  --migrate-volume=2.5
run 06_tenant_smoke --generator=uniform --n=2000 --d=2 --mu=10 --span=1000 \
  --bin-size=100 --seed=7 --policy=BestFit --tenants=8 --capacity-units=16 \
  --credits=2 --settle-every=50 --alpha=0.05 --inflate-tenant=0 \
  --inflate-factor=4
run 07_tenants_no_arbiter $G --policy=BestFit --tenants=4 --no-arbiter
run 08_journal $G --policy=BestFit --journal-dir=d1 --checkpoint-every=512
run 09_journal_recover $G --policy=BestFit --journal-dir=d1 \
  --checkpoint-every=512 --recover
run 10_journal_migrate $G --policy=BestFit --journal-dir=d2 --migrate-budget=1
run 11_shards $G --shards=4 --router=rendezvous
run 12_shards_rebalance $G --shards=4 --migrate-budget=8
run 13_shards_journal $G --shards=2 --journal-dir=d3 --checkpoint-every=300
extra_drop="checkpoint_seq replayed_ops" run 14_shards_recover $G --shards=2 \
  --journal-dir=d3 --checkpoint-every=300 --recover
cp ./*.jsonl "$out/"
