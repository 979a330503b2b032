#!/usr/bin/env bash
# Runs a benchmark ladder and emits its google-benchmark JSON -- the repo's
# performance trajectory. Targets:
#   hotpath  bench/bench_hotpath.cpp, per-event engine cost
#            (curated record: bench/BENCH_hotpath.json, docs/PERFORMANCE.md)
#   sharded  bench/bench_sharded.cpp, aggregate arrival throughput of the
#            sharded placement service
#            (curated record: bench/BENCH_sharded.json, docs/ARCHITECTURE.md)
#   persist  bench/bench_persist.cpp, journaling/fsync overhead ladder for
#            the durable dispatcher and the sharded service
#            (curated record: bench/BENCH_persist.json, docs/DURABILITY.md)
#   net      bench/bench_net.cpp, the open-loop overload rung of the
#            binary-RPC placement server over loopback (sheds, latency
#            from each request's due time, generator lateness; five runs,
#            each against a fresh service); emits its own JSON (not
#            google-benchmark), so --repetitions does not apply (curated
#            record: bench/BENCH_net.json, docs/PROTOCOL.md)
#   migration bench/bench_migration.cpp, achieved cost at migration
#            budgets {0,1,4,inf} vs the offline no-repack baseline and
#            the Lemma 1 lower bounds; emits its own JSON, --repetitions
#            does not apply (curated record: bench/BENCH_migration.json,
#            docs/MIGRATION.md)
#   trace    bench/bench_trace.cpp, trace data-plane throughput ladder
#            (write / streaming ingest / streaming replay, d in {2,5});
#            emits its own JSON, --repetitions does not apply (curated
#            record: bench/BENCH_trace.json, docs/TRACES.md)
# Re-run after any engine or service change and compare against the
# committed record.
#
# Usage: scripts/bench_baseline.sh
#          [--target=hotpath|sharded|persist|net|migration|trace]
#                                  [--smoke]
#                                  [--build-dir=DIR] [--out=FILE]
#                                  [--repetitions=N] [--merge[=FILE]]
#   --target       which ladder to run (default: hotpath)
#   --smoke        tiny min_time; exercises every rung so the binaries
#                  cannot bit-rot (used by the Release CI job), numbers
#                  meaningless
#   --build-dir    cmake build tree containing the bench binaries
#                  (default: build)
#   --out          output JSON path (default: BENCH_<target>.json in cwd)
#   --repetitions  run each rung N times and emit min/median/mean/stddev
#                  aggregates; curated records use the medians (the boxes
#                  this runs on are shared, so single-run means are noisy)
#   --merge[=FILE] hotpath only: fold the run's BM_PlacementCycles medians
#                  into the curated record (default bench/BENCH_hotpath.json)
#                  as new "after" values in its "cycles" section. The merge
#                  is schema-versioned: a v1 record is upgraded to
#                  dvbp-bench-hotpath/2 by appending the section; the v1
#                  "benchmarks" medians are never rewritten. Requires
#                  python3 and --repetitions (medians).
set -euo pipefail

build_dir=build
out=""
smoke=0
target=hotpath
repetitions=0
merge=""
for arg in "$@"; do
  case "$arg" in
    --smoke) smoke=1 ;;
    --target=*) target="${arg#*=}" ;;
    --build-dir=*) build_dir="${arg#*=}" ;;
    --out=*) out="${arg#*=}" ;;
    --repetitions=*) repetitions="${arg#*=}" ;;
    --merge) merge="bench/BENCH_hotpath.json" ;;
    --merge=*) merge="${arg#*=}" ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

if [[ -n "$merge" && "$target" != hotpath ]]; then
  echo "error: --merge only applies to --target=hotpath" >&2
  exit 2
fi
if [[ -n "$merge" && "$repetitions" -le 0 ]]; then
  echo "error: --merge needs --repetitions (curated records use medians)" >&2
  exit 2
fi

case "$target" in
  hotpath|sharded|persist|net|migration|trace) ;;
  *) echo "unknown target: $target" \
          "(hotpath|sharded|persist|net|migration|trace)" >&2
     exit 2 ;;
esac
[[ -n "$out" ]] || out="BENCH_${target}.json"

bench="$build_dir/bench/bench_$target"
if [[ ! -x "$bench" ]]; then
  echo "error: $bench not found or not executable;" \
       "build the 'bench_$target' target first" >&2
  exit 1
fi

# bench_net, bench_migration, and bench_trace speak the harness CLI and
# write their own JSON.
if [[ "$target" == net || "$target" == migration || "$target" == trace ]];
then
  args=(--out="$out")
  if [[ "$smoke" == 1 ]]; then
    args+=(--smoke)
  fi
  "$bench" "${args[@]}" > /dev/null
  echo "wrote $out"
  exit 0
fi

args=(--benchmark_format=json
      --benchmark_out="$out"
      --benchmark_out_format=json)
if [[ "$smoke" == 1 ]]; then
  args+=(--benchmark_min_time=0.01)
fi
if [[ "$repetitions" -gt 0 ]]; then
  args+=(--benchmark_repetitions="$repetitions")
fi

"$bench" "${args[@]}" > /dev/null
echo "wrote $out"

if [[ -n "$merge" ]]; then
  python3 - "$out" "$merge" <<'PYEOF'
# Folds BM_PlacementCycles medians from a raw google-benchmark JSON into
# the curated hotpath record's "cycles" section. Append-only with respect
# to the v1 data: the "benchmarks" (real_time) medians are carried over
# byte-for-byte; only cycles entries matching this run are updated (their
# previous "after" becomes the entry's "before" when absent).
import json
import sys

raw_path, rec_path = sys.argv[1], sys.argv[2]

medians = {}
for b in json.load(open(raw_path))["benchmarks"]:
    if b.get("name", "").endswith("_median") and \
       b["run_name"].startswith("BM_PlacementCycles/"):
        medians[b["run_name"]] = (b["cycles_per_placement"],
                                  b["cache_misses_per_placement"])
if not medians:
    sys.exit("no BM_PlacementCycles medians in " + raw_path)

rec = json.load(open(rec_path))
schema = rec.get("schema", "")
if schema == "dvbp-bench-hotpath/1":
    rec["schema"] = "dvbp-bench-hotpath/2"
    rec["cycles"] = {"description": "cycles/placement medians "
                     "(BM_PlacementCycles); see docs/PERFORMANCE.md.",
                     "entries": []}
elif schema != "dvbp-bench-hotpath/2":
    sys.exit("unknown schema %r in %s; refusing to merge" %
             (schema, rec_path))

by_name = {e["name"]: e for e in rec["cycles"]["entries"]}
for name, (cycles, misses) in sorted(medians.items()):
    policy, d, n_open = name.split("/")[1:]
    entry = by_name.get(name)
    if entry is None:
        entry = {"name": name, "fixture": "BM_PlacementCycles",
                 "policy": policy, "d": int(d),
                 "forced_open_bins": int(n_open),
                 "before_cycles_per_placement": round(cycles, 1)}
        rec["cycles"]["entries"].append(entry)
    entry["after_cycles_per_placement"] = round(cycles, 1)
    entry["speedup"] = round(
        entry["before_cycles_per_placement"] / cycles, 2)
    entry["cache_misses_per_placement"] = misses

with open(rec_path, "w") as f:
    json.dump(rec, f, indent=2)
    f.write("\n")
print("merged %d cycles medians into %s" % (len(medians), rec_path))
PYEOF
fi
