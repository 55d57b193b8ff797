#!/bin/sh
# Run every product path once: each sweeps/*.json with every output
# flag, every study plus `study dump`/`reduce`, each shard verb and a
# queue-daemon drain, each drowsy_trace subcommand and the four
# examples.  Under a --coverage build this is the command list behind
# the product-path coverage figure (goldens/README.md has the recipe);
# elsewhere it is a smoke run of every user-facing command.  Outputs go
# to a temporary directory that is removed on exit.
#
#   goldens/product_paths.sh <build-dir>
set -e
if [ $# -ne 1 ]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "$1" && pwd)
sweep=$build/drowsy_sweep
trace=$build/drowsy_trace
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
# The replay scenarios name their trace CSVs relative to the root.
cd "$root"

sweep_run() {
  "$sweep" "$@" > /dev/null
}

# Sweeps, with every output flag.
"$sweep" list > /dev/null
"$sweep" dump > "$out/scenarios.json"
for file in sweeps/*.json; do
  name=$(basename "$file" .json)
  sweep_run validate "$file"
  sweep_run run "$file" --threads 2 --alpha 0.05 \
    --csv "$out/$name.stats.csv" --runs-csv "$out/$name.runs.csv" \
    --json "$out/$name.json" --verdicts-csv "$out/$name.verdicts.csv" \
    --trace-out "$out/$name.traces" --metrics-json "$out/$name.metrics.json"
done

# Studies: every registered one, then one dumped, queued and reduced.
"$sweep" study list > "$out/studies.txt"
for study in $(awk 'NF && $1 != "params:" {print $1}' "$out/studies.txt"); do
  sweep_run study run "$study" --threads 2 --out "$out/$study.csv" \
    --runs-csv "$out/$study.runs.csv"
done
mkdir "$out/studyq"
sweep_run study dump fig3-grace-ablation --set days=1 --out "$out/studyq/fig3.json"
sweep_run shard plan "$out/studyq/fig3.json" --shards 2 --out-dir "$out/studyq"
sweep_run shard daemon "$out/studyq" --worker-id s1 --threads 2 --poll-ms 50 \
  --max-idle-s 0.2
sweep_run study reduce fig3-grace-ablation --set days=1 \
  --journal "$out/studyq/done/shard_0.journal.jsonl" \
  --journal "$out/studyq/done/shard_1.journal.jsonl" --out "$out/fig3.sharded.csv"

# Shards: run each manifest, report and merge; then drain a queue with
# a daemon, reap it, and replan from the measured costs.
smoke=sweeps/ci_smoke.json
sweep_run shard plan "$smoke" --shards 2 --out-dir "$out/shards"
for k in 0 1; do
  sweep_run shard run "$out/shards/shard_$k.json" --threads 2
done
sweep_run shard status "$smoke" --journal "$out/shards/shard_0.journal.jsonl" \
  --journal "$out/shards/shard_1.journal.jsonl"
sweep_run shard merge "$smoke" --journal "$out/shards/shard_0.journal.jsonl" \
  --journal "$out/shards/shard_1.journal.jsonl" --alpha 0.05 \
  --csv "$out/merged.stats.csv" --runs-csv "$out/merged.runs.csv" \
  --json "$out/merged.json" --verdicts-csv "$out/merged.verdicts.csv"
mkdir "$out/queue"
sweep_run shard plan "$smoke" --shards 2 --out-dir "$out/queue"
sweep_run shard daemon "$out/queue" --worker-id w1 --threads 2 --poll-ms 50 \
  --max-idle-s 0.2 --lease-ttl-s 5
sweep_run shard reap "$out/queue" --dry-run
sweep_run shard reap "$out/queue" --reaper-id r1
done0=$out/queue/done/shard_0.journal.jsonl
done1=$out/queue/done/shard_1.journal.jsonl
sweep_run shard status "$smoke" --journal "$done0" --journal "$done1" \
  --queue-dir "$out/queue" --json
sweep_run shard plan "$smoke" --shards 2 --out-dir "$out/costed" \
  --costs "$done0" --costs "$done1"

# Builds without fault injection print the catalogue and exit 1 by
# design (docs/drowsy_sweep.md); any other failure is one.
rc=0
"$sweep" fault list > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 0 ] && [ "$rc" -ne 1 ]; then
  echo "drowsy_sweep fault list exited $rc" >&2
  exit 1
fi

# drowsy_trace.
"$trace" sample azure --out "$out/azure.raw.csv" --vms 4 --days 3 --interval-s 1800 --seed 7 \
  > /dev/null
"$trace" sample google --out "$out/google.raw.csv" --vms 3 --days 2 --seed 11 > /dev/null
"$trace" convert "$out/azure.raw.csv" --format azure --out "$out/azure.csv" \
  --manifest "$out/azure.manifest.json" > /dev/null
"$trace" convert "$out/google.raw.csv" --format google --out "$out/google.csv" > /dev/null
"$trace" stats "$out/azure.csv" > /dev/null

# Examples, in the scratch directory: trace_export writes its CSV there.
cd "$out"
for example in quickstart datacenter_sim seasonal_service trace_export; do
  "$build/$example" > /dev/null
done
echo "product paths: all ran"
