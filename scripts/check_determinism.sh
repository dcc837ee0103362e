#!/usr/bin/env bash
# Determinism gate: run the 3-tenant fleet at several thread counts —
# across all three controlled serving/control combos (monolithic,
# phase-split, and DVFS-enabled phase-split clock scaling), each also
# under a compiled chaos campaign (rack outages + repair crews for mono,
# cell partitions for split, thermal clock clamps for the DVFS combo),
# plus the fleet-scope balancer on a skewed and on a flat fleet and
# under a fleet admission quota, and a controller-less phase-split fleet
# under rack outages — and diff the serialized FleetReport bytes.
# Byte-identical reports at any shard/thread count are the engine's core
# guarantee, checked end to end through the sim_fleet binary. The
# telemetry layers ride along: every run also exports the time-series
# JSONL and the Chrome trace JSON, and those artifact bytes must be
# identical across thread counts too. Each combo also runs on 3 shards
# over 2 threads: uneven shard bounds (cells 0/2/5/8) with two shards on
# one worker, because which cells a worker merges together depends on
# shards and threads both.
# Shared by ci.sh and .github/workflows/ci.yml (ci.sh invokes this
# script, so the workflow cannot skip it).
set -euo pipefail
cd "$(dirname "$0")/.."

det_dir="target/ci-determinism"
mkdir -p "$det_dir"
for combo in mono split dvfs mono_chaos split_chaos dvfs_chaos balancer balancer_flat balancer_quota uncontrolled; do
  case "$combo" in
    mono)        combo_flags=(--serving mono) ;;
    split)       combo_flags=(--serving split) ;;
    dvfs)        combo_flags=(--serving split --dvfs) ;;
    mono_chaos)  combo_flags=(--serving mono --chaos rack) ;;
    split_chaos) combo_flags=(--serving split --chaos partition) ;;
    dvfs_chaos)  combo_flags=(--serving split --dvfs --chaos thermal) ;;
    # The two-level control plane: fleet-scope spill-over balancer on a
    # skewed demand mix (2 hot cells at 2.5x). Spilled cohorts cross
    # cell (and shard) boundaries, so this combo is the one that would
    # catch a rendezvous ordering bug first.
    balancer)    combo_flags=(--serving mono --balancer --skew 2x2.5) ;;
    # The balancer on an unskewed fleet: every cell stays at rate
    # multiplier 1, so all workers read the shared full-cell arrival
    # plans, which the planner refills between windows.
    balancer_flat) combo_flags=(--serving mono --balancer) ;;
    # The skewed balancer under an admission quota at 0.3x headroom: the
    # quota sheds part of the arrivals at the cell boundary, some batches
    # whole and many only in part.
    balancer_quota) combo_flags=(--serving mono --balancer --skew 2x2.5 --quota-headroom 0.3) ;;
    # No cell controller (--ctrl off overrides the base --ctrl auto):
    # every slot keeps its default state, and a slot a rack outage takes
    # down keeps its share of the split (stranded traffic).
    uncontrolled) combo_flags=(--ctrl off --serving split --chaos rack) ;;
  esac
  for run in t1 t2 t8 s3t2; do
    case "$run" in
      s3t2) shards=3 threads=2 ;;
      *)    shards=8 threads="${run#t}" ;;
    esac
    cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
      --gpu lite --instances 64 --cell-size 8 --hours 0.5 --accel 50000 \
      --ctrl auto --workload multi "${combo_flags[@]}" --no-baseline \
      --shards "$shards" --threads "$threads" \
      --series "$det_dir/series_${combo}_$run.jsonl" --series-dt 60000000 \
      --trace "$det_dir/trace_${combo}_$run.json" --trace-every 16 \
      --quiet-json 2>/dev/null
    cp target/experiments/fleet_lite.json "$det_dir/fleet_lite_${combo}_$run.json"
  done
  for artifact in fleet_lite series trace; do
    case "$artifact" in
      fleet_lite) a="$det_dir/fleet_lite_${combo}" ext=json ;;
      series)     a="$det_dir/series_${combo}"     ext=jsonl ;;
      trace)      a="$det_dir/trace_${combo}"      ext=json ;;
    esac
    for run in t2 t8 s3t2; do
      cmp "${a}_t1.$ext" "${a}_$run.$ext"
    done
  done
  echo "    $combo: report, series and trace byte-identical across 1/2/8 threads and 3 shards on 2 threads."
done

# The TCO sweep layers its own parallelism (work-stolen candidates) on
# top of the engine's: the full TcoReport — frontier indices, headline
# and per-point breakdowns — and the frontier CSV must also be
# byte-identical at any --threads setting.
for threads in 1 2 8; do
  cargo run --release -q -p litegpu-bench --bin sim_tco -- \
    --smoke --threads "$threads" \
    --series "$det_dir/tco_frontier_t$threads.csv" \
    --quiet-json 2>/dev/null
  cp target/experiments/tco.json "$det_dir/tco_t$threads.json"
done
for artifact in tco tco_frontier; do
  case "$artifact" in
    tco)          a="$det_dir/tco"          ext=json ;;
    tco_frontier) a="$det_dir/tco_frontier" ext=csv ;;
  esac
  cmp "${a}_t1.$ext" "${a}_t2.$ext"
  cmp "${a}_t1.$ext" "${a}_t8.$ext"
done
echo "    tco: TcoReport and frontier CSV byte-identical across 1/2/8 threads."
