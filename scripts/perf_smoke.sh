#!/usr/bin/env bash
# Perf smoke: run the fleet engine on three fixed configs — the dense
# phase-split config in both control modes ("base" with nominal clocks,
# "dvfs" with DVFS clock scaling) and the fleet-scale event-queue config
# ("fleet100k": 100k instances, sparse traffic, the regime the
# event-driven scheduler exists for; plus a "fleet100k_balancer" twin
# with the fleet-scope spill-over balancer at an hourly fleet tick) —
# then emit one commit-stamped BENCH_fleet.json artifact at the repo
# root (copied to target/ci-perf/BENCH_fleet.json, the path the CI
# workflow uploads) and fail on a >20% ticks/sec regression of any mode against the
# checked-in baseline (scripts/perf_baseline.json). The job also fails
# outright if the artifact is missing any mode's entry, so no leg can
# silently drop out of the gate. A dedicated balancer gate asserts the
# fleet-tick balancer pass adds at most 5% to the fleet100k entry. The base run carries --profile, so BENCH_fleet.json also
# records the per-phase engine time breakdown. BENCH_fleet.json carries
# the perf trajectory: the committed historical entries (starting with
# the pre-event-queue tick-loop engine) from perf_baseline.json plus the
# entry measured by this run. A final telemetry gate asserts that
# enabling the deterministic telemetry layers costs at most 2%
# ticks/sec against a telemetry-off twin. Shared by ci.sh and
# .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="target/ci-perf"
mkdir -p "$out_dir"
bench="BENCH_fleet.json"

run_mode() { # $1 = artifact path, extra args follow
  local out="$1"; shift
  cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
    --gpu lite --instances 256 --cell-size 16 --hours 2 --accel 20000 \
    --ctrl auto --workload multi --serving split --no-baseline \
    --shards 16 --threads 4 \
    --seed 42 --quiet-json --perf-json "$out" "$@" 2>/dev/null
}

run_fleet() { # $1 = artifact path — the 100k-instance event-queue regime
  local out="$1"; shift
  cargo run --release -q -p litegpu-bench --bin sim_fleet -- \
    --gpu lite --instances 100000 --cell-size 64 --hours 2 --rate 0.0005 \
    --control-interval 300 --ctrl auto --workload multi --serving mono \
    --no-baseline --shards 0 --threads 4 \
    --seed 42 --quiet-json --perf-json "$out" "$@" 2>/dev/null
}

run_mode "$out_dir/BENCH_fleet_base.json" --profile
run_mode "$out_dir/BENCH_fleet_dvfs.json" --dvfs
run_fleet "$out_dir/BENCH_fleet_100k.json"
run_fleet "$out_dir/BENCH_fleet_100k_bal.json" --balancer --balancer-interval 3600

read_field() { grep -o "\"$2\": *[0-9]*" "$1" | head -1 | grep -o '[0-9]*$'; }
measured_base=$(read_field "$out_dir/BENCH_fleet_base.json" ticks_per_sec)
measured_dvfs=$(read_field "$out_dir/BENCH_fleet_dvfs.json" ticks_per_sec)
measured_fleet=$(read_field "$out_dir/BENCH_fleet_100k.json" ticks_per_sec)
measured_bal=$(read_field "$out_dir/BENCH_fleet_100k_bal.json" ticks_per_sec)

# Commit stamp: short hash, with a -dirty suffix when the working tree
# differs from HEAD (so a locally generated artifact is never mistaken
# for a clean CI measurement of that commit). The artifact this script
# rewrites is excluded, or every run after the first on a clean tree
# would stamp itself dirty.
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if ! git diff --quiet -- . ":(exclude)$bench" 2>/dev/null; then commit="$commit-dirty"; fi

# One commit-stamped artifact tracking all three modes plus the perf
# trajectory (historical entries from perf_baseline.json + this run).
{
  echo '{'
  echo "  \"commit\": \"$commit\","
  echo '  "engine": "event-queue",'
  echo '  "base":'
  sed 's/^/  /' "$out_dir/BENCH_fleet_base.json" | sed '$ s/$/,/'
  echo '  "dvfs":'
  sed 's/^/  /' "$out_dir/BENCH_fleet_dvfs.json" | sed '$ s/$/,/'
  echo '  "fleet100k":'
  sed 's/^/  /' "$out_dir/BENCH_fleet_100k.json" | sed '$ s/$/,/'
  echo '  "fleet100k_balancer":'
  sed 's/^/  /' "$out_dir/BENCH_fleet_100k_bal.json" | sed '$ s/$/,/'
  sed -n '/"trajectory": \[/,/^  \]/p' scripts/perf_baseline.json | sed '$ d' | sed '$ s/$/,/'
  echo '    {'
  echo "      \"commit\": \"$commit\","
  echo '      "engine": "event-queue",'
  echo "      \"base_ticks_per_sec\": $measured_base,"
  echo "      \"dvfs_ticks_per_sec\": $measured_dvfs,"
  echo "      \"fleet100k_ticks_per_sec\": $measured_fleet,"
  echo "      \"fleet100k_balancer_ticks_per_sec\": $measured_bal"
  echo '    }'
  echo '  ]'
  echo '}'
} > "$bench"
cp "$bench" "$out_dir/$bench"

# All JSON files are produced by this repo with stable formatting, so
# grep-based field reads stay dependency-free.
entries=$(grep -c '"ticks_per_sec"' "$bench" || true)
if [ "$entries" -ne 4 ]; then
  echo "PERF ARTIFACT INCOMPLETE: BENCH_fleet.json must carry the base, dvfs, fleet100k and fleet100k_balancer entries (found $entries)" >&2
  exit 1
fi
if ! grep -q '"profile"' "$bench"; then
  echo "PERF ARTIFACT INCOMPLETE: BENCH_fleet.json must carry the per-phase engine profile" >&2
  exit 1
fi

baseline_base=$(read_field scripts/perf_baseline.json ticks_per_sec)
baseline_dvfs=$(read_field scripts/perf_baseline.json ticks_per_sec_dvfs)
baseline_fleet=$(read_field scripts/perf_baseline.json ticks_per_sec_fleet)
if [ -z "$baseline_base" ] || [ -z "$baseline_dvfs" ] || [ -z "$baseline_fleet" ]; then
  echo "PERF BASELINE INCOMPLETE: scripts/perf_baseline.json must carry ticks_per_sec, ticks_per_sec_dvfs and ticks_per_sec_fleet" >&2
  exit 1
fi

cat "$bench"
fail=0
for mode in base dvfs fleet100k; do
  case "$mode" in
    base)      measured=$measured_base;  baseline=$baseline_base ;;
    dvfs)      measured=$measured_dvfs;  baseline=$baseline_dvfs ;;
    fleet100k) measured=$measured_fleet; baseline=$baseline_fleet ;;
  esac
  threshold=$((baseline * 80 / 100))
  echo "    fleet perf ($mode): ${measured} instance-ticks/s (baseline ${baseline}, fail under ${threshold})"
  if [ "$measured" -lt "$threshold" ]; then
    echo "PERF REGRESSION ($mode): ${measured} ticks/s is more than 20% below the baseline ${baseline}" >&2
    fail=1
  fi
done
[ "$fail" -eq 0 ] || exit 1

# Balancer overhead gate: the fleet-tick balancer pass (snapshot →
# pure planner → directives, at an hourly fleet tick — the cadence
# fleet-scope rebalancing runs at 100k-instance scale) must add at most
# 5% ticks/sec to the fleet100k entry against a balancer-off twin.
# Alternating off/on pairs with a best-of-5 verdict, for the same
# reason as the telemetry gate below: shared-box contention corrupts
# individual pairs by more than the budget in a random direction, and
# the least-corrupted pair is the tightest available estimate — while a
# genuine machinery regression (say a quadratic planner) fails every
# pair; integer arithmetic only.
bal_pairs=""
for _ in 1 2 3 4 5; do
  run_fleet "$out_dir/BENCH_bal_probe.json"
  bal_off=$(read_field "$out_dir/BENCH_bal_probe.json" ticks_per_sec)
  run_fleet "$out_dir/BENCH_bal_probe.json" --balancer --balancer-interval 3600
  bal_on=$(read_field "$out_dir/BENCH_bal_probe.json" ticks_per_sec)
  bal_pairs="$bal_pairs $((bal_on * 1000 / bal_off))"
done
bal_best=$(printf '%s\n' $bal_pairs | sort -n | tail -1)
echo "    balancer overhead: on/off permille per pair [${bal_pairs# }], best ${bal_best} (fail under 950)"
if [ "$bal_best" -lt 950 ]; then
  echo "BALANCER OVERHEAD: best on/off ratio ${bal_best}/1000 is more than 5% below the balancer-off fleet100k twin" >&2
  exit 1
fi

# Telemetry overhead gate: the deterministic layers at operational
# sampling rates (60 s series windows, 1-in-4096 request traces) must
# cost at most 2% ticks/sec against a telemetry-off twin of the same
# config. The probe pins --threads 1 (no scheduler interleaving to
# mis-attribute on oversubscribed CI boxes), runs a longer 4-hour clip
# so the one-shot series/trace merge amortises, and alternates off/on
# runs so clock drift hits both sides equally. The verdict is the BEST
# of the eight per-pair on/off ratios: contention bursts on a shared CI
# box corrupt individual pairs by far more than the 2% budget and in a
# random direction, so the least-corrupted pair is the tightest
# available estimate of the true cost — and a genuine regression (say
# 10%+) still fails every pair; integer arithmetic only.
pair_permille=""
for _ in 1 2 3 4 5 6 7 8; do
  run_mode "$out_dir/BENCH_tel_probe.json" --threads 1 --hours 4
  tel_off=$(read_field "$out_dir/BENCH_tel_probe.json" ticks_per_sec)
  run_mode "$out_dir/BENCH_tel_probe.json" --threads 1 --hours 4 \
    --series "$out_dir/tel_series.jsonl" --series-dt 60000000 \
    --trace "$out_dir/tel_trace.json" --trace-every 4096
  tel_on=$(read_field "$out_dir/BENCH_tel_probe.json" ticks_per_sec)
  pair_permille="$pair_permille $((tel_on * 1000 / tel_off))"
done
best=$(printf '%s\n' $pair_permille | sort -n | tail -1)
echo "    telemetry overhead: on/off permille per pair [${pair_permille# }], best ${best} (fail under 980)"
if [ "$best" -lt 980 ]; then
  echo "TELEMETRY OVERHEAD: best on/off ratio ${best}/1000 is more than 2% below the telemetry-off twin" >&2
  exit 1
fi
echo "    perf smoke passed."
