#!/usr/bin/env bash
# Compares the working tree with a git revision: the results must be
# identical, and the speed is measured.
#
#   scripts/ab.sh <rev>        # e.g. scripts/ab.sh HEAD~1
#
# It builds <rev> offline in a throwaway `git worktree` under $TMPDIR and
# then the working tree, each into its own subdirectory of one
# CARGO_TARGET_DIR, and copies each side's `reproduce` and
# `pels-perfbench` binaries out. (Cargo judges freshness by file times,
# and the workspace's artifacts are named alike in every checkout, so in
# one shared directory a side older than the other's build would be
# taken as built and the other side's binary copied for it.) Then:
#   - it diffs `reproduce` stdout for every paper target, and prints
#     each side's peak RSS of `reproduce -- lifetime` (the child's
#     `ru_maxrss`, read through python3's `resource` module);
#   - it runs `reproduce -- lifetime --quick --obs` on each side and
#     `cmp`s BENCH_lifetime.json, OBS_timeline.json and OBS_flows.json.
#     It compares OBS_metrics.json without the host-timing keys below,
#     and the simulated-time events (pid 1) of OBS_trace.json;
#   - it runs AB_PAIRS (default 10) perfbench pairs per workload at seed
#     AB_SEED (default 1), each run as long as BENCHMARK.json's
#     `run_seconds`, alternating which side runs first. Per end-to-end
#     metric it prints the parent's median and quartiles, the change's
#     median, the change in the median and the pairs the change won
#     (ties count for neither side).
# Exits 1 if any output differs or a perfbench run is not correct.
# Takes most of an hour, so it is not part of bench_smoke.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)
rev=${1:?usage: scripts/ab.sh <rev>}
pairs=${AB_PAIRS:-10}
seconds=$(sed -n -E 's/.*"run_seconds": *([0-9]+).*/\1/p' BENCHMARK.json)
: "${seconds:?BENCHMARK.json has no run_seconds}"
seed=${AB_SEED:-1}
tmp=${TMPDIR:-/tmp}
work=$(mktemp -d "$tmp/pels-ab.XXXXXX")
target=${CARGO_TARGET_DIR:-$tmp/pels-ab-target}
cleanup() {
    git -C "$repo" worktree remove --force "$work/tree" 2>/dev/null || true
    git -C "$repo" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add -q --detach "$work/tree" "$rev"

# The paper targets whose stdout is deterministic (`fleet` prints wall
# times; `desc` writes the committed corpus).
targets=(table1 fig3 latency fig5 fig6a fig6b ablations extensions lifetime)
# OBS_metrics.json keys that time the host, not the simulation.
host_timing='"fleet\.(worker[0-9]+\.)?(busy_us|wall_us)"|"fleet\.steals"'

# build <checkout> <side>: builds both binaries and copies them out.
build() {
    (cd "$1" && export CARGO_TARGET_DIR="$target/$2" &&
        cargo build -q --release --offline -p pels-bench --bin reproduce &&
        cargo build -q --release --offline --manifest-path perfbench/Cargo.toml)
    mkdir -p "$work/$2/bin" "$work/$2/out" "$work/$2/obs"
    cp "$target/$2/release/reproduce" "$target/$2/release/pels-perfbench" "$work/$2/bin/"
}
build "$work/tree" parent
build "$repo" change

# peak_rss <out> <cmd...>: runs <cmd> with stdout to <out> and prints
# its peak resident set size in KiB (the waited-for child's ru_maxrss).
peak_rss() {
    python3 -c '
import resource, subprocess, sys
with open(sys.argv[1], "w") as out:
    subprocess.run(sys.argv[2:], stdout=out, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
' "$@"
}

status=0
differs() {
    echo "ab: DIFFERS: $1"
    status=1
}

declare -A rss=()
for side in parent change; do
    (cd "$work/$side/out" && for t in "${targets[@]}"; do
        [ "$t" = lifetime ] || "$work/$side/bin/reproduce" "$t" >"$t.txt"
    done)
    rss[$side]=$(cd "$work/$side/out" && peak_rss lifetime.txt "$work/$side/bin/reproduce" lifetime)
    (cd "$work/$side/obs" && "$work/$side/bin/reproduce" lifetime --quick --obs >/dev/null)
done
for t in "${targets[@]}"; do
    diff -u "$work/parent/out/$t.txt" "$work/change/out/$t.txt" || differs "reproduce -- $t"
done
echo "ab: reproduce stdout compared for ${targets[*]}"
echo "ab: peak RSS of reproduce -- lifetime: parent ${rss[parent]} KiB, change ${rss[change]} KiB"
cmp "$work/parent/out/BENCH_lifetime.json" "$work/change/out/BENCH_lifetime.json" ||
    differs "BENCH_lifetime.json (lifetime)"
for f in BENCH_lifetime.json OBS_timeline.json OBS_flows.json; do
    cmp "$work/parent/obs/$f" "$work/change/obs/$f" || differs "$f (lifetime --quick --obs)"
done
diff <(grep -v -E "$host_timing" "$work/parent/obs/OBS_metrics.json") \
    <(grep -v -E "$host_timing" "$work/change/obs/OBS_metrics.json") ||
    differs "OBS_metrics.json without host timing"
sim_events() { grep -F '"pid": 1,' "$1"; }
diff <(sim_events "$work/parent/obs/OBS_trace.json") \
    <(sim_events "$work/change/obs/OBS_trace.json") >/dev/null ||
    differs "OBS_trace.json simulated-time events"
echo "ab: artifacts compared: BENCH_lifetime.json (lifetime and --quick), OBS_timeline.json," \
    "OBS_flows.json, OBS_metrics.json without host timing," \
    "$(sim_events "$work/change/obs/OBS_trace.json" | wc -l) simulated-time OBS_trace.json events"

# metric <json> <name>: one end-to-end value from perfbench's result line.
metric() {
    sed -E "s/.*\"$2\": \{\"value\": ([-0-9.e+]+).*/\1/" <<<"$1"
}
# stats <better> <parent values> <change values> (space-separated, in
# pair order): parent median, q1-q3, change median, median change, wins.
stats() {
    awk -v better="$1" -v p="$2" -v c="$3" '
        function sorted(s, a,   n, i, j, t) {
            n = split(s, a, " ")
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            return n
        }
        function q(a, n, f,   r, lo) { r = (n - 1) * f + 1; lo = int(r); return a[lo] + (r - lo) * (a[lo + 1] - a[lo]) }
        BEGIN {
            n = split(p, pp, " "); split(c, cc, " ")
            for (i = 1; i <= n; i++)
                wins += (better == "lower") ? (cc[i] < pp[i]) : (cc[i] > pp[i])
            sorted(p, ps); sorted(c, cs); ps[n + 1] = ps[n]; cs[n + 1] = cs[n]
            pm = q(ps, n, 0.5); cm = q(cs, n, 0.5)
            printf "%-14.6g %-12.6g %-12.6g %-14.6g %+7.1f%%  %d/%d\n",
                pm, q(ps, n, 0.25), q(ps, n, 0.75), cm, 100 * (cm - pm) / pm, wins, n
        }'
}

for workload in linking lifetime; do
    declare -A values=()
    for ((i = 0; i < pairs; i++)); do
        order=(parent change)
        ((i % 2)) && order=(change parent)
        for side in "${order[@]}"; do
            line=$(cd "$work/$side" &&
                "bin/pels-perfbench" --workload "$workload" --seed "$seed" \
                    --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
            case "$line" in
                *'"correct": true'*) ;;
                *) differs "perfbench $workload ($side) not correct: $line" ;;
            esac
            for m in sim_mcycles_per_s job_ms_p50 setup_s; do
                values[$side.$m]+="$(metric "$line" "$m") "
            done
        done
    done
    echo "ab: perfbench $workload, $pairs alternating pairs of $seconds s, seed $seed"
    printf "  %-18s %-14s %-12s %-12s %-14s %-8s  %s\n" metric "parent median" "parent q1" \
        "parent q3" "change median" change wins
    for m in sim_mcycles_per_s job_ms_p50 setup_s; do
        better=lower
        [ "$m" = sim_mcycles_per_s ] && better=higher
        printf "  %-18s %s\n" "$m" "$(stats "$better" "${values[parent.$m]}" "${values[change.$m]}")"
    done
    unset values
done
exit "$status"
