#!/usr/bin/env bash
# Runs every workspace test (the route-counter budget and the
# differential, observation and property suites among them; the
# fast-vs-naive and observation ones in release too), the fleet digest
# gate, the artifact schema gates
# and one checked round of each perfbench workload, then gates the
# workspace on clippy and rustdoc; with MUTANTS=1 it also runs the
# mutation catalogue (scripts/mutants.sh). Simulator speed is timed by
# perfbench alone. Fails on any panic, lint or non-zero exit. Part of
# the tier-1 verify flow (ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Compile guard: the ExecMode differential switch (ScenarioDesc::exec +
# Soc::set_exec_mode) must keep compiling — the differential tests are
# the only proof the fast path is observationally invisible.
cargo test -q --test active_path --no-run
echo "bench_smoke: active_path differential suite compiles OK"

# Whole-workspace tests: a bare `cargo test` at the root runs only the
# root package (tests/ and examples/), not the unit and integration
# tests of the crates under crates/ — the power model, ledger and JSON
# parser among them. `--workspace` runs every package's tests, and so
# every suite's debug run: among them the route-counter budget
# (`route_budget`: the Fig. 5 workload's stepped cycles per linking
# event and every scheduler counter, pinned exactly), the
# pure-observation suites (`observation_invariance`, `flow_invariance`,
# `lifetime_invariance`: every probe subset × ExecMode × mediator
# bit-identical to the plain run, fleet digests invariant under probes
# and workers), the flow properties (per-stage attribution telescopes to
# the measured latencies), the seeded description fuzzer (`desc_fuzz`)
# and the fast-forward differential (`fast_forward`). None is run a
# second time in debug below.
cargo test -q --workspace
echo "bench_smoke: workspace tests OK"

# Release differential: perfbench times release builds, where the
# scheduler's debug-only consistency assertions are compiled out. Run
# the fast-vs-naive suites on that same optimised code too. Each compares
# whole states through `Soc`'s `PartialEq` (`Soc::first_difference`). The
# description fuzzer (fast vs naive on generated scenarios) and the
# pure-observation suites (`observation_invariance` and the flow and
# lifetime subsets it leaves to `flow_invariance` and
# `lifetime_invariance`) run there as well, and so do the peripherals'
# unit tests, whose catch-up-vs-tick table checks each peripheral's
# sleep plan where its catch-up `debug_assert`s are compiled out. The
# power golden runs there too, and the pure-observation suite covers the
# lifetime probe: perfbench's lifetime workload times the release power
# and ledger code. So do the SoC's unit tests: the seeded timeline
# sampler reference (`sampler_reference`) and the scheduler, in-place
# service and equality tests in soc.rs. So do the activity-row and
# timeline dedup tests of pels-sim and the seeded ledger reference of
# pels-power: the code perfbench's lifetime workload times. So does the
# fast-forward differential: both perfbench workloads jump whole event
# periods in release.
cargo test -q --release --test quiescence --test active_path \
    --test desc_fuzz --test observation_invariance \
    --test flow_invariance --test lifetime_invariance --test power_golden \
    --test fast_forward
cargo test -q --release -p pels-periph --lib
cargo test -q --release -p pels-soc --lib
cargo test -q --release -p pels-sim -p pels-power --lib
echo "bench_smoke: release fast-vs-naive differential OK"

# Fleet digest gate: `reproduce -- fleet` runs the reference 8-job sweep
# on 1 and on all workers and exits 1 unless the digests are identical.
# It writes BENCH_fleet_throughput.json, which obs_check gates below.
cargo run -q --release -p pels-bench --bin reproduce -- fleet > /dev/null
echo "bench_smoke: fleet OK"

# Observability gate: regenerate the OBS artifacts with the profiler on
# (plus a reduced-horizon lifetime projection), then schema-check them —
# the reference counters (CPU, scheduler, fleet workers,
# energy ledger, battery projection) must be
# present and nonzero, the Chrome trace must be well-formed trace-event
# JSON with power counter tracks, a battery state-of-charge track and
# causal flow arrows (every "s" matched by an "f", ids bound to
# enclosing slices), the power timeline must have contiguous
# non-negative windows, OBS_flows.json must carry non-empty per-mediator
# flow reports with monotone hop times and allowlisted stages, and
# BENCH_lifetime.json must carry the battery parameters, a positive
# PELS-vs-IRQ headline and non-empty sweep rows, and
# BENCH_fleet_throughput.json (from the fleet gate above) must carry the
# 8-job batch with no failure, per-worker job counts summing to it and a
# 16-hex-digit digest. Drift in any exporter
# fails here instead of shipping broken artifacts.
cargo run -q --release -p pels-bench --bin reproduce -- lifetime --quick --obs > /dev/null
cargo run -q --release -p pels-bench --bin obs_check
# The quick lifetime sweep's fleet digest covers every job's latencies
# and active and idle power bit for bit. Pin it, so that a change which
# moves any of them fails here, not only one that breaks the schema.
lifetime_digest=e6a150529f2e663e
grep -q "\"digest\": \"$lifetime_digest\"" BENCH_lifetime.json || {
    echo "bench_smoke: BENCH_lifetime.json digest is not $lifetime_digest" >&2
    exit 1
}
echo "bench_smoke: obs + lifetime artifacts OK"

# Description gate: regenerate the canonical corpus under
# examples/descs/ (round-trip checked on emit) and fail if that rewrote
# a committed file (a codec change moved the canonical layout), then
# validate every committed file — parse, validate, round-trip identity
# and a one-cycle smoke build. (The seeded description fuzzer runs with
# the workspace tests and in the release differential above.)
cargo run -q --release -p pels-bench --bin reproduce -- desc > /dev/null
git diff --exit-code -- examples/descs
cargo run -q --release -p pels-bench --bin desc_check
echo "bench_smoke: description corpus OK"

# Benchmark gate: the perfbench package (its own Cargo workspace, built
# against crates/ through path dependencies) must build, pass its unit
# tests, and run one short round of each BENCHMARK.json workload with
# every correctness check green — all events complete, fleet digest
# stable across rounds, cheapest job equal to the naive scheduler,
# lifetime ledgers telescoping. The result is the last stdout line.
cargo test -q --offline --manifest-path perfbench/Cargo.toml
for workload in linking lifetime; do
    result=$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 0 | tail -n 1)
    case "$result" in
        *'"correct": true'*) ;;
        *)
            echo "bench_smoke: perfbench $workload round failed: $result" >&2
            exit 1
            ;;
    esac
done
echo "bench_smoke: perfbench tests + linking/lifetime rounds OK"

# Hygiene: every generated artifact class must stay ignored — a missing
# pattern means `git status` noise at best and a committed multi-MB
# artifact at worst.
for f in BENCH_lifetime.json BENCH_fleet_throughput.json \
         OBS_metrics.json OBS_trace.json OBS_timeline.json OBS_flows.json wave.vcd; do
    git check-ignore -q "$f" || {
        echo "bench_smoke: generated artifact $f is not gitignored" >&2
        exit 1
    }
done
echo "bench_smoke: artifact gitignore audit OK"

# The parent-vs-change comparison (scripts/ab.sh <rev>) builds two
# checkouts and runs perfbench pairs for minutes, so it is run by hand;
# here it is only parsed.
bash -n scripts/ab.sh
echo "bench_smoke: ab.sh parses"

cargo clippy --workspace --all-targets -q -- -D warnings
echo "bench_smoke: clippy OK"

# Rustdoc gate: broken intra-doc links or malformed doc examples fail
# the pass — the API docs are part of the reproduction artifact.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
echo "bench_smoke: rustdoc OK"

# Mutation catalogue: every committed mutant under tests/mutants/ must
# still be killed by the test its patch names. It rebuilds once per
# mutant, so it runs only when asked for with MUTANTS=1.
if [ "${MUTANTS:-0}" = 1 ]; then
    scripts/mutants.sh
    echo "bench_smoke: mutation catalogue OK"
fi
