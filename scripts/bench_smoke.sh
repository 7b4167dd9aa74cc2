#!/usr/bin/env bash
# Smoke-runs the sim_throughput and fleet bench groups so performance
# regressions are at least *executed* on every verify pass, not just
# compiled, then gates the workspace on clippy. Fails on any panic,
# lint or non-zero exit. Part of the tier-1 verify flow (ROADMAP.md).
set -euo pipefail
cd "$(dirname "$0")/.."

# Includes the active-path groups (busy_cpu_quiescent_slaves{,_naive},
# active_path_naive/*) so the decode-cache and active-slave fast paths
# are executed against their forced-naive references on every pass.
cargo bench -q -p pels-bench --bench sim_throughput -- --sample-size 10
echo "bench_smoke: sim_throughput OK"

# Compile guard: the ExecMode differential switch (ScenarioBuilder::
# exec_mode + Soc::set_exec_mode)
# must keep compiling — the differential tests and the *_naive bench
# groups are the only proof the fast path is observationally invisible.
cargo test -q --test active_path --no-run
echo "bench_smoke: active_path differential suite compiles OK"

# Route-counter gate: the scheduler's route counters are a pure function
# of the scenario, so the Fig. 5 workload's stepped (non-skipped) cycles
# per linking event are bounded exactly, per mediator and readout length.
# Wall-clock throughput drifts too much on a shared host to gate on.
cargo test -q --test route_budget
echo "bench_smoke: Fig. 5 route-counter budget OK"

# The fleet bench also asserts serial-vs-parallel digest equality.
cargo bench -q -p pels-bench --bench fleet -- --sample-size 10
echo "bench_smoke: fleet OK"

# Causal flow gate: run (not just compile) the suites that prove flow
# recording is pure observation (bit-identical runs with flows on/off
# across every ExecMode, fleet digest invariant) and that the per-stage
# attribution telescopes exactly to the measured per-event latencies
# (paper probes decompose to 7/2/16 cycles, randomized scenarios sum
# exactly, FlowReport merge is order-invariant).
cargo test -q --test flow_invariance
cargo test -q --test flow_properties
echo "bench_smoke: causal flow differential + property suites OK"

# Energy-ledger gate: run the differential suite that proves the
# lifetime layer is pure observation — ledger on/off runs bit-identical
# across every mediator, blame rows partition the timeline exactly, and
# fleet digests plus the merged ledger are invariant under worker count.
cargo test -q --test lifetime_invariance
echo "bench_smoke: energy ledger invariance suite OK"

# Observability gate: regenerate the OBS artifacts with the profiler on
# (plus a reduced-horizon lifetime projection), then schema-check them —
# the reference counters (decode cache, scheduler, fleet workers,
# energy ledger, battery projection) must be
# present and nonzero, the Chrome trace must be well-formed trace-event
# JSON with power counter tracks, a battery state-of-charge track and
# causal flow arrows (every "s" matched by an "f", ids bound to
# enclosing slices), the power timeline must have contiguous
# non-negative windows, OBS_flows.json must carry non-empty per-mediator
# flow reports with monotone hop times and allowlisted stages, and
# BENCH_lifetime.json must carry the battery parameters, a positive
# PELS-vs-IRQ headline and non-empty sweep rows. Drift in any exporter
# fails here instead of shipping broken artifacts.
cargo run -q --release -p pels-bench --bin reproduce -- sim_throughput lifetime --quick --obs > /dev/null
cargo run -q --release -p pels-bench --bin obs_check
echo "bench_smoke: obs + lifetime artifacts OK"

# The throughput artifact must carry the busy-CPU row — a missing key
# means the busy-linking workload silently dropped out of the
# measurement.
grep -q '"linking_busy_cpu_cycles_per_sec"' BENCH_sim_throughput.json
echo "bench_smoke: busy-CPU throughput key OK"

# Description gate: regenerate the canonical corpus under
# examples/descs/ (round-trip checked on emit), then validate every
# committed file — parse, validate, round-trip identity and a one-cycle
# smoke build — and run the seeded desc fuzzer (fixed seed, 200+
# generate -> validate -> fast-vs-naive differential iterations).
cargo run -q --release -p pels-bench --bin reproduce -- desc > /dev/null
cargo run -q --release -p pels-bench --bin desc_check
cargo test -q --test desc_fuzz
echo "bench_smoke: description corpus + fuzzer OK"

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
for f in BENCH_lifetime.json BENCH_sim_throughput.json BENCH_fleet_throughput.json \
         OBS_metrics.json OBS_trace.json OBS_timeline.json OBS_flows.json wave.vcd; do
    git check-ignore -q "$f" || {
        echo "bench_smoke: generated artifact $f is not gitignored" >&2
        exit 1
    }
done
echo "bench_smoke: artifact gitignore audit OK"

cargo clippy --workspace --all-targets -q -- -D warnings
echo "bench_smoke: clippy OK"

# Rustdoc gate: broken intra-doc links or malformed doc examples fail
# the pass — the API docs are part of the reproduction artifact.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
echo "bench_smoke: rustdoc OK"
