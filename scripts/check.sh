#!/usr/bin/env bash
# CI-style gate: format, lint, build, test, and a short FMM smoke bench.
# Run from the repository root:  ./scripts/check.sh
# Skip the slow pieces with:     CHECK_FAST=1 ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check 2>/dev/null || {
    echo "  (rustfmt unavailable or formatting diffs — rerun 'cargo fmt' locally)"
}

echo "== cargo clippy (ratcheted warning floor)"
if cargo clippy --version >/dev/null 2>&1; then
    CLIPPY_LOG=$(mktemp)
    cargo clippy --workspace --release --all-targets 2>&1 | tee "$CLIPPY_LOG" | \
        grep -E "^(warning|error)" | grep -v "generated" | sort | uniq -c || true
    grep -q "^error" "$CLIPPY_LOG" && { echo "clippy errors found"; exit 1; } || true
    # warning ratchet: the committed floor only ever decreases — seed-era
    # style lints (loop-index patterns etc.) are grandfathered, new code
    # must not add to them (if you fixed some, lower scripts/clippy_floor.txt
    # in the same PR)
    WARN_COUNT=$(grep -E "^warning" "$CLIPPY_LOG" | grep -cv "generated" || true)
    CLIPPY_FLOOR=$(cat scripts/clippy_floor.txt)
    echo "== clippy warnings: $WARN_COUNT (committed floor: $CLIPPY_FLOOR)"
    rm -f "$CLIPPY_LOG"
    if [ "$WARN_COUNT" -gt "$CLIPPY_FLOOR" ]; then
        echo "ERROR: clippy warning count $WARN_COUNT rose above the committed floor $CLIPPY_FLOOR"
        echo "       (fix the new warnings; the floor only ever ratchets down)"
        exit 1
    fi
else
    echo "  (clippy unavailable — skipped)"
fi

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo doc (warning-free gate, library crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p linalg -p kernels -p octree -p sphharm -p patch -p collision \
    -p fmm -p vesicle -p bie -p sim -p bench -p driver

if [ "${CHECK_FAST:-0}" != "1" ]; then
    echo "== cargo test -q"
    TEST_LOG=$(mktemp)
    cargo test -q --release --workspace 2>&1 | tee "$TEST_LOG"
    # tier-1 test-count floor: catches refactors that silently drop tests
    # (the committed floor only ever ratchets up; see scripts/test_floor.txt)
    TEST_COUNT=$(grep -Eo '[0-9]+ passed' "$TEST_LOG" | awk '{s+=$1} END {print s+0}')
    FLOOR=$(cat scripts/test_floor.txt)
    echo "== tier-1 test count: $TEST_COUNT (committed floor: $FLOOR)"
    rm -f "$TEST_LOG"
    if [ "$TEST_COUNT" -lt "$FLOOR" ]; then
        echo "ERROR: test count $TEST_COUNT fell below the committed floor $FLOOR"
        echo "       (if tests were intentionally consolidated, lower scripts/test_floor.txt in the same PR)"
        exit 1
    fi
    echo "== criterion benches (compile only)"
    # no other step builds crates/bench/benches: an API change in a layer
    # crate must not leave them broken
    cargo check --release --offline --benches -p bench
fi

echo "== fmm smoke bench (order 4, ~2 s)"
cargo run --release -p bench --bin fmm_bench -- --quick

echo "== sample configs (every registry scenario built from scenarios/<name>.toml)"
# each registry scenario must build, zero steps, from its sample config
# through the CLI: a scenario reads its section strictly (an unknown or
# mistyped key is an error), so a sample that drifts from the registry's
# keys fails here (~0.3 s for all nine)
SCENARIOS=$(cargo run --release -q -p driver -- list | sed -n '/^scenarios:/,$p' | awk 'NR > 1 {print $1}')
[ -n "$SCENARIOS" ] || { echo "ERROR: sim-driver list printed no scenarios"; exit 1; }
for SCENARIO in $SCENARIOS; do
    cargo run --release -q -p driver -- "$SCENARIO" \
        --config "scenarios/$SCENARIO.toml" --steps 0 --no-output --quiet
done

echo "== collision smoke (sedimentation-like, 1 step, contact + finite-volume assert)"
# a small dense packing that reliably produces >10 contacts in one step
# (driver/tests/determinism.rs pins the same configuration high-contact):
# COL-stage regressions (broad phase, CSR assembly, batched mobility) fail
# here in seconds instead of only at the slow full-step bench — including
# partial ones that would still find a contact or two.
# dt_adaptive=false: the adaptive stepper (on by default) retries this
# config's first step at a reduced dt, which defuses the contact burst
# this smoke needs — the gate is pinned off so the COL pipeline still
# sees the full many-contact workload (the instability smoke below
# covers the controller itself)
cargo run --release -q -p driver -- sedimentation --steps 1 \
    --set tube_segments=1 --set patch_order=6 --set order=6 \
    --set fill_h=1.1 --set col_m=6 --set dt_adaptive=false \
    --no-output --quiet --assert-contacts 10

echo "== instability smoke (shear_pair, 1 oversized-dt step, retry + finite-state assert)"
# one deliberately oversized step (10x the scenario dt) with a volume-drift
# gate tight enough that the first attempt must fail: asserts the adaptive
# stepper actually dropped the failed attempt and retried (dt_retries >= 1),
# every committed step's max edge stretch stayed finite and within the bound,
# and the final coefficients are finite — i.e. the transactional
# retry/backoff path works, not just the happy path
cargo run --release -q -p driver -- shear_pair --steps 1 \
    --set order=6 --set dt=0.2 --set dt_max_vol_drift=1e-4 \
    --no-output --quiet --assert-dt-retries 1

echo "== refined-vessel smoke (vessel_flow, 2 steps, wall_refine default + FMM backend)"
# two confined-flow steps on a refined wall (the vessel_flow registry
# default) through the FMM matvec backend: asserts the boundary solve
# stays below its iteration cap, every cell ends finite, AND the
# persistent wall FMM is actually reused — at most one frozen-tree build
# across both steps with >= 1 target replan per step, so a regression
# that silently falls back to per-step rebuilds fails the gate in
# seconds instead of only at the full-step bench
# (bie_qf=6 keeps the smoke fast. This guards the *plumbing* — refined
# surface build, FMM-backed matvec inside a full step, iteration cap,
# finite state, plan reuse. Port boundary data is rim-smooth since the
# mollified-quartic profile fix, which cut the refined cell-free floor
# ~4x (0.4 -> ~0.11, ratcheted by sim::domain's
# refined_serpentine_port_floor_improved, run in the test stage above);
# through-flow data still converges slowly (spectral tail), so this
# smoke keeps the iteration-cap assert rather than requiring
# convergence)
cargo run --release -q -p driver -- vessel_flow --steps 2 \
    --set tube_segments=1 --set patch_order=6 --set order=6 \
    --set bie_backend=fmm --set bie_qf=6 \
    --set fill_h=1.5 --no-output --quiet --assert-bie-below 30 \
    --assert-fmm-rebuilds 1

echo "== network smoke (bifurcation, 1 step, flux-balanced 3-port BCs + FMM backend)"
# one step of the Y-bifurcation (the branched-network scenario family)
# through the FMM matvec backend: asserts the three prescribed port
# fluxes cancel in the committed step to well below the 1e-6 acceptance
# tolerance (the discrete quadrature balances them to roundoff — see
# driver/tests/network.rs for the roundoff-tight pin) and that every
# cell ends finite, so a regression in the N-port BC assembly or the
# junction blend fails here in seconds
cargo run --release -q -p driver -- bifurcation --steps 1 \
    --set patch_order=6 --set order=6 \
    --set bie_backend=fmm --set bie_qf=6 \
    --no-output --quiet --assert-flux-balance 1e-6

echo "== driver smoke run (shear_pair, 2 steps at --threads 2 + checkpoint restart)"
# the first leg runs the real-parallel step path (--threads 2) so the CI
# gate exercises multi-worker dispatch end to end; the restart leg runs at
# the default thread count — trajectories are thread-count-invariant
# (driver/tests/determinism.rs pins this bit-exactly), so the restart
# continues the same trajectory
SMOKE_OUT=target/driver/check-smoke
rm -rf "$SMOKE_OUT"
cargo run --release -q -p driver -- shear_pair --steps 2 --set order=8 \
    --threads 2 --out "$SMOKE_OUT" --quiet
cargo run --release -q -p driver -- shear_pair --steps 1 --set order=8 \
    --out "$SMOKE_OUT" --quiet \
    --restart "$SMOKE_OUT/shear_pair_final.ckpt"

echo "== farm smoke (2-job manifest: crash after job 1, resume, shared-cache assert)"
# the simulation farm end to end on a tiny two-job manifest: leg 1 runs
# the queue with a simulated crash after the first job completes
# (--halt-after 1 exits zero with the second job marked halted); leg 2
# reruns the same manifest, which must skip the finished job, run the
# halted one to target, and report shared-cache telemetry — the vessel
# job's FMM solve+eval share operator tables, so >= 1 hit even in a cold
# process, and any regression that stops jobs from sharing immutable
# caches fails the assert
FARM_OUT=target/driver/farm-smoke
rm -rf "$FARM_OUT"
cargo run --release -q -p driver -- batch scenarios/farm_smoke.toml \
    --halt-after 1 --quiet
cargo run --release -q -p driver -- batch scenarios/farm_smoke.toml \
    --assert-cache-hits 1

if [ "${CHECK_FAST:-0}" != "1" ]; then
    echo "== benchmark package (standalone build + its tests + three workload smokes)"
    # benchmark/ is a package of its own that reaches the simulator through
    # the layer crates' public APIs, so a change to one of those breaks it
    # without the workspace build noticing: build it here and run its
    # smallest end-to-end paths at --smoke sizes, correctness gate included
    # (an incorrect run still exits 0, so the verdict is read off its result
    # line) — the retried-step workload, the free-space suspension, the
    # only one whose step is the cell self-operator and contact handling,
    # and the refined vessel, the only one whose wall matvec is the FMM
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
    # clippy over it, tests included, with no warning allowed (the package
    # had none when it joined the gate, so it has no floor of its own)
    cargo clippy --release --offline --manifest-path benchmark/Cargo.toml \
        --all-targets -- -D warnings
    # its own unit tests (~30 s, the --smoke path over all four workloads
    # among them): a layer-crate API change that breaks them fails here,
    # not in the next performance PR
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
    for WORKLOAD in train_retry suspension_contact vessel_refined; do
        BENCH_RESULT=$(cargo run --release --quiet --offline \
            --manifest-path benchmark/Cargo.toml -- \
            --workload "$WORKLOAD" --smoke --trace 0 | tail -n 1)
        echo "$BENCH_RESULT"
        case "$BENCH_RESULT" in
            *'"correct": true'*) ;;
            *) echo "ERROR: benchmark smoke run of $WORKLOAD did not report a correct result"; exit 1 ;;
        esac
    done
fi

echo "ALL CHECKS PASSED"
