#!/usr/bin/env bash
# CI-style gate: format, lint, build, test, and end-to-end smokes.
# Run from the repository root:  ./scripts/check.sh
# Skip the slow pieces with:     CHECK_FAST=1 ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
# a formatting diff fails the gate; only a missing rustfmt skips the step
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check || {
        echo "ERROR: formatting diffs (run 'cargo fmt --all')"; exit 1;
    }
else
    echo "  (rustfmt unavailable — skipped)"
fi

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
    -p fmm -p vesicle -p bie -p sim -p driver

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
fi

echo "== fmm oracles (fmm/tests: seed agreement vs the seed engine's 316 per-offset M2L matrices; pinned output bits)"
# the only check of the orbit M2L tables against matrices built straight
# from the kernel (the seed engine lives beside the test, in
# crates/fmm/tests/seed_fmm), and the only pin of the FMM's output bits
# against committed hashes; run here too so both hold under CHECK_FAST=1
cargo test --release -q -p fmm --test seed_agreement
cargo test --release -q -p fmm --test persistent evaluation_bits_are_pinned

echo "== portable kernels (x86-64-v3: no AVX-512 Stokes bodies or gemm microkernel, the committed portable bit pin)"
# RUSTFLAGS replaces .cargo/config.toml's target-cpu=native, so on an
# AVX-512 host this still builds and checks the loops every other CPU runs
# (the kernels' pair loops, linalg's portable gemm tiles against the
# tile/edge bit pin, the lane-loop check-line kernels of the dense wall
# matvec against the check-point composition); its own target directory
# keeps the native build's artifacts intact
PORTABLE=(env RUSTFLAGS="-C target-cpu=x86-64-v3" cargo test --release -q --target-dir target/portable)
"${PORTABLE[@]}" -p linalg
"${PORTABLE[@]}" -p kernels
"${PORTABLE[@]}" -p bie --test check_lines
"${PORTABLE[@]}" -p fmm --test persistent evaluation_bits_are_pinned
"${PORTABLE[@]}" -p fmm --test seed_agreement

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

echo "== paper-resolution smoke (shear_pair at p = 16, 1 step)"
# the paper's cell resolution (544 points per cell, 2,112 fine points, 289
# coefficients per component of the self-interaction operator) built and
# stepped on every check, not only the p = 6 / 8 of the other smokes (~0.4 s)
cargo run --release -q -p driver -- shear_pair --set order=16 --steps 1 \
    --no-output --quiet

echo "== collision smoke (sedimentation-like, 1 step, contact + finite-state assert)"
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
    --no-output --quiet --assert 'sum(contacts) >= 10'

echo "== instability smoke (shear_pair, 1 oversized-dt step, retry + finite-state assert)"
# one deliberately oversized step (10x the scenario dt) with a volume-drift
# gate tight enough that the first attempt must fail: asserts the adaptive
# stepper actually dropped the failed attempt and retried (dt_retries >= 1),
# every committed step's max edge stretch stayed finite and within the
# bound (10, DtControl::default().max_stretch), and the final coefficients
# are finite — i.e. the transactional retry/backoff path works, not just
# the happy path
cargo run --release -q -p driver -- shear_pair --steps 1 \
    --set order=6 --set dt=0.2 --set dt_max_vol_drift=1e-4 \
    --no-output --quiet --assert 'sum(dt_retries) >= 1' \
    --assert 'max(max_edge_stretch) <= 10'

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
    --set fill_h=1.5 --no-output --quiet --assert 'max(gmres_iters) < 30' \
    --assert 'sum(wall_fmm_builds) <= 1' --assert 'min(wall_fmm_replans) >= 1'

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
    --no-output --quiet --assert 'max(flux_imbalance) <= 1e-6'

echo "== failing-assert smoke (shear_pair, 1 step, an assertion that cannot hold)"
# the gate above is only as good as an assertion's power to fail: a bound
# no one-step run can meet must exit nonzero, naming the expression and
# the value it observed
if NEG_LOG=$(cargo run --release -q -p driver -- shear_pair --steps 1 \
    --set order=6 --no-output --quiet --assert 'sum(contacts) >= 1000000' 2>&1); then
    echo "ERROR: a failing --assert exited zero"; exit 1
fi
echo "$NEG_LOG"
case "$NEG_LOG" in
    *'assert `sum(contacts) >= 1000000` failed: observed '*) ;;
    *) echo "ERROR: the failing --assert did not name its expression and observed value"; exit 1 ;;
esac

echo "== out-of-range key smokes (zero steps: fill_h = 0, dt_max_stretch = -1, bie_check_r = 0, bie_max_iters = 0, tube_length = -1, tube_segments = 0, col_m = 1)"
# a value of the right type but outside a key's bounds is rejected before
# the build uses it: a zero lattice spacing would otherwise seed forever, a
# stretch bound at or below an undeformed cell's 1 fails every attempt and
# freezes every cell, check points at r = 0 sit on the wall, a wall
# solve capped at zero iterations never runs, a capsule of negative
# length has no cylinder, a capsule of no segments is two unjoined caps,
# and a wall collision grid of one sample per side has no triangles
for LEG in 'sedimentation|fill_h=0.0|`fill_h` expects a finite number > 0' \
    'shear_pair|dt_max_stretch=-1|`dt_max_stretch` expects a finite number > 1' \
    'poiseuille_train|bie_check_r=0|`bie_check_r` expects a finite number > 0' \
    'poiseuille_train|bie_max_iters=0|`bie_max_iters` expects an integer ≥ 1' \
    'sedimentation|tube_length=-1|`tube_length` expects a finite number > 0' \
    'poiseuille_train|tube_segments=0|`tube_segments` expects an integer ≥ 1' \
    'poiseuille_train|col_m=1|`col_m` expects an integer ≥ 2'; do
    IFS='|' read -r SCENARIO SETTING EXPECTED <<< "$LEG"
    if BAD_LOG=$(cargo run --release -q -p driver -- "$SCENARIO" --set "$SETTING" \
        --steps 0 --no-output 2>&1); then
        echo "ERROR: $SCENARIO --set $SETTING exited zero"; exit 1
    fi
    echo "$BAD_LOG"
    case "$BAD_LOG" in
        *"$EXPECTED"*) ;;
        *) echo "ERROR: the rejected $SETTING did not name the key and its bounds"; exit 1 ;;
    esac
done

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

echo "== wall restart smoke (poiseuille_train, 2 steps + checkpoint restart)"
# a run with a wall checkpoints the boundary solve's warm density and its
# image A·φ (checkpoint v6); the restart leg reads both back through the
# CLI and its first solve starts from them
WALL_OUT=target/driver/check-wall
rm -rf "$WALL_OUT"
cargo run --release -q -p driver -- poiseuille_train --steps 2 --out "$WALL_OUT" --quiet
cargo run --release -q -p driver -- poiseuille_train --steps 1 --out "$WALL_OUT" --quiet \
    --restart "$WALL_OUT/poiseuille_train_final.ckpt" --assert 'min(gmres_iters) >= 1'

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
    --assert 'cache_hits >= 1'

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
