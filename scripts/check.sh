#!/usr/bin/env bash
# Full local gate: formatting, release build, all tests, clippy with
# warnings denied, and the rev-lint static verifier over every workload
# profile (JSON mode; any error-severity diagnostic fails the gate via
# rev-lint's exit status).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

# CHANGELOG currency (hard): each PR appends a CHANGES.md line that
# starts "PR N:" (FOUND:/MENDED: notes may follow it), so the last such
# line names the current PR — the top CHANGELOG.md entry must mention
# it, or the changelog has fallen behind again. A PR number can be
# skipped, so the line count is no guide.
pr="$(grep -oE '^PR [0-9]+:' CHANGES.md | tail -n 1 | grep -oE '[0-9]+' || true)"
if [ -z "$pr" ]; then
    echo "FAIL: no line of CHANGES.md starts with 'PR N:'."
    exit 1
fi
echo "==> CHANGELOG.md top entry mentions PR $pr"
if ! grep -m1 '^## ' CHANGELOG.md | grep -qE "PR ${pr}([^0-9]|$)"; then
    echo "FAIL: top CHANGELOG.md entry does not mention PR ${pr}."
    echo "      Add a changelog entry for the current PR (the last 'PR N:' line of CHANGES.md)."
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

echo "==> cargo bench --no-run (criterion smoke build)"
cargo bench --no-run --workspace -q

echo "==> rev-lint --all (static table verification)"
cargo run --release -q -p rev-lint -- --all --scale 0.05 --format json >/dev/null

# Quick-sweep gates (hard): the pooled quick sweep must render its
# stdout byte-identical to the committed baselines/quick.txt and its
# JSON snapshot byte-identical to baselines/quick.json (the benchmark's
# sweep-quick workload requires the same bytes). Pooled
# vs fresh-simulator identity is hard-gated by the equivalence suite
# (crates/rev-bench/tests/equivalence.rs) — see DESIGN.md §13.
# The same run's wall clock feeds the soft check against
# baselines/quick.time (warn, never fail): >2% over the recorded
# reference plus a 25% host-noise allowance.
echo "==> quick sweep stdout + snapshot vs baselines/quick.{txt,json} byte-diff (hard gate)"
quick_dir="$(mktemp -d /tmp/quick_gate.XXXXXX)"
t0=$(date +%s.%N)
cargo run --release -q -p rev-bench --bin reproduce_all -- \
    --quick --quiet --json "$quick_dir/quick.json" > "$quick_dir/quick.txt"
t1=$(date +%s.%N)
if ! diff -u baselines/quick.txt "$quick_dir/quick.txt"; then
    echo "FAIL: quick sweep stdout differs from baselines/quick.txt."
    exit 1
fi
if ! diff -u baselines/quick.json "$quick_dir/quick.json"; then
    echo "FAIL: quick sweep snapshot differs from baselines/quick.json."
    exit 1
fi
rm -rf "$quick_dir"
if [ -f baselines/quick.time ]; then
    python3 - "$t0" "$t1" <<'EOF' || true
import sys
t0, t1 = float(sys.argv[1]), float(sys.argv[2])
ref = float(open("baselines/quick.time").read())
now = t1 - t0
limit = ref * 1.02 * 1.25  # 2% overhead budget + host-noise allowance
print(f"    quick sweep wall clock: {now:.1f}s (reference {ref:.1f}s)")
if now > limit:
    print(f"WARN: wall clock exceeds {limit:.1f}s — tracing taps may have grown a hot-path cost (soft gate).")
EOF
fi

# Warm-pool disk round-trip gate (hard): the first run on a fresh
# --ckpt-pool directory warms every simulator and seals it to disk; the
# second restores each one from those delta checkpoints (build image
# plus changed pages). Both stdout and JSON must be byte-identical.
echo "==> --ckpt-pool disk round-trip (hard gate)"
pool_dir="$(mktemp -d /tmp/pool_gate.XXXXXX)"
for run in first second; do
    cargo run --release -q -p rev-bench --bin reproduce_all -- \
        --quick --quiet --bench mcf --ckpt-pool "$pool_dir/pool" \
        --json "$pool_dir/$run.json" > "$pool_dir/$run.txt"
done
if ! diff -u "$pool_dir/first.txt" "$pool_dir/second.txt"; then
    echo "FAIL: stdout after restoring from --ckpt-pool differs from the warming run."
    exit 1
fi
if ! diff -u "$pool_dir/first.json" "$pool_dir/second.json"; then
    echo "FAIL: snapshot after restoring from --ckpt-pool differs from the warming run."
    exit 1
fi
rm -rf "$pool_dir"

# Shard merge-identity gate (hard): split one benchmark's sweep grid
# across two shard processes, merge the sealed items with --resume, and
# require stdout + JSON byte-identical to the monolithic run.
echo "==> sharded sweep merge-identity smoke (hard gate)"
shard_dir="$(mktemp -d /tmp/shard_gate.XXXXXX)"
cargo run --release -q -p rev-bench --bin reproduce_all -- \
    --quick --quiet --bench mcf --json "$shard_dir/mono.json" > "$shard_dir/mono.txt"
cargo run --release -q -p rev-bench --bin reproduce_all -- \
    --quick --quiet --bench mcf --shard 1/2 --shard-dir "$shard_dir/items" >/dev/null
cargo run --release -q -p rev-bench --bin reproduce_all -- \
    --quick --quiet --bench mcf --shard 2/2 --shard-dir "$shard_dir/items" >/dev/null
cargo run --release -q -p rev-bench --bin reproduce_all -- \
    --quick --quiet --bench mcf --resume --shard-dir "$shard_dir/items" \
    --json "$shard_dir/merged.json" > "$shard_dir/merged.txt"
if ! diff -u "$shard_dir/mono.txt" "$shard_dir/merged.txt"; then
    echo "FAIL: merged shard stdout differs from the monolithic run."
    exit 1
fi
if ! diff -u "$shard_dir/mono.json" "$shard_dir/merged.json"; then
    echo "FAIL: merged shard snapshot differs from the monolithic run."
    exit 1
fi
rm -rf "$shard_dir"

# rev-serve smoke gate (hard): drive the daemon end-to-end over stdio
# with the docs/SERVE.md example jobs and byte-compare the verdicts
# against the committed expectation. Two workers make completion *order*
# scheduling-dependent, so verdict lines are sorted before the diff; the
# verdict *payloads* must be byte-identical regardless of interleaving.
echo "==> rev-serve smoke (two jobs vs baselines/serve_smoke.jsonl)"
serve_out="$(mktemp /tmp/serve_rev.XXXXXX.jsonl)"
./target/release/rev-serve --workers 2 < scripts/serve_smoke_input.jsonl \
    | grep '"type":"verdict"' | sort > "$serve_out"
if ! diff -u baselines/serve_smoke.jsonl "$serve_out"; then
    echo "FAIL: rev-serve verdicts differ from baselines/serve_smoke.jsonl."
    echo "      If intentional, regenerate with:"
    echo "      ./target/release/rev-serve --workers 2 < scripts/serve_smoke_input.jsonl \\"
    echo "          | grep '\"type\":\"verdict\"' | sort > baselines/serve_smoke.jsonl"
    exit 1
fi
rm -f "$serve_out"

# Crash-recovery smoke gate (hard): the same two jobs with a worker
# panic injected on j1's second slice. Supervision must catch the panic,
# restore j1 from its checkpoint, and finish with verdicts byte-identical
# to the undisturbed run — so the *same* baseline is the expectation.
echo "==> rev-serve crash-recovery smoke (injected panic, same baseline)"
crash_out="$(mktemp /tmp/serve_crash.XXXXXX.jsonl)"
./target/release/rev-serve --workers 2 --chaos-panic j1:1 --backoff-ms 0 \
    < scripts/serve_smoke_input.jsonl \
    | grep '"type":"verdict"' | sort > "$crash_out"
if ! diff -u baselines/serve_smoke.jsonl "$crash_out"; then
    echo "FAIL: verdicts after crash recovery differ from the undisturbed run."
    echo "      Checkpoint/restore must be byte-exact; see docs/CHECKPOINT.md."
    exit 1
fi
rm -f "$crash_out"

# Chaos gate (hard): a quick seeded fault-injection campaign must report
# zero silent-corruption and zero false-positive outcomes (rev-chaos
# exits 1 otherwise). The byte-identical JSON is diffed against the
# committed baseline as a soft drift check.
echo "==> rev-chaos --quick (fault-injection gate)"
chaos="$(mktemp /tmp/chaos_rev.XXXXXX.json)"
cargo run --release -q -p rev-chaos -- --quick --seed 7 --quiet --json "$chaos" >/dev/null
if ! diff -q baselines/chaos_quick.json "$chaos" >/dev/null; then
    echo "WARN: campaign drifted from baselines/chaos_quick.json (soft gate)."
    echo "      If intentional, regenerate with:"
    echo "      cargo run --release -p rev-chaos -- --quick --seed 7 --quiet --json baselines/chaos_quick.json"
fi
rm -f "$chaos"

# Service-layer chaos gate (hard): the quick seeded campaign against the
# rev-serve gateway — worker panics, corrupted checkpoints, stalls under
# deadlines, client disconnects — must be clean (zero silent-corruption,
# zero false-positive; rev-chaos exits 1 otherwise). The byte-identical
# JSON is diffed against the committed baseline as a soft drift check.
echo "==> rev-chaos --serve --quick (service-layer chaos gate)"
chaos_serve="$(mktemp /tmp/chaos_serve.XXXXXX.json)"
cargo run --release -q -p rev-chaos -- \
    --serve --quick --seed 7 --jobs 4 --quiet --json "$chaos_serve" >/dev/null
if ! diff -q baselines/chaos_serve_quick.json "$chaos_serve" >/dev/null; then
    echo "WARN: serve campaign drifted from baselines/chaos_serve_quick.json (soft gate)."
    echo "      If intentional, regenerate with:"
    echo "      cargo run --release -p rev-chaos -- --serve --quick --seed 7 --quiet --json baselines/chaos_serve_quick.json"
fi
rm -f "$chaos_serve"

# Audit gates (DESIGN.md §11), both hard. The differential audit
# oracle: every attack class under every validation mode diffed against
# the static coverage prediction, plus per-profile measured detection
# latencies vs the static bounds; any REV-A000 disagreement exits 1.
# The rev-audit snapshot (coverage matrix, collision classes, latency
# bounds per profile) must be byte-identical to the committed baseline:
# the audit reads its analyses and tables from the shared build cache,
# so a drift here means the cache handed out something a fresh build
# would not.
echo "==> rev-chaos --audit (static/dynamic audit-oracle gate)"
cargo run --release -q -p rev-chaos -- --audit --seed 7 --jobs 4 --quiet

echo "==> rev-lint --audit vs baselines/audit_quick.json byte-diff (hard gate)"
audit="$(mktemp /tmp/audit_rev.XXXXXX.json)"
cargo run --release -q -p rev-lint -- \
    --all --scale 0.05 --jobs 4 --audit-json "$audit" >/dev/null
if ! diff -u baselines/audit_quick.json "$audit"; then
    echo "FAIL: audit results differ from baselines/audit_quick.json."
    echo "      If intentional, regenerate with:"
    echo "      cargo run --release -p rev-lint -- --all --scale 0.05 --audit-json baselines/audit_quick.json"
    exit 1
fi
rm -f "$audit"

# Perf soft gate (warn, never fail): simulator throughput per profile vs
# the committed baseline with a ±15% band. The perf binary exits 2 on
# out-of-band drift (soft-warning semantics matching rev-trace compare);
# any other non-zero exit is a real failure.
echo "==> perf soft gate vs baselines/perf_quick.json (±15% band)"
perf_rc=0
cargo run --release -q -p rev-bench --bin perf -- \
    --quick --quiet --check baselines/perf_quick.json --band 15 || perf_rc=$?
if [ "$perf_rc" -eq 2 ]; then
    echo "WARN: simulator throughput drifted >15% from baselines/perf_quick.json (soft gate)."
    echo "      If intentional (hot-loop change or new host), regenerate with:"
    echo "      cargo run --release -p rev-bench --bin perf -- --quick --quiet --json baselines/perf_quick.json"
elif [ "$perf_rc" -ne 0 ]; then
    exit "$perf_rc"
fi

echo "==> OK"
