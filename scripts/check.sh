#!/usr/bin/env bash
# Full local gate. Every step is hard: any failure exits nonzero.
#
#   * cargo fmt --check, the CHANGELOG currency check, the release build,
#     the workspace tests (among them the host-work memo counters against
#     baselines/host_work_quick.txt, crates/rev-bench/tests/host_work.rs),
#     clippy with warnings denied, rustdoc with warnings denied and the
#     criterion smoke build;
#   * rev-lint --all over every workload profile (JSON mode; any
#     error-severity diagnostic fails via rev-lint's exit status);
#   * byte-diffs of the quick sweep's stdout and snapshot against
#     baselines/quick.{txt,json};
#   * the --ckpt-pool round-trip, --preflight and shard merge identities;
#   * the rev-serve smoke and crash-recovery verdicts against
#     baselines/serve_smoke.jsonl;
#   * rev-chaos --quick and rev-chaos --serve --quick (clean outcomes, and
#     JSON byte-identical to baselines/chaos_{,serve_}quick.json);
#   * rev-chaos --audit, and rev-lint --audit-json against
#     baselines/audit_quick.json.
#
# Host wall clock is measured by the repo benchmark (perfbench/), not
# here: a clock gate on a shared host can only warn.
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
echo "==> quick sweep stdout + snapshot vs baselines/quick.{txt,json} byte-diff (hard gate)"
quick_dir="$(mktemp -d /tmp/quick_gate.XXXXXX)"
cargo run --release -q -p rev-bench --bin reproduce_all -- \
    --quick --quiet --json "$quick_dir/quick.json" > "$quick_dir/quick.txt"
if ! diff -u baselines/quick.txt "$quick_dir/quick.txt"; then
    echo "FAIL: quick sweep stdout differs from baselines/quick.txt."
    exit 1
fi
if ! diff -u baselines/quick.json "$quick_dir/quick.json"; then
    echo "FAIL: quick sweep snapshot differs from baselines/quick.json."
    exit 1
fi
rm -rf "$quick_dir"

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

# Preflight read-only gate (hard): --preflight lints and audits every
# table before simulating and may only ever refuse to run, so a passing
# preflighted sweep must print the same stdout and JSON as the plain one.
echo "==> --preflight leaves stdout and snapshot unchanged (hard gate)"
pre_dir="$(mktemp -d /tmp/preflight_gate.XXXXXX)"
for mode in plain preflight; do
    flag=()
    if [ "$mode" = preflight ]; then flag=(--preflight); fi
    cargo run --release -q -p rev-bench --bin reproduce_all -- \
        --quick --quiet --bench mcf "${flag[@]}" \
        --json "$pre_dir/$mode.json" > "$pre_dir/$mode.txt"
done
if ! diff -u "$pre_dir/plain.txt" "$pre_dir/preflight.txt"; then
    echo "FAIL: --preflight changed the sweep's stdout."
    exit 1
fi
if ! diff -u "$pre_dir/plain.json" "$pre_dir/preflight.json"; then
    echo "FAIL: --preflight changed the sweep's snapshot."
    exit 1
fi
rm -rf "$pre_dir"

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
# exits 1 otherwise), and its seeded JSON must be byte-identical to the
# committed baseline.
echo "==> rev-chaos --quick vs baselines/chaos_quick.json (hard gate)"
chaos="$(mktemp /tmp/chaos_rev.XXXXXX.json)"
cargo run --release -q -p rev-chaos -- --quick --seed 7 --quiet --json "$chaos" >/dev/null
if ! diff -u baselines/chaos_quick.json "$chaos"; then
    echo "FAIL: campaign differs from baselines/chaos_quick.json."
    echo "      If intentional, regenerate with:"
    echo "      cargo run --release -p rev-chaos -- --quick --seed 7 --quiet --json baselines/chaos_quick.json"
    exit 1
fi
rm -f "$chaos"

# Service-layer chaos gate (hard): the quick seeded campaign against the
# rev-serve gateway — worker panics, corrupted checkpoints, stalls under
# deadlines, client disconnects — must be clean (zero silent-corruption,
# zero false-positive; rev-chaos exits 1 otherwise), and its JSON must be
# byte-identical to the committed baseline. The injected stalls run
# 10-25 ms against a 1 ms deadline, so host pace cannot flip a case.
echo "==> rev-chaos --serve --quick vs baselines/chaos_serve_quick.json (hard gate)"
chaos_serve="$(mktemp /tmp/chaos_serve.XXXXXX.json)"
cargo run --release -q -p rev-chaos -- \
    --serve --quick --seed 7 --jobs 4 --quiet --json "$chaos_serve" >/dev/null
if ! diff -u baselines/chaos_serve_quick.json "$chaos_serve"; then
    echo "FAIL: serve campaign differs from baselines/chaos_serve_quick.json."
    echo "      If intentional, regenerate with:"
    echo "      cargo run --release -p rev-chaos -- --serve --quick --seed 7 --quiet --json baselines/chaos_serve_quick.json"
    exit 1
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

echo "==> OK"
