#!/usr/bin/env sh
# Tier-1 CI gate: build, test, formatting, lints. Run from the repo root.
set -eu

cargo build --release
cargo test -q
cargo test --doc -q
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# The benchmark package (perf/, see BENCHMARK.json) is a workspace of its
# own, so the commands above skip it: keep it formatted, lint-clean and
# tested here, so a library change that breaks the benchmark's build fails.
cargo fmt --check --manifest-path perf/Cargo.toml
cargo clippy --manifest-path perf/Cargo.toml -- -D warnings
cargo test --manifest-path perf/Cargo.toml
# Documentation gate: every public item documented, no broken intra-doc
# links. Vendored proptest predates the gate and is excluded.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest

# Docs-drift gate: every source module must appear in ARCHITECTURE.md's
# module-map appendix, so the map cannot silently rot as crates grow.
for f in crates/*/src/*.rs; do
    mod=$(basename "$f" .rs)
    case "$mod" in lib|main) continue ;; esac
    if ! grep -q -e "::$mod\`" -e "\`$mod\`" docs/ARCHITECTURE.md; then
        echo "docs drift: module '$mod' ($f) missing from docs/ARCHITECTURE.md" >&2
        exit 1
    fi
done
# ... and the reverse: every `real-<crate>::<module>` row of that map must
# name an existing crates/<crate>/src/<module>.rs, so a deleted module's row
# cannot linger.
for row in $(sed -n 's/^| `real-\([a-z]*\)::\([a-z_0-9]*\)` |.*/\1\/src\/\2/p' \
        docs/ARCHITECTURE.md); do
    if [ ! -f "crates/$row.rs" ]; then
        echo "docs drift: module map row for crates/$row.rs names no such file" >&2
        exit 1
    fi
done

# Dataflow-spec drift gate: docs/DATAFLOWS.md is the schema reference for
# the --graph DSL; every SpecError variant and every public field of the
# spec structs must be documented there.
for variant in $(sed -n '/^pub enum SpecError/,/^}/s/^    \([A-Z][A-Za-z]*\).*/\1/p' \
        crates/dataflow/src/spec.rs); do
    if ! grep -q "$variant" docs/DATAFLOWS.md; then
        echo "docs drift: SpecError::$variant missing from docs/DATAFLOWS.md" >&2
        exit 1
    fi
done
for field in $(sed -n '/^pub struct \(GraphSpec\|ModelDecl\|CallDecl\|HookDecl\|OffPolicyDecl\)/,/^}/s/^    pub \([a-z_]*\):.*/\1/p' \
        crates/dataflow/src/spec.rs); do
    if ! grep -q "\`$field\`" docs/DATAFLOWS.md; then
        echo "docs drift: spec field '$field' missing from docs/DATAFLOWS.md" >&2
        exit 1
    fi
done

# Serving-spec drift gate: docs/SERVING.md is the schema reference for
# workload.json; every public field of the workload spec structs (top-level
# and inside the arrival variants) and every admission decision / rejection
# variant must be documented there.
for field in $(sed -n '/^pub \(struct\|enum\) \(WorkloadSpec\|TemplateSpec\|ArrivalSpec\|BurstSpec\|AdmissionSpec\)/,/^}/{s/^    pub \([a-z_]*\):.*/\1/p;s/^        \([a-z_]*\):.*/\1/p;}' \
        crates/serve/src/workload.rs); do
    if ! grep -q "\`$field\`" docs/SERVING.md; then
        echo "docs drift: workload field '$field' missing from docs/SERVING.md" >&2
        exit 1
    fi
done
for variant in $(sed -n '/^pub enum \(ArrivalSpec\|AdmissionDecision\|RejectReason\)/,/^}/s/^    \([A-Z][A-Za-z]*\).*/\1/p' \
        crates/serve/src/workload.rs crates/serve/src/admission.rs); do
    if ! grep -q "\`$variant\`" docs/SERVING.md; then
        echo "docs drift: variant '$variant' missing from docs/SERVING.md" >&2
        exit 1
    fi
done

# CLI-drift gate: every `real` subcommand in the dispatch table must be
# mentioned in README.md, so the README cannot lag behind the binary.
for cmd in $(sed -n '/^pub fn dispatch/,/^}/s/^ *"\([a-z-]*\)" => .*/\1/p' \
        crates/cli/src/commands.rs); do
    if ! grep -q "real $cmd" README.md; then
        echo "docs drift: CLI subcommand 'real $cmd' missing from README.md" >&2
        exit 1
    fi
done
# ... and the graph-DSL flags must stay documented.
for flag in graph async-offpolicy staleness; do
    if ! grep -q -- "--$flag" README.md; then
        echo "docs drift: flag '--$flag' missing from README.md" >&2
        exit 1
    fi
done
# ... and every serve flag must stay documented in the operator's guide.
for flag in workload horizon max-stretch probe-steps admit-all no-preemption; do
    if ! grep -q -- "--$flag" docs/SERVING.md; then
        echo "docs drift: serve flag '--$flag' missing from docs/SERVING.md" >&2
        exit 1
    fi
done

# ... and every speculation flag must stay documented in its guide.
for flag in spec-decode draft-model spec-k acceptance no-spec memo-in memo-out; do
    if ! grep -q -- "--$flag" docs/SPECULATION.md; then
        echo "docs drift: speculation flag '--$flag' missing from docs/SPECULATION.md" >&2
        exit 1
    fi
done

# Search-throughput gate: the memoized fast path must beat from-scratch
# pricing on the CI-sized config while choosing the identical plan, and the
# critical-path bound must keep rejecting most chain steps unpriced and
# pruning most polish candidates (see docs/SEARCH.md). The full three-scale
# table is the `search_throughput` ablation; this runs only the small gate
# pair.
cargo bench -q -p real-bench --bench ablations -- search_throughput_gate

# Speculation gate: on the decode-dominant CI pairing the searched
# speculative plan must beat the plain incumbent by >= 1.25x at acceptance
# 0.8 and strip speculation entirely at 0.3 (see docs/SPECULATION.md). The
# two-pairing acceptance sweep is the `spec_decode` ablation.
cargo bench -q -p real-bench --bench ablations -- spec_decode_gate

# Async gate: on PPO 7B + 7B at 8 GPUs the async searched plan under the
# async master must be no slower than the synchronous searched plan, and
# the estimator must price it within 25% of the measured iteration time
# (see docs/DATAFLOWS.md). The two-setting table is the `async_overlap`
# ablation.
cargo bench -q -p real-bench --bench ablations -- async_overlap_gate

# Profile-regression gate: re-profile the reference PPO workload and diff
# phase shares, makespan, and critical-path composition against the
# committed baseline (see docs/PROFILING.md). The heuristic plan and the
# virtual-time engine make the profile bit-deterministic, so tight
# tolerances hold across machines.
./target/release/real profile --nodes 1 --batch 32 --iters 2 \
    --quick-profile --heuristic \
    --baseline baselines/ppo-1node-quick.json --check --tolerance-pct 2

# Memory gate: the `real profile` path at 128 GPUs (the benchmark's
# profile-128 workload) must peak under 130 MB of RSS. The interned event
# stream keeps it near 100 MB; owned per-event strings took it to 247 MB
# (see docs/PROFILING.md).
rss=$(cargo run --release -q --offline --manifest-path perf/Cargo.toml -- \
    --workload profile-128 --seconds 2 | tail -n 1 |
    sed -n 's/.*"peak_rss_mb":{"value":\([0-9.eE+-]*\).*/\1/p')
if ! awk -v rss="$rss" 'BEGIN { exit !(rss != "" && rss + 0 <= 130) }'; then
    echo "memory gate: profile-128 peak_rss_mb '$rss' exceeds 130" >&2
    exit 1
fi

# Memory gate: the `real plan` path at 1024 GPUs (the benchmark's plan-1024
# workload) must peak at or under 20 MB of RSS. The search keeps option
# durations in a dense table instead of the memo, which holds it near
# 16 MB; with every option's duration memoized it peaked near 25 MB (see
# docs/SEARCH.md).
rss=$(cargo run --release -q --offline --manifest-path perf/Cargo.toml -- \
    --workload plan-1024 --seconds 1 | tail -n 1 |
    sed -n 's/.*"peak_rss_mb":{"value":\([0-9.eE+-]*\).*/\1/p')
if ! awk -v rss="$rss" 'BEGIN { exit !(rss != "" && rss + 0 <= 20) }'; then
    echo "memory gate: plan-1024 peak_rss_mb '$rss' exceeds 20" >&2
    exit 1
fi

# Memory gate: the `real serve` path over 8,000 arrivals (the benchmark's
# serve-day workload) must peak at or under 25 MB of RSS. A finished tenant
# keeps only its report row, which holds it near 15 MB; keeping every
# finished tenant's session took it to 56 MB (see docs/SERVING.md).
rss=$(cargo run --release -q --offline --manifest-path perf/Cargo.toml -- \
    --workload serve-day --seconds 1 | tail -n 1 |
    sed -n 's/.*"peak_rss_mb":{"value":\([0-9.eE+-]*\).*/\1/p')
if ! awk -v rss="$rss" 'BEGIN { exit !(rss != "" && rss + 0 <= 25) }'; then
    echo "memory gate: serve-day peak_rss_mb '$rss' exceeds 25" >&2
    exit 1
fi
