#!/usr/bin/env bash
# Offline-friendly CI for the DoPE reproduction workspace.
#
# The build environment has no crates.io access; all third-party
# dependencies are in-tree shims (see shims/README.md), so everything
# below runs with the network hard-disabled.
#
# Usage: ./ci.sh [--quick]
#   --quick   skip the release build, the figures diff and the release
#             smokes (format, lint, debug tests only)

set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

step() { printf '\n==> %s\n' "$*"; }

LOC_CEILING=21227

step "loc: non-test Rust lines per crate (ceiling $LOC_CEILING)"
# Tracked crates/<crate>/src/**/*.rs, each file counted up to its
# `#[cfg(test)]` module (fixture trees under tests/ are skipped), so the
# per-crate before/after rows in results/perf-history.jsonl can be
# reproduced at any commit. The total may not pass LOC_CEILING (the last
# PR's total): a PR that grows the tree raises the constant, and says why,
# on purpose.
git ls-files 'crates/*/src/*.rs' | grep -v '/tests/' | awk -v ceiling="$LOC_CEILING" '
  { split($0, part, "/"); crate = part[2]
    while ((getline line < $0) > 0) { if (line ~ /^#\[cfg\(test\)\]/) break; loc[crate]++ }
    close($0) }
  END { for (crate in loc) { printf "%8d  %s\n", loc[crate], crate; total += loc[crate] }
        printf "%8d  total\n", total
        if (total > ceiling) {
          printf "loc: %d non-test lines exceed the ceiling of %d\n", total, ceiling > "/dev/stderr"
          exit 1 } }' | sort -k2

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy --workspace -- -D warnings"
# Also the forbidden-API gate: crates/dope-runtime and crates/dope-trace
# carry a clippy.toml (no unwrap/expect/unbounded channel in the runtime,
# no stray Instant::now in the recorder); a waiver is an
# `#[expect(.., reason)]`, and an unfulfilled one fails here too.
cargo clippy --workspace --all-targets --offline -- -D warnings

if [[ "$QUICK" -eq 0 ]]; then
  step "cargo build --release"
  cargo build --release --offline
fi

step "cargo test -q --workspace (crate unit + integration tests, doctests)"
# Not just the umbrella package's tests/: the wire-format gates live with
# their owner — dope-trace's schema-table-vs-baseline test (the additive
# field contract) and tests/golden.rs (byte-identical JSONL), dope-runtime's
# lock-rank guard and table — and only run when the member crates are
# tested.
cargo test -q --offline --workspace

step "cargo test (benchmark crate: catalogue vs BENCHMARK.json, 1/100-size workload smokes)"
# benchmark/ is its own workspace, compiled against the public API of
# crates/* and run by the benchmark pipeline on every change: a change
# here that breaks what it uses must fail CI, not the pipeline.
# `--locked`: a `[dependencies]` edit that would rewrite the frozen
# `benchmark/Cargo.lock` fails here instead of silently changing it.
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

if [[ "$QUICK" -eq 0 ]]; then
  step "figures: the nine deterministic binaries still print results/*.txt"
  # The paper's figures are the behavioural contract (ROADMAP): every
  # binary is deterministic and runs in under a second, so "figures
  # regenerate unchanged" is a diff, not a promise. A deliberate change
  # of behaviour regenerates the file and says why in CHANGES.md.
  for fig in fig02 fig11 fig12 fig13 fig14 fig15 table3 table4 ablations; do
    cargo run -q --release --offline -p dope-bench --bin "$fig" 2>/dev/null \
      | diff -u "results/$fig.txt" -
  done

  step "metrics smoke: live scrape + overhead regression"
  # A tiny live run that serves and scrapes its own Prometheus endpoint
  # and asserts the monitoring-overhead ratio stays under the ceiling.
  cargo test -q --release --offline --test metrics_smoke

  step "metrics smoke: dope-trace stats on a fresh recording"
  TRACE_TMP="$(mktemp -d)"
  trap 'rm -rf "$TRACE_TMP"' EXIT
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    record "$TRACE_TMP/smoke.jsonl"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    stats "$TRACE_TMP/smoke.jsonl" | grep -q "finished:"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    replay "$TRACE_TMP/smoke.jsonl"

  step "fault smoke: panic injection under every failure policy (release)"
  # The supervision layer must hold with release-build optimizations:
  # panicking replicas are contained, accounted, and handled per policy.
  cargo test -q --release --offline --test failure_injection

  step "fault smoke: failure racing a partial drain (release)"
  # The nastiest interleaving the delta path adds: a replica detonates
  # while a partial drain is in flight. The accepted target must be
  # retired as superseded and the failure policy's full drain must win.
  # (The suite above already covers it; this filtered run makes the
  # interleaving visible by name in the CI log.)
  cargo test -q --release --offline --test failure_injection \
    failure_during_partial_drain_supersedes_the_target
  cargo test -q --release --offline --test partial_reconfig

  step "live smoke: end-to-end runs (release)"
  # A release build serves a batch faster than a debug one; a test that
  # needs control ticks before its work is done shows it here.
  cargo test -q --release --offline --test live_end_to_end
  # A second launch runs on the first one's parked threads.
  cargo test -q --release --offline --test carrier_reuse
  # Ticks, stops and the decision audit, each recording held to the
  # trace rules (`tests/support`) at release speed.
  cargo test -q --release --offline --test control_loop --test decision_audit

  step "fault smoke: dope-trace record -> stats round trip with TaskFailed"
  # The record CLI cannot inject panics, so a fixture trace carrying
  # TaskFailed events checks the consumer half: stats must count the
  # failures per path and the timeline must render them.
  FAULT_TRACE="$TRACE_TMP/faults.jsonl"
  printf '%s\n' \
    '{"v": 1, "seq": 0, "t": 0.1, "kind": "FeatureRead", "feature": "SystemPower", "value": 612.5}' \
    '{"v": 1, "seq": 1, "t": 0.5, "kind": "TaskFailed", "path": "0.1", "reason": "worker panicked: boom", "policy": "restart"}' \
    '{"v": 1, "seq": 2, "t": 0.9, "kind": "TaskFailed", "path": "0.1", "reason": "worker panicked: boom again", "policy": "restart"}' \
    '{"v": 1, "seq": 3, "t": 1.5, "kind": "Finished", "completed": 48, "reconfigurations": 1, "dropped_events": 0}' \
    > "$FAULT_TRACE"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    stats "$FAULT_TRACE" | grep -q "2 failed replica(s)"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    timeline "$FAULT_TRACE" | grep -q "FAILED"

  step "explain smoke: traced fig11 run -> decision audit (text + strict JSON)"
  # A short traced fig11 config must yield a non-empty decision audit:
  # the recording carries DecisionTraced events, `explain` renders them,
  # and `explain --json` re-emits strict JSONL that parses back through
  # the codec (piping it into a second `explain -` proves exactly that —
  # a loose re-encoding would be rejected on the way back in).
  FIG11_TRACE="$TRACE_TMP/fig11.jsonl"
  cargo run -q --release --offline -p dope-bench --bin fig11 -- \
    --quick "--trace=$FIG11_TRACE" > /dev/null
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$FIG11_TRACE" > "$TRACE_TMP/audit.txt"
  grep -q "decision audit:" "$TRACE_TMP/audit.txt"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$FIG11_TRACE" --json > "$TRACE_TMP/decisions.jsonl"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$TRACE_TMP/decisions.jsonl" > "$TRACE_TMP/audit-rt.txt"
  grep -q "decision audit:" "$TRACE_TMP/audit-rt.txt"

  step "overload smoke: shedding gate storm -> admission stats -> decision audit"
  # The live overload example (docs/overload.md) storms a Shed-gated
  # two-stage service, asserting conservation and a non-zero shed count
  # in-process; the trace it writes declares the gate in Launched and
  # keeps its counters in every snapshot, from which stats derives the
  # admission section with the gate's totals, and it carries a non-empty
  # decision audit from the ShedAware-wrapped mechanism.
  OVERLOAD_TRACE="$TRACE_TMP/overload.jsonl"
  cargo run -q --release --offline --example overload -- "$OVERLOAD_TRACE" > /dev/null
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    stats "$OVERLOAD_TRACE" > "$TRACE_TMP/overload-stats.txt"
  grep -q "admission:" "$TRACE_TMP/overload-stats.txt"
  grep -q "totals: 20000 offered" "$TRACE_TMP/overload-stats.txt"
  cargo run -q --release --offline -p dope-trace --bin dope-trace -- \
    explain "$OVERLOAD_TRACE" | grep -q "decision audit:"
  cargo test -q --release --offline --test admission_overload

  step "perf smoke: overload frontier, control/monitor ledger, allocation budgets"
  # Reduced-configuration run of the in-tree perf ledger
  # (docs/performance.md): the probes the frozen benchmark has no
  # per-layer metric for. The binary enforces the overload frontier
  # in-run (shed p99 >= 4x under open, goodput >= 90 % of saturation,
  # Block loses nothing) and round-trips the report through the strict
  # JSON codec before writing it.
  cargo run -q --release --offline -p dope-bench --bin perf -- \
    --quick --out="$TRACE_TMP/BENCH_perf.json"
  # The per-PR ledger is appended by hand: every row must parse and name
  # real commits.
  cargo run -q --release --offline -p dope-bench --bin perf -- \
    --check-history=results/perf-history.jsonl
  # What a control period allocates is a budget, not a reading: a counting
  # allocator pins allocations per recorded sim request, heap per
  # snapshot and decision record, and the zero-copy ring hand-over.
  cargo test -q --release --offline --test alloc_budget
fi

step "ci.sh: all checks passed"
