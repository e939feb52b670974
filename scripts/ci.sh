#!/usr/bin/env bash
# Hermetic CI gate: the whole workspace must build, test and lint with
# --offline (no registry access — every dependency is a path-local crate;
# see DESIGN.md §6). Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# Format gate for the crates formatted so far (tn-core, tn-fleet,
# tn-server); the other crates join it once a format-only change has
# formatted them.
cargo fmt --check -p tn-core -p tn-fleet -p tn-server
cargo build --release --offline
cargo build --offline --examples
cargo test -q --offline --workspace
# tn-core's two long oracle sweeps, ignored by default and seconds each
# in release: the JSON float writer's (ten million random bit patterns
# against `{:e}`) and the one-pass number lexer's
# (numbers_lex_to_the_bits_str_parse_gives_over_10m_spellings: ten
# million generated and mutated number spellings, each lexed to the bits
# `str::parse` gives or to the two-pass reference lexer's error).
cargo test --release --offline -p tn-core -- --ignored
# tn-server's three long oracles and its memo stress test, ignored by
# default, 20-60 s together in release (host-dependent): the fleet
# renderer's (10,000 steps of seeded registry
# writes, each followed by bulk and stream reads that must equal a fresh
# state's render from scratch), the inline cache key's
# (inline_keys_match_fresh_renders_over_10k_steps: 10,000 families of
# seeded inline bodies, equivalent spellings and near misses, each equal
# to a fresh render and a cache hit exactly when an equal request came
# earlier), the request decoders'
# (decoders_match_the_reference_over_100k_mutations, about 8 s: 100,000
# mutated fleet and upsert bodies, each answered with the status and body
# the tree-based reference decoding gives) and the memo's
# (every_key_is_computed_once_over_8_threads_and_200k_keys: eight threads
# walk the same 200,000 keys, and each key must be computed exactly once).
cargo test --release --offline -p tn-server -- --ignored
cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: a broken or private intra-doc link (say, to a deleted
# public item) fails the build instead of rendering as dead text.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# ---- perfbench build + smoke ----------------------------------------------
# The benchmark is a workspace of its own (perfbench/Cargo.toml), so the
# workspace builds above never compile it, yet it drives the server's
# RequestParser -> router::wants_worker -> router::handle path. Build it,
# then run each of its three workloads for one second: every one must
# end in a JSON line with "correct": true (its output checks; the
# timings of so short a run are not gated). Those checks are what CI
# gates on performance paths: every fleet_hot and fleet_churn body is
# served from the risk surfaces with zero Monte-Carlo fallbacks and
# consistent totals, and replays in process to its timed digest;
# transport_field's SoA batches agree with the direct per-history kernel
# (run_history_direct), its weighted (variance-reduced) batches agree
# with it within their own relative error, and every batch replays
# exactly from its seed. The smoke runs traced, so the in-process
# replay behind the per-layer table (perfbench's own Response::to_bytes,
# Body::Full and component calls) runs too.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
if ! perf_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 1 --trace 1)" ||
    [ "$(grep -c '^{"correct": true' <<<"$perf_out")" -ne 3 ]; then
    echo "perfbench smoke FAILED: every workload must report \"correct\": true" >&2
    echo "$perf_out" >&2
    exit 1
fi
echo "perfbench smoke OK"

# ---- tn-server smoke test -------------------------------------------------
# Start the daemon on an ephemeral port with debug tracing into a JSONL
# file, hit /healthz through bash's /dev/tcp (no curl in the hermetic
# environment), shut it down, then validate every trace line with the
# in-tree JSON parser (required keys: ts, level, span, msg).
smoke_log="$(mktemp)"
trace_file="$(mktemp)"
target/release/thermal-neutrons serve --addr 127.0.0.1:0 --threads 2 \
    --log-level debug --trace-out "$trace_file" >"$smoke_log" 2>/dev/null &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT

port=""
for _ in $(seq 1 100); do
    # The daemon prints: tn-server listening on http://127.0.0.1:PORT (...)
    port="$(sed -n 's|.*listening on http://127\.0\.0\.1:\([0-9]*\).*|\1|p' "$smoke_log")"
    [ -n "$port" ] && break
    sleep 0.1
done
if [ -z "$port" ]; then
    echo "tn-server smoke test FAILED: daemon never reported its port" >&2
    exit 1
fi

exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'GET /healthz HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
health="$(cat <&3)"
exec 3<&- 3>&-

case "$health" in
    *'"status":"ok"'*) echo "tn-server smoke test OK (port $port)" ;;
    *)
        echo "tn-server smoke test FAILED: unexpected /healthz response:" >&2
        echo "$health" >&2
        exit 1
        ;;
esac

# One listener per port: a second daemon on the served address must
# refuse to start (exit 2, "Address already in use") instead of sharing
# the port, where the kernel would split connections between two fleet
# registries. `timeout` ends a daemon that wrongly starts serving.
second_status=0
second_err="$(timeout 10 target/release/thermal-neutrons serve --addr "127.0.0.1:$port" \
    2>&1 >/dev/null)" || second_status=$?
if [ "$second_status" -ne 2 ] || [[ "$second_err" != *"Address already in use"* ]]; then
    echo "tn-server smoke FAILED: a second daemon on port $port exited $second_status:" >&2
    echo "$second_err" >&2
    exit 1
fi
echo "tn-server single-listener smoke OK"

# tn-watch wire smoke: one ingested sample must land in the timeline
# monitor, and the watch / teardown / surface-cache series must all
# render in /metrics (zero-valued counters still print).
body='{"count":500}'
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'POST /v1/timeline/ingest HTTP/1.1\r\nHost: ci\r\nContent-Length: %s\r\nConnection: close\r\n\r\n%s' \
    "${#body}" "$body" >&3
ingest="$(cat <&3)"
exec 3<&- 3>&-
case "$ingest" in
    *'"ingested":1'*) ;;
    *)
        echo "timeline ingest smoke FAILED: unexpected response:" >&2
        echo "$ingest" >&2
        exit 1
        ;;
esac
exec 3<>"/dev/tcp/127.0.0.1/$port"
printf 'GET /metrics HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
metrics="$(cat <&3)"
exec 3<&- 3>&-
for series in tn_watch_rate tn_watch_baseline 'tn_watch_alerts_total{kind="step_up"}' \
    tn_surface_cache_entries tn_surface_cache_loads_total tn_surface_cache_saves_total \
    tn_conn_idle_closed_total tn_conn_request_cap_closed_total; do
    case "$metrics" in
        *"$series"*) ;;
        *)
            echo "metrics smoke FAILED: series $series missing from /metrics" >&2
            exit 1
            ;;
    esac
done
echo "tn-watch metrics smoke OK"

kill "$server_pid"
wait "$server_pid" 2>/dev/null || true
trap - EXIT

# The smoke exchange above must have produced a parseable JSONL trace
# (at least the server_bound and per-request events).
cargo run --offline --example validate_trace -- "$trace_file"
grep -q '"msg":"request"' "$trace_file" || {
    echo "trace smoke FAILED: no request event in $trace_file" >&2
    exit 1
}

rm -f "$smoke_log" "$trace_file"

# ---- tn-verify gate --------------------------------------------------------
# The quick verification profile (statistical GOF, differential oracles,
# golden snapshots, scenario campaigns, the paper ledger, injected-bug
# self-tests) must pass, and the report it writes must satisfy the schema
# the dashboards consume.
verify_report="$(mktemp)"
target/release/thermal-neutrons verify --quick --out "$verify_report"
cargo run --offline --example validate_verify -- "$verify_report"
rm -f "$verify_report"

# Bless-drift check: re-render every golden artefact into a scratch
# directory and require it to be byte-identical to the blessed copy in
# tests/golden/. Catches a committed output-format change whose goldens
# were not regenerated (the in-run golden suite only enforces the
# per-field tolerance classes; CI holds the stricter byte-level line).
# The re-render runs the Monte-Carlo transport on 8 threads, so every
# golden, the reproduction ledger included, is also pinned across
# thread counts.
bless_dir="$(mktemp -d)"
TN_BLESS=1 TN_GOLDEN_DIR="$bless_dir" target/release/thermal-neutrons verify --quick \
    --transport-threads 8 --out "$bless_dir/VERIFY_report.json" >/dev/null
rm -f "$bless_dir/VERIFY_report.json"
if ! diff -ru tests/golden "$bless_dir"; then
    echo "golden bless-drift FAILED: tests/golden is stale; run TN_BLESS=1 target/release/thermal-neutrons verify and commit the result" >&2
    rm -rf "$bless_dir"
    exit 1
fi
rm -rf "$bless_dir"
echo "tn-verify gate OK"

# ---- tn-scenario gate ------------------------------------------------------
# Run every built-in campaign twice: the CLI exits non-zero unless the
# campaign meets its conformance contract, the two reports must be
# byte-identical (the whole engine is deterministic in the seed), and
# each report must satisfy the per-campaign schema the validator
# enforces (e.g. "normal" alert-free, "water-pan" crediting exactly one
# step_up within ±0.05 of the MC-derived boost, "loss-of-moderation"
# exactly one step_down). The names come from `scenario --list` (each
# line is `name: ...`), so a new built-in joins the gate by itself.
scenario_names="$(target/release/thermal-neutrons scenario --list | cut -d: -f1)"
if [ -z "$scenario_names" ]; then
    echo "scenario gate FAILED: scenario --list printed no built-ins" >&2
    exit 1
fi
scenario_dir="$(mktemp -d)"
for name in $scenario_names; do
    target/release/thermal-neutrons scenario --name "$name" --seed 2020 \
        --out "$scenario_dir/$name.a.json" >/dev/null
    target/release/thermal-neutrons scenario --name "$name" --seed 2020 \
        --out "$scenario_dir/$name.b.json" >/dev/null
    if ! cmp -s "$scenario_dir/$name.a.json" "$scenario_dir/$name.b.json"; then
        echo "scenario determinism FAILED: $name reports differ across runs" >&2
        rm -rf "$scenario_dir"
        exit 1
    fi
    cargo run --offline --example validate_scenario -- "$scenario_dir/$name.a.json"
done
rm -rf "$scenario_dir"
echo "tn-scenario gate OK"
