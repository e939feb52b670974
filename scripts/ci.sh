#!/usr/bin/env bash
# Hermetic CI gate: the whole workspace must build, test and lint with
# --offline (no registry access — every dependency is a path-local crate;
# see DESIGN.md §6). Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo build --offline --examples
cargo test -q --offline --workspace
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
# timings of so short a run are not gated). The smoke runs traced, so
# the in-process replay behind the per-layer table (perfbench's own
# Response::to_bytes, Body::Full and component calls) runs too.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
if ! perf_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload all --seed 1 --seconds 1 --trace 1)" ||
    [ "$(grep -c '^{"correct": true' <<<"$perf_out")" -ne 3 ]; then
    echo "perfbench smoke FAILED: every workload must report \"correct\": true" >&2
    echo "$perf_out" >&2
    exit 1
fi
echo "perfbench smoke OK"

# ---- transport bench smoke ------------------------------------------------
# One-sample runs of the throughput bench (seconds, not minutes) with the
# variance-reduction pass off and then on, each followed by schema
# validation of the JSON artifact with the in-tree parser. Guards the
# bench harness, the artifact schema (including the conditional VR
# fields) and the SoA-vs-direct floor baked into validate_bench; the
# finer perf numbers are too noisy to gate on in a smoke run.
TN_BENCH_SMOKE=1 TN_BENCH_VR=off cargo bench --offline -p tn-bench --bench ext_transport_throughput
cargo run --offline --example validate_bench -- target/tn-bench/BENCH_transport_throughput.json
TN_BENCH_SMOKE=1 TN_BENCH_VR=on cargo bench --offline -p tn-bench --bench ext_transport_throughput
cargo run --offline --example validate_bench -- target/tn-bench/BENCH_transport_throughput.json

# ---- fleet load-harness smoke ---------------------------------------------
# A short open-loop run against an in-process server (quick surfaces,
# low rate), then schema + p99-gate validation of the BENCH_fleet.json
# artifact. Guards the /v1/fleet path end-to-end: surface build,
# bulk assessment, response cache, and the harness's own report.
TN_BENCH_SMOKE=1 target/release/thermal-neutrons load \
    --rate-hz 60 --duration-s 1.5 --workers 2 --devices 4 --seed 7 \
    --out target/tn-bench/BENCH_fleet.json
cargo run --offline --example validate_load -- target/tn-bench/BENCH_fleet.json

# Saturating close/keep-alive pair: the same offered rate far above
# close-per-request capacity (~24k req/s on the CI box), so achieved
# rates measure transport throughput. validate_load's two-artifact mode
# then enforces the >= 3x keep-alive speedup on the pair.
TN_BENCH_SMOKE=1 target/release/thermal-neutrons load \
    --rate-hz 200000 --duration-s 1.0 --workers 2 --devices 1 --seed 7 \
    --out target/tn-bench/BENCH_fleet_close.json
TN_BENCH_SMOKE=1 target/release/thermal-neutrons load \
    --rate-hz 200000 --duration-s 1.0 --workers 2 --devices 1 --seed 7 \
    --keep-alive \
    --out target/tn-bench/BENCH_fleet_keepalive.json
cargo run --offline --example validate_load -- \
    target/tn-bench/BENCH_fleet_keepalive.json \
    target/tn-bench/BENCH_fleet_close.json

# The committed full-run artifact must clear the keep-alive epoll
# throughput floor (10x the close-per-request baseline).
cargo run --offline --example validate_load -- BENCH_fleet.json

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
# golden snapshots, injected-bug self-tests) must pass, and the report it
# writes must satisfy the schema the dashboards consume.
verify_report="$(mktemp)"
target/release/thermal-neutrons verify --quick --out "$verify_report"
cargo run --offline --example validate_verify -- "$verify_report"
rm -f "$verify_report"

# Bless-drift check: re-render every golden artefact into a scratch
# directory and require it to be byte-identical to the blessed copy in
# tests/golden/. Catches a committed output-format change whose goldens
# were not regenerated (the in-run golden suite only enforces the
# per-field tolerance classes; CI holds the stricter byte-level line).
bless_dir="$(mktemp -d)"
TN_BLESS=1 TN_GOLDEN_DIR="$bless_dir" target/release/thermal-neutrons verify --quick \
    --out "$bless_dir/VERIFY_report.json" >/dev/null
rm -f "$bless_dir/VERIFY_report.json"
if ! diff -ru tests/golden "$bless_dir"; then
    echo "golden bless-drift FAILED: tests/golden is stale; run TN_BLESS=1 target/release/thermal-neutrons verify and commit the result" >&2
    rm -rf "$bless_dir"
    exit 1
fi
rm -rf "$bless_dir"
echo "tn-verify gate OK"

# ---- tn-watch gate ---------------------------------------------------------
# Replay the paper's water-pan scenario through the streaming monitor:
# the CLI exits non-zero unless it detects the thermal step, and the
# report it writes must satisfy the schema the validator enforces
# (exactly one step_up, magnitude within ±0.05 of the derived boost).
watch_report="$(mktemp)"
target/release/thermal-neutrons watch --seed 2020 --out "$watch_report"
cargo run --offline --example validate_watch -- "$watch_report"
rm -f "$watch_report"
echo "tn-watch gate OK"

# ---- tn-scenario gate ------------------------------------------------------
# Run every built-in campaign twice: the CLI exits non-zero unless the
# campaign meets its conformance contract, the two reports must be
# byte-identical (the whole engine is deterministic in the seed), and
# each report must satisfy the per-campaign schema the validator
# enforces (e.g. "normal" alert-free, "loss-of-moderation" crediting
# exactly one step_down).
scenario_dir="$(mktemp -d)"
for name in normal rainstorm-at-leadville loss-of-moderation detector-channel-drift; do
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
