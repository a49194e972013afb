#!/usr/bin/env sh
# Local CI gate: everything a PR must pass, in the order a failure is
# cheapest to notice. Run from the repo root.
set -eu

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

echo "==> cargo clippy -q --workspace --all-targets -- -D warnings"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc -q --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

echo "==> profiled smoke run (stage spans + finite metrics)"
# End-to-end observability gate: generate a smoke log, analyze it with
# profiling on, and fail if any documented pipeline stage is missing from
# the trace or any exported metric is non-finite (the CLI itself errors on
# non-finite metrics; the greps below are belt and braces).
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo build --release -q -p autosens-cli
./target/release/autosens generate --scenario smoke --out "$SMOKE_DIR/smoke.csv" --quiet
./target/release/autosens analyze --in "$SMOKE_DIR/smoke.csv" --ci 25 \
    --profile --trace-out "$SMOKE_DIR/trace.jsonl" \
    --metrics-out "$SMOKE_DIR/metrics.json" --quiet > /dev/null
for stage in sanitize lossmodel alpha biased_pdf unbiased_pdf smoothing normalization ci_bootstrap; do
    grep -q "\"$stage\"" "$SMOKE_DIR/trace.jsonl" || {
        echo "ci.sh: stage span '$stage' missing from trace" >&2
        exit 1
    }
done
if grep -Eq 'NaN|[Ii]nf|null' "$SMOKE_DIR/metrics.json"; then
    echo "ci.sh: non-finite value in metrics export" >&2
    exit 1
fi

echo "==> determinism gate (--threads 1 vs --threads 4)"
# The scheduler promises worker count is a pure throughput knob: the same
# analysis at 1 and 4 threads must export identical metrics. Timing-valued
# keys (ms suffixes) are excluded — wall clock is the one thing allowed to
# differ.
./target/release/autosens analyze --in "$SMOKE_DIR/smoke.csv" --ci 25 \
    --threads 1 --metrics-out "$SMOKE_DIR/metrics_t1.json" --quiet > /dev/null
./target/release/autosens analyze --in "$SMOKE_DIR/smoke.csv" --ci 25 \
    --threads 4 --metrics-out "$SMOKE_DIR/metrics_t4.json" --quiet > /dev/null
strip_timings() { grep -Ev '_(ms|seconds)"' "$1"; }
strip_timings "$SMOKE_DIR/metrics_t1.json" > "$SMOKE_DIR/metrics_t1.stripped"
strip_timings "$SMOKE_DIR/metrics_t4.json" > "$SMOKE_DIR/metrics_t4.stripped"
if ! diff -u "$SMOKE_DIR/metrics_t1.stripped" "$SMOKE_DIR/metrics_t4.stripped"; then
    echo "ci.sh: metrics diverged between --threads 1 and --threads 4" >&2
    exit 1
fi

echo "==> streaming-batch equivalence gate (analyze vs watch --until-eof)"
# The streaming engine promises that draining a finite log and snapshotting
# produces the *bit-identical* analysis the batch pipeline computes: same
# JSON report, same autosens_core_* counters. Any divergence — curve bits,
# degradation bookkeeping, record accounting — fails the build. Stream-side
# metrics (autosens_stream_*, exec chunk counts) legitimately differ, so the
# metrics diff is restricted to the core counters, timings excluded.
# The watch side runs with the observability plane fully on (--detect,
# --status-out): regime detection and the status export must not perturb
# the analysis by a single bit.
./target/release/autosens analyze --in "$SMOKE_DIR/smoke.csv" --json \
    --metrics-out "$SMOKE_DIR/metrics_batch.json" --quiet > "$SMOKE_DIR/report_batch.json"
./target/release/autosens watch --in "$SMOKE_DIR/smoke.csv" --until-eof --json \
    --detect --status-out "$SMOKE_DIR/status.json" \
    --metrics-out "$SMOKE_DIR/metrics_stream.json" --quiet > "$SMOKE_DIR/report_stream.json"
if ! diff -u "$SMOKE_DIR/report_batch.json" "$SMOKE_DIR/report_stream.json"; then
    echo "ci.sh: streamed report diverged from batch analyze" >&2
    exit 1
fi
for key in '"status"' '"queue_depth"' '"curve"' '"shard_lags"' '"recent_events"'; do
    grep -q "$key" "$SMOKE_DIR/status.json" || {
        echo "ci.sh: key $key missing from watch --status-out document" >&2
        exit 1
    }
done
# The export is pretty-printed (name and value on separate lines), so join
# first, then pick out name/value pairs for core counters, timings excluded.
core_counters() {
    tr -d ' \n' < "$1" \
        | grep -o '"name":"autosens_core_[a-z_]*","value":[0-9.e+-]*' \
        | grep -Ev '_(ms|seconds)"' | sort
}
core_counters "$SMOKE_DIR/metrics_batch.json" > "$SMOKE_DIR/core_batch.txt"
core_counters "$SMOKE_DIR/metrics_stream.json" > "$SMOKE_DIR/core_stream.txt"
test -s "$SMOKE_DIR/core_batch.txt" || {
    echo "ci.sh: no autosens_core_ counters found in batch metrics" >&2
    exit 1
}
if ! diff -u "$SMOKE_DIR/core_batch.txt" "$SMOKE_DIR/core_stream.txt"; then
    echo "ci.sh: core metrics diverged between batch analyze and streamed watch" >&2
    exit 1
fi
# The same at 1-minute shards: about 19,000 buckets on the smoke log, so
# the per-bucket row counts and hour counters run at a scale the 6-hour
# default never reaches.
./target/release/autosens watch --in "$SMOKE_DIR/smoke.csv" --until-eof --json \
    --shard-ms 60000 --metrics-out "$SMOKE_DIR/metrics_stream_1m.json" \
    --quiet > "$SMOKE_DIR/report_stream_1m.json"
if ! diff -u "$SMOKE_DIR/report_batch.json" "$SMOKE_DIR/report_stream_1m.json"; then
    echo "ci.sh: report streamed at 1-minute shards diverged from batch analyze" >&2
    exit 1
fi
core_counters "$SMOKE_DIR/metrics_stream_1m.json" > "$SMOKE_DIR/core_stream_1m.txt"
if ! diff -u "$SMOKE_DIR/core_batch.txt" "$SMOKE_DIR/core_stream_1m.txt"; then
    echo "ci.sh: core metrics diverged between batch analyze and watch at 1-minute shards" >&2
    exit 1
fi
# The same on a file whose last line has no newline: analyze reads that
# line, so watch --until-eof must read it at end of file too.
head -c -1 "$SMOKE_DIR/smoke.csv" > "$SMOKE_DIR/smoke_unterminated.csv"
./target/release/autosens analyze --in "$SMOKE_DIR/smoke_unterminated.csv" --json \
    --quiet > "$SMOKE_DIR/report_batch_unterminated.json"
./target/release/autosens watch --in "$SMOKE_DIR/smoke_unterminated.csv" --until-eof \
    --json --quiet > "$SMOKE_DIR/report_stream_unterminated.json"
if ! diff -u "$SMOKE_DIR/report_batch_unterminated.json" "$SMOKE_DIR/report_stream_unterminated.json"; then
    echo "ci.sh: watch --until-eof diverged from analyze on a file with an unterminated last line" >&2
    exit 1
fi
# The same in text mode, on a slice at a non-default reference: analyze
# and watch print the header line and the table through one printer.
./target/release/autosens analyze --in "$SMOKE_DIR/smoke.csv" --action SelectMail \
    --class Business --reference 250 --quiet > "$SMOKE_DIR/report_batch.txt"
./target/release/autosens watch --in "$SMOKE_DIR/smoke.csv" --until-eof --action SelectMail \
    --class Business --reference 250 --quiet > "$SMOKE_DIR/report_stream.txt"
if ! diff -u "$SMOKE_DIR/report_batch.txt" "$SMOKE_DIR/report_stream.txt"; then
    echo "ci.sh: watch --until-eof text output diverged from analyze" >&2
    exit 1
fi

echo "==> golden analyze gate (byte-identical --json on the pinned fixture)"
# The columnar refactor (and anything after it) must be behavior-invariant:
# `analyze --loss-correct=off --json` over the pinned golden telemetry must
# reproduce the checked-in report byte for byte — curve bits, degradations,
# counts, all of it. The gate pins correction OFF because the fixture's
# organic day-to-day variation legitimately engages the loss estimator
# (default-on output adds a `loss` section and reweighted curves); the
# uncorrected path is the behavior-invariance contract. Regenerate the
# fixture ONLY for an intentional, reviewed behavior change:
#   gzip -dc tests/fixtures/golden_telemetry.csv.gz > /tmp/golden.csv
#   ./target/release/autosens analyze --in /tmp/golden.csv --json --quiet \
#       --loss-correct=off > tests/fixtures/golden_analyze.json
gzip -dc tests/fixtures/golden_telemetry.csv.gz > "$SMOKE_DIR/golden.csv"
./target/release/autosens analyze --in "$SMOKE_DIR/golden.csv" --json --quiet \
    --loss-correct=off > "$SMOKE_DIR/golden_report.json"
if ! diff -u tests/fixtures/golden_analyze.json "$SMOKE_DIR/golden_report.json"; then
    echo "ci.sh: analyze --loss-correct=off diverged from tests/fixtures/golden_analyze.json" >&2
    exit 1
fi

echo "==> golden loss-corrected gate (byte-identical default --json on the pinned fixture)"
# The default path corrects for telemetry loss: the loss estimator flags
# cells in the golden fixture's organic day-to-day variation, so the report
# carries a `loss` section and reweighted curves. The gate above pins only
# the uncorrected path; this one pins the corrected path's bytes, so a
# change to the loss estimator's internals (medians, micro-cell scan) or
# to the reweighting that moves a single bit fails here. Regenerate the
# fixture ONLY for an intentional, reviewed behavior change:
#   gzip -dc tests/fixtures/golden_telemetry.csv.gz > /tmp/golden.csv
#   ./target/release/autosens analyze --in /tmp/golden.csv --json --quiet \
#       > tests/fixtures/golden_analyze_loss.json
./target/release/autosens analyze --in "$SMOKE_DIR/golden.csv" --json --quiet \
    > "$SMOKE_DIR/golden_report_loss.json"
grep -q '"loss"' "$SMOKE_DIR/golden_report_loss.json" || {
    echo "ci.sh: default analyze of the golden fixture carries no loss section" >&2
    exit 1
}
if ! diff -u tests/fixtures/golden_analyze_loss.json "$SMOKE_DIR/golden_report_loss.json"; then
    echo "ci.sh: default (loss-corrected) analyze diverged from tests/fixtures/golden_analyze_loss.json" >&2
    exit 1
fi

echo "==> golden alpha-off gates (byte-identical --no-alpha --json, correction off and on)"
# The two gates above run the α path only. `--no-alpha` pools B and U
# without activity factors, and on the golden fixture its default output
# also carries a `loss` section built from the loss-weighted partition, so
# these two reports pin both branches of the α-off path. Regenerate the
# fixtures ONLY for an intentional, reviewed behavior change:
#   gzip -dc tests/fixtures/golden_telemetry.csv.gz > /tmp/golden.csv
#   ./target/release/autosens analyze --in /tmp/golden.csv --json --quiet \
#       --no-alpha --loss-correct=off > tests/fixtures/golden_analyze_noalpha.json
#   ./target/release/autosens analyze --in /tmp/golden.csv --json --quiet \
#       --no-alpha > tests/fixtures/golden_analyze_noalpha_loss.json
./target/release/autosens analyze --in "$SMOKE_DIR/golden.csv" --json --quiet \
    --no-alpha --loss-correct=off > "$SMOKE_DIR/golden_report_noalpha.json"
if ! diff -u tests/fixtures/golden_analyze_noalpha.json "$SMOKE_DIR/golden_report_noalpha.json"; then
    echo "ci.sh: analyze --no-alpha --loss-correct=off diverged from tests/fixtures/golden_analyze_noalpha.json" >&2
    exit 1
fi
./target/release/autosens analyze --in "$SMOKE_DIR/golden.csv" --json --quiet \
    --no-alpha > "$SMOKE_DIR/golden_report_noalpha_loss.json"
grep -q '"loss"' "$SMOKE_DIR/golden_report_noalpha_loss.json" || {
    echo "ci.sh: analyze --no-alpha of the golden fixture carries no loss section" >&2
    exit 1
}
if ! diff -u tests/fixtures/golden_analyze_noalpha_loss.json "$SMOKE_DIR/golden_report_noalpha_loss.json"; then
    echo "ci.sh: analyze --no-alpha diverged from tests/fixtures/golden_analyze_noalpha_loss.json" >&2
    exit 1
fi

echo "==> container equivalence gate (convert + binary analyze vs text analyze)"
# The `.asc` binary container is a pure transport: converting the golden
# fixture and analyzing the container through the zero-parse mmap path must
# reproduce the text path's JSON byte for byte (and therefore the pinned
# golden report, transitively).
./target/release/autosens convert --in "$SMOKE_DIR/golden.csv" \
    --out "$SMOKE_DIR/golden.asc" --quiet
./target/release/autosens analyze --in "$SMOKE_DIR/golden.asc" --json --quiet \
    --loss-correct=off > "$SMOKE_DIR/golden_report_asc.json"
if ! diff -u "$SMOKE_DIR/golden_report.json" "$SMOKE_DIR/golden_report_asc.json"; then
    echo "ci.sh: analyze over the converted container diverged from the text path" >&2
    exit 1
fi

echo "==> serve gate (gateway-served curve byte-identical to batch analyze, restarts included)"
# The multi-tenant gateway promises each tenant's served curve is the
# batch `analyze --json` output for the same records, byte for byte —
# and that a killed gateway restarted from its checkpoint directory
# still serves those exact bytes. Fed the pinned golden fixture (with
# correction off, matching the golden gate above), the served curve is
# therefore transitively pinned to tests/fixtures/golden_analyze.json.
# The gateway binds port 0 and reports its addresses via --ready-file.
./target/release/autosens serve --listen 127.0.0.1:0 --http 127.0.0.1:0 \
    --loss-correct=off --checkpoint-dir "$SMOKE_DIR/ckpt" \
    --ready-file "$SMOKE_DIR/ready.txt" --quiet & SERVE_PID=$!
for _ in $(seq 1 100); do test -s "$SMOKE_DIR/ready.txt" && break; sleep 0.1; done
test -s "$SMOKE_DIR/ready.txt" || { echo "ci.sh: gateway never became ready" >&2; exit 1; }
INGEST_ADDR=$(awk '/^INGEST/{print $2}' "$SMOKE_DIR/ready.txt")
HTTP_ADDR=$(awk '/^HTTP/{print $2}' "$SMOKE_DIR/ready.txt")
./target/release/autosens agent --to "$INGEST_ADDR" --in "$SMOKE_DIR/golden.csv" \
    --service mail --region eu --quiet

# Incremental-snapshot sub-gate, run before the first /curve query so the
# first fleet pass is genuinely cold (a /curve query itself populates the
# snapshot cache). Dirty tracking promises a second fleet-wide pass with
# no new events serves every tenant from the report cache: byte-identical
# curve, >=10x faster. /snapshot runs a pass and returns FleetSnapshotStats.
./target/release/autosens query --addr "$HTTP_ADDR" --path /snapshot \
    > "$SMOKE_DIR/snap_cold.json"
./target/release/autosens query --addr "$HTTP_ADDR" --path /tenant/mail/eu/curve \
    > "$SMOKE_DIR/served_curve_cold.json"
./target/release/autosens query --addr "$HTTP_ADDR" --path /snapshot \
    > "$SMOKE_DIR/snap_warm.json"
./target/release/autosens query --addr "$HTTP_ADDR" --path /tenant/mail/eu/curve \
    > "$SMOKE_DIR/served_curve.json"
if ! diff -u "$SMOKE_DIR/served_curve_cold.json" "$SMOKE_DIR/served_curve.json"; then
    echo "ci.sh: cache-served curve diverged from the cold snapshot's curve" >&2
    exit 1
fi
if ! diff -u "$SMOKE_DIR/golden_report.json" "$SMOKE_DIR/served_curve.json"; then
    echo "ci.sh: gateway-served curve diverged from batch analyze" >&2
    exit 1
fi
snap_field() { tr -d ' \n' < "$1" | grep -o "\"$2\":[0-9.e+-]*" | cut -d: -f2; }
COLD_MS=$(snap_field "$SMOKE_DIR/snap_cold.json" wall_ms)
WARM_MS=$(snap_field "$SMOKE_DIR/snap_warm.json" wall_ms)
WARM_REUSED=$(snap_field "$SMOKE_DIR/snap_warm.json" reused)
WARM_TENANTS=$(snap_field "$SMOKE_DIR/snap_warm.json" tenants)
if [ "$WARM_REUSED" != "$WARM_TENANTS" ] || [ "$WARM_TENANTS" = "0" ]; then
    echo "ci.sh: warm fleet snapshot recomputed a clean tenant (reused $WARM_REUSED of $WARM_TENANTS)" >&2
    exit 1
fi
if ! awk -v c="$COLD_MS" -v w="$WARM_MS" 'BEGIN { exit !(c >= 10 * w) }'; then
    echo "ci.sh: warm fleet snapshot not >=10x faster (cold ${COLD_MS} ms, warm ${WARM_MS} ms)" >&2
    exit 1
fi

kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
rm -f "$SMOKE_DIR/ready.txt"
./target/release/autosens serve --listen 127.0.0.1:0 --http 127.0.0.1:0 \
    --loss-correct=off --checkpoint-dir "$SMOKE_DIR/ckpt" --resume \
    --ready-file "$SMOKE_DIR/ready.txt" --quiet & SERVE_PID=$!
for _ in $(seq 1 100); do test -s "$SMOKE_DIR/ready.txt" && break; sleep 0.1; done
test -s "$SMOKE_DIR/ready.txt" || { echo "ci.sh: restarted gateway never became ready" >&2; exit 1; }
INGEST_ADDR=$(awk '/^INGEST/{print $2}' "$SMOKE_DIR/ready.txt")
HTTP_ADDR=$(awk '/^HTTP/{print $2}' "$SMOKE_DIR/ready.txt")
./target/release/autosens query --addr "$HTTP_ADDR" --path /tenant/mail/eu/curve \
    > "$SMOKE_DIR/served_curve_restarted.json"
# A second tenant's COMMIT writes a generation in which mail/eu is
# unchanged since the restore, so its checkpoint file is hard-linked from
# the restored generation instead of rewritten. A gateway restarted from
# that generation must serve both tenants the batch bytes.
./target/release/autosens agent --to "$INGEST_ADDR" --in "$SMOKE_DIR/golden.csv" \
    --service mail --region us --quiet
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
if ! diff -u "$SMOKE_DIR/golden_report.json" "$SMOKE_DIR/served_curve_restarted.json"; then
    echo "ci.sh: restarted gateway served a different curve than before the kill" >&2
    exit 1
fi
rm -f "$SMOKE_DIR/ready.txt"
./target/release/autosens serve --listen 127.0.0.1:0 --http 127.0.0.1:0 \
    --loss-correct=off --checkpoint-dir "$SMOKE_DIR/ckpt" --resume \
    --ready-file "$SMOKE_DIR/ready.txt" --quiet & SERVE_PID=$!
for _ in $(seq 1 100); do test -s "$SMOKE_DIR/ready.txt" && break; sleep 0.1; done
test -s "$SMOKE_DIR/ready.txt" || { echo "ci.sh: gateway restarted from a linked generation never became ready" >&2; exit 1; }
HTTP_ADDR=$(awk '/^HTTP/{print $2}' "$SMOKE_DIR/ready.txt")
for region in eu us; do
    ./target/release/autosens query --addr "$HTTP_ADDR" --path "/tenant/mail/$region/curve" \
        > "$SMOKE_DIR/served_curve_linked_$region.json"
done
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
for region in eu us; do
    if ! diff -u "$SMOKE_DIR/golden_report.json" "$SMOKE_DIR/served_curve_linked_$region.json"; then
        echo "ci.sh: gateway restarted from a linked generation served a different mail/$region curve" >&2
        exit 1
    fi
done

echo "==> serve gate over a unix socket (agent push through --listen PATH, served = batch)"
# `serve --listen PATH` takes agent pushes on a unix socket, through the
# same accept loop as TCP. Push the golden fixture through one and diff
# the served curve against batch analyze.
rm -f "$SMOKE_DIR/ready.txt"
./target/release/autosens serve --listen "$SMOKE_DIR/ingest.sock" --http 127.0.0.1:0 \
    --loss-correct=off --ready-file "$SMOKE_DIR/ready.txt" --quiet & SERVE_PID=$!
for _ in $(seq 1 100); do test -s "$SMOKE_DIR/ready.txt" && break; sleep 0.1; done
test -s "$SMOKE_DIR/ready.txt" || { echo "ci.sh: unix-socket gateway never became ready" >&2; exit 1; }
HTTP_ADDR=$(awk '/^HTTP/{print $2}' "$SMOKE_DIR/ready.txt")
./target/release/autosens agent --to "$SMOKE_DIR/ingest.sock" --in "$SMOKE_DIR/golden.csv" \
    --service mail --region eu --quiet
./target/release/autosens query --addr "$HTTP_ADDR" --path /tenant/mail/eu/curve \
    > "$SMOKE_DIR/served_curve_unix.json"
kill "$SERVE_PID"; wait "$SERVE_PID" 2>/dev/null || true
if ! diff -u "$SMOKE_DIR/golden_report.json" "$SMOKE_DIR/served_curve_unix.json"; then
    echo "ci.sh: curve served after a unix-socket push diverged from batch analyze" >&2
    exit 1
fi

echo "==> robustness frontier gate (corrected beats naive under planted loss)"
# Fixed-seed bias-vs-loss-rate frontier: the artifact plants uniform and
# bursty drop mechanisms, analyzes with correction on and off, and its
# shape checks assert the corrected curve is strictly closer to the clean
# truth at >= 20% bursty (MNAR) loss while doing no harm under uniform
# (MCAR) thinning. The runner exits nonzero if any check fails.
cargo build --release -q -p autosens-experiments
./target/release/autosens-experiments robustness --bench > /dev/null

echo "==> regime detection gate (planted boundaries caught, clean run silent)"
# Ground-truth scoring of the online regime-shift detector: the artifact
# plants two congestion regimes with known boundaries, and its shape
# checks assert every boundary is reported by the pooled level detector,
# in the right direction, within 8 detector buckets (2 h of event time at
# the default 15-minute bucket), with ZERO alarms on an identically
# seeded clean twin. See DESIGN.md §6g for the detector math and the
# provenance of the bound. The runner exits nonzero if any check fails.
./target/release/autosens-experiments regime --bench > /dev/null

echo "==> perfbench smoke (every workload at toy size, traced pass included)"
# perfbench/ and perfbench/layers/ are workspaces of their own, so none of
# the steps above builds them. The smoke test runs every workload at toy
# size through perfbench/run.sh with --trace 0 and --trace 1, so a change
# to a core, stream, serve or telemetry API that the traced pass
# (perfbench/layers) calls fails here rather than at the next benchmark.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> ci.sh: all green"
