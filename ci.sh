#!/bin/sh
# CI entry point. The workspace has zero external dependencies, so every
# step must succeed with no network access — --offline enforces that a
# registry dependency can never sneak back in.
set -eux

cargo build --release --offline

# The tier-1 suite runs twice: pinned serial (WLAN_THREADS=1) and the
# machine default. The parallel_determinism harness asserts sweeps are
# bit-identical across thread counts *inside* each run and pins their
# digest to a golden value; running the whole suite at both settings
# additionally fails the build if any test result (pinned regression
# values included) diverges with the thread count.
WLAN_THREADS=1 cargo test -q --offline
cargo test -q --offline
cargo clippy --workspace --all-targets --offline -- -D warnings

# The benchmark (perfbench/, its own package) builds against the crates'
# public API by path; running its self-tests here makes an API change
# that breaks the benchmark's build fail CI rather than the next
# benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Kill-and-resume smoke: a campaign SIGKILLed mid-flight must resume from
# its checkpoint journal and print a result table byte-identical to a run
# that was never interrupted. This exercises the real signal path (no
# in-process shortcuts): spawn, SIGKILL, re-invoke, diff.
cargo build --release --offline -p wlan-dist --example survivable_campaign
SMOKE=target/release/examples/survivable_campaign
SMOKE_DIR=$(mktemp -d)
"$SMOKE" "$SMOKE_DIR/uninterrupted.journal" > "$SMOKE_DIR/expected.txt" 2>/dev/null
"$SMOKE" "$SMOKE_DIR/killed.journal" > /dev/null 2>&1 &
SMOKE_PID=$!
sleep 2
kill -9 "$SMOKE_PID" 2>/dev/null || true
wait "$SMOKE_PID" 2>/dev/null || true
# Resume until complete (the example exits 3 while work remains, e.g.
# when WLAN_BUDGET_MS is set in the environment).
for _ in 1 2 3 4 5; do
    if "$SMOKE" "$SMOKE_DIR/killed.journal" > "$SMOKE_DIR/resumed.txt" 2>/dev/null; then
        break
    fi
done
diff "$SMOKE_DIR/expected.txt" "$SMOKE_DIR/resumed.txt"

# Observability must be a pure observer (DESIGN.md "Observability"): the
# same campaign with the recorder hard-off must print the same bytes.
# (tests/obs_determinism.rs pins this in-process; this checks the real
# WLAN_OBS env path end to end.)
WLAN_OBS=0 "$SMOKE" "$SMOKE_DIR/obs_off.journal" > "$SMOKE_DIR/obs_off.txt" 2>/dev/null
diff "$SMOKE_DIR/expected.txt" "$SMOKE_DIR/obs_off.txt"
rm -rf "$SMOKE_DIR"

# Distributed chaos smoke (DESIGN.md "Distributed campaigns"): the same
# campaign sharded over a 3-worker subprocess fleet that loses a worker
# to a chaos kill mid-flight must print a result table byte-identical to
# a 1-worker run. This drives the real subprocess path — pipes, frames,
# timeouts, redispatch — that the in-process chaos harness
# (tests/dist_chaos.rs) can only approximate. The kill fires right after
# the sixth lease is dispatched, and the run's fleet line must report
# the death, so the diff never passes on a run the kill missed.
cargo build --release --offline -p wlan-dist --example distributed_campaign
CHAOS=target/release/examples/distributed_campaign
CHAOS_DIR=$(mktemp -d)
"$CHAOS" --workers 1 > "$CHAOS_DIR/one_worker.txt" 2>/dev/null
"$CHAOS" --workers 3 --kill-one-after-leases 6 > "$CHAOS_DIR/chaos.txt" 2>"$CHAOS_DIR/chaos.log"
grep -Eq '^fleet: [0-9]+ spawned, [1-9][0-9]* died' "$CHAOS_DIR/chaos.log" || {
    echo "chaos smoke: no worker death reported" >&2
    cat "$CHAOS_DIR/chaos.log" >&2
    exit 1
}
diff "$CHAOS_DIR/one_worker.txt" "$CHAOS_DIR/chaos.txt"

# Networked campaign service smoke (DESIGN.md "Service mode & TCP
# transport"): the same campaign served over real TCP sockets to a
# 3-worker fleet. One worker crashes (hard exit, mid-lease) at ~300 ms
# and is restarted — it re-dials, re-handshakes, and rejoins the fleet
# as a late joiner. The final stdout must be byte-identical to the
# 1-worker stdio run above.
cargo build --release --offline -p wlan-dist --example campaign_serve
SERVE=target/release/examples/campaign_serve
SERVE_DIR=$(mktemp -d)
"$SERVE" --serve --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/tcp.addr" \
    > "$SERVE_DIR/tcp.txt" 2>"$SERVE_DIR/tcp.log" &
SERVE_PID=$!
"$SERVE" --tcp-worker --addr-file "$SERVE_DIR/tcp.addr" --retries 50 >/dev/null 2>&1 &
( "$SERVE" --tcp-worker --addr-file "$SERVE_DIR/tcp.addr" --retries 50 \
      --die-after-ms 300 >/dev/null 2>&1 || \
  "$SERVE" --tcp-worker --addr-file "$SERVE_DIR/tcp.addr" --retries 50 \
      >/dev/null 2>&1 ) &
"$SERVE" --tcp-worker --addr-file "$SERVE_DIR/tcp.addr" --retries 50 >/dev/null 2>&1 &
wait "$SERVE_PID"
diff "$CHAOS_DIR/one_worker.txt" "$SERVE_DIR/tcp.txt"

# SIGKILL the service mid-campaign; the re-run rebinds the *same*
# address (the journal keys carry it) and resumes from the checkpoint.
# No worker re-dials, so the resumed campaign finishes via the
# in-process fallback — graceful degradation, still byte-identical.
# The resume run's serve_*/conn_* JSONL narration must validate against
# the shared event schema.
"$SERVE" --serve --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/kill.addr" \
    --journal-dir "$SERVE_DIR/journals" >/dev/null 2>&1 &
SERVE_PID=$!
"$SERVE" --tcp-worker --addr-file "$SERVE_DIR/kill.addr" --retries 3 >/dev/null 2>&1 &
sleep 2
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
for _ in 1 2 3 4 5; do
    if WLAN_OBS_JSONL="$SERVE_DIR/serve_events.jsonl" \
        "$SERVE" --serve --addr "$(cat "$SERVE_DIR/kill.addr")" \
        --journal-dir "$SERVE_DIR/journals" > "$SERVE_DIR/resumed.txt" 2>/dev/null; then
        break
    fi
done
diff "$CHAOS_DIR/one_worker.txt" "$SERVE_DIR/resumed.txt"
cargo run -q --release --offline -p wlan-bench --example check_bench_json -- \
    --jsonl "$SERVE_DIR/serve_events.jsonl"

# Shutdown drain: a lingering service exits 0 on a control client's
# shutdown frame, and an event subscriber sees the serve_shutdown line.
"$SERVE" --serve --addr 127.0.0.1:0 --addr-file "$SERVE_DIR/drain.addr" \
    --campaigns 0 --linger >/dev/null 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SERVE_DIR/drain.addr" ] && break
    sleep 0.1
done
"$SERVE" --events --addr "$(cat "$SERVE_DIR/drain.addr")" \
    > "$SERVE_DIR/drain_events.jsonl" 2>/dev/null &
EVENTS_PID=$!
sleep 0.3
"$SERVE" --shutdown --addr "$(cat "$SERVE_DIR/drain.addr")"
wait "$SERVE_PID"
wait "$EVENTS_PID" 2>/dev/null || true
grep -q '"event":"serve_shutdown"' "$SERVE_DIR/drain_events.jsonl"
rm -rf "$SERVE_DIR"
rm -rf "$CHAOS_DIR"

# Instrumented bench smoke: the experiments that carry wlan-obs emission
# (E4 PHY sweeps, E13 MAC, E16 fault catalog, E20 city) must produce
# schema-valid BENCH_<EXP>.json files and a well-formed WLAN_OBS_JSONL
# event stream.
#
# Bench-regression guard (the --floor arguments): freshly emitted
# E04/E16 frames/s must not fall below the floors. The batched RX
# kernels lifted E04/E16 several times above the earlier per-symbol
# emissions (1191.9 / 1144.3 frames/s), so the floors sit at roughly
# half the post-kernel committed numbers (~6400 / ~3300 in a quiet
# window) — low enough that a busy CI machine cannot flake, high enough
# that losing the kernel wins (or any other regression of the per-trial
# sweep hot path) fails the build. The per-symbol OFDM chain and the
# AVX-512 Viterbi step raised E04 by ~1.27x in same-window pairs
# (3554-3622 -> 4439-4659 frames/s on a busy host), so its floor moved
# from 3200 to 4000: half the ~8500 the quiet window implies, rounded
# down because the gain was measured in a busy one. The inlined ziggurat
# fast path and the stack-array MIMO detector raised E04 again: five
# alternating same-window pairs read parent 6092-8890 (median 8373)
# against change 7552-9673 (median 9410) frames/s, so the floor moved
# to 4700, half the change's median rounded down. E04 and E16 now write
# their files before their timing loops, so wall_s and the counters
# cover the experiment alone; with the HT-LDPC codewords decoded in
# pairs, 14 single-thread runs read E16 at a median 4842 frames/s
# (4097-6294), so its floor moved from 1650 to 2400, half that rounded
# down. The same runs read E04 at a median 8487 (4573-9897); half of
# that is below 4700, so E04's floor stays. E20's floor is its
# smoke-config delivery rate (delivered frames/s over the whole bench
# run) measured at introduction,
# divided by ~6 for CI headroom — a city-epoch slowdown of that size is a
# real regression. Floors are constants rather than read from the
# regenerated committed files so the bar cannot drift with the files.
cargo build --release --offline -p wlan-bench --benches --examples
BENCH_DIR=$(mktemp -d)
for exp in e04_per_vs_snr e13_mac_throughput e16_fault_robustness e20_city; do
    WLAN_BENCH_MIN_TIME_MS=10 WLAN_BENCH_JSON_DIR="$BENCH_DIR" \
        WLAN_OBS_JSONL="$BENCH_DIR/events.jsonl" \
        cargo bench -q --offline -p wlan-bench --bench "$exp" > /dev/null
done
cargo run -q --release --offline -p wlan-bench --example check_bench_json -- \
    --floor E04=4700 --floor E16=2400 --floor E20=40000 \
    "$BENCH_DIR/BENCH_E04.json" "$BENCH_DIR/BENCH_E13.json" \
    "$BENCH_DIR/BENCH_E16.json" "$BENCH_DIR/BENCH_E20.json"
cargo run -q --release --offline -p wlan-bench --example check_bench_json -- \
    --jsonl "$BENCH_DIR/events.jsonl"
rm -rf "$BENCH_DIR"

# Schema validity of the committed files is enforced alongside.
cargo run -q --release --offline -p wlan-bench --example check_bench_json -- \
    BENCH_E04.json BENCH_E13.json BENCH_E16.json BENCH_E20.json

# Decode hot paths must stay panic-free: no new unwrap()/expect()/panic!
# outside test code in the crates whose receivers the fault harness drives
# (expect() joined the scan after the viterbi traceback seed slipped
# through on it — see the infallible fold in viterbi.rs). The
# thread pool (math/par.rs) is held to the same bar: a panicking scheduler
# would take down every sweep at once — and so is the whole campaign
# runner (crates/runner) plus the CI math it stops on: a campaign that
# survives SIGKILL must not die to a malformed journal line.
# Test modules are trailing `#[cfg(test)]` blocks, so scanning stops at
# that marker; `//` comment lines are skipped.
# crates/obs sits inside every instrumented hot loop, so it gets the
# same no-panic bar (its lock helper recovers from poisoning instead of
# unwrapping).
# crates/ofdm carries the symbol I/O (subcarrier mapping, IFFT/FFT slots,
# training symbols, QAM tables) of every OFDM chain, 802.11a and 802.11n
# alike, so a panic there takes down every OFDM-family sweep — same bar.
# crates/dist coordinates the whole fleet, so a panic there loses every
# worker's in-flight results at once — same bar. The byte-stream fault
# injector (crates/fault/src/transport.rs) wraps live sockets inside
# chaos workers, so it is scanned too.
# crates/channel, crates/mac, and crates/mesh feed every interference,
# protection, and topology decision the city simulator makes; crates/city
# itself runs hundreds of BSS-epochs per wave, so one panicking degenerate
# input would kill a whole campaign invocation — same bar (their public
# APIs return typed WlanErrors instead; see interference.rs/protection.rs).
for f in crates/coding/src/*.rs crates/ofdm/src/*.rs crates/mimo/src/*.rs crates/core/src/*.rs \
         crates/runner/src/*.rs crates/obs/src/*.rs crates/dist/src/*.rs \
         crates/channel/src/*.rs crates/mac/src/*.rs crates/mesh/src/*.rs \
         crates/city/src/*.rs crates/fault/src/transport.rs \
         crates/math/src/ci.rs crates/math/src/par.rs; do
        awk '
            /#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /\.unwrap\(\)|\.expect\(|panic!\(/ {
                printf "%s:%d: forbidden unwrap()/expect()/panic! in non-test code: %s\n",
                       FILENAME, FNR, $0
                found = 1
            }
            END { exit found }
        ' "$f"
done

# One campaign loop (DESIGN.md "Survivable campaigns"): every campaign
# kind, the distributed coordinator included, restores, meters its
# budget and checkpoints through wlan_runner::campaign::drive, so
# non-test code under crates/ may call journal::load(,
# journal::load_salvage(, journal::save(, campaign::restore( and
# BudgetMeter::resumed( only from crates/runner/src/campaign.rs — a new
# campaign kind cannot grow its own resume ladder, checkpoint or budget
# loop. Same test-module and comment rules as the scan above.
for f in $(find crates -name '*.rs' ! -path crates/runner/src/campaign.rs | sort); do
        awk '
            /#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /journal::(load|load_salvage|save)\(|campaign::restore\(|BudgetMeter::resumed\(/ {
                printf "%s:%d: campaign loop step outside crates/runner/src/campaign.rs: %s\n",
                       FILENAME, FNR, $0
                found = 1
            }
            END { exit found }
        ' "$f"
done

# Public API regrowth guard: a `pub fn` declared in a crate's non-test
# code must be named by some other .rs file under crates/, tests/,
# examples/ or perfbench/src. A name only its own file uses is either
# private to that file or dead code kept alive by its own unit tests:
# make it private, or delete it with its tests. Same test-module and
# comment rules as the scans above; a mention in another file counts
# only outside `//` comments (whole-line and trailing, docs included),
# so the other files are searched in copies with those cut. Tracing is
# off for the loop: each check would echo the whole file list.
set +x
API_FILES=$(find crates tests examples perfbench/src -name '*.rs' | sort)
API_CODE=$(mktemp -d)
for f in $API_FILES; do
    mkdir -p "$API_CODE/$(dirname "$f")"
    sed 's#//.*##' "$f" > "$API_CODE/$f"
done
API_FAIL=0
for f in crates/*/src/*.rs; do
    API_OTHERS=$(printf "$API_CODE/%s\n" $API_FILES | grep -vxF "$API_CODE/$f")
    for name in $(awk '
            /#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            match($0, /pub fn [a-z_0-9]+/) { print substr($0, RSTART + 7, RLENGTH - 7) }
        ' "$f" | sort -u); do
        if ! grep -qw -- "$name" $API_OTHERS; then
            printf '%s: pub fn %s is named in no other .rs file\n' "$f" "$name"
            API_FAIL=1
        fi
    done
done
rm -rf "$API_CODE"
set -x
[ "$API_FAIL" -eq 0 ]
