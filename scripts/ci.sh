#!/usr/bin/env bash
# CI gate for the DARCO reproduction.
#
#   build  — release build of every crate (including the bench binaries)
#   test   — full workspace test suite
#   lint   — clippy with -D warnings on the whole workspace
#   benchmark — build the standalone benchmark package (benchmark/, outside
#            the workspace, so the stages above never compile it) and run
#            its tests, including the every-workload smoke run
#   verify — darco-lint static verification over every workload
#   semantic — darco-lint --semantic (symbolic translation validation)
#            over every workload on both backends, plus a verify_overhead
#            run at 1/64 whose BENCH_verify.json the bench gates check
#   speed  — one tiny benchmark run as a smoke test of the speed harness,
#            plus the hot-path equivalence tests built in release: the
#            test stage builds at opt-level 1, but the inlined block
#            replay and memory accessors ship at release optimization
#   trace  — darco-run/darco-lint trace + flight exporters, validated with
#            the repo's own JSON reader (darco-trace-check)
#   bench gates — bench_gate over every committed BENCH_*.json and the
#            live BENCH_verify.json: each artifact's bounds come from the
#            one table in crates/bench/src/measure.rs (engine, obs, jit,
#            verify, timing and fleet)
#   backend — native-JIT-vs-emulator identity gate over every workload
#            (the backend-specific lowering; the shared host state is
#            one implementation)
#   jit    — jit_speed smoke run, then an obs_overhead smoke against it
#   fleet  — a six-job campaign with one deliberately panicking and one
#            deliberately hanging job: both must be isolated (failed
#            statuses + flight dump, sibling jobs unharmed) and the runner
#            must exit 1 for the partial failure; plus a tiny-scale
#            fleet_scaling smoke (merged artifact byte-identical at
#            1/2/4/8 workers)
#   checkpoint — mid-run checkpoint/restore round trips (darco-run, one
#            of them emulator -> native, and a fleet --state-dir /
#            --resume cycle)
#   profiler — darco-run --profile on two workloads: non-empty collapsed
#            stacks whose region frames resolve in the JSON heatmap
#   live   — darco-fleet run --live with a one-shot darco-top --once
#            attach (required dashboard fields) + a --replay re-render
#            of the recorded stream
#   timing — two-speed timing gate: the accelerated (block-memoizing)
#            path must match the detailed model bit-for-bit on whole
#            runs (every timing statistic, on block-heavy and on
#            TOL-overhead-heavy streams); sampling artifacts must be
#            byte-identical at any --jobs
#   fuzz   — darco-fuzz smoke: a clean seeded campaign must find zero
#            divergences, grow coverage past the seed corpus and be
#            byte-deterministic across worker counts; a campaign with an
#            injected translator bug must find it and emit a minimized,
#            replayable reproducer + flight dump
#
# The BENCH harnesses measure with one protocol (interleaved min of
# measure::REPS = 5), so their smoke runs repeat five times too.
# Each stage is timed; a per-stage summary prints at the end.
# Everything runs offline; no network access is required.

set -euo pipefail
cd "$(dirname "$0")/.."

TIMINGS=()
CUR_STAGE=""
STAGE_T0=0
stage() {
    CUR_STAGE="$1"
    STAGE_T0=$(date +%s%3N)
    echo "==> $1"
}
stage_done() {
    TIMINGS+=("$(printf '%8d ms  %s' $(( $(date +%s%3N) - STAGE_T0 )) "$CUR_STAGE")")
}

stage "build (release, whole workspace)"
cargo build --release --workspace -q
stage_done

stage "test (whole workspace)"
cargo test --workspace -q
stage_done

stage "lint (clippy -D warnings, whole workspace)"
cargo clippy --workspace --all-targets -q -- -D warnings
stage_done

# benchmark/ depends on crates/* by path but is its own package: an API
# change in crates/* that breaks it only shows up here.
stage "benchmark (build + smoke test of the standalone benchmark package)"
cargo test --manifest-path benchmark/Cargo.toml -q
stage_done

# Every translation the suite produces must pass the static verifier
# (exit 1 on any finding or machine error).
stage "verify (darco-lint over all workloads)"
./target/release/darco-lint all --scale 1/512
stage_done

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# Semantic translation validation (DESIGN.md §13): symbolic per-pass
# equivalence proofs over every translation of every workload, on both
# backends (native adds the machine-code verifier on top; on hosts
# without a JIT the second sweep transparently re-runs the emulator).
# Then a live verify_overhead measurement, which the bench gates stage
# holds to the structural (10%) and semantic (15%) budgets.
stage "semantic verify (darco-lint --semantic, both backends + overhead run)"
./target/release/darco-lint all --scale 1/512 --semantic
./target/release/darco-lint all --scale 1/512 --semantic --backend native
verify_bin="$PWD/target/release/verify_overhead"
(cd "$smoke_dir" && "$verify_bin" --scale 1/64 > /dev/null)
stage_done

stage "speed smoke (tiny scale + release hot-path equivalence)"
./target/release/speed --scale 1/512
cargo test --release -q --test hotpath_equivalence
stage_done

# The exporters must produce artifacts the repo's own JSON reader accepts:
# a Chrome trace + metrics registry from darco-run, a multi-workload trace
# from darco-lint's machine-readable findings log.
stage "trace smoke (exporters + darco-trace-check)"
./target/release/darco-run kernel:crc32 \
    --trace="$smoke_dir/trace.json" --metrics="$smoke_dir/metrics.json" \
    --flight="$smoke_dir/flight.json" > /dev/null
test ! -e "$smoke_dir/flight.json"  # clean run: no flight dump
./target/release/darco-lint kernel:dot kernel:crc32 \
    --trace="$smoke_dir/lint-trace.json" > /dev/null
./target/release/darco-trace-check \
    "$smoke_dir/trace.json" "$smoke_dir/metrics.json" "$smoke_dir/lint-trace.json"
stage_done

# CI gates no wall clock taken in this run except the verify budget,
# whose shares are in-run ratios.
stage "bench gates (committed BENCH_*.json + live BENCH_verify.json)"
./target/release/bench_gate BENCH_*.json "$smoke_dir/BENCH_verify.json"
stage_done

# Native-backend identity gate (DESIGN.md §12): every workload under
# both backends, every architectural outcome bit-identical. Both
# backends run over one HostState whose commit, rollback and slow memory
# paths exist once, so this gates what stays backend-specific: the
# lowered instruction semantics, inline TLB and alias screens, chaining
# and IBTC patching. Passes trivially (with a message) on hosts without
# a native JIT.
stage "backend identity gate (native JIT vs emulator, all workloads)"
./target/release/backend_identity
stage_done

# Smoke-run jit_speed small and ungated from scratch space (honest gate
# numbers need --scale 1/1 on a quiet host), then obs_overhead there: it
# takes its disabled-tracer baseline from the BENCH_jit.json in its cwd
# and streams the fleet subset to a TCP subscriber. At 1/512 a workload
# can end before the profiler's first sample.
stage "jit + obs smoke (scale 1/64)"
jit_bin="$PWD/target/release/jit_speed"
obs_bin="$PWD/target/release/obs_overhead"
(cd "$smoke_dir" && "$jit_bin" --scale 1/64 > /dev/null && "$obs_bin" --scale 1/64 > /dev/null)
test -s "$smoke_dir/BENCH_jit.json"
test -s "$smoke_dir/BENCH_obs.json"
stage_done

# Fault isolation: fault:panic panics inside the worker, fault:spin never
# terminates on its own (huge bbm_threshold pins it in the interpreter;
# the instruction budget is only a backstop well past the timeout). The
# pool must contain both, the other four jobs must finish normally, and
# the partial failure must surface as exit code 1.
stage "fleet smoke (campaign with injected panic + timeout)"
cat > "$smoke_dir/campaign.json" <<'EOF'
{
  "name": "ci-smoke",
  "defaults": {"scale": "1/64"},
  "jobs": [
    {"workload": "kernel:dot"},
    {"workload": "kernel:crc32"},
    {"workload": "fault:panic"},
    {"workload": "fault:spin", "timeout_ms": 250,
     "config": {"max_guest_insns": 200000000, "tol": {"bbm_threshold": 1000000000}}},
    {"workload": "kernel:quicksort"},
    {"workload": "kernel:search", "kind": "lint"}
  ]
}
EOF
fleet_rc=0
./target/release/darco-fleet run "$smoke_dir/campaign.json" --jobs 2 \
    --out "$smoke_dir/merged.json" --flight-dir "$smoke_dir/flights" || fleet_rc=$?
test "$fleet_rc" -eq 1                                      # partial failure -> exit 1
grep -q '"status":"panicked"' "$smoke_dir/merged.json"      # panic isolated, not fatal
grep -q '"status":"timeout"'  "$smoke_dir/merged.json"      # hang cut off by the timeout
test "$(grep -o '"status":"ok"' "$smoke_dir/merged.json" | wc -l)" -eq 4  # siblings unharmed
test -s "$smoke_dir/flights/job-2.flight.json"              # panicked job dumped flight state
# fleet_scaling asserts the merged artifact is byte-identical at 1/2/4/8
# workers; it writes BENCH_fleet.json into the cwd, so run it from the
# smoke dir to leave the committed measurement alone.
fleet_scaling_bin="$PWD/target/release/fleet_scaling"
(cd "$smoke_dir" && "$fleet_scaling_bin" --scale 1/512 > /dev/null)
test -s "$smoke_dir/BENCH_fleet.json"
stage_done

# Checkpoints (DESIGN.md §11). First darco-run: checkpoint mid-run,
# restore into a fresh process, and require the report (minus the
# wall-clock MIPS figure) to be byte-identical to the checkpointing
# run's on two workloads, plus one round trip that checkpoints under the
# emulator and restores under the native backend (restore writes the
# shared host state both backends run over). Then the fleet: a zero
# timeout fires at the first quantum boundary, so every job must
# checkpoint to --state-dir (partial failure -> exit 1), and a --resume
# without the timeout must finish every job from its snapshot with
# exit 0.
stage "checkpoint smoke (darco-run round trip + fleet resume)"
strip_wall() { sed 's/ *([0-9.]* MIPS wall-clock)//' "$1"; }
for wl in kernel:crc32 kernel:nbody; do
    snap="$smoke_dir/${wl#kernel:}.snap"
    ./target/release/darco-run "$wl" --checkpoint-at 100000 \
        --checkpoint-to "$snap" > "$smoke_dir/ck.txt" 2> /dev/null
    test -s "$snap"
    ./target/release/darco-run "$wl" --restore "$snap" \
        > "$smoke_dir/res.txt" 2> /dev/null
    diff <(strip_wall "$smoke_dir/ck.txt") <(strip_wall "$smoke_dir/res.txt")
done
./target/release/darco-run kernel:crc32 --backend emu --checkpoint-at 100000 \
    --checkpoint-to "$smoke_dir/xb.snap" > "$smoke_dir/ck.txt" 2> /dev/null
./target/release/darco-run kernel:crc32 --backend native --restore "$smoke_dir/xb.snap" \
    > "$smoke_dir/res.txt" 2> /dev/null
diff <(strip_wall "$smoke_dir/ck.txt") <(strip_wall "$smoke_dir/res.txt")
cat > "$smoke_dir/ckpt-campaign.json" <<'EOF'
{
  "name": "ci-ckpt",
  "defaults": {"scale": "1/4"},
  "jobs": [
    {"workload": "kernel:dot", "timeout_ms": 0},
    {"workload": "kernel:crc32", "timeout_ms": 0}
  ]
}
EOF
sed 's#, "timeout_ms": 0##' "$smoke_dir/ckpt-campaign.json" \
    > "$smoke_dir/ckpt-resume.json"
ckpt_rc=0
./target/release/darco-fleet run "$smoke_dir/ckpt-campaign.json" --jobs 2 \
    --quantum 3000 --out "$smoke_dir/ckpt1.json" \
    --state-dir "$smoke_dir/ckpt-state" > /dev/null 2>&1 || ckpt_rc=$?
test "$ckpt_rc" -eq 1                                       # timed out -> partial failure
test -s "$smoke_dir/ckpt-state/job-0.snap"                  # both jobs left snapshots
test -s "$smoke_dir/ckpt-state/job-1.snap"
./target/release/darco-fleet run "$smoke_dir/ckpt-resume.json" --jobs 2 \
    --quantum 3000 --out "$smoke_dir/ckpt2.json" \
    --resume "$smoke_dir/ckpt-state" > /dev/null 2>&1       # resume completes -> exit 0
test "$(grep -o '"status":"ok"' "$smoke_dir/ckpt2.json" | wc -l)" -eq 2
stage_done

# Sampling profiler: collapsed stacks must be non-empty and carry the
# workload;MODE;site frame shape, and every promoted-region frame in the
# folded output must resolve to a region entry in the JSON heatmap.
stage "profiler smoke (darco-run --profile on two workloads)"
for wl in kernel:matmul kernel:crc32; do
    folded="$smoke_dir/${wl#kernel:}.folded"
    ./target/release/darco-run "$wl" --scale 1/4 --profile "$folded" \
        --profile-every 2000 --json > "$smoke_dir/prof.json"
    test -s "$folded"
    grep -qE '^[^;]+;(IM|BBM|SBM);' "$folded"       # collapsed-stack frames
    grep -q '"profile"' "$smoke_dir/prof.json"      # heatmap rides the report
    ./target/release/darco-trace-check "$smoke_dir/prof.json" > /dev/null
    for region in $(grep -oE 'region_0x[0-9a-f]+' "$folded" | sort -u); do
        grep -q "\"entry\":\"${region#region_}\"" "$smoke_dir/prof.json" \
            || { echo "folded frame $region missing from heatmap"; exit 1; }
    done
done
stage_done

# Live telemetry: a dashboard attached over TCP must catch up, render one
# frame with the required fields, and leave a recording that --replay
# re-renders deterministically. darco-top starts first (it retries the
# connect), the fleet run provides the stream.
stage "live-stream smoke (fleet --live + darco-top --once attach)"
cat > "$smoke_dir/live-campaign.json" <<'EOF'
{
  "name": "ci-live",
  "defaults": {"scale": "1/4"},
  "jobs": [
    {"workload": "kernel:dot"},
    {"workload": "kernel:crc32"},
    {"workload": "kernel:quicksort"}
  ]
}
EOF
./target/release/darco-top 127.0.0.1:7391 --once \
    --record "$smoke_dir/live.jsonl" --width 80 > "$smoke_dir/top.txt" &
top_pid=$!
./target/release/darco-fleet run "$smoke_dir/live-campaign.json" --jobs 2 \
    --live 127.0.0.1:7391 --out "$smoke_dir/live-merged.json" > /dev/null 2>&1
wait "$top_pid"                                     # --once attach succeeded
grep -q '"ev":"sync"' "$smoke_dir/live.jsonl"       # catch-up completed
grep -q '"ev":"campaign"' "$smoke_dir/live.jsonl"   # campaign metadata streamed
grep -q 'darco-top — ci-live' "$smoke_dir/top.txt"  # frame names the campaign
grep -q 'jobs 3  workers 2' "$smoke_dir/top.txt"    # ...and its shape
grep -q 'MIPS' "$smoke_dir/top.txt"                 # aggregate throughput line
grep -q 'mode residency' "$smoke_dir/top.txt"       # IM/BBM/SBM split line
grep -q 'workers  w0:' "$smoke_dir/top.txt"         # per-worker utilization
./target/release/darco-top --replay "$smoke_dir/live.jsonl" --width 80 \
    > "$smoke_dir/top-replay.txt"
grep -q 'darco-top — ci-live' "$smoke_dir/top-replay.txt"
# The merged artifact is still the deterministic one (streaming may not
# perturb it): byte-compare against a streaming-off run.
./target/release/darco-fleet run "$smoke_dir/live-campaign.json" --jobs 2 \
    --out "$smoke_dir/nolive-merged.json" > /dev/null 2>&1
cmp "$smoke_dir/live-merged.json" "$smoke_dir/nolive-merged.json"
stage_done

# Two-speed timing + checkpoint sampling (DESIGN.md §16). Two gates:
# (1) the accelerated timing path must reproduce the detailed in-order
# model bit-for-bit over whole runs -- the whole `timing` object of
# `darco-run --json` and every `timing.*` metric, not only the cycle
# count -- while actually memoizing (the escape hatch alone would pass
# trivially). The three runs cover the routes events take through the
# fast timer: quicksort and 429.mcf are mostly translated blocks (memo
# replays, learns, escapes); breakable at 1/4 is ~63% synthesized TOL
# overhead, which reaches the model one event at a time. (2) the
# sampling campaign's deterministic artifact may not depend on the
# worker count. The committed BENCH_timing.json's error bound and
# cost-reduction floors are checked in the bench gates stage.
stage "timing (fast==full gate + determinism)"
for run in kernel:quicksort@1/64 429.mcf@1/64 breakable@1/4; do
    w=${run%@*}
    scale=${run#*@}
    for mode in full fast; do
        ./target/release/darco-run "$w" --scale "$scale" --timing --timing-mode $mode \
            --json > "$smoke_dir/timing-$mode.json"
        { grep -o '"timing":{[^}]*}' "$smoke_dir/timing-$mode.json"
          grep -o '"timing\.[a-z0-9_]*":[^,}]*' "$smoke_dir/timing-$mode.json"
        } > "$smoke_dir/timing-$mode.txt"
    done
    test "$(wc -l < "$smoke_dir/timing-full.txt")" -ge 23  # the object + every timing.* metric
    cmp "$smoke_dir/timing-full.txt" "$smoke_dir/timing-fast.txt"  # accelerated path is exact
    memo=$(grep -o '"memo_events":[0-9]*' "$smoke_dir/timing-fast.json" | cut -d: -f2)
    test "$memo" -gt 0                           # ...and actually took the fast path
done
./target/release/timing_sampling --scale 1/8 --jobs 4 \
    --out "$smoke_dir/bt8-4.json" --det "$smoke_dir/bt8-det4.json" > /dev/null
./target/release/timing_sampling --scale 1/8 --jobs 1 \
    --out "$smoke_dir/bt8-1.json" --det "$smoke_dir/bt8-det1.json" > /dev/null
cmp "$smoke_dir/bt8-det4.json" "$smoke_dir/bt8-det1.json"     # --jobs never changes results
stage_done

# Coverage-guided differential fuzzing (DESIGN.md §15). Clean build: a
# short seeded campaign must find zero divergences, report strictly more
# coverage edges than the seed corpus alone, and produce a byte-identical
# artifact at any worker count. Injected build: the campaign must find
# the planted optimizer bug (exit 1) and emit a minimized reproducer that
# replays to the same divergence — and to a clean verdict once the
# injection is removed.
stage "fuzz smoke (clean campaign + injected-bug detection)"
./target/release/darco-fuzz run --seed 7 --iters 120 --jobs 4 \
    --out "$smoke_dir/fuzz-clean" > "$smoke_dir/fuzz-clean.json"
grep -q '"divergences":0' "$smoke_dir/fuzz-clean.json"
./target/release/darco-fuzz run --seed 7 --iters 6 --jobs 4 \
    --out "$smoke_dir/fuzz-seed" > "$smoke_dir/fuzz-seed.json"
seed_edges=$(grep -o '"cov_edges":[0-9]*' "$smoke_dir/fuzz-seed.json" | cut -d: -f2)
full_edges=$(grep -o '"cov_edges":[0-9]*' "$smoke_dir/fuzz-clean.json" | cut -d: -f2)
test "$full_edges" -gt "$seed_edges"        # evolution found new coverage
./target/release/darco-fuzz run --seed 7 --iters 120 --jobs 1 \
    --out "$smoke_dir/fuzz-clean1" > /dev/null
cmp "$smoke_dir/fuzz-clean/fuzz-artifact.json" \
    "$smoke_dir/fuzz-clean1/fuzz-artifact.json"  # --jobs never changes results
fuzz_rc=0
./target/release/darco-fuzz run --seed 7 --iters 60 --jobs 4 --inject bad-fold \
    --out "$smoke_dir/fuzz-inj" > "$smoke_dir/fuzz-inj.json" 2> /dev/null || fuzz_rc=$?
test "$fuzz_rc" -eq 1                        # injected bug found -> exit 1
repro=$(ls "$smoke_dir"/fuzz-inj/repro-*.json | grep -v '\.flight\.json$' | head -1)
test -s "$repro"                             # minimized reproducer written
ls "$smoke_dir"/fuzz-inj/repro-*.flight.json > /dev/null  # ...with a flight dump
replay_rc=0
./target/release/darco-fuzz replay "$repro" --inject bad-fold \
    > /dev/null || replay_rc=$?
test "$replay_rc" -eq 1                      # reproducer still diverges under the bug
./target/release/darco-fuzz replay "$repro" > /dev/null  # ...and is clean without it
stage_done

echo
echo "stage timings:"
for t in "${TIMINGS[@]}"; do
    echo "  $t"
done
echo "CI OK"
