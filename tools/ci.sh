#!/usr/bin/env bash
# CI entry point: build + test the two configurations that gate a PR.
#
#   1. Release        — the tier-1 suite exactly as ROADMAP.md specifies.
#   2. ThreadSanitizer — the same suite under -fsanitize=thread, proving the
#      shared runtime pool, the feature analysis cache and the parallel
#      fold/forest paths are race-free.
#   3. AddressSanitizer + fault injection — the same suite under
#      -fsanitize=address with SCA_FAULT_RATE>0, so every env-driven
#      pipeline exercises the fault-injection/retry/degradation stack and
#      the parser-hardening paths while ASan watches for memory errors.
#
# After the Release suite, the concurrency-heavy suites (Obs, Flight,
# Serve, Shard, Runtime) run 20 times in a row, so a test that fails one
# run in N shows up here rather than as a flaky tier-1 run.
#
# A benchmark-scale correctness smoke then runs the repository benchmark's
# traced attribution and binary passes (perfbench/run.py --trace 1, seeds 1
# and 7). A traced pass replays every fold from the layers' public calls and
# compares the folds' results with perfbench/reference.txt, which pins the
# 205-class, 30-tree fold outputs that tier-1's scaled goldens do not
# reach; each run must report "correct": true and no failed operation.
#
# An observability smoke then runs the deterministic one-shot pipeline
# (SCA_PIPELINE_ONCE) at 1 and 8 threads with tracing and fault injection
# on, validates the emitted manifest and Chrome trace with sca_cli (which
# exits nonzero on malformed files or an empty metrics snapshot), and
# byte-compares the "[pipeline]" output lines and the stable metrics
# sections — the thread-count-invariance contract, checked on every PR.
#
# A paper-sweep smoke then runs bench/paper_sweep (every table, figure and
# ablation) at a quick scale at SCA_THREADS=1 and 4: the CSVs and stable
# metrics must be byte-identical, with one complete manifest per run.
#
# A perf-history smoke then proves the regression gate in both directions:
# identical re-runs of the one-shot pipeline must pass `sca_cli history
# check`, a slowdown injected via SCA_OBS_TEST_DELAY_MS must trip it, and
# a tampered stable digest must fail it regardless of timing.
#
# A serve-telemetry smoke then proves the request-level telemetry is
# observational: one stream served with telemetry off vs on full logging
# (SCA_SERVE_TIMING=0 + SCA_LOG) at different thread counts must be
# byte-identical, SCA_SERVE_TIMING=1 must decorate every data response,
# the in-band stats op must report live fields, `sca_cli serve-report`
# must reconstruct the lifecycles from the log, and macro_serve_load must
# pass its load assertions and the history gate.
#
# Finally, an ASan+UBSan tree runs three focus groups: the zero-copy lexer
# and arena parser (lexer_test, parser_fuzz_test, roundtrip_property_test),
# whose string_view offsets and arena id arithmetic are exactly what
# -fsanitize=address,undefined exists to check; the feature records
# (features_test), whose term bags are offsets into one buffer behind an
# open-addressing index; and the ML suites (ml_test, matrix_test,
# golden_test), whose forest-fit kernel is index ranges into one sample
# buffer and count tables indexed by label.
#
# Last, a perf-seed smoke runs the one-shot pipeline against the committed
# seed baseline (tools/perf/seed_baseline.jsonl): `history check` must pass
# (which also pins the stable digest), and the best-of-3 analysis phase must
# be at least 2x faster than the seed median — the zero-copy lexer / arena
# AST speedup, locked so it cannot silently erode. It runs last because
# that speed gate depends on the host.
#
# Usage: tools/ci.sh [jobs]     (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

run_config() {
  local dir="$1"; shift
  echo "=== configure $dir ($*) ==="
  cmake -B "$dir" -S . "$@"
  echo "=== build $dir ==="
  cmake --build "$dir" -j "$JOBS"
  echo "=== test $dir ==="
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_config build-release -DCMAKE_BUILD_TYPE=Release
echo "=== repeat concurrency suites (build-release) ==="
ctest --test-dir build-release --output-on-failure -j "$JOBS" \
  --repeat until-fail:20 -R 'Obs|Flight|Serve|Shard|Runtime'

bench_smoke() {
  echo "=== benchmark correctness smoke ==="
  local workload seed result
  for workload in attribution binary; do
    for seed in 1 7; do
      result=$(python3 perfbench/run.py --workload "$workload" \
                 --seed "$seed" --seconds 1 --trace 1 | tail -n 1)
      python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
' "$result" ||
        { echo "benchmark smoke: $workload seed $seed: $result" >&2; exit 1; }
    done
  done
  echo "=== benchmark correctness smoke ok ==="
}
bench_smoke

obs_smoke() {
  echo "=== observability smoke (build-release) ==="
  local dir=build-release/obs-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local t
  for t in 1 8; do
    # SCA_CHECKPOINT_DIR is cleared so a caller's checkpoint directory
    # cannot change what work the two runs actually perform (resumed
    # chains would legitimately differ).
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=$t SCA_FAULT_RATE=0.05 \
       SCA_CHECKPOINT_DIR= \
       SCA_TRACE="trace_t$t.json" SCA_MANIFEST="manifest_t$t.json" \
       ../bench/micro_pipeline) | grep '^\[pipeline\]' \
      > "$dir/pipeline_t$t.txt"
    # Both inspectors fail on malformed input; --stable additionally fails
    # on an empty metrics snapshot (lost telemetry).
    build-release/tools/sca_cli metrics "$dir/manifest_t$t.json" --stable \
      > "$dir/stable_t$t.json"
    build-release/tools/sca_cli trace "$dir/trace_t$t.json" > /dev/null
    grep -q '"status":"complete"' "$dir/manifest_t$t.json" ||
      { echo "manifest_t$t.json not marked complete" >&2; exit 1; }
  done
  cmp "$dir/pipeline_t1.txt" "$dir/pipeline_t8.txt" ||
    { echo "pipeline output differs between SCA_THREADS=1 and 8" >&2
      exit 1; }
  cmp "$dir/stable_t1.json" "$dir/stable_t8.json" ||
    { echo "stable metrics differ between SCA_THREADS=1 and 8" >&2; exit 1; }
  echo "=== observability smoke ok ==="
}
obs_smoke

# Paper-sweep smoke: the quick-scale sweep whose CSVs tier-1 pins must write
# byte-identical CSVs (ablation_forest's wall-clock fit-time column cut) and
# stable metrics at SCA_THREADS=1 and 4, and leave one complete manifest.
sweep_smoke() {
  echo "=== paper-sweep smoke (build-release) ==="
  local dir=build-release/sweep-smoke t file
  rm -rf "$dir"
  for t in 1 4; do
    mkdir -p "$dir/t$t"
    (cd "$dir/t$t" &&
     SCA_AUTHORS=16 SCA_STEPS=4 SCA_TREES=20 SCA_SET=3 SCA_TOPK=350 \
       SCA_THREADS=$t SCA_HISTORY=off SCA_MANIFEST= SCA_CHECKPOINT_DIR= \
       ../../bench/paper_sweep > sweep.out &&
     [ "$(ls bench_out/manifest.*)" = bench_out/manifest.paper_sweep.json ] &&
     grep -q '"status":"complete"' bench_out/manifest.paper_sweep.json &&
     ../../tools/sca_cli metrics bench_out/manifest.paper_sweep.json \
       --stable > stable.json &&
     sed -i 's/,[^,]*$//' bench_out/ablation_forest.csv) ||
      { echo "sweep smoke: run or manifest check failed (t=$t)" >&2; exit 1; }
  done
  [ "$(ls "$dir"/t*/bench_out/*.csv | wc -l)" -eq 30 ] ||
    { echo "sweep smoke: expected 15 CSVs per run" >&2; exit 1; }
  for file in "$dir"/t1/bench_out/*.csv "$dir/t1/stable.json"; do
    cmp "$file" "${file/\/t1\//\/t4\/}" ||
      { echo "sweep smoke: ${file##*/} differs between threads" >&2; exit 1; }
  done
  echo "=== paper-sweep smoke ok ==="
}
sweep_smoke

# Perf-history smoke: the regression gate must have both a demonstrated
# pass and a demonstrated failure, or it gates nothing. Three clean runs
# build the baseline; `history check` must accept a fourth identical run,
# reject one slowed down by the SCA_OBS_TEST_DELAY_MS test hook (excluded
# from the env comparability class precisely so the delayed run baselines
# against the clean ones), and reject a tampered stable digest outright.
history_smoke() {
  echo "=== perf-history smoke (build-release) ==="
  local dir=build-release/history-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli
  run_pipeline() {
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=2 SCA_FAULT_RATE=0.05 \
       SCA_CHECKPOINT_DIR= SCA_HISTORY="$hist" \
       SCA_OBS_TEST_DELAY_MS="${1:-}" \
       ../bench/micro_pipeline > /dev/null)
  }
  local i
  for i in 1 2 3; do run_pipeline; done
  # The history record is the run's one performance record: each fresh
  # record must carry the one-shot pass's phases, its counters, threads
  # and total_s, and the run leaves exactly one manifest behind.
  local phases key
  phases=$(grep -o '"phases":{[^}]*}' "$hist")
  for key in corpus_build llm_transform train predict analysis; do
    [ "$(printf '%s\n' "$phases" | grep -c "\"$key\":")" -eq 3 ] ||
      { echo "history smoke: a record lacks phase $key" >&2; exit 1; }
  done
  for key in '"counters":{' '"threads":' '"total_s":'; do
    [ "$(grep -cF "$key" "$hist")" -eq 3 ] ||
      { echo "history smoke: a record lacks $key" >&2; exit 1; }
  done
  [ "$(cd "$dir/bench_out" && ls -p | grep -v /)" = \
    manifest.micro_pipeline.json ] ||
    { echo "history smoke: bench_out holds other files than" \
        "manifest.micro_pipeline.json" >&2; exit 1; }
  "$cli" history check "$hist" ||
    { echo "history check failed on identical re-runs" >&2; exit 1; }
  run_pipeline 400
  if "$cli" history check "$hist" > /dev/null; then
    echo "history check missed the injected slowdown" >&2; exit 1
  fi
  sed '$ s/"digest":"[0-9a-f]*"/"digest":"0000000000000000"/' "$hist" \
    > "$dir/tampered.jsonl"
  if "$cli" history check "$dir/tampered.jsonl" --factor 1000 > /dev/null
  then
    echo "history check missed a stable-digest change" >&2; exit 1
  fi
  "$cli" history gc "$hist" --keep 2
  "$cli" history list "$hist"
  echo "=== perf-history smoke ok ==="
}
history_smoke

# Serve-chaos smoke: the sharded serving stack's hard invariant is that a
# chaos schedule (mid-run slow + kill, per-attempt fault injection) changes
# WHICH shard serves and WHAT the telemetry says — never the bytes of a
# successful response. macro_serve runs a healthy, a chaos and an overload
# pass over one request stream and exits nonzero unless chaos successes are
# byte-identical to the healthy run, availability stays >= 99% and the
# drain record honestly matches the observed counts; the shell re-checks
# the healthy/chaos digest columns so a digest mismatch is visible in the
# CI log, not just as an exit code. A JSONL round-trip through `sca_cli
# serve` then proves the wire loop is deterministic (two identical runs),
# drains gracefully under a kill + shutdown schedule, and feeds the same
# perf-history gate as every bench. (The serve/sharded unit tests also run
# under TSan via the build-tsan suite below.)
serve_chaos_smoke() {
  echo "=== serve-chaos smoke (build-release) ==="
  local dir=build-release/serve-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli

  (cd "$dir" &&
   SCA_THREADS=4 SCA_SHARDS=4 SCA_FAULT_RATE=0.15 SCA_HISTORY="$hist" \
     ../bench/macro_serve > macro_serve.out) ||
    { cat "$dir/macro_serve.out" >&2
      echo "macro_serve chaos assertions failed" >&2; exit 1; }
  local healthy_digest chaos_digest
  healthy_digest=$(awk -F'|' '$2 ~ /healthy/ {
    gsub(/[[:space:]]/, "", $9); print $9}' "$dir/macro_serve.out")
  chaos_digest=$(awk -F'|' '$2 ~ /chaos/ {
    gsub(/[[:space:]]/, "", $9); print $9}' "$dir/macro_serve.out")
  [ -n "$healthy_digest" ] && [ "$healthy_digest" = "$chaos_digest" ] ||
    { echo "serve-chaos smoke: chaos ok-digest '$chaos_digest' !=" \
           "healthy '$healthy_digest'" >&2; exit 1; }
  echo "healthy/chaos ok-digest $healthy_digest"

  serve_stream() {
    cat <<'EOF'
{"op":"generate","id":"a0","chain":0,"challenge":0}
{"op":"generate","id":"b0","chain":1,"challenge":1}
{"op":"generate","id":"a1","chain":0,"challenge":2}
{"op":"kill_shard","id":"c1","shard":1}
{"op":"generate","id":"b1","chain":1,"challenge":3}
{"op":"shutdown","id":"c2"}
EOF
  }
  local run
  for run in 1 2; do
    serve_stream |
      env SCA_THREADS=4 SCA_SHARDS=2 SCA_HISTORY="$hist" \
        "$cli" serve > "$dir/serve_$run.jsonl" 2> /dev/null ||
      { echo "sca_cli serve run $run failed" >&2; exit 1; }
  done
  cmp -s "$dir/serve_1.jsonl" "$dir/serve_2.jsonl" ||
    { echo "serve-chaos smoke: two clean serve runs diverged" >&2; exit 1; }
  grep -q '"status":"rejected"' "$dir/serve_1.jsonl" ||
    { echo "serve-chaos smoke: shutdown did not reject queued work" >&2
      exit 1; }
  grep -q '"event":"drain"' "$dir/serve_1.jsonl" ||
    { echo "serve-chaos smoke: no drain record emitted" >&2; exit 1; }

  "$cli" history check "$hist" ||
    { echo "history check failed over serve-smoke records" >&2; exit 1; }
  echo "=== serve-chaos smoke ok ==="
}
serve_chaos_smoke

# Serve-telemetry smoke: the telemetry layer's hard invariant is that it
# OBSERVES the serving path without participating in it. One stream is
# served three ways: a plain baseline; telemetry explicitly off but fully
# logged (SCA_SERVE_TIMING=0 + SCA_LOG) at a different thread count and
# with the same fault schedule — the bytes must equal the baseline; and
# SCA_SERVE_TIMING=1, where every data response must carry a "timing"
# object. The in-band stats ops must report live queue/latency/shard
# fields ("--" availability while idle), serve-report must reconstruct
# every executed request from the event log, and macro_serve_load must
# pass its steady/replay/echo/surge assertions, land the serve sketches
# and requests/sec in the manifest, and clear the perf-history gate.
serve_telemetry_smoke() {
  echo "=== serve-telemetry smoke (build-release) ==="
  local dir=build-release/serve-telemetry-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli

  telemetry_stream() {
    cat <<'EOF'
{"op":"stats","id":"s0"}
{"op":"generate","id":"a0","chain":0,"challenge":0}
{"op":"generate","id":"b0","chain":1,"challenge":1}
{"op":"transform","id":"a1","chain":0,"source":"int main() { return 0; }"}
{"op":"slow_shard","id":"c0","shard":0,"slowed":0}
{"op":"stats","id":"s1"}
EOF
  }

  telemetry_stream |
    env SCA_THREADS=4 SCA_SHARDS=2 SCA_FAULT_RATE=0.1 \
      "$cli" serve > "$dir/baseline.jsonl" 2> /dev/null ||
    { echo "serve-telemetry smoke: baseline serve failed" >&2; exit 1; }
  telemetry_stream |
    env SCA_THREADS=1 SCA_SHARDS=2 SCA_FAULT_RATE=0.1 SCA_SERVE_TIMING=0 \
      SCA_LOG="$dir/events.jsonl" \
      "$cli" serve > "$dir/timing_off.jsonl" 2> /dev/null ||
    { echo "serve-telemetry smoke: timing-off serve failed" >&2; exit 1; }
  cmp -s "$dir/baseline.jsonl" "$dir/timing_off.jsonl" ||
    { echo "serve-telemetry smoke: SCA_SERVE_TIMING=0 + SCA_LOG changed" \
           "response bytes" >&2; exit 1; }

  telemetry_stream |
    env SCA_THREADS=4 SCA_SHARDS=2 SCA_FAULT_RATE=0.1 SCA_SERVE_TIMING=1 \
      SCA_LOG="$dir/events_timing.jsonl" \
      "$cli" serve > "$dir/timing_on.jsonl" 2> /dev/null ||
    { echo "serve-telemetry smoke: timing-on serve failed" >&2; exit 1; }
  local data_lines timing_lines
  data_lines=$(grep -cE '"status":"(ok|error)"' "$dir/timing_on.jsonl" ||
               true)
  timing_lines=$(grep -c '"timing":{' "$dir/timing_on.jsonl" || true)
  # Stats responses report status ok too; only the three data requests
  # carry a timing echo.
  [ "$timing_lines" -eq 3 ] && [ "$data_lines" -ge 3 ] ||
    { echo "serve-telemetry smoke: expected 3 timing echoes, got" \
           "$timing_lines (data lines: $data_lines)" >&2; exit 1; }

  grep -q '"id":"s0".*"availability_pct":"--"' "$dir/baseline.jsonl" ||
    { echo "serve-telemetry smoke: idle stats should render -- " >&2
      exit 1; }
  grep -q '"id":"s1".*"queue_depth":' "$dir/baseline.jsonl" &&
    grep -q '"id":"s1".*"latency":{"count":' "$dir/baseline.jsonl" &&
    grep -q '"id":"s1".*"shards":\[' "$dir/baseline.jsonl" ||
    { echo "serve-telemetry smoke: live stats op missing fields" >&2
      exit 1; }

  "$cli" serve-report "$dir/events_timing.jsonl" --slowest 3 \
    > "$dir/report.txt" ||
    { echo "serve-telemetry smoke: serve-report failed" >&2; exit 1; }
  grep -q '^serve-report: 3 request(s) reconstructed' "$dir/report.txt" &&
    grep -q 'slowest requests:' "$dir/report.txt" &&
    grep -q 'slo table:' "$dir/report.txt" ||
    { echo "serve-telemetry smoke: report did not reconstruct the run" >&2
      cat "$dir/report.txt" >&2; exit 1; }

  (cd "$dir" &&
   SCA_THREADS=4 SCA_HISTORY="$hist" \
     ../bench/macro_serve_load > macro_serve_load.out) ||
    { cat "$dir/macro_serve_load.out" >&2
      echo "macro_serve_load assertions failed" >&2; exit 1; }
  local manifest="$dir/bench_out/manifest.macro_serve_load.json"
  grep -q '"schema":"sca-manifest-v2"' "$manifest" &&
    grep -q '"serve_latency_s":{"count":' "$manifest" &&
    grep -q '"serve_queue_depth":{"count":' "$manifest" &&
    grep -q '"serve_shed_rate_pct":{"count":' "$manifest" &&
    grep -q '"serve_requests_per_s":' "$manifest" ||
    { echo "serve-telemetry smoke: manifest missing serve sketches or" \
           "requests/sec" >&2; exit 1; }
  "$cli" history check "$hist" ||
    { echo "history check failed over serve-telemetry records" >&2
      exit 1; }
  echo "=== serve-telemetry smoke ok ==="
}
serve_telemetry_smoke

# Out-of-core scale smoke: macro_scale generates a small corpus through the
# sharded matrix builder and asserts its own invariants (streaming vs
# resident prediction identity, RSS bound) with a nonzero exit. The shell
# adds the cross-run claims: the stable metrics — which carry the matrix
# content hash and the fold of every streamed prediction — must be
# byte-identical across SCA_THREADS=1/8 and across shard sizes; an
# injected crash must exit nonzero and the resumed build must reuse its
# segments while reproducing the same stable bytes; and the RSS gate gets
# its demonstrated failure, mirroring the slowdown test: three clean runs
# baseline `history check`, then a run with SCA_OBS_TEST_BALLAST_KB
# (excluded from the env class, like the delay hook) must trip an "rss"
# finding.
scale_smoke() {
  echo "=== out-of-core scale smoke (build-release) ==="
  local dir=build-release/scale-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli

  run_scale() {  # run_scale <tag> <threads> <shard> <corpusdir> [extra env]
    local tag="$1" threads="$2" shard="$3" corpus="$4"; shift 4
    (cd "$dir" &&
     env "$@" SCA_THREADS="$threads" SCA_SCALE_AUTHORS=64 \
       SCA_SCALE_SHARD="$shard" SCA_SCALE_TRAIN_AUTHORS=24 \
       SCA_SCALE_TREES=6 SCA_SCALE_DIR="$corpus" \
       SCA_CHECKPOINT_DIR= \
       SCA_MANIFEST="manifest_$tag.json" \
       ../bench/macro_scale > "out_$tag.txt")
  }

  run_scale t1 1 16 corpus_t1 ||
    { cat "$dir/out_t1.txt" >&2; echo "macro_scale t1 failed" >&2; exit 1; }
  run_scale t8 8 16 corpus_t8 ||
    { cat "$dir/out_t8.txt" >&2; echo "macro_scale t8 failed" >&2; exit 1; }
  run_scale shard7 8 7 corpus_shard7 ||
    { echo "macro_scale shard-size-7 run failed" >&2; exit 1; }
  local tag
  for tag in t1 t8 shard7; do
    "$cli" metrics "$dir/manifest_$tag.json" --stable \
      > "$dir/stable_$tag.json"
  done
  cmp "$dir/stable_t1.json" "$dir/stable_t8.json" ||
    { echo "scale smoke: stable metrics differ between SCA_THREADS=1 and 8" \
        >&2; exit 1; }
  cmp "$dir/stable_t8.json" "$dir/stable_shard7.json" ||
    { echo "scale smoke: stable metrics depend on the shard size" >&2
      exit 1; }
  grep -q '"rusage_max_rss_kb":' "$dir/manifest_t1.json" ||
    { echo "scale smoke: manifest carries no peak-RSS gauge" >&2; exit 1; }

  # Injected crash: nonzero exit, partial manifest, segments left behind;
  # the resume reuses them and reproduces the clean runs' stable bytes.
  if run_scale crash 2 16 corpus_crash SCA_SCALE_CRASH_SHARDS=2; then
    echo "scale smoke: injected crash did not fail the build" >&2; exit 1
  fi
  ls "$dir"/corpus_crash/seg_* > /dev/null 2>&1 ||
    { echo "scale smoke: crash left no segment checkpoints" >&2; exit 1; }
  run_scale resume 2 16 corpus_crash ||
    { echo "macro_scale resume run failed" >&2; exit 1; }
  grep -Eq '"corpus_shards_resumed":[1-9]' "$dir/manifest_resume.json" ||
    { echo "scale smoke: resume rebuilt everything from scratch" >&2
      exit 1; }
  "$cli" metrics "$dir/manifest_resume.json" --stable \
    > "$dir/stable_resume.json"
  cmp "$dir/stable_t1.json" "$dir/stable_resume.json" ||
    { echo "scale smoke: crash/resume changed the stable metrics" >&2
      exit 1; }

  # RSS gate, both directions: clean re-runs pass, a ballast-bloated run
  # (~12x this workload's ~20 MB peak, far past the 1.5x/32 MiB gates)
  # must be flagged as an "rss" regression.
  local i
  for i in 1 2 3; do
    run_scale "hist$i" 2 16 corpus_hist SCA_HISTORY="$hist" ||
      { echo "macro_scale history run $i failed" >&2; exit 1; }
  done
  "$cli" history check "$hist" ||
    { echo "history check failed on identical scale re-runs" >&2; exit 1; }
  run_scale ballast 2 16 corpus_hist SCA_HISTORY="$hist" \
      SCA_OBS_TEST_BALLAST_KB=262144 ||
    { echo "macro_scale ballast run failed" >&2; exit 1; }
  if "$cli" history check "$hist" > "$dir/rss_check.txt" 2>&1; then
    echo "history check missed the injected RSS blow-up" >&2; exit 1
  fi
  grep -q 'rss' "$dir/rss_check.txt" ||
    { echo "history check failed for a non-rss reason:" >&2
      cat "$dir/rss_check.txt" >&2; exit 1; }
  echo "=== out-of-core scale smoke ok ==="
}
scale_smoke

# Checkpoint-resume smoke: a second one-shot run against the chain
# checkpoints the first run wrote must load them (nonzero
# ckpt_chains_loaded in its manifest) and reproduce the first run's
# pipeline digest byte for byte.
checkpoint_resume_smoke() {
  echo "=== checkpoint-resume smoke (build-release) ==="
  local dir=build-release/checkpoint-resume-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local ckpt="$PWD/$dir/ckpt"

  run_once() {
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=2 SCA_FAULT_RATE=0.05 \
       SCA_CHECKPOINT_DIR="$ckpt" SCA_MANIFEST="manifest_$1.json" \
       ../bench/micro_pipeline) | grep '^\[pipeline\]'
  }
  run_once fresh > "$dir/pipeline_fresh.txt"
  run_once resumed > "$dir/pipeline_resumed.txt"
  cmp "$dir/pipeline_fresh.txt" "$dir/pipeline_resumed.txt" ||
    { echo "checkpoint-resume smoke: resumed run diverged" >&2; exit 1; }
  grep -Eq '"ckpt_chains_loaded":[1-9]' "$dir/manifest_resumed.json" ||
    { echo "checkpoint-resume smoke: resumed run loaded no chains" >&2
      exit 1; }
  echo "=== checkpoint-resume smoke ok ==="
}
checkpoint_resume_smoke

# Flight-recorder smoke: the recorder's hard invariant is that it OBSERVES
# without participating — stable output bytes are identical with the rings
# and watchdog armed or disabled. Then both forensic paths are exercised
# for real: a wedged pool task must trip the watchdog dump, and a SIGSEGV
# delivered mid-chaos-run must leave a postmortem the offline reconstructor
# can render.
flight_smoke() {
  echo "=== flight-recorder smoke (build-release) ==="
  local dir=build-release/flight-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local cli=build-release/tools/sca_cli

  # 1) Byte-identity: recorder+watchdog on vs recorder off, at 1 and 8
  # threads. A clean run must also leave no watchdog dump behind.
  local t mode
  for t in 1 8; do
    for mode in on off; do
      local events=256
      [ "$mode" = off ] && events=0
      (cd "$dir" &&
       SCA_PIPELINE_ONCE=1 SCA_THREADS=$t SCA_FAULT_RATE=0.05 \
         SCA_CHECKPOINT_DIR= \
         SCA_FLIGHT_EVENTS=$events SCA_WATCHDOG_S=2 \
         SCA_FLIGHT_DIR="flight_t${t}_$mode" \
         SCA_MANIFEST="manifest_t${t}_$mode.json" \
         ../bench/micro_pipeline) |
        grep '^\[pipeline\]' > "$dir/pipeline_t${t}_$mode.txt"
      "$cli" metrics "$dir/manifest_t${t}_$mode.json" --stable \
        > "$dir/stable_t${t}_$mode.json"
    done
    cmp "$dir/pipeline_t${t}_on.txt" "$dir/pipeline_t${t}_off.txt" ||
      { echo "flight smoke: recorder changed pipeline digests (t=$t)" >&2
        exit 1; }
    cmp "$dir/stable_t${t}_on.json" "$dir/stable_t${t}_off.json" ||
      { echo "flight smoke: recorder changed stable metrics (t=$t)" >&2
        exit 1; }
    if [ -e "$dir/flight_t${t}_on/watchdog.json" ]; then
      echo "flight smoke: watchdog dumped on a clean run (t=$t)" >&2
      exit 1
    fi
  done
  cmp "$dir/stable_t1_on.json" "$dir/stable_t8_on.json" ||
    { echo "flight smoke: stable metrics differ between threads" >&2
      exit 1; }

  # 2) Wedged pool task (test hook stalls the first task for 6s) must trip
  # the 1s watchdog; the run still completes, the dump names the stall.
  (cd "$dir" &&
   SCA_PIPELINE_ONCE=1 SCA_THREADS=4 SCA_FAULT_RATE=0.05 \
     SCA_CHECKPOINT_DIR= \
     SCA_OBS_TEST_STALL_MS=6000 SCA_WATCHDOG_S=1 \
     SCA_FLIGHT_DIR=flight-wedge SCA_MANIFEST=manifest_wedge.json \
     ../bench/micro_pipeline > wedge.out 2>&1) ||
    { cat "$dir/wedge.out" >&2
      echo "flight smoke: wedged run did not complete" >&2; exit 1; }
  [ -s "$dir/flight-wedge/watchdog.json" ] ||
    { echo "flight smoke: watchdog never dumped on the wedged run" >&2
      exit 1; }
  grep -q '"cause":"watchdog_stall"' "$dir/flight-wedge/watchdog.json" ||
    { echo "flight smoke: watchdog dump has wrong cause" >&2; exit 1; }
  "$cli" postmortem "$dir/flight-wedge/watchdog.json" \
    > "$dir/wedge_report.txt" ||
    { echo "flight smoke: postmortem could not render watchdog dump" >&2
      exit 1; }
  grep -q 'suspected stall site' "$dir/wedge_report.txt" ||
    { echo "flight smoke: watchdog report names no stall site" >&2
      exit 1; }

  # 3) SIGSEGV mid-chaos-serve: the async-signal-safe handler must leave a
  # parseable postmortem with per-thread timelines. The subshell execs the
  # bench so $! is the bench pid, not a wrapper shell.
  cd "$dir"
  ( exec env SCA_THREADS=4 SCA_SHARDS=4 SCA_FAULT_RATE=0.15 \
      SCA_OBS_TEST_STALL_MS=8000 SCA_FLIGHT_DIR=flight-crash \
      ../bench/macro_serve > crash.out 2>&1 ) &
  local pid=$!
  sleep 2
  kill -SEGV "$pid" 2> /dev/null || true
  local rc=0
  wait "$pid" || rc=$?
  cd - > /dev/null
  [ "$rc" -eq 139 ] ||
    { echo "flight smoke: SEGV run exited $rc, expected 139" >&2; exit 1; }
  [ -s "$dir/flight-crash/postmortem.json" ] ||
    { echo "flight smoke: no postmortem after SIGSEGV" >&2; exit 1; }
  "$cli" postmortem "$dir/flight-crash/postmortem.json" \
    > "$dir/crash_report.txt" ||
    { echo "flight smoke: postmortem could not parse the SIGSEGV dump" >&2
      exit 1; }
  grep -q 'cause=signal signal=SIGSEGV' "$dir/crash_report.txt" ||
    { echo "flight smoke: report missing SIGSEGV cause" >&2; exit 1; }
  grep -q '^thread ' "$dir/crash_report.txt" ||
    { echo "flight smoke: report has no per-thread timelines" >&2
      exit 1; }
  echo "=== flight-recorder smoke ok ==="
}
flight_smoke

# TSan needs a few threads to have anything to race; don't let SCA_THREADS=1
# from the caller's environment turn the parallel paths off.
SCA_THREADS="${SCA_TSAN_THREADS:-4}" \
  run_config build-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCA_SANITIZE=thread
# Faults-on pass: dataset builders read SCA_FAULT_RATE from the environment,
# so the whole suite runs through the resilient client stack (injection,
# retries, validation re-parses) under ASan. The determinism tests still
# pass because retried output is byte-identical to a faults-off run.
SCA_FAULT_RATE="${SCA_CI_FAULT_RATE:-0.05}" \
  run_config build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCA_SANITIZE=address

# ASan+UBSan focused pass over three groups. The zero-copy lexer and the
# arena parser: every token is a string_view into a shared buffer and every
# AST node an index into a pooled arena, so out-of-bounds views, misaligned
# access and overflowing offset arithmetic are the realistic failure modes
# — and the fuzz/property suites are the inputs most likely to provoke
# them. The feature records: each term bag stores its terms as offsets
# into one buffer, found through an open-addressing slot table, and the
# selector indexes flat class-by-column count tables. The ML suites: the
# forest-fit kernel partitions [begin, end) ranges of one sample buffer
# and indexes count tables by label and threshold, and the golden tests
# drive it through owned, view and matrix-backed storage and pin the
# feature matrix. The binaries run directly (not via ctest) because only
# these seven targets are built in this tree.
ubsan_focus() {
  local tests="lexer_test parser_fuzz_test roundtrip_property_test"
  tests+=" features_test ml_test matrix_test golden_test"
  echo "=== configure build-asan-ubsan (lexer/parser, features and ML focus) ==="
  cmake -B build-asan-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSCA_SANITIZE=address+undefined
  echo "=== build build-asan-ubsan ==="
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build build-asan-ubsan -j "$JOBS" --target $tests
  echo "=== test build-asan-ubsan ==="
  local t
  for t in $tests; do
    "build-asan-ubsan/tests/$t" ||
      { echo "$t failed under ASan+UBSan" >&2; exit 1; }
  done
}
ubsan_focus

# Perf-seed smoke: the committed seed baseline is the pre-rework cost of the
# analysis phase. `history check` compares the three fresh runs against it
# (same bench, threads and env class ⇒ same group) and fails on a slowdown
# or a stable-digest change; the awk gate then enforces the stronger claim
# the zero-copy rework made — analysis at least 2x faster than the seed
# median. Best-of-3 vs the seed *median* damps machine noise on both sides.
perf_seed_smoke() {
  echo "=== perf-seed smoke (build-release) ==="
  local dir=build-release/perf-seed-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli
  cp tools/perf/seed_baseline.jsonl "$hist"
  # The seed records' env class is exactly "SCA_PIPELINE_ONCE=1". Run under
  # env -i so no stray SCA_* variable from the caller's shell (even one set
  # to the empty string) can split the fresh records into a different,
  # never-compared group.
  local i
  for i in 1 2 3; do
    (cd "$dir" &&
     env -i PATH="$PATH" HOME="$HOME" \
       SCA_PIPELINE_ONCE=1 SCA_THREADS=1 SCA_HISTORY="$hist" \
       SCA_MANIFEST="manifest_$i.json" \
       ../bench/micro_pipeline > /dev/null)
  done
  "$cli" history check "$hist" ||
    { echo "history check failed against the seed baseline" >&2; exit 1; }
  awk '
    match($0, /"analysis":[0-9.eE+-]+/) {
      v = substr($0, RSTART + 11, RLENGTH - 11) + 0
      a[++n] = v
    }
    END {
      if (n != 6) {
        print "perf-seed smoke: expected 6 analysis records, got " n
        exit 1
      }
      # Median of the three seed records = sum minus min minus max.
      lo = a[1]; hi = a[1]
      for (i = 2; i <= 3; i++) {
        if (a[i] < lo) lo = a[i]
        if (a[i] > hi) hi = a[i]
      }
      med = a[1] + a[2] + a[3] - lo - hi
      best = a[4]
      for (i = 5; i <= 6; i++) if (a[i] < best) best = a[i]
      printf "seed median %.6fs, best new %.6fs, speedup %.2fx\n", \
             med, best, med / best
      if (best * 2 > med) {
        print "perf-seed smoke: analysis phase no longer >= 2x faster " \
              "than the seed baseline"
        exit 1
      }
    }
  ' "$hist" || exit 1
  echo "=== perf-seed smoke ok ==="
}
perf_seed_smoke

echo "=== ci ok ==="
