#!/usr/bin/env bash
# CI entry point: build + test the two configurations that gate a PR.
#
#   1. Release        — the tier-1 suite exactly as ROADMAP.md specifies.
#   2. ThreadSanitizer — the same suite under -fsanitize=thread, proving the
#      shared runtime pool, the feature analysis cache and the parallel
#      fold/forest paths are race-free.
#   3. AddressSanitizer — the same suite under -fsanitize=address. The
#      fault-injection and retry stack runs there through resilience_test,
#      sharded_test and serve_test, and the parser-hardening paths through
#      the parser suites, while ASan watches for memory errors.
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
# (SCA_PIPELINE_ONCE) at 1 and 8 threads with tracing on, validates the
# emitted manifest and Chrome trace with sca_cli (which exits nonzero on
# malformed files or an empty metrics snapshot), and byte-compares the
# "[pipeline]" output lines and the stable metrics sections — the
# thread-count-invariance contract, checked on every PR.
#
# A paper-sweep smoke then runs bench/paper_sweep (every table, figure and
# ablation) at a quick scale at SCA_THREADS=1 and 4: the CSVs and stable
# metrics must be byte-identical, with one complete manifest per run.
#
# A perf-history smoke then proves the regression gate in both directions:
# identical re-runs of the one-shot pipeline must pass `sca_cli history
# check`, a slowdown injected via SCA_OBS_TEST_DELAY_MS must trip it, a
# tampered stable counter must fail it with a digest finding, and a peak
# RSS inflated via SCA_OBS_TEST_BALLAST_KB must trip its "rss" finding. The
# run's manifest must be byte-identical to its history line (one record),
# a malformed hook value must inject nothing, and a malformed `--keep`
# must exit 2 without touching the history.
#
# A serve-telemetry smoke then proves the request-level telemetry is
# observational: one stream served with telemetry off vs on full logging
# (SCA_SERVE_TIMING=0 + SCA_LOG) at different thread counts must be
# byte-identical, SCA_SERVE_TIMING=1 must decorate every data response,
# the in-band stats op must report live fields, `sca_cli serve-report`
# must reconstruct the lifecycles from the log, and macro_serve_load must
# pass its load assertions and the history gate.
#
# A flight-recorder smoke then runs the one-shot pipeline at 1 and 8
# threads three ways — flight ring on, trace only (SCA_TRACE with
# SCA_FLIGHT_EVENTS=0) and both off — and requires identical "[pipeline]"
# lines and stable metrics; the trace-only trace must summarize with its
# forest_fit and llm_chain_+N spans. A wedged task must trip the watchdog
# and a SIGSEGV must leave a postmortem that `sca_cli postmortem` renders.
#
# Finally, an ASan+UBSan tree runs five focus groups: the zero-copy lexer
# and arena parser (lexer_test, parser_fuzz_test, roundtrip_property_test),
# whose string_view offsets and arena id arithmetic are exactly what
# -fsanitize=address,undefined exists to check; the feature records
# (features_test), whose term bags are offsets into one buffer behind an
# open-addressing index; the ML suites (ml_test, golden_test,
# corpus_test), whose forest-fit kernel is index ranges into one sample
# buffer and count tables indexed by label; the span recorder
# (obs_test, flight_test), whose ring slots and chunked trace lists are
# indexed by per-thread counters; and the string scanners (util_test),
# whose integer fields parse untrusted serve requests and history records.
#
# Last, a perf-seed smoke runs the one-shot pipeline against the committed
# seed baseline (tools/perf/seed_baseline.jsonl): `history check` must pass
# with the seed's group checked (which also pins the stable digest), and the
# best-of-3 analysis phase must
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
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=$t \
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
       SCA_THREADS=$t SCA_HISTORY=off SCA_MANIFEST= \
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
# against the clean ones), and reject a tampered stable counter with a
# digest finding. The RSS gate gets the same demonstrated failure: the
# record must carry the peak-RSS gauge, and a run whose peak the
# SCA_OBS_TEST_BALLAST_KB hook inflates (excluded from the env class like
# the delay hook) must trip an "rss" finding, while a malformed ballast
# value must be named on stderr and inject nothing.
history_smoke() {
  echo "=== perf-history smoke (build-release) ==="
  local dir=build-release/history-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli
  run_pipeline() {  # run_pipeline [delay_ms] [ballast_kb] [history]
    (cd "$dir" &&
     SCA_PIPELINE_ONCE=1 SCA_THREADS=2 SCA_HISTORY="${3:-$hist}" \
       SCA_OBS_TEST_DELAY_MS="${1:-}" SCA_OBS_TEST_BALLAST_KB="${2:-}" \
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
  grep -q '"rusage_max_rss_kb":' "$dir/bench_out/manifest.micro_pipeline.json" ||
    { echo "history smoke: manifest carries no peak-RSS gauge" >&2; exit 1; }
  tail -n 1 "$hist" | cmp -s - "$dir/bench_out/manifest.micro_pipeline.json" ||
    { echo "history smoke: manifest differs from the run's history line" >&2
      exit 1; }
  "$cli" history check "$hist" ||
    { echo "history check failed on identical re-runs" >&2; exit 1; }
  run_pipeline 400
  if "$cli" history check "$hist" > /dev/null; then
    echo "history check missed the injected slowdown" >&2; exit 1
  fi
  sed '$ s/"ml_trees_fitted":60/"ml_trees_fitted":61/' "$hist" \
    > "$dir/tampered.jsonl"
  if "$cli" history check "$dir/tampered.jsonl" > "$dir/tamper_check.txt"
  then
    echo "history check missed a stable-counter change" >&2; exit 1
  fi
  grep -qF '[digest]' "$dir/tamper_check.txt" ||
    { echo "history check missed the tampered counter's digest:" >&2
      cat "$dir/tamper_check.txt" >&2; exit 1; }
  # A 256 MiB ballast is far past the 1.5x / 32 MiB RSS gates. The ballast
  # run also trips the time gate, so only an "rss" finding proves the point.
  run_pipeline "" 262144
  if "$cli" history check "$hist" > "$dir/rss_check.txt" 2>&1; then
    echo "history check missed the injected RSS blow-up" >&2; exit 1
  fi
  grep -qF '[rss]' "$dir/rss_check.txt" ||
    { echo "history check failed for a non-rss reason:" >&2
      cat "$dir/rss_check.txt" >&2; exit 1; }
  # A malformed ballast (a unit suffix) must be named on stderr and inject
  # nothing: clean runs peak near 7,400 kB, far under 64 MiB.
  local bad_hist="$PWD/$dir/bad_hook.jsonl" rss
  run_pipeline "" 262144x "$bad_hist" 2> "$dir/bad_hook.err"
  grep -qF SCA_OBS_TEST_BALLAST_KB "$dir/bad_hook.err" ||
    { echo "history smoke: malformed ballast not reported" >&2; exit 1; }
  rss=$(grep -o '"rusage_max_rss_kb":[0-9]*' "$bad_hist" | cut -d: -f2)
  [ -n "$rss" ] && [ "$rss" -lt 65536 ] ||
    { echo "history smoke: malformed ballast inflated RSS to '$rss' kB" >&2
      exit 1; }
  local status=0
  cp "$hist" "$dir/before_gc.jsonl"
  "$cli" history gc "$hist" --keep 2x 2> /dev/null || status=$?
  [ "$status" -eq 2 ] && cmp -s "$hist" "$dir/before_gc.jsonl" ||
    { echo "history smoke: gc --keep 2x exited $status or changed the" \
           "history" >&2; exit 1; }
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
# perf-history gate as every bench. A malformed fleet or serve knob must
# exit 2 before any work: sca_cli serve writes no response line, and
# macro_serve runs no pass. (The serve/sharded unit tests also run under
# TSan via the build-tsan suite below.)
serve_chaos_smoke() {
  echo "=== serve-chaos smoke (build-release) ==="
  local dir=build-release/serve-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local hist="$PWD/$dir/history.jsonl"
  local cli=build-release/tools/sca_cli

  local status=0
  echo '{"op":"generate","id":"a0","chain":0,"challenge":0}' |
    env SCA_FAULT_RATE=0.05x "$cli" serve > "$dir/serve_bad.jsonl" \
      2> /dev/null || status=$?
  [ "$status" -eq 2 ] && [ ! -s "$dir/serve_bad.jsonl" ] ||
    { echo "serve-chaos smoke: SCA_FAULT_RATE=0.05x serve exited" \
           "$status or wrote a response" >&2; exit 1; }
  status=0
  echo '{"op":"generate","id":"a0","chain":0,"challenge":0}' |
    env SCA_SERVE_QUEUE=64x "$cli" serve > "$dir/serve_bad_queue.jsonl" \
      2> /dev/null || status=$?
  [ "$status" -eq 2 ] && [ ! -s "$dir/serve_bad_queue.jsonl" ] ||
    { echo "serve-chaos smoke: SCA_SERVE_QUEUE=64x serve exited" \
           "$status or wrote a response" >&2; exit 1; }
  status=0
  (cd "$dir" && SCA_SHARDS=4x ../bench/macro_serve > macro_serve_bad.out \
     2>&1) || status=$?
  [ "$status" -eq 2 ] ||
    { echo "serve-chaos smoke: SCA_SHARDS=4x macro_serve exited" \
           "$status, not 2" >&2; exit 1; }

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
  grep -q '"schema":"sca-run-v1"' "$manifest" &&
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

# Flight-recorder smoke: the recorder's hard invariant is that it OBSERVES
# without participating — stable output bytes are identical with the rings
# and watchdog armed, with only the trace recorded (SCA_TRACE and
# SCA_FLIGHT_EVENTS=0: the per-thread records hold the trace without a
# ring), and with both disabled. Then both forensic paths are exercised
# for real: a wedged pool task must trip the watchdog dump, and a SIGSEGV
# delivered mid-chaos-run must leave a postmortem the offline reconstructor
# can render.
flight_smoke() {
  echo "=== flight-recorder smoke (build-release) ==="
  local dir=build-release/flight-smoke
  rm -rf "$dir" && mkdir -p "$dir"
  local cli=build-release/tools/sca_cli

  # 1) Byte-identity at 1 and 8 threads: the recorder+watchdog on, and
  # the trace alone (SCA_TRACE with the ring off), each against the
  # recorder off. A clean run must also leave no watchdog dump behind, and
  # the trace-only run's trace must summarize with its forest and chain
  # spans.
  local t mode
  for t in 1 8; do
    for mode in on off trace; do
      local events=256 trace=
      [ "$mode" = on ] || events=0
      [ "$mode" = trace ] && trace="trace_t$t.json"
      (cd "$dir" &&
       SCA_PIPELINE_ONCE=1 SCA_THREADS=$t SCA_TRACE="$trace" \
         SCA_FLIGHT_EVENTS=$events SCA_WATCHDOG_S=2 \
         SCA_FLIGHT_DIR="flight_t${t}_$mode" \
         SCA_MANIFEST="manifest_t${t}_$mode.json" \
         ../bench/micro_pipeline) |
        grep '^\[pipeline\]' > "$dir/pipeline_t${t}_$mode.txt"
      "$cli" metrics "$dir/manifest_t${t}_$mode.json" --stable \
        > "$dir/stable_t${t}_$mode.json"
    done
    for mode in on trace; do
      cmp "$dir/pipeline_t${t}_$mode.txt" "$dir/pipeline_t${t}_off.txt" ||
        { echo "flight smoke: $mode changed pipeline digests (t=$t)" >&2
          exit 1; }
      cmp "$dir/stable_t${t}_$mode.json" "$dir/stable_t${t}_off.json" ||
        { echo "flight smoke: $mode changed stable metrics (t=$t)" >&2
          exit 1; }
    done
    "$cli" trace "$dir/trace_t$t.json" --summary --top 0 \
      > "$dir/trace_summary_t$t.txt" ||
      { echo "flight smoke: trace-only trace does not summarize (t=$t)" >&2
        exit 1; }
    for span in forest_fit 'llm_chain_+N'; do
      grep -qF "  $span: " "$dir/trace_summary_t$t.txt" ||
        { echo "flight smoke: trace-only trace lacks $span (t=$t)" >&2
          exit 1; }
    done
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
   SCA_PIPELINE_ONCE=1 SCA_THREADS=4 \
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
# ASan pass: the fault stack (injection, retries, the breaker, validation
# re-parses, shard failover and replay) runs under ASan through
# resilience_test, sharded_test and serve_test, which set their fault rates
# in code; no tier-1 test takes one from the caller's environment.
run_config build-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DSCA_SANITIZE=address

# ASan+UBSan focused pass over five groups. The zero-copy lexer and the
# arena parser: every token is a string_view into a shared buffer and every
# AST node an index into a pooled arena, so out-of-bounds views, misaligned
# access and overflowing offset arithmetic are the realistic failure modes
# — and the fuzz/property suites are the inputs most likely to provoke
# them. The feature records: each term bag stores its terms as offsets
# into one buffer, found through an open-addressing slot table, and the
# selector indexes flat class-by-column count tables. The ML suites: the
# forest-fit kernel partitions [begin, end) ranges of one sample buffer
# and indexes count tables by label and threshold, and the golden tests
# pin the fitted trees, the feature matrix and a 64-author forest's votes;
# corpus_test renders and re-parses every challenge and a year's samples.
# The span recorder: a span's name is packed into fixed slot words, ring
# slots are indexed modulo the capacity, and traced spans land in chunked
# per-thread lists indexed by count (obs_test, flight_test). The string
# scanners: jsonIntField reads integers out of serve requests and history
# records, where a too-long number once overflowed a signed accumulator
# (util_test). The binaries run directly (not via ctest) because only
# these ten targets are built in this tree.
ubsan_focus() {
  local tests="lexer_test parser_fuzz_test roundtrip_property_test"
  tests+=" features_test ml_test golden_test corpus_test"
  tests+=" obs_test flight_test util_test"
  echo "=== configure build-asan-ubsan (lexer/parser, features, ML, recorder and string focus) ==="
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
# or a stable-digest change; it must report exactly that one group checked,
# because a seed it cannot read would be skipped and pass silently. The awk
# gate then enforces the stronger claim
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
  "$cli" history check "$hist" > "$dir/check.txt" ||
    { cat "$dir/check.txt" >&2
      echo "history check failed against the seed baseline" >&2; exit 1; }
  grep -qF '1 group(s) checked, 0 skipped' "$dir/check.txt" ||
    { cat "$dir/check.txt" >&2
      echo "perf-seed smoke: the seed baseline was not compared" >&2; exit 1; }
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
