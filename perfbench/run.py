#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench_runner (the sca libraries plus the runner, optimised)
from the sources next to this directory, then runs one workload in its own
process and prints its provenance line and, last, its result line:

    python3 perfbench/run.py --workload attribution --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build), run outputs (the trace file) to .bench_out/; both
are inside the checkout and ignored by git. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attribution", "binary", "serve")
# One process with a fixed worker count no larger than the machine. Two,
# not four: on a shared 4-core machine, 4-thread attribution runs spread
# twice as wide from run to run as 2-thread ones measured between them.
THREADS = min(2, os.cpu_count() or 1)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; returns the runner path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sca sources at {ROOT / 'src'}; run from a repository checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_runner", "-j", str(THREADS)])
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    with log.open("w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                sys.stderr.write(log.read_text()[-8000:])
                fail("build failed: " + " ".join(step))
    return build_dir / "perfbench_runner"


def git_sha():
    if os.environ.get("SCA_GIT_SHA"):
        return os.environ["SCA_GIT_SHA"]
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="print reference lines for this seed")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    runner = build()
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    # The benchmark fixes every knob itself; no SCA_* setting of the
    # caller leaks in. History and manifests are off, outputs are private.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCA_")}
    env.update(SCA_THREADS=str(THREADS), SCA_HISTORY="off",
               SCA_GIT_SHA=git_sha())
    if args.trace:
        env["SCA_TRACE"] = str(out_dir / "trace.json")

    command = [str(runner), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--reference", str(HERE / "reference.txt")]
    if args.record:
        command.append("--record")
    try:
        done = subprocess.run(command, cwd=out_dir, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"runner exited with {done.returncode}")

    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    missing = expected_metrics(args.trace) - set(result["metrics"])
    extra = set(result["metrics"]) - expected_metrics(args.trace)
    if missing or extra:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
             f"unexpected {sorted(extra)}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
