#!/usr/bin/env python3
"""perfbench: the parsched end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
benchmark (perfbench/CMakeLists.txt, which compiles the library from src/)
under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later
runs only rebuild what changed. The runner's metric lines and its final
JSON result line are relayed on standard output; build output goes to
standard error. Traced runs leave <workload>.trace.json (Chrome
trace-event format) and <workload>.layers.json in the build directory's
out/ folder.

    python3 perfbench/run.py --selftest
        builds and runs the benchmark's own tests.
    python3 perfbench/run.py --record --workload <name> --seconds <s> --seeds 0-31
        prints the expected-output lines for perfbench/expected/<name>.txt.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ratio_sweep", "backlog_stream", "serve_mixed")
RUN_TIMEOUT_S = 175


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (base / "perfbench").resolve()


def build(target):
    """Configure (once) and build `target`; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no parsched sources (src/) beside perfbench/")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j4"],
                   check=True, stdout=sys.stderr)
    return out


def runner_env():
    env = dict(os.environ)
    # Timed runs keep the library's audit mode off and its thread count
    # fixed by the workload.
    env.pop("PARSCHED_AUDIT", None)
    env.pop("PARSCHED_JOBS", None)
    return env


def run_runner(out, workload, seed, seconds, trace, record=False):
    results = out / "out"
    results.mkdir(exist_ok=True)
    cmd = [str(out / "perfbench_runner"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--expected", str(HERE / "expected" / (workload + ".txt")),
           "--out", "."]
    if record:
        cmd.append("--record")
    # The runner works inside out/ so the serve socket path stays short.
    return subprocess.run(cmd, cwd=results, env=runner_env(),
                          timeout=RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                          text=True)


def parse_seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--seeds", default="0-31")
    args = ap.parse_args()

    if args.selftest:
        out = build("perfbench_tests")
        return subprocess.run([str(out / "perfbench_tests")],
                              env=runner_env()).returncode
    if args.workload is None or args.seconds is None:
        ap.error("--workload and --seconds are required")
    out = build("perfbench_runner")
    if args.record:
        for seed in parse_seeds(args.seeds):
            proc = run_runner(out, args.workload, seed, args.seconds, 0, True)
            lines = [l for l in proc.stdout.splitlines() if l.startswith("EXPECT ")]
            if proc.returncode != 0 or not lines:
                sys.exit(f"perfbench: recording seed {seed} failed")
            print(lines[0][len("EXPECT "):], flush=True)
        return 0
    if args.seed is None:
        ap.error("--seed is required")
    proc = run_runner(out, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
