#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload search_proxy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # unit tests of the benchmark helpers

Run from anywhere; paths are taken relative to the checkout that holds this
file. The first run configures and builds the hsconas libraries and the
benchmark driver into $CARGO_TARGET_DIR (default .bench_build) in Release
mode; later runs only rebuild what changed. The last line of standard
output is the result JSON; the exit code is nonzero on any correctness
failure or build error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

WORKLOADS = ("search_proxy", "train_supernet", "search_surrogate", "serve_int8")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        result = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
    if result.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail(f"command failed ({result.returncode}): {' '.join(cmd)}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no hsconas sources under {ROOT}/src; nothing to benchmark")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "perfbench-build.log")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release",
                    "-DHSCONAS_ENABLE_TRACING=ON"], log)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", out, "-j", jobs, "--target", *targets], log)
    return out


def source_digest():
    """SHA-256 over src/ and perfbench/, so a result names its code even
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_provenance():
    def git(*args):
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if os.path.exists(os.path.join(ROOT, ".git")) else None
    if sha is None:
        head = "no-git"
    else:
        head = sha + ("-dirty" if git("status", "--porcelain", "--untracked-files=no") else "")
    return f"{head} src:{source_digest()}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the unit tests of the benchmark helpers")
    args = ap.parse_args()

    if args.selftest:
        out = build(["perfbench_helpers_test"])
        sys.exit(subprocess.run([os.path.join(out, "perfbench_helpers_test")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build(["perfbench"])
    results = os.path.join(out, "perfbench-out")
    os.makedirs(results, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", results, "--git", git_provenance()]
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
