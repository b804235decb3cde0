#!/usr/bin/env python3
"""Build the chiplet-actuary program and its benchmark from source, then run
one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `actuary` binary (the served
workload spawns it) and the benchmark package in `perfbench/` into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark, whose
last line of standard output is the result object. Build output goes to
standard error. `--workload all` runs every workload in turn, for reading.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["portfolio_exhaustive", "portfolio_refine", "serve_mixed"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(target_dir):
    """Build both binaries; exit without a result if either build fails."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for args in (
        ["-p", "actuary-cli"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
        )
        if done.returncode != 0:
            sys.exit(f"perfbench: cargo build {' '.join(args)} failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates", "actuary-cli"))
    ):
        sys.exit(f"perfbench: no chiplet-actuary workspace at {ROOT}")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target_dir)

    bench = os.path.join(target_dir, "release", "actuary-perfbench")
    actuary = os.path.join(target_dir, "release", "actuary")
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        done = subprocess.run(
            [
                bench,
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--actuary", actuary,
            ],
            cwd=ROOT,
        )
        code = code or done.returncode
    sys.exit(code)


if __name__ == "__main__":
    main()
