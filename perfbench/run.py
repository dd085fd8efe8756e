#!/usr/bin/env python3
"""Builds the CCRP benchmark from source and runs one workload.

Usage, from anywhere inside a checkout:

    python3 perfbench/run.py --workload <paper_sweep|difftest|rom_execute> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is its own Cargo workspace (perfbench/Cargo.toml) that
depends on the in-tree crates by path, so building it leaves the root
workspace's manifest and lock file alone. Cargo output goes to
$CARGO_TARGET_DIR (default: .bench_build at the root of the checkout).
The result object is the last line of standard output; build output
goes to standard error. Exits non-zero, without a result, when the
build fails or the benchmark cannot run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
