#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep-quick|sim-long|serve-open|all \
        --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
drives the repository's crates from outside. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root);
spans of traced runs are written under <target dir>/perfbench/. The last
line of standard output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = [exe, *sys.argv[1:], "--out-dir", os.path.join(target, "perfbench")]
    return subprocess.run(args, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
