#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build runs offline into
$CARGO_TARGET_DIR (default: .bench_build at the repository root); a
failed build exits with status 4. The benchmark binary then replaces
this process with the same arguments: it checks the command line
(a rejected one exits with status 2 and writes nothing), and its
standard output, ending with the JSON result line, and its exit status
are the run's.
"""

import os
import subprocess
import sys


def main(argv):
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(bench_dir, "Cargo.toml")],
        cwd=root, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: error: build failed (cargo exit {build.returncode})", file=sys.stderr)
        return 4
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary, *argv])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
