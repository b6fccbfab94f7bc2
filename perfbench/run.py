#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper_table --seed 1 --seconds 20 --trace 0

Builds `perfbench` (its own Cargo package) and the repository's
`glc-serve`/`glc-worker` in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the benchmark binary with the
given arguments. Cargo's output goes to stderr; the binary's stdout
passes through, so its last line is the result object. Exits non-zero
without a result when anything fails to build or run.
"""

import os
import subprocess
import sys


def commit() -> str:
    """The checked-out commit, or `unknown` outside a git checkout.

    Git may not look above this directory: a checkout that is not a
    repository must not report the commit of one that contains it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env)
    except OSError:
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "glc-service",
         "--bin", "glc-serve", "--bin", "glc-worker"],
    ]
    for command in builds:
        if not os.path.isfile(command[command.index("--manifest-path") + 1]):
            print(f"run.py: {command[command.index('--manifest-path') + 1]} not found; "
                  "run from the repository root", file=sys.stderr)
            return 2
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return 1
    binary = os.path.join(target, "release", "glc-perfbench")
    argv = [binary, *sys.argv[1:], "--bin-dir", os.path.join(target, "release"),
            "--commit", commit()]
    return subprocess.run(argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
