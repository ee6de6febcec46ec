#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload validate --seed 1 --seconds 22 --trace 0

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
links the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then run
from the repository root with its scratch files under .bench_run. The last
line of standard output is the run's result as one JSON object; the build's
own output goes to standard error.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
# The first run in a fresh checkout compiles every crate; later runs only
# check that the build is current.
BUILD_TIMEOUT_S = 840
# A run must end within 180 s; leave room to stop the child and report.
RUN_TIMEOUT_S = 170


def commit_id():
    """The commit of a git checkout, else a digest of the sources built."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "crates"), os.path.join(ROOT, "perfbench", "src")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in tops:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files.extend(os.path.join(d, n) for n in sorted(names))
    for path in files:
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run(cmd, timeout, **kwargs):
    """Run cmd to completion; on timeout stop it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} ran past {timeout} s and was stopped",
              file=sys.stderr)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are not here; nothing to build",
              file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", MANIFEST]
    code = run(build, BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code or 1

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--commit", commit_id(),
           "--work-dir", os.path.join(ROOT, ".bench_run")]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
