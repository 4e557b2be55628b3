#!/usr/bin/env python3
"""Builds `xqd` and the socket-mode benchmark from this checkout, then runs it.

    python3 sockbench/run.py --workload mix-small --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); generated documents, daemon logs and spans go to
`.bench_work`. Every argument is passed on to the benchmark binary, whose
last stdout line is the result object. The exit code is the benchmark's.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "sockbench")

# A run must finish in 180 s; the binary's own watchdog fires at 170 s.
RUN_TIMEOUT_S = 178


def fail(msg):
    print(f"sockbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    # build output goes to stderr: stdout carries only the result
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_digest():
    """SHA-256 over the sources the daemon and the benchmark are built from."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in ("src", "crates", "sockbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode() + b"\0")
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "xrpc"), "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cargo_build(["--bin", "xqd"], target_dir)
    cargo_build(["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")], target_dir)
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "sockbench"), *sys.argv[1:],
           "--xqd", os.path.join(release, "xqd"),
           "--work-dir", os.path.join(ROOT, ".bench_work"),
           "--git-rev", git_rev(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
