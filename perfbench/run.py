#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (perfbench/, a Go module of its own).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 10 --trace 0

The program is built from source into $CARGO_TARGET_DIR (default
.bench_build) with the Go build cache, module cache and home directory all
kept there too, so nothing outside the checkout is read from caches or
written. Arguments are passed through; the exit code is the benchmark's.
A build failure (for example, when the repository's sources are missing)
exits non-zero without printing a result.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        HOME=os.path.join(out, "home"),
        XDG_CONFIG_HOME=os.path.join(out, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(out, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    os.makedirs(env["HOME"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
        timeout=600,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env, timeout=170).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
