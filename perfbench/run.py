#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the repository root.

    python3 perfbench/run.py --workload ring-inproc --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the unix-socket directory and traced
spans all live under .bench_build/ in the current directory (override
it with CARGO_TARGET_DIR), so the benchmark reads and writes nothing
outside the checkout. Arguments are passed through to the binary; its
exit code is this script's.
"""
import os
import subprocess
import sys

# The benchmark binary bounds its own run well inside this; the margin
# covers process start and teardown.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # Relative on purpose: unix socket paths must stay short.
    tmp = os.path.relpath(os.path.join(build, "t"))
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(os.path.join(build, "spans"), exist_ok=True)
    root = os.path.abspath(build)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(root, "gocache"),
        GOMODCACHE=os.path.join(root, "gomod"),
        GOPATH=os.path.join(root, "gopath"),
        GOTMPDIR=os.path.abspath(tmp),
        GOTOOLCHAIN="local",
        GOENV="off",
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        CGO_ENABLED="0",
        TMPDIR=tmp,
    )
    binary = os.path.join(root, "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    args = sys.argv[1:] + ["--spans-dir", os.path.join(build, "spans")]
    try:
        return subprocess.run([binary] + args, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
