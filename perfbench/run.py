#!/usr/bin/env python3
"""Build the perfbench Go package and run it.

Run from the repository root, for example:

    python3 perfbench/run.py --workload mem-http --seed 1 --seconds 12 --trace 0

All arguments are passed to the benchmark binary. The Go build cache,
module cache and the binary live under .bench_build/ at the repository
root, so building and running read and write nothing outside the
checkout. The last line the binary prints on standard output is the
JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "bin", "perfbench")
    # The benchmark is its own module; its go.mod points back at the
    # repository root, so the build fails when the root is missing.
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod at %s: run from a full checkout" % root, file=sys.stderr)
        return 2
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    sys.stdout.flush()
    # Replace this process with the benchmark, so a signal sent to the
    # command reaches the benchmark itself and nothing is left behind.
    os.chdir(root)
    os.execv(binary, [binary] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
