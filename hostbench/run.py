"""Build and run the host-cost benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload serve-mixed --seed 1 --seconds 10 --trace 0

The benchmark is a Go module of its own (hostbench/go.mod) that builds
against the repository's sources. The binary, the Go build cache and the
traced run's span files go under .bench_build/ in the working directory,
so nothing is written outside it. Arguments are passed to the binary
unchanged; its last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        # The go command keeps telemetry and settings under the user
        # config directory; point it inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "hostbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
