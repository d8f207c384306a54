#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload kbuild|table4|stress-mp|vcached \
        --seed N --seconds S --trace 0|1

The Go build cache, temporary files and the benchmark binary live under
.bench_build/ in the current directory; with --trace 1 the benchmark
also writes its span dump and CPU profile to .bench_build/perfbench/.
The last line of standard output is the JSON result (see main.go).
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        sys.stderr.write("perfbench: run from the repository root "
                         "(go.mod and internal/ not found)\n")
        return 2
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        # The go command keeps its settings and telemetry under the
        # user config directory; keep those inside the checkout too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    binary = os.path.join(build, "bin", "perfbench")
    here = os.path.dirname(os.path.abspath(__file__))
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return built.returncode
    # Replace this process, so whoever stops the benchmark stops the
    # program itself and nothing is left running.
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
