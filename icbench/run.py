#!/usr/bin/env python3
"""Build the icbench benchmark from source and run one workload.

Usage, from the root of a checkout of the repository:

    python3 icbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds icbench/main.exe with dune (the first build compiles the
libraries it links; later builds are no-ops), then replaces itself
with the benchmark process, so the exit status and the last line of
standard output are the benchmark's own. Build output goes to standard
error. If the build fails, exits with a non-zero status and prints no
result.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "icbench", "main.exe")


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./icbench/main.exe"],
            stdout=sys.stderr,
        )
    except OSError as e:
        sys.stderr.write(f"icbench: cannot run dune: {e}\n")
        return 1
    if build.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("icbench: build failed\n")
        return build.returncode or 1
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
