#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fig1_data --seed 14 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The benchmark program (perfbench/bench.ml) is built with dune into
.bench_build and prints one JSON result line as the last line of standard
output. Without the repository's sources next to it, the script exits with
status 2 and prints no result.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no dune-project and lib/ here; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/bench.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    args = sys.argv[1:]
    if "--self-check" not in args:
        args += ["--digest-dir", os.path.join(BUILD_DIR, "digests")]
    # runtime_events (traced runs) keeps its ring file inside the build dir
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=BUILD_DIR)
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
