#!/usr/bin/env python3
"""Build and run the Ivy benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe with dune (into _build/ of the checkout, with
the shared dune cache off), runs it with the same arguments, and passes
its output through: the last line of standard output is the result
object. Exits non-zero when the checkout holds no Ivy sources, when the
build fails, or when the run reports an error.
"""

import os
import shutil
import subprocess
import sys

WORKLOADS = ("check-cold", "serve-edit", "fuzz-campaign", "vm-e2")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    args = {"--workload": None, "--seed": None, "--seconds": None, "--trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in args or i + 1 >= len(argv):
            fail("usage: run.py --workload {%s} --seed N --seconds S --trace 0|1"
                 % "|".join(WORKLOADS))
        args[key] = argv[i + 1]
        i += 2
    if args["--workload"] not in WORKLOADS:
        fail("unknown workload %r" % args["--workload"])
    for key in ("--seed", "--seconds", "--trace"):
        try:
            int(args[key])
        except (TypeError, ValueError):
            fail("%s needs a whole number" % key)
    if args["--trace"] not in ("0", "1"):
        fail("--trace takes 0 or 1")
    return args


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def main():
    args = parse_args(sys.argv[1:])
    root = os.getcwd()
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of an Ivy checkout (%s is missing)" % needed)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command() + ["build", "--root", ".", "--display", "quiet",
                          "./perfbench/bench.exe"],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed", 3)
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    run = subprocess.run(
        [exe] + [x for k in ("--workload", "--seed", "--seconds", "--trace")
                 for x in (k, args[k])],
        cwd=root)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
