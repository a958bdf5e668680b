#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree. It builds perfbench/perfbench.exe
with dune (build output goes to standard error), then runs it with the
given arguments plus the environment facts OCaml cannot see for itself:
the number of usable cores and the source revision. The benchmark's last
line of standard output is its result object; its exit code is passed on.
"""

import glob
import hashlib
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def revision():
    """The git commit when this is a git checkout, else a digest of the sources."""
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            path = os.path.join(".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as f:
                    return f.read().strip()
        else:
            return ref
    digest = hashlib.sha256()
    files = []
    for pattern in ("lib/**/*.ml", "lib/**/*.mli", "lib/**/*.c", "lib/**/dune",
                    "perfbench/*.ml", "perfbench/dune"):
        files.extend(glob.glob(pattern, recursive=True))
    for path in sorted(files):
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def run(cmd, **kw):
    """Runs [cmd] to completion; a SIGTERM to this script stops it first."""
    child = subprocess.Popen(cmd, **kw)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        child.wait()
        return 130


def main():
    if not (os.path.isfile("dune-project")
            and os.path.isfile(os.path.join("lib", "mcpool", "mc_pool.mli"))):
        sys.stderr.write("perfbench: run from the root of the source tree "
                         "(dune-project and lib/ not found)\n")
        return 2
    status = run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                 stdout=sys.stderr)
    if status != 0:
        sys.stderr.write("perfbench: build failed\n")
        return status if status > 0 else 1
    nproc = len(os.sched_getaffinity(0))
    return run([EXE] + sys.argv[1:]
               + ["--nproc", str(nproc), "--revision", revision()])


if __name__ == "__main__":
    sys.exit(main())
