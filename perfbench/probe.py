"""Set-up probe: a fresh process that imports lazystates and runs one op per
entry point of a workload, then exits.  run.py takes its CPU time (user +
system) as one set-up sample.

python3 perfbench/probe.py classify_pool|dynamics_pool|cli_session
"""

import contextlib
import io
import sys

import numpy as np

import lazystates

BELL = np.array([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]], dtype=complex) / 2.0


def main(workload):
    if workload == "classify_pool":
        lazystates.classify(BELL)
    elif workload == "dynamics_pool":
        lazystates.laziness_dynamics_check(BELL, n_hamiltonians=20, seed=0, step=1e-4)
    elif workload == "cli_session":
        from lazystates import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["bd", "classify", "--lambda", "0,0,0.5"])
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1])
