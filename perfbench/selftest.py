#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. A one-second run of every workload, with --trace 0 and --trace 1, must
   print a last line with exactly the keys correct/attempted/failed/metrics,
   be correct, and carry every metric BENCHMARK.json declares, with its unit.
2. Injected faults (a wrong expected verdict, a wrong golden, an op that
   raises) must be counted as failed ops, never crash the run.

Exits 0 when every check passes, 1 otherwise.  Takes about three minutes.
"""

import dataclasses
import json
import math
import subprocess
import sys

import numpy as np

import run

ROOT = run.ROOT
FAILURES = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def check_tiny_runs():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            what = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{what}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: correct, nothing failed")
            want = {m["name"]: m["unit"] for m in declared[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{what}: every {section} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{what}: finite values")


def _one_pass(workload):
    tally = run.Tally()
    run.run_rounds(workload.items, workload.e2e_op, 0.0, tally)
    return tally


def check_injected_faults():
    items = run.pools.classify_pool(0)
    flipped = dataclasses.replace(
        items[0], expected=(not items[0].expected[0],) + items[0].expected[1:]
    )
    wl = run.classify_workload(0, [flipped] + items[1:])
    tally = _one_pass(wl)
    expect(tally.failed == 1 and tally.attempted == len(items),
           "classify_pool: a wrong expected verdict is one failed op (error_rate > 0)")
    expect(wl.final_check() == ("histogram checked", None),
           "classify_pool: verdict histogram matches the record")
    wl = run.classify_workload(1, items)  # seed 0's states against seed 1's record
    _one_pass(wl)
    expect(wl.final_check()[1] is not None,
           "classify_pool: a histogram that differs from the record is reported")

    broken = dataclasses.replace(items[1], rho=np.zeros((3, 3)))
    tally = _one_pass(run.classify_workload(0, [broken] + items[2:6]))
    expect(tally.failed == 1 and tally.attempted == 5,
           "classify_pool: an op that raises is one failed op")

    states = run.pools.dynamics_pool(0)[:3]
    wrong = dataclasses.replace(states[0], expected=(not states[0].expected[0],))
    tally = _one_pass(run.dynamics_workload([wrong] + states[1:]))
    expect(tally.failed == 1 and tally.attempted == 3,
           "dynamics_pool: a wrong expected lazy verdict is one failed op")

    (run.OUT / "tmp").mkdir(parents=True, exist_ok=True)
    cmds = run.session.commands(ROOT, run.OUT / "tmp")[:2]
    wrong_golden = dataclasses.replace(cmds[0], golden=cmds[1].golden)
    wl = run.cli_workload([wrong_golden, cmds[1]])
    tally = _one_pass(wl)
    expect(tally.failed == 1 and tally.attempted == 2,
           "cli_session: a wrong golden is one failed command")
    tally = run.Tally()
    run.run_rounds(wl.items, wl.make_op(lambda fn: fn), 0.0, tally)
    expect(tally.failed == 1, "cli_session in-process: a wrong golden is one failed command")


def main():
    check_injected_faults()
    check_tiny_runs()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
