#!/usr/bin/env python3
"""lazystates benchmark: one workload per run.

    python3 perfbench/run.py --workload classify_pool --seed 0 --seconds 20 --trace 0

Run from the root of a lazystates checkout.  The run measures the workload
for --seconds, checks every output, writes a run record under
`.perfbench_out/`, and prints one JSON object as the last line of stdout:
the end-to-end metrics of BENCHMARK.json with `--trace 0`, its per-layer
metrics with `--trace 1`.  perfbench/README.md describes the workloads,
the metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The load shape is one op in flight and at most two threads; BLAS thread
# pools would add threads of their own (they never pay off on 4x4 matrices).
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
REQUIRED = (
    "BENCHMARK.json", "src/lazystates/__init__.py", "tests/golden", "tests/fixtures/bell.json",
)

if __name__ == "__main__":
    _missing = [rel for rel in REQUIRED if not (ROOT / rel).exists()]
    if _missing:
        sys.exit(f"error: {ROOT} is not a lazystates checkout "
                 f"(missing {', '.join(_missing)}); run from the root of one")

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import lazystates  # noqa: E402
import lazystates.cli  # noqa: E402
import layers  # noqa: E402
import pools  # noqa: E402
import session  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("classify_pool", "dynamics_pool", "cli_session")
SETUP_PROBES = 7
RECORDS = ROOT / "perfbench" / "records" / "classify_pool_histograms.json"


class Tally:
    """Attempted and failed operations; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, failure):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(failure)


# --- measurement ------------------------------------------------------------


def run_pass(items, op, samples, tally):
    """One op at a time over every item, appending each op's seconds."""
    for i, item in enumerate(items):
        elapsed, failure = op(item)
        samples[i].append(elapsed)
        tally.add(failure)


def run_rounds(items, op, seconds, tally):
    """Closed loop: whole passes over items until seconds have passed.

    Returns one list of per-op seconds per item, and the number of passes.
    """
    samples = [[] for _ in items]
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        run_pass(items, op, samples, tally)
        rounds += 1
    return samples, rounds


def summarize(samples):
    """Throughput and latency percentiles from each item's median op time.

    Op times are CPU seconds (of the process, or of the child for a CLI
    command): on a shared virtual machine wall time also counts the time
    the hypervisor gives the CPU to other guests (steal), which can double
    a pass's wall time within a minute.  Each input's median over the
    passes keeps the remaining bursts out; the percentiles then describe
    how cost spreads over the inputs.
    """
    per_item = sorted(statistics.median(s) for s in samples)
    deciles = statistics.quantiles(per_item, n=10, method="inclusive")
    return {
        "ops_per_s": len(per_item) / sum(per_item),
        "op_p50_ms": statistics.median(per_item) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
    }


def setup_seconds(workload):
    """Median CPU time of fresh processes that import lazystates and warm up."""
    env = session.child_env(ROOT)
    probe = [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload]
    times = []
    for _ in range(SETUP_PROBES):
        cpu = session.children_cpu()
        subprocess.run(probe, cwd=ROOT, env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(session.children_cpu() - cpu)
    return statistics.median(times)


# --- workloads ----------------------------------------------------------------


@dataclass
class Workload:
    """Inputs of one workload and how to run one op on each.

    `make_op(wrap)` builds the in-process op; `wrap` turns the library call
    into a root span in traced runs.  `e2e_op` is the op the end-to-end run
    times, and `final_check()` returns (what was checked after the run, the
    failure it found or None).
    """

    name: str
    items: list
    composition: dict
    make_op: Callable
    e2e_op: Callable
    final_check: Callable = lambda: ("none", None)
    pool_gen_s: float = 0.0


def _timed(entry, check):
    """op(state) for a pool: CPU-time the library call only, then check it."""
    def op(state):
        start = time.process_time()
        try:
            result = entry(state)
        except Exception as exc:  # a raising op is a failed op, not a crash
            return time.process_time() - start, f"{state.kind}: raised {exc!r}"
        return time.process_time() - start, check(state, result)
    return op


def classify_workload(seed, items):
    verdicts = {}  # id(state) -> verdict row, the latest pass wins

    def check(state, result):
        got = tuple(getattr(result, f) for f in pools.FIELDS)
        verdicts[id(state)] = got
        if got != state.expected:
            return f"{state.kind}: verdicts {got}, expected {state.expected}"
        if result.lazy_gray_zone:
            return f"{state.kind}: unexpected gray-zone verdict"
        return None

    def record_check():
        stored = json.loads(RECORDS.read_text(encoding="utf-8"))["seeds"].get(str(seed))
        if stored is None:
            return "no stored histogram for this seed", None
        if pools.verdict_counts(verdicts.values()) != stored:
            return "histogram checked", "verdict histogram differs from the stored record"
        return "histogram checked", None

    def make_op(wrap):
        # lazystates.classify is looked up per call, so a traced run sees the span
        return _timed(wrap(lambda s: lazystates.classify(s.rho)), check)

    return Workload("classify_pool", items, pools.composition(items), make_op,
                    make_op(lambda fn: fn), record_check)


def dynamics_workload(items):
    def check(state, result):
        if not (result.consistent or result.gray_zone):
            return f"{state.kind}: inconsistent, max |rate| {result.max_abs_rate:.3e}"
        if result.lazy != state.expected[0]:
            return f"{state.kind}: lazy={result.lazy}, expected {state.expected[0]}"
        return None

    def make_op(wrap):
        return _timed(wrap(lambda s: lazystates.laziness_dynamics_check(
            s.rho, n_hamiltonians=20, seed=0, step=1e-4)), check)

    return Workload("dynamics_pool", items, pools.composition(items), make_op,
                    make_op(lambda fn: fn))


def cli_workload(items):
    env = session.child_env(ROOT)

    def make_op(wrap):
        main = wrap(lambda argv: lazystates.cli.main(argv))

        def op(cmd):
            _, cpu, failure = session.run_inprocess(ROOT, cmd, main)
            return cpu, failure
        return op

    def e2e_op(cmd):
        _, cpu, failure = session.run_subprocess(ROOT, cmd, env)
        return cpu, failure

    composition = {c: sum(x.name == c for x in items) for c in session.COMMAND_NAMES}
    return Workload("cli_session", items, composition, make_op, e2e_op)


def make_workload(name, seed):
    """Build the workload's inputs from the seed (timed as sampling.pool_gen_s).

    cli_session's commands are fixed, because their outputs are pinned by the
    goldens; the seed only names the run.
    """
    start = time.perf_counter()
    if name == "classify_pool":
        wl = classify_workload(seed, pools.classify_pool(seed))
    elif name == "dynamics_pool":
        wl = dynamics_workload(pools.dynamics_pool(seed))
    else:
        wl = cli_workload(session.commands(ROOT, OUT / "tmp"))
    wl.pool_gen_s = time.perf_counter() - start
    return wl


# --- runs ---------------------------------------------------------------------


def end_to_end(wl, seconds, tally, record):
    metrics = {"setup_s": setup_seconds(wl.name)}
    wl.e2e_op(wl.items[0])  # warm-up, untimed and unchecked
    samples, rounds = run_rounds(wl.items, wl.e2e_op, seconds, tally)
    metrics.update(summarize(samples))
    # cli_session's work happens in its children (the set-up probes among them)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_session" else resource.RUSAGE_SELF
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    record["rounds"] = rounds
    record["per_item_median_ms"] = [statistics.median(s) * 1e3 for s in samples]
    return metrics


SELF_TIMED = (
    "matcore.herm_eig", "matcore.svd3", "fano.validate", "fano.decompose", "fano.normal_form",
    "classify.classify", "classify.separable_ppt", "classify.zero_discord_a",
    "classify.lazy_by_parallelism", "classify.is_product", "classify.pure_schmidt",
    "dynamics.random_hamiltonian", "dynamics.entropy_rate_at_zero",
)
COUNTED = ("matcore.herm_eig", "matcore.svd3", "fano.validate", "dynamics.random_hamiltonian")


def span_metrics(tracer, rounds, couplings, classified):
    totals = tracer.totals()
    ops, op_ns, _ = totals[spans.ROOT]
    none = (0, 0, 0)
    m = {}
    for name in COUNTED:
        m[f"{name}.calls_per_op"] = totals.get(name, none)[0] / ops
    for name in SELF_TIMED:
        calls, _, self_ns = totals.get(name, none)
        m[f"{name}.self_us"] = self_ns / calls / 1e3 if calls else 0.0
    m["matcore.herm_eig.share"] = totals.get("matcore.herm_eig", none)[2] / op_ns

    physical = [c for c in classified if c.physical]
    m["classify.gray_zone_rate"] = (
        sum(c.lazy_gray_zone for c in physical) / len(physical) if physical else 0.0
    )
    m["classify.zero_discord_hits"] = sum(bool(c.zero_discord_a) for c in classified) / rounds
    m["dynamics.coupling_reuse"] = (
        (len(couplings) - len(set(couplings))) / len(couplings) if couplings else 0.0
    )
    check_ns = totals.get("dynamics.laziness_dynamics_check", none)[1]
    under = tracer.inclusive_under("classify.classify", "dynamics.laziness_dynamics_check")
    m["dynamics.classify_share"] = under / check_ns if check_ns else 0.0
    return m


def traced(wl, seconds, tally, record):
    plain_op = wl.make_op(lambda fn: fn)
    plain_op(wl.items[0])  # warm-up
    couplings, classified = [], []
    tracer = spans.Tracer({
        "dynamics.random_hamiltonian": lambda a, kw, r: couplings.append(r.seed),
        "classify.classify": lambda a, kw, r: classified.append(r),
    })
    traced_op = wl.make_op(tracer.op)
    plain = [[] for _ in wl.items]
    samples = [[] for _ in wl.items]
    # untraced and traced passes alternate, so that drift in machine speed
    # does not show up as tracing overhead
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        run_pass(wl.items, plain_op, plain, tally)
        tracer.install()
        try:
            run_pass(wl.items, traced_op, samples, tally)
        finally:
            tracer.uninstall()
        rounds += 1
    span_file = OUT / f"spans_{wl.name}_seed{record['seed']}.jsonl.gz"
    tracer.write(span_file)
    record["span_file"] = str(span_file.relative_to(ROOT))
    record["spans"] = len(tracer.spans)

    m = span_metrics(tracer, rounds, couplings, classified)
    untraced_rate = summarize(plain)["ops_per_s"]
    traced_rate = summarize(samples)["ops_per_s"]
    m["trace.untraced_ops_per_s"] = untraced_rate
    m["trace.traced_ops_per_s"] = traced_rate
    m["trace.overhead"] = untraced_rate / traced_rate - 1.0
    m["sampling.pool_gen_s"] = wl.pool_gen_s
    m.update(layers.layer_metrics(ROOT, OUT / "tmp", tally))
    m["error_rate"] = tally.failed / tally.attempted
    return m


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def main(argv=None):
    parser = argparse.ArgumentParser(description="lazystates benchmark: one workload per run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": _loadavg(),
    }
    tally = Tally()
    wl = make_workload(args.workload, args.seed)
    record["composition"] = wl.composition
    start, cpu = time.perf_counter(), time.process_time() + session.children_cpu()
    metrics = (traced if args.trace else end_to_end)(wl, args.seconds, tally, record)
    # wall / CPU well above 1 means the run waited for the CPU (steal, neighbours)
    record["wall_s"] = time.perf_counter() - start
    record["cpu_s"] = time.process_time() + session.children_cpu() - cpu
    record["loadavg_end"] = _loadavg()

    note, late = wl.final_check()
    record["verdict_record"] = note
    problems = [] if late is None else [late]
    for name in (m["name"] for m in wanted if m["name"] not in metrics):
        metrics[name] = 0.0
        problems.append(f"metric {name} was not measured")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record["failures"] = tally.failures + problems
    record["result"] = result
    out_file = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"run record: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
