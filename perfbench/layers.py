"""Layer microbenchmarks reported by every traced run.

These time single layers that the workloads' spans do not isolate: census
and slice throughput (with `workers=2` next to `workers=1`, so ROADMAP item 5
can decide whether `--workers` stays), CSV formatting, state-file I/O,
interpreter start-up and import, and each CLI command both in-process and
as a fresh process.  Every output they produce is checked as in the
workloads, and counted in the same tally.
"""

from __future__ import annotations

import hashlib
import importlib
import statistics
import subprocess
import sys
import time
from pathlib import Path

import session

SLICE = (3, 0.0, 401)


def _median_seconds(fn, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _census(belldiag, tally, metrics):
    bd = belldiag.bd_census
    reports = {}
    # w1 and w2 alternate so that drift in neighbour load hits both alike
    for samples, reps, stem in ((1_000_000, 3, "census"), (4_000_000, 2, "census_4m")):
        times = {1: [], 2: []}
        for _ in range(reps):
            for workers in (1, 2):
                start = time.perf_counter()
                reports[samples, workers] = bd(samples, 7, workers=workers)
                times[workers].append(time.perf_counter() - start)
        metrics[f"belldiag.{stem}.samples_per_s"] = samples / statistics.median(times[1])
        metrics[f"belldiag.{stem}.w2_samples_per_s"] = samples / statistics.median(times[2])
    for (samples, workers), rep in reports.items():
        ok = sum(rep.counts.values()) == samples and rep.counts == reports[samples, 1].counts
        tally.add(None if ok else f"census({samples}, workers={workers}) counts wrong")
    rep = reports[1_000_000, 1]
    csv_s, text = _median_seconds(lambda: belldiag.census_to_csv(rep), 200)
    ok = hashlib.sha256(text.encode()).hexdigest() == session.CENSUS_SHA256
    tally.add(None if ok else "census_to_csv output digest differs")
    metrics["belldiag.census_to_csv_us"] = csv_s * 1e6
    metrics["belldiag.census.boundary_hits"] = rep.boundary_hits


def _slice(belldiag, tally, metrics):
    grid = SLICE[2]
    slice_s, sl = _median_seconds(lambda: belldiag.bd_slice(*SLICE), 3)
    csv_s, text = _median_seconds(lambda: belldiag.slice_to_csv(sl), 3)
    ok = hashlib.sha256(text.encode()).hexdigest() == session.SLICE_SHA256
    tally.add(None if ok else "slice_to_csv output digest differs")
    metrics["belldiag.slice.points_per_s"] = grid * grid / slice_s
    metrics["belldiag.slice_to_csv.lines_per_s"] = (grid * grid + 1) / csv_s


def _stateio(root, out_dir, tally, metrics):
    stateio = importlib.import_module("lazystates.stateio")
    bell = root / "tests" / "fixtures" / "bell.json"
    load_s, rho = _median_seconds(lambda: stateio.load_state_file(bell), 200)
    target = out_dir / "saved_state.json"
    save_s, _ = _median_seconds(lambda: stateio.save_state_file(target, rho), 200)
    ok = abs(stateio.load_state_file(target) - rho).max() == 0.0
    tally.add(None if ok else "state file did not round-trip")
    metrics["stateio.load_state_file_us"] = load_s * 1e6
    metrics["stateio.save_state_file_us"] = save_s * 1e6


def _process(env, code, tally):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    tally.add(None if proc.returncode == 0 else f"python -c {code!r} exited {proc.returncode}")
    return time.perf_counter() - start


def _cli(root, out_dir, tally, metrics):
    cli = importlib.import_module("lazystates.cli")
    env = session.child_env(root)
    metrics["cli.python_bare_s"] = statistics.median(
        [_process(env, "pass", tally) for _ in range(5)]
    )
    metrics["cli.import_s"] = statistics.median(
        [_process(env, "import lazystates", tally) for _ in range(5)]
    )
    inproc = {name: [] for name in session.COMMAND_NAMES}
    fresh = {name: [] for name in session.COMMAND_NAMES}
    cmds = session.commands(root, out_dir)
    for _ in range(2):
        for cmd in cmds:
            wall, _, failure = session.run_inprocess(root, cmd, cli.main)
            inproc[cmd.name].append(wall)
            tally.add(failure)
        for cmd in cmds:
            wall, _, failure = session.run_subprocess(root, cmd, env)
            fresh[cmd.name].append(wall)
            tally.add(failure)
    for name in session.COMMAND_NAMES:
        metrics[f"cli.{name}.inproc_s"] = statistics.median(inproc[name])
        metrics[f"cmd.{name}_s"] = statistics.median(fresh[name])


def src_lines(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((root / "src").rglob("*.py"))
    )


def layer_metrics(root: Path, out_dir: Path, tally) -> dict:
    """Metrics of every layer suite; a suite that raises is counted as failed."""
    belldiag = importlib.import_module("lazystates.belldiag")
    metrics = {"src.lines": src_lines(root)}
    suites = (
        lambda: _census(belldiag, tally, metrics),
        lambda: _slice(belldiag, tally, metrics),
        lambda: _stateio(root, out_dir, tally, metrics),
        lambda: _cli(root, out_dir, tally, metrics),
    )
    for suite in suites:
        try:
            suite()
        except Exception as exc:  # keep measuring the other layers
            tally.add(f"layer suite raised {exc!r}")
    return metrics
