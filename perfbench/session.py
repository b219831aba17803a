"""The cli_session command list, run as fresh processes or in-process.

Each command's output is checked: byte-equality with the goldens under
`tests/golden/`, or the SHA-256 digest that the census and slice CSVs had
when this benchmark was defined.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CENSUS_SAMPLES = 1_000_000
CENSUS_SHA256 = "121eb88b78356fe2a0b6b2a999a052ede4453644a18da7c2394402d65aa9f1b4"
SLICE_SHA256 = "a6f193714f00528bae581777842ed02478df8c07a0b50a42537e2770bb9e3374"

# metric-name stem per command; family runs twice (stdout, then --out)
COMMAND_NAMES = ("classify", "normal_form", "family", "dynamics_check", "census", "slice")


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    golden: str | None = None  # file under tests/golden/ that stdout must equal
    sha256: str | None = None  # digest stdout must have
    out_file: str | None = None  # file the command writes, must equal `golden`


def commands(root: Path, out_dir: Path):
    bell = str(root / "tests" / "fixtures" / "bell.json")
    family = ("family", "lazy-discordant", "--y1", "0.5", "--l2", "0.3", "--l3", "0.4")
    out = str(out_dir / "family_out.json")
    return [
        Command("classify", ("classify", bell), golden="classify_bell.txt"),
        Command("normal_form", ("normal-form", bell), golden="normal_form_bell.txt"),
        Command("family", family, golden="family_lazy_discordant.txt"),
        Command("family", family + ("--out", out), golden="family_lazy_discordant.txt",
                out_file=out),
        Command("dynamics_check", ("dynamics-check", bell, "--hamiltonians", "5", "--seed", "3"),
                golden="dynamics_bell.txt"),
        Command("census", ("bd", "census", "--samples", str(CENSUS_SAMPLES), "--seed", "7"),
                sha256=CENSUS_SHA256),
        Command("slice", ("bd", "slice", "--axis", "3", "--value", "0", "--grid", "401"),
                sha256=SLICE_SHA256),
    ]


def check(root: Path, cmd: Command, code: int, stdout: str) -> str | None:
    """None when the command's exit code and output are right, else why not."""
    if code != 0:
        return f"exit code {code}"
    if cmd.out_file is not None:
        if stdout:
            return "stdout not empty with --out"
        stdout = Path(cmd.out_file).read_text(encoding="utf-8")
    if cmd.golden is not None:
        if stdout != (root / "tests" / "golden" / cmd.golden).read_text(encoding="utf-8"):
            return f"output differs from {cmd.golden}"
    if cmd.sha256 is not None:
        if hashlib.sha256(stdout.encode()).hexdigest() != cmd.sha256:
            return "output digest differs"
        if cmd.name == "census":
            counts = [int(line.split(",")[1]) for line in stdout.splitlines()[2:]]
            if sum(counts) != CENSUS_SAMPLES:
                return "census counts do not sum to --samples"
    return None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def children_cpu() -> float:
    """CPU seconds (user + system) of every waited-for child so far."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_subprocess(root: Path, cmd: Command, env: dict):
    """Run one command as `python -m lazystates`.

    Returns (wall seconds, CPU seconds of the child, failure or None).
    """
    if cmd.out_file is not None:
        Path(cmd.out_file).unlink(missing_ok=True)
    cpu = children_cpu()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lazystates", *cmd.argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, children_cpu() - cpu, "timed out after 120 s"
    wall = time.perf_counter() - start
    return wall, children_cpu() - cpu, check(root, cmd, proc.returncode, proc.stdout)


def run_inprocess(root: Path, cmd: Command, main):
    """Run one command through `cli.main(argv)` with output captured.

    Returns (wall seconds, CPU seconds, failure or None).
    """
    if cmd.out_file is not None:
        Path(cmd.out_file).unlink(missing_ok=True)
    buf = io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(cmd.argv))
    except (Exception, SystemExit) as exc:  # argparse exits; count it, keep running
        return time.perf_counter() - start, time.process_time() - cpu, f"raised {exc!r}"
    wall = time.perf_counter() - start
    return wall, time.process_time() - cpu, check(root, cmd, code, buf.getvalue())
