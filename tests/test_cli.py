import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lazystates
from runners import run_cli, run_process

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


@pytest.mark.parametrize(
    "args,golden",
    [
        (("classify", str(FIXTURES / "bell.json")), "classify_bell.txt"),
        (
            ("classify", str(FIXTURES / "maximally_mixed.json")),
            "classify_maximally_mixed.txt",
        ),
        (("normal-form", str(FIXTURES / "bell.json")), "normal_form_bell.txt"),
        (("bd", "slice", "--axis", "3", "--value", "0", "--grid", "5"),
         "slice_a3_v0_g5.csv"),
        (("bd", "census", "--samples", "50000", "--seed", "7"),
         "census_s7_n50000.csv"),
        (("family", "lazy-discordant", "--y1", "0.5", "--l2", "0.3", "--l3", "0.4"),
         "family_lazy_discordant.txt"),
        (
            ("dynamics-check", str(FIXTURES / "bell.json"),
             "--hamiltonians", "5", "--seed", "3"),
            "dynamics_bell.txt",
        ),
    ],
)
def test_golden_outputs(args, golden):
    # one fresh process per command: start-up through `python -m lazystates`
    result = run_process(*args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text()


# SHA-256 of outputs that span several census blocks and labeling chunks,
# recorded before the labeling was split into fixed chunks
@pytest.mark.parametrize(
    "args,digest",
    [
        (("bd", "census", "--samples", "200003", "--seed", "7"),
         "fa3165e3c2b7922c619f575809f4931f27c1a8b12559dd52731ad4e42a95dde2"),
        (("bd", "slice", "--axis", "3", "--value", "0", "--grid", "101"),
         "362e68b23e94b80ec4111b147a3575fdc4116ea934e3c6514118c51c9dcad67c"),
    ],
)
def test_multi_chunk_output_digests(args, digest):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == digest


def test_byte_identical_reruns():
    # fresh processes: each draws its own hash seed
    args = ("bd", "census", "--samples", "20000", "--seed", "13")
    first = run_process(*args)
    second = run_process(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # worker count must not change the counts; that needs no fresh process
    sharded = run_cli(*args, "--workers", "3")
    assert sharded.stdout == first.stdout


def test_classify_verdicts_bell():
    result = run_cli("classify", str(FIXTURES / "bell.json"))
    doc = json.loads(result.stdout)
    assert doc["lazy_a"] is True
    assert doc["zero_discord_a"] is False
    assert doc["separable"] is False
    assert doc["witnesses"]["negativity"] > 0.49
    assert doc["version"] == lazystates.__version__


def test_classify_fano_form_matches_matrix_form():
    a = run_cli("classify", str(FIXTURES / "bell.json"))
    b = run_cli("classify", str(FIXTURES / "bell_fano.json"))
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    for key in ("lazy_a", "zero_discord_a", "separable", "product", "pure"):
        assert da[key] == db[key]


def test_classify_all_true_hierarchy_for_maximally_mixed():
    doc = json.loads(run_cli("classify", str(FIXTURES / "maximally_mixed.json")).stdout)
    assert doc["product"] and doc["zero_discord_a"] and doc["lazy_a"] and doc["separable"]


def test_exit_1_unphysical_trace():
    result = run_cli("classify", str(FIXTURES / "trace_low.json"))
    assert result.returncode == 1
    assert "trace deviation" in result.stderr
    doc = json.loads(result.stdout)
    assert doc["physical"] is False
    assert doc["lazy_a"] is None


def test_near_physical_state_follows_the_tolerance():
    # trace 1 + 1e-7 and Hermiticity residual 4e-8: physical at --tol 1e-6,
    # so every predicate must accept it there, unphysical at the default
    state = str(FIXTURES / "near_physical.json")
    result = run_cli("classify", state, "--tol", "1e-6")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["physical"] is True
    result = run_cli("classify", state)
    assert result.returncode == 1
    assert json.loads(result.stdout)["physical"] is False


@pytest.mark.parametrize(
    "offdiag_10,min_eigenvalue",
    [
        # Hermitian: the eigenvalue -1e200 rejects it
        (1e200, "-1.000e+200"),
        # anti-Hermitian part only: the Hermitian part I/4 is a state, so only
        # the overflowing Hermiticity check can reject it
        (-1e200, "2.500e-01"),
    ],
)
def test_exit_1_overflowing_entries_one_line(tmp_path, offdiag_10, min_eigenvalue):
    matrix = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    matrix[0][1][0], matrix[1][0][0] = 1e200, offdiag_10
    state = tmp_path / "huge.json"
    state.write_text(json.dumps({"matrix": matrix}))
    result = run_cli("classify", str(state))
    assert result.returncode == 1
    assert json.loads(result.stdout)["physical"] is False
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("unphysical state:")
    assert f"min eigenvalue {min_eigenvalue}" in lines[0]
    result = run_cli("normal-form", str(state))
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr == "error: decompose: matrix too large, its norm overflows\n"


def test_normal_form_runs_one_eigensolve(monkeypatch, capsys):
    # decompose's checks and certified's are read off one gate pass
    from lazystates import cli

    calls = []
    eigh = np.linalg.eigh

    def counted(m):
        calls.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert cli.main(["normal-form", str(FIXTURES / "bell.json")]) == 0
    assert (GOLDEN / "normal_form_bell.txt").read_text() == capsys.readouterr().out
    assert len(calls) == 1


def test_exit_1_normal_form_of_unphysical_state():
    # T = 2 I: a well-formed Fano file whose matrix has eigenvalue -5/4
    result = run_cli("normal-form", str(FIXTURES / "unphysical_fano.json"))
    assert result.returncode == 1 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: normal-form: unphysical state")
    assert "min eigenvalue -1.250e+00" in lines[0]


@pytest.mark.parametrize(
    "fixture", ["unphysical_fano.json", "trace_low.json", "near_physical.json"]
)
def test_exit_1_dynamics_check_of_unphysical_state(fixture):
    result = run_cli("dynamics-check", str(FIXTURES / fixture))
    assert result.returncode == 1 and result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith("error: laziness_dynamics_check: unphysical state")


def test_exit_3_solver_runtime_error(monkeypatch, capsys):
    from lazystates import cli, fano

    def no_convergence(t):
        raise RuntimeError("svd3: Jacobi sweeps did not converge")

    monkeypatch.setattr(fano, "svd3", no_convergence)
    assert cli.main(["normal-form", str(FIXTURES / "bell.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: svd3: Jacobi sweeps did not converge\n"


def test_state_far_below_unit_scale():
    # x = y = 0 and T ~ 1e-90: a physical state next to I/4, whose singular
    # values fall below svd3's 1e-13 cutoff and come out as exact zeros
    state = str(FIXTURES / "tiny_fano.json")
    result = run_cli("classify", state)
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    assert doc["zero_discord_a"] is True and doc["lazy_a"] is True
    result = run_cli("normal-form", state)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["sigma"] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "args",
    [
        ("classify", str(FIXTURES / "bell.json")),
        ("bd", "census", "--samples", "1000", "--seed", "1"),
        ("bd", "classify", "--lambda", "0,0,0.5"),
        # argparse prints these itself, before any command runs
        ("--help",),
        ("--version",),
    ],
)
def test_exit_141_when_stdout_is_closed(args):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_process(*args, stdout=write_end)
    finally:
        os.close(write_end)
    assert result.returncode == 141
    assert result.stderr == "error: stdout was closed before the output was written\n"


def test_help_and_version_on_an_open_stdout():
    result = run_cli("--version")
    version = f"{lazystates.__version__}\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, version, "")
    result = run_cli("--help")
    assert result.returncode == 0 and result.stderr == ""
    assert result.stdout.startswith("usage: lazystates [-h] [--version]")


def test_pyproject_reads_the_version_and_installs_cli_main():
    # read as text: Python 3.10 has no tomllib
    text = (HERE.parent / "pyproject.toml").read_text()
    tables = dict(re.findall(r"^\[([\w.]+)\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S))
    # the version is written once, in _version.py
    assert f'"{lazystates.__version__}"' not in text
    assert not re.search(r"^version\s*=", tables["project"], re.M)
    assert 'dynamic = ["version"]' in tables["project"].splitlines()
    dynamic = tables["tool.setuptools.dynamic"].splitlines()
    assert 'version = {attr = "lazystates._version.__version__"}' in dynamic
    # the console script, which CI runs once installed
    scripts = re.findall(r"^(\S+) = \"(.*)\"$", tables["project.scripts"], re.M)
    assert scripts == [("lazystates", "lazystates.cli:main")]


def test_exit_2_parse_errors(tmp_path):
    assert run_cli("classify", str(FIXTURES / "not_json.json")).returncode == 2
    assert run_cli("classify", str(FIXTURES / "malformed.json")).returncode == 2
    assert run_cli("classify", str(FIXTURES / "does_not_exist.json")).returncode == 2
    # nesting past the recursion limit, and bytes that are not UTF-8
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "latin1.json").write_bytes(b'{"matrix": "\xe9"}')
    for name in ("deep.json", "latin1.json"):
        result = run_cli("classify", str(tmp_path / name))
        assert result.returncode == 2
        assert result.stderr.startswith("error: state file ")
        assert result.stderr.count("\n") == 1
    for name in ("nan_matrix.json", "inf_fano.json", "huge_int_fano.json"):
        result = run_cli("classify", str(FIXTURES / name))
        assert result.returncode == 2
        assert result.stderr.strip().endswith("must contain only finite numbers")


def test_exit_2_out_of_memory(monkeypatch, capsys):
    from lazystates import cli

    def too_large(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "bd_slice", too_large)
    argv = ["bd", "slice", "--axis", "3", "--value", "0", "--grid", "1000000"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB\n"


def _usage_error(*args):
    """The CLI's exit code for args, once its stderr is one line and stdout
    empty, and the line names no private helper of the CLI."""
    result = run_cli(*args)
    assert len(result.stderr.splitlines()) == 1 and result.stdout == "", result.stderr
    assert "invalid _" not in result.stderr
    return result.returncode


def test_exit_2_usage_errors():
    # argparse's usage text is left out: a usage error is one stderr line
    assert _usage_error("bd", "slice", "--axis", "5", "--value", "0", "--grid", "4") == 2
    assert _usage_error("bd", "slice", "--axis", "1", "--value", "1.5", "--grid", "4") == 2
    assert _usage_error("bd", "slice", "--axis", "1", "--value", "0", "--grid", "1") == 2
    assert _usage_error("bd", "census", "--samples", "0", "--seed", "1") == 2
    assert _usage_error("bd", "census", "--samples", "10", "--seed", "-1") == 2
    assert _usage_error("bd", "census", "--samples", "abc", "--seed", "1") == 2
    assert _usage_error("bd", "census", "--samples", "10", "--seed", "1", "--workers", "0") == 2
    assert _usage_error("bd", "classify", "--lambda", "0,0") == 2
    for lam in ("0,0,1.5", "nan,0,0"):
        # parsed by the CLI, rejected by the library call
        assert _usage_error("bd", "classify", "--lambda", lam) == 2
        assert "bd_region" in run_cli("bd", "classify", "--lambda", lam).stderr
    bell = str(FIXTURES / "bell.json")
    assert _usage_error("dynamics-check", bell, "--step", "0.01") == 2
    assert "laziness_dynamics_check" in run_cli("dynamics-check", bell, "--step", "0.01").stderr
    assert _usage_error("dynamics-check", bell, "--hamiltonians", "0") == 2
    assert _usage_error("dynamics-check", bell, "--seed", "-1") == 2
    # the step is checked before the state is judged: exit 2, not 1
    assert _usage_error("dynamics-check", str(FIXTURES / "trace_low.json"), "--step", "0.01") == 2
    # a tolerance of 1 or more cannot tell a trace of 0 from one of 1
    for bad in ("nan", "-1", "0", "inf", "1", "1e300"):
        assert _usage_error("classify", bell, "--tol", bad) == 2
    # classify's own rule, as the library raises it
    result = run_cli("classify", bell, "--tol", "2")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: classify: tol must lie in (0, 1) (got 2.0)\n"
    # the fixed thresholds take no flag: argparse names each removed one
    for argv in (
        ("bd", "classify", "--lambda", "0,0,0", "--tol", "1e-9"),
        ("dynamics-check", bell, "--rate-tol", "1e-6"),
        ("dynamics-check", bell, "--nonzero-tol", "1e-3"),
    ):
        assert _usage_error(*argv) == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in run_cli(*argv).stderr
    assert _usage_error("nonsense-command") == 2


@pytest.mark.parametrize(
    "family,out",
    [
        (("lazy-discordant", "--y1", "0.5", "--l2", "0.3", "--l3", "0.4"), "missing/x.json"),
        (("separable", "--p", "0.5", "--alpha", "1", "--beta", "1", "--a", "0", "--b", "1"), "."),
    ],
)
def test_exit_2_out_cannot_be_written(tmp_path, family, out):
    # a missing directory, and a directory in place of a file
    result = run_cli("family", *family, "--out", str(tmp_path / out))
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr.startswith("error: cannot write state file: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr


def test_census_workers_are_capped(monkeypatch, capsys):
    # bd_census owns the cap: the census starts one thread per worker
    from lazystates import belldiag, cli

    argv = ["bd", "census", "--samples", "1", "--seed", "0", "--workers"]
    assert cli.main([*argv, str(belldiag.MAX_WORKERS)]) == 0
    assert capsys.readouterr().err == ""
    labeled = []
    monkeypatch.setattr(belldiag, "_block_points", lambda *block: labeled.append(block))
    assert cli.main([*argv, str(belldiag.MAX_WORKERS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and labeled == []
    err = captured.err.splitlines()
    errors = [line for line in err if "error:" in line]
    assert errors == err == [
        f"error: bd_census: workers must lie in [1, {belldiag.MAX_WORKERS}] "
        f"(got {belldiag.MAX_WORKERS + 1})"
    ]


# calls cli.main in the child and sends itself SIGINT about 1 s later, long
# after the imports, from a timer thread; a child started with SIGINT ignored
# (a background job of a non-interactive shell) gets Python's handler back
# first, as an interactive Ctrl-C would find it
_INTERRUPTED_CHILD = """
import os, signal, sys, threading
from lazystates import cli
signal.signal(signal.SIGINT, signal.default_int_handler)
threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT)).start()
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("workers", ["1", "2"], ids=["workers_1", "workers_2"])
def test_exit_130_when_a_census_is_interrupted(workers):
    # a census of 10**12 samples runs for hours; Ctrl-C must end it with one
    # line, the pool's workers included
    args = ["bd", "census", "--samples", "1000000000000", "--seed", "1", "--workers", workers]
    child = subprocess.Popen(
        [sys.executable, "-c", _INTERRUPTED_CHILD, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = child.communicate(timeout=10)
    finally:
        child.kill()
        child.wait()
    assert (child.returncode, out, err) == (130, "", "error: interrupted\n")


def test_largest_step_is_accepted():
    # step 1e-3, and 19 of these couplings have a computed spectral norm of 1 + 1 ulp
    result = run_cli(
        "dynamics-check", str(FIXTURES / "bell.json"), "--hamiltonians", "50", "--step", "1e-3"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["consistent"] is True


def test_exit_1_family_invariant_violation():
    result = run_cli(
        "family", "lazy-discordant", "--y1", "0.9", "--l2", "0.3", "--l3", "0.4"
    )
    assert result.returncode == 1
    assert "y1^2 + (lambda3 + lambda2)^2" in result.stderr
    result = run_cli(
        "family", "lazy-discordant", "--y1", "nan", "--l2", "0.3", "--l3", "0.4"
    )
    assert result.returncode == 1 and result.stdout == ""
    # (l3 + l2)^2 overflows: still one error line, not a traceback
    result = run_cli(
        "family", "lazy-discordant",
        "--y1", "0.0", "--l2", "1.0", "--l3", "1.3407807929942597e+154",
    )
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("error: positivity bound violated")
    assert len(result.stderr.splitlines()) == 1, result.stderr


def test_exit_3_dynamics_inconsistency():
    # a non-lazy state whose entropy rate under the one coupling of seed 1 is
    # zero: a single sampled coupling misses its laziness defect
    result = run_cli(
        "dynamics-check", str(FIXTURES / "missed_by_one_coupling.json"),
        "--hamiltonians", "1", "--seed", "1",
    )
    assert result.returncode == 3
    doc = json.loads(result.stdout)
    assert doc["consistent"] is False and doc["gray_zone"] is False
    assert "inconsistent" in result.stderr
    assert len(result.stderr.splitlines()) == 1, result.stderr


def test_dynamics_check_consistent_for_nonlazy_witness():
    result = run_cli(
        "dynamics-check", str(FIXTURES / "generic_nonlazy.json"),
        "--hamiltonians", "5", "--seed", "1",
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["lazy"] is False and doc["consistent"] is True
    assert doc["max_abs_rate"] > 1e-3


def test_bd_classify_labels():
    assert run_cli("bd", "classify", "--lambda", "0,0,0.5").stdout.strip() == "zero_discord"
    assert (
        run_cli("bd", "classify", "--lambda", "0.3,0.2,0.1").stdout.strip()
        == "lazy_separable_discordant"
    )
    assert (
        run_cli("bd", "classify", "--lambda", "0.5,0.5,-0.5").stdout.strip()
        == "lazy_entangled"
    )
    assert run_cli("bd", "classify", "--lambda", "1,1,1").stdout.strip() == "unphysical"


def test_family_roundtrip_through_classify(tmp_path):
    out = tmp_path / "state.json"
    result = run_cli(
        "family", "lazy-discordant", "--y1", "0.5", "--l2", "0.3", "--l3", "0.4",
        "--out", str(out),
    )
    assert result.returncode == 0 and out.exists()
    # save_state_file writes the bytes the command prints to stdout
    assert out.read_bytes() == (GOLDEN / "family_lazy_discordant.txt").read_bytes()
    doc = json.loads(run_cli("classify", str(out)).stdout)
    assert doc["lazy_a"] is True and doc["zero_discord_a"] is False

    out2 = tmp_path / "sep.json"
    result = run_cli(
        "family", "separable", "--p", "0.5", "--alpha", "3.141592653589793",
        "--beta", "0.5", "--a", "0.3", "--b", "0.7", "--out", str(out2),
    )
    assert result.returncode == 0
    doc = json.loads(run_cli("classify", str(out2)).stdout)
    assert doc["zero_discord_a"] is True and doc["separable"] is True

    out3 = tmp_path / "notlazy.json"
    result = run_cli(
        "family", "separable", "--p", "0.5", "--alpha", "1.5707963267948966",
        "--beta", "1.5707963267948966", "--a", "0", "--b", "1", "--out", str(out3),
    )
    assert result.returncode == 0
    doc = json.loads(run_cli("classify", str(out3)).stdout)
    assert doc["lazy_a"] is False and doc["separable"] is True


def test_census_header_carries_provenance():
    result = run_cli("bd", "census", "--samples", "1000", "--seed", "5")
    header = result.stdout.splitlines()[0]
    assert header.startswith("#")
    assert "seed=5" in header and "samples=1000" in header
    assert f"version={lazystates.__version__}" in header
    assert result.stdout.splitlines()[1] == "label,count,fraction,stderr"


def test_slice_csv_shape():
    result = run_cli("bd", "slice", "--axis", "1", "--value", "0.5", "--grid", "2")
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "i,j,l_free1,l_free2,label"
    assert len(lines) == 5
