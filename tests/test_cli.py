import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lazystates", *args],
        capture_output=True,
        text=True,
    )


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
    result = run_cli(*args)
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
    args = ("bd", "census", "--samples", "20000", "--seed", "13")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    # worker count must not change the counts
    sharded = run_cli(*args, "--workers", "3")
    assert sharded.stdout == first.stdout


def test_classify_verdicts_bell():
    result = run_cli("classify", str(FIXTURES / "bell.json"))
    doc = json.loads(result.stdout)
    assert doc["lazy_a"] is True
    assert doc["zero_discord_a"] is False
    assert doc["separable"] is False
    assert doc["witnesses"]["negativity"] > 0.49
    assert doc["version"] == "0.1.0"


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


def test_exit_2_parse_errors():
    assert run_cli("classify", str(FIXTURES / "not_json.json")).returncode == 2
    assert run_cli("classify", str(FIXTURES / "malformed.json")).returncode == 2
    assert run_cli("classify", str(FIXTURES / "does_not_exist.json")).returncode == 2
    for name in ("nan_matrix.json", "inf_fano.json", "huge_int_fano.json"):
        result = run_cli("classify", str(FIXTURES / name))
        assert result.returncode == 2
        assert result.stderr.strip().endswith("must contain only finite numbers")


def test_exit_2_usage_errors():
    assert run_cli("bd", "slice", "--axis", "5", "--value", "0", "--grid", "4").returncode == 2
    assert run_cli("bd", "slice", "--axis", "1", "--value", "1.5", "--grid", "4").returncode == 2
    assert run_cli("bd", "slice", "--axis", "1", "--value", "0", "--grid", "1").returncode == 2
    assert run_cli("bd", "census", "--samples", "0", "--seed", "1").returncode == 2
    assert run_cli("bd", "census", "--samples", "10", "--seed", "-1").returncode == 2
    assert run_cli("bd", "classify", "--lambda", "0,0").returncode == 2
    assert run_cli("bd", "classify", "--lambda", "0,0,1.5").returncode == 2
    assert run_cli("bd", "classify", "--lambda", "nan,0,0").returncode == 2
    assert run_cli("bd", "classify", "--lambda", "0,0,0", "--tol", "nan").returncode == 2
    bell = str(FIXTURES / "bell.json")
    assert run_cli("dynamics-check", bell, "--step", "0.01").returncode == 2
    for bad in ("nan", "-1", "0", "inf"):
        assert run_cli("classify", bell, "--tol", bad).returncode == 2
    assert run_cli("dynamics-check", bell, "--rate-tol", "nan").returncode == 2
    assert run_cli("dynamics-check", bell, "--nonzero-tol", "-1").returncode == 2
    assert run_cli("nonsense-command").returncode == 2


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
    # an impossible nonzero threshold makes the non-lazy witness "fail" the
    # self test deterministically
    result = run_cli(
        "dynamics-check", str(FIXTURES / "generic_nonlazy.json"),
        "--hamiltonians", "3", "--seed", "1", "--nonzero-tol", "1e9",
    )
    assert result.returncode == 3
    doc = json.loads(result.stdout)
    assert doc["consistent"] is False and doc["gray_zone"] is False
    assert "inconsistent" in result.stderr


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
    assert "seed=5" in header and "samples=1000" in header and "version=0.1.0" in header
    assert result.stdout.splitlines()[1] == "label,count,fraction,stderr"


def test_slice_csv_shape():
    result = run_cli("bd", "slice", "--axis", "1", "--value", "0.5", "--grid", "2")
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "i,j,l_free1,l_free2,label"
    assert len(lines) == 5
