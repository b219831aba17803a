import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal

import numpy as np
import pytest

from lazystates.classify import WITNESS_KEYS, classify
from lazystates.dynamics import laziness_dynamics_check
from lazystates.fano import (
    FanoParams,
    compose,
    decompose,
    gate,
    normal_form,
)
from lazystates.matcore import (
    I2,
    PAULIS,
    InvalidArgument,
    det3,
    kron,
)
from oracles import frob_norm, numpy_on_openblas_x86_64
from runners import run_process
from sampling import ginibre_state, random_product_state


def pauli_traces_reference(rho):
    """Direct evaluation of the nine correlation traces plus Bloch vectors."""
    x = np.array([np.trace(rho @ kron(s, I2)).real for s in PAULIS])
    y = np.array([np.trace(rho @ kron(I2, s)).real for s in PAULIS])
    t = np.array(
        [[np.trace(rho @ kron(si, sj)).real for sj in PAULIS] for si in PAULIS]
    )
    return x, y, t


def test_decompose_maximally_mixed(maximally_mixed):
    p = decompose(maximally_mixed)
    assert np.allclose(p.x, 0)
    assert np.allclose(p.y, 0)
    assert np.allclose(p.t, 0)


def test_decompose_bell(bell_phi_plus):
    p = decompose(bell_phi_plus)
    x_ref, y_ref, t_ref = pauli_traces_reference(bell_phi_plus)
    assert np.allclose(p.x, x_ref, atol=1e-14)
    assert np.allclose(p.y, y_ref, atol=1e-14)
    assert np.allclose(p.t, t_ref, atol=1e-14)
    assert np.allclose(p.t, np.diag([1.0, -1.0, 1.0]), atol=1e-14)
    assert np.allclose(p.x, 0, atol=1e-14)


def test_decompose_product_rule():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-0.5, 0.5, 3)
        b = rng.uniform(-0.5, 0.5, 3)
        rho_a = (I2 + sum(a[i] * PAULIS[i] for i in range(3))) / 2
        rho_b = (I2 + sum(b[i] * PAULIS[i] for i in range(3))) / 2
        p = decompose(kron(rho_a, rho_b))
        assert np.allclose(p.x, a, atol=1e-13)
        assert np.allclose(p.y, b, atol=1e-13)
        assert np.allclose(p.t, np.outer(a, b), atol=1e-13)


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        decompose(np.triu(np.ones((4, 4))).astype(complex))
    with pytest.raises(ValueError):
        decompose(np.eye(4, dtype=complex) / 2)


def test_compose_identities(maximally_mixed):
    assert np.allclose(compose(FanoParams(np.zeros(3), np.zeros(3), np.zeros((3, 3)))),
                       maximally_mixed)
    # diagonal t reproduces the Bell-diagonal construction
    lam = (0.3, -0.2, 0.5)
    rho = compose(FanoParams(np.zeros(3), np.zeros(3), np.diag(lam)))
    expected = np.eye(4, dtype=complex)
    for i in range(3):
        expected = expected + lam[i] * kron(PAULIS[i], PAULIS[i])
    assert np.allclose(rho, expected / 4, atol=1e-14)


def test_round_trip_1000_random_states():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rho = ginibre_state(rng)
        p = decompose(rho)
        # physical states have subunit Bloch vectors
        assert np.linalg.norm(p.x) <= 1 + 1e-9
        assert np.linalg.norm(p.y) <= 1 + 1e-9
        assert frob_norm(compose(p) - rho) <= 1e-12
        q = decompose(compose(p))
        assert np.max(np.abs(q.x - p.x)) <= 1e-12
        assert np.max(np.abs(q.y - p.y)) <= 1e-12
        assert np.max(np.abs(q.t - p.t)) <= 1e-12


def test_validate_examples(maximally_mixed):
    # the gate's report, as classify returns it in diagnostics
    assert classify(maximally_mixed).physical
    # lam = (1,1,1) has eigenvalue (1-3)/4 = -1/2
    cls = classify(compose(FanoParams(np.zeros(3), np.zeros(3), np.eye(3))))
    assert not cls.physical
    assert abs(cls.diagnostics["min_eigenvalue"] + 0.5) <= 1e-12
    # lam = (1,1,-1) is a pure vertex with spectrum (0,0,1,0)
    cls = classify(compose(FanoParams(np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, -1.0]))))
    assert cls.physical
    assert abs(cls.witnesses["purity"] - 1.0) <= 1e-12


@pytest.mark.parametrize("entry", [1e200, 1.7e308])
def test_validate_reports_an_overflowing_state_unphysical(entry):
    # the norm overflows (and at 1.7e308 so does rho + rho†), yet classify
    # reports the minimum eigenvalue -entry of the Hermitian matrix, silently
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = rho[1, 0] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = classify(rho)
    assert not cls.physical
    assert cls.diagnostics["min_eigenvalue"] == pytest.approx(-entry, rel=1e-12)


@pytest.mark.parametrize("lower", [1e200, -1e200])
def test_hermiticity_rule_rejects_an_overflowing_norm(lower):
    # Hermitian or not, a norm that overflows to inf would admit any residual
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1], m[1, 0] = 1e200, lower
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = gate(m, "test")
    assert g.norm == math.inf and not g.hermitian(1e-12) and not g.physical(1e-12)


def _trace_off():
    return np.eye(4, dtype=complex) / 4.0 * 1.001


def _negative_eigenvalue():
    return np.diag([0.501, 0.5, 0.0, -0.001]).astype(complex)


def _not_hermitian():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1] = 1e-3  # ||rho||_F <= 1, so the residual meets tol unscaled
    return rho


# each of the gate's three rows at its threshold: the state passes at a tol
# equal to the row's number and fails one float below it
@pytest.mark.parametrize(
    "make,row",
    [
        (_trace_off, "trace_deviation"),
        (_negative_eigenvalue, "min_eigenvalue"),
        (_not_hermitian, "hermiticity_residual"),
    ],
)
def test_each_gate_row_flips_exactly_at_tol(make, row):
    rho = make()
    tol = abs(classify(rho).diagnostics[row])
    assert 0.0 < tol < 1.0
    assert classify(rho, tol).physical
    assert not classify(rho, math.nextafter(tol, 0.0)).physical


# every public entry that takes a 4x4 state, called as its callers do
GATED_ENTRIES = {
    "decompose": decompose,
    # the gate read for its Hermitian part, as the normal-form command runs it
    "certify": lambda rho: gate(rho, "certify").certified("certify"),
    "classify": classify,
    "laziness_dynamics_check": lambda rho: laziness_dynamics_check(rho, 2),
}
# the functions that classify replaced keep their rows, each run exactly as
# the classify row: validate's report is classify's diagnostics, and what
# each other function returned is one of classify's witnesses
REPLACED_BY_CLASSIFY = (
    "validate", "lazy_by_commutator", "is_product", "separable_ppt", "pure_schmidt",
)


def _malformed(kind):
    if kind == "3x3":
        return np.eye(3, dtype=complex) / 3.0
    rho = np.eye(4, dtype=complex) / 4.0
    if kind in ("nan", "inf", "-inf"):
        rho[1, 1] = float(kind)
    elif kind == "1j*inf":
        # a Hermitian pair: rho - rho† is inf - inf at [0, 1] and [1, 0]
        rho[0, 1] = complex(0.0, math.inf)
        rho[1, 0] = rho[0, 1].conjugate()
    elif kind == "1e200":
        rho[0, 1] = rho[1, 0] = 1e200
    elif kind == "anti_hermitian":
        rho[0, 1], rho[1, 0] = 1e-6, -1e-6
    else:  # trace 1.1
        rho *= 1.1
    return rho


# (min eigenvalue, trace deviation) of the unphysical inputs, and decompose's
# finer message for each
UNPHYSICAL = {
    "1e200": ("-1.000e+200", "0.000e+00", "matrix too large, its norm overflows"),
    "anti_hermitian": ("2.500e-01", "0.000e+00", "matrix is not Hermitian within 1e-09"),
    "trace_1.1": ("2.750e-01", "1.000e-01", "matrix trace deviates from 1 beyond 1e-09"),
}


# every non-finite kind makes ||rho||_F non-finite, which sends the gate to
# its finiteness scan; no RuntimeWarning (an error in this suite) escapes
NON_FINITE = ("nan", "inf", "-inf", "1j*inf")


@pytest.mark.parametrize(
    "kind", ["3x3", *NON_FINITE, "1e200", "anti_hermitian", "trace_1.1"]
)
@pytest.mark.parametrize("entry", list(GATED_ENTRIES) + list(REPLACED_BY_CLASSIFY))
def test_every_entry_judges_a_malformed_state_by_one_gate(entry, kind):
    rho = _malformed(kind)
    who = "classify" if entry in REPLACED_BY_CLASSIFY else entry
    if kind in UNPHYSICAL and who == "classify":
        # classify reports an unphysical state, with no witness, rather than raise
        cls = classify(rho)
        report = cls.diagnostics
        assert not cls.physical
        assert (
            f"{report['min_eigenvalue']:.3e}", f"{report['trace_deviation']:.3e}"
        ) == UNPHYSICAL[kind][:2]
        assert cls.witnesses == dict.fromkeys(WITNESS_KEYS)
        return
    if kind == "3x3":
        message = "expected a 4x4 matrix, got shape (3, 3)"
    elif kind in NON_FINITE:
        message = f"{who}: input has non-finite entries"
    elif who == "decompose":
        message = f"decompose: {UNPHYSICAL[kind][2]}"
    else:
        min_eig, tdev, _ = UNPHYSICAL[kind]
        message = f"{who}: unphysical state (min eigenvalue {min_eig}, trace deviation {tdev})"
    with pytest.raises(ValueError) as exc:
        GATED_ENTRIES[who](rho)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def _assert_rejected(call, bad):
    with pytest.raises(InvalidArgument) as exc:
        call()
    assert str(exc.value) == f"classify: tol must lie in (0, 1) (got {bad!r})"


# a string, None, a bool or a Decimal is refused by the same rule, not by a
# failed comparison or a failed product with a norm
@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, -1.0, 0.0, "0.1", None, True, Decimal("0.1")]
)
def test_library_calls_reject_a_tolerance_that_is_not_finite_and_positive(bell_phi_plus, bad):
    _assert_rejected(lambda: classify(bell_phi_plus, tol=bad), bad)
    _assert_rejected(lambda: classify(np.eye(4) / 4.0, bad), bad)


# classify checks tol before the gate reads the state: a bad tol is
# reported, not a bad shape, a non-finite entry or a string
@pytest.mark.parametrize(
    "rho,bad", [(np.eye(3), 2.0), (np.full((4, 4), math.nan), 0.0), ("a", None)]
)
def test_classify_checks_tol_before_it_reads_the_state(rho, bad):
    _assert_rejected(lambda: classify(rho, bad), bad)


@pytest.mark.parametrize("bad", [1.0, 1e300])
def test_a_state_tolerance_of_one_or_more_is_rejected(bell_phi_plus, bad):
    # at tol >= 1 the gate's trace row cannot tell trace 0 from 1: the zero
    # matrix would pass as a state, the Bell state as separable with zero discord
    _assert_rejected(lambda: classify(np.zeros((4, 4)), tol=bad), bad)
    _assert_rejected(lambda: classify(bell_phi_plus, tol=bad), bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["x", "y", "t"])
def test_fano_params_rejects_non_finite_entries(field, bad):
    # the one check that normal_form and compose rely on: no parameter set
    # they take holds a NaN or inf
    parts = {"x": np.zeros(3), "y": np.zeros(3), "t": np.eye(3)}
    parts[field].flat[1] = bad
    with pytest.raises(ValueError) as exc:
        FanoParams(**parts)
    assert str(exc.value) == "FanoParams: input has non-finite entries"


def test_the_largest_tolerance_below_one_is_a_tolerance(bell_phi_plus):
    tol = math.nextafter(1.0, 0.0)
    assert classify(bell_phi_plus, tol).separable
    assert not classify(np.zeros((4, 4)), tol).physical


@pytest.mark.parametrize("call", [compose, normal_form])
@pytest.mark.parametrize("bad", [None, np.eye(4) / 4.0, (np.zeros(3), np.zeros(3), np.eye(3))])
def test_fano_calls_reject_anything_but_fano_params(call, bad):
    with pytest.raises(InvalidArgument) as exc:
        call(bad)
    assert str(exc.value) == f"{call.__name__}: p must be a FanoParams (got {bad!r})"


@pytest.mark.parametrize("field", ["x", "y", "t"])
def test_fano_params_store_read_only_copies(field, bell_phi_plus):
    # a NaN written into decompose's t once reached the zero-discord SVD
    with pytest.raises(ValueError):
        getattr(decompose(bell_phi_plus), field)[0] = math.nan
    parts = {"x": np.zeros(3), "y": np.zeros(3), "t": np.eye(3)}
    p = FanoParams(**parts)
    with pytest.raises(ValueError):
        getattr(p, field)[0] = math.nan
    # the caller's array stays writable, and writing it leaves p alone
    parts[field][0] = 0.25
    assert not np.any(getattr(p, field)[0] == 0.25)


def test_normal_form_examples():
    p = FanoParams(np.zeros(3), np.zeros(3), np.diag([3.0, 1.0, 2.0]))
    nf = normal_form(p)
    assert np.allclose(nf.sigma, [1, 2, 3], atol=1e-12)

    x = np.array([0.3, -0.2, 0.1])
    nf = normal_form(FanoParams(x, np.zeros(3), np.zeros((3, 3))))
    assert np.allclose(nf.sigma, 0)
    assert abs(np.linalg.norm(nf.x_rot) - np.linalg.norm(x)) <= 1e-12

    nf = normal_form(FanoParams(np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0])))
    assert np.allclose(nf.sigma, [1, 1, 1], atol=1e-12)
    assert abs(np.prod(nf.d) + 1.0) <= 1e-12


def test_normal_form_invariants_random():
    rng = np.random.default_rng(13)
    for _ in range(300):
        rho = ginibre_state(rng)
        p = decompose(rho)
        nf = normal_form(p)
        assert frob_norm(nf.o_a @ p.t @ nf.o_b.T - np.diag(nf.d)) <= 1e-10
        assert abs(det3(nf.o_a) - 1.0) <= 1e-12
        assert abs(det3(nf.o_b) - 1.0) <= 1e-12
        assert np.allclose(
            nf.sigma, np.sort(np.linalg.svd(p.t, compute_uv=False)), atol=1e-10
        )
        assert np.all(np.diff(nf.sigma) >= -1e-15)
        assert abs(np.linalg.norm(nf.x_rot) - np.linalg.norm(p.x)) <= 1e-12
        assert abs(np.linalg.norm(nf.y_rot) - np.linalg.norm(p.y)) <= 1e-12
        assert abs(np.prod(nf.d) - det3(p.t)) <= 1e-10


def test_normal_form_preserves_spectrum():
    # the rotated parameter set is a genuine local-unitary image of the state
    rng = np.random.default_rng(19)
    for _ in range(200):
        rho = ginibre_state(rng)
        p = decompose(rho)
        nf = normal_form(p)
        rotated = compose(FanoParams(nf.x_rot, nf.y_rot, np.diag(nf.d)))
        w_ref, _ = np.linalg.eigh(rho)
        w_rot, _ = np.linalg.eigh(rotated)
        assert np.max(np.abs(w_ref - w_rot)) <= 1e-10


def test_laziness_invariant_under_normal_form():
    rng = np.random.default_rng(101)
    states = [ginibre_state(rng) for _ in range(800)]
    states += [random_product_state(rng) for _ in range(200)]
    for rho in states:
        p = decompose(rho)
        nf = normal_form(p)
        rotated = compose(FanoParams(nf.x_rot, nf.y_rot, np.diag(nf.d)))
        assert classify(rho).lazy_a == classify(rotated).lazy_a


_DIGEST_CHILD = """
import hashlib, sys
import numpy as np
from lazystates.fano import FanoParams, normal_form
from lazystates.matcore import svd3
h = hashlib.sha256()
for r in np.load(sys.argv[1]):
    p = FanoParams(r[:3], r[3:6], r[6:])
    h.update(repr([a.tolist() for a in svd3(p.t)]).encode())
    nf = normal_form(p)
    h.update(repr([nf.x_rot.tolist(), nf.y_rot.tolist(), nf.d.tolist(),
                   nf.o_a.tolist(), nf.o_b.tolist()]).encode())
print(h.hexdigest())
"""


@pytest.mark.skipif(
    not numpy_on_openblas_x86_64(), reason="needs numpy on OpenBLAS, x86-64"
)
def test_normal_form_bytes_do_not_depend_on_the_openblas_kernel(tmp_path):
    # OpenBLAS picks its kernel at run time; Prescott's ddot and dgemv round
    # differently from the newer kernels, so any BLAS call left in svd3 or
    # normal_form changes the digest
    rng = np.random.default_rng(61)
    rows = []
    for _ in range(64):
        qa, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        qb, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = rng.uniform(0, 1)
        a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        for t in (
            qa @ np.diag([1.0, s, -s]) @ qb.T,  # pure state: repeated sigma
            np.outer(a, b),  # product state: rank 1
            rng.uniform(-1, 1, (3, 3)),
        ):
            rows.append(np.concatenate([a, b, t.ravel()]))
    inputs = tmp_path / "fano.npy"
    np.save(inputs, np.array(rows))

    def digest(**env):
        child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        result = subprocess.run(
            [sys.executable, "-c", _DIGEST_CHILD, str(inputs)],
            capture_output=True, text=True, env={**child_env, **env},
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    assert digest(OPENBLAS_CORETYPE="Prescott") == digest()


@pytest.mark.skipif(
    not numpy_on_openblas_x86_64(), reason="needs numpy on OpenBLAS, x86-64"
)
@pytest.mark.parametrize("state", ["bell", "maximally_mixed"])
def test_classify_goldens_hold_under_the_prescott_kernel(state):
    # every classify verdict and witness comes from LAPACK (eigh, and gesdd
    # for zero discord) or a closed form; the goldens were recorded under
    # SkylakeX, whose kernels round differently from Prescott's
    here = os.path.dirname(os.path.abspath(__file__))
    result = run_process(
        "classify", os.path.join(here, "fixtures", f"{state}.json"),
        env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
    )
    assert result.returncode == 0, result.stderr
    with open(os.path.join(here, "golden", f"classify_{state}.txt")) as golden:
        assert result.stdout == golden.read()
