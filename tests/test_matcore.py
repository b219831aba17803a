import math

import numpy as np
import pytest

from lazystates.matcore import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    det3,
    frobenius_norm,
    kron,
    svd3,
)
from oracles import (
    commutator,
    frob_norm,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_b,
    qubit_spectrum,
    swap_subsystems,
)
from sampling import ginibre_state, random_hermitian


def test_kron_identities():
    assert np.allclose(kron(I2, I2), np.eye(4))
    assert np.allclose(kron(SIGMA_Z, I2), np.diag([1, 1, -1, -1]))
    # hand expansion of the 2x2 blocks: sigma_x tensor sigma_x is the
    # anti-diagonal of ones
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert np.allclose(kron(SIGMA_X, SIGMA_X), expected)


def test_partial_trace_b_product(bell_phi_plus, maximally_mixed):
    rng = np.random.default_rng(3)
    rho_a = ginibre_state(rng)[:2, :2]
    rho_a /= np.trace(rho_a)
    rho_b = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]], dtype=complex)
    assert np.allclose(partial_trace_b(kron(rho_a, rho_b)), rho_a, atol=1e-12)
    assert np.allclose(partial_trace_b(bell_phi_plus), I2 / 2, atol=1e-12)
    assert np.allclose(partial_trace_b(maximally_mixed), I2 / 2, atol=1e-12)
    assert np.allclose(partial_trace_a(kron(rho_a, rho_b)), rho_b, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = random_hermitian(rng)
        assert abs(np.trace(partial_trace_b(m)) - np.trace(m)) <= 1e-12
        assert abs(np.trace(partial_trace_a(m)) - np.trace(m)) <= 1e-12


def test_partial_transpose_basics(bell_phi_plus):
    d = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    assert np.allclose(partial_transpose_b(d), d)
    rho_a = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    rho_b = np.array([[0.5, 0.1 + 0.3j], [0.1 - 0.3j, 0.5]])
    assert np.allclose(
        partial_transpose_b(kron(rho_a, rho_b)), kron(rho_a, rho_b.T), atol=1e-13
    )
    # Bell state: swapped matrix has minimum eigenvalue -1/2
    w, _ = np.linalg.eigh(partial_transpose_b(bell_phi_plus))
    assert abs(w[0] + 0.5) <= 1e-12
    assert np.allclose(w, np.linalg.eigvalsh(partial_transpose_b(bell_phi_plus)))


def test_partial_transpose_involution_and_hermiticity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_hermitian(rng)
        pt = partial_transpose_b(m)
        assert np.allclose(partial_transpose_b(pt), m)
        assert frob_norm(pt - pt.conj().T) <= 1e-13
        assert abs(np.trace(pt) - np.trace(m)) <= 1e-13


def test_swap_subsystems():
    rho_a = np.array([[0.6, 0.2j], [-0.2j, 0.4]])
    rho_b = np.array([[0.5, 0.1 + 0.3j], [0.1 - 0.3j, 0.5]])
    assert np.allclose(swap_subsystems(kron(rho_a, rho_b)), kron(rho_b, rho_a))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernels_reject_non_finite(bad):
    t = np.eye(3)
    t[0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        svd3(t)


def test_qubit_spectrum_matches_reference_1000_random():
    rng = np.random.default_rng(47)
    for k in range(1000):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        if k % 10 == 0:
            g[:, 1] = 0.0  # pure states: the (1 - |x|)/2 end sits at 0
        m = g @ g.conj().T
        m /= np.trace(m).real
        assert np.max(np.abs(qubit_spectrum(m) - np.linalg.eigvalsh(m))) <= 1e-14
    assert np.array_equal(qubit_spectrum(I2 / 2), [0.5, 0.5])


def test_svd3_examples():
    u, s, v = svd3(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(s, [3, 2, 1])
    u, s, v = svd3(np.zeros((3, 3)))
    assert np.allclose(s, 0)
    assert np.allclose(u.T @ u, np.eye(3))
    assert np.allclose(v.T @ v, np.eye(3))
    # sign flips leave the singular values at the absolute diagonal values
    u, s, v = svd3(np.diag([1.0, -1.0, 1.0]))
    assert np.allclose(s, [1, 1, 1], atol=1e-14)


def test_svd3_random_properties():
    rng = np.random.default_rng(31)
    for k in range(300):
        t = rng.uniform(-1, 1, (3, 3))
        if k % 4 == 0:
            t = np.diag(rng.uniform(-1, 1, 3))
        if k % 9 == 0:
            t[:, int(rng.integers(3))] = 0.0
        u, s, v = svd3(t)
        assert np.all(np.diff(s) <= 1e-15)
        assert np.all(s >= 0)
        assert frob_norm(u.T @ u - np.eye(3)) <= 1e-12
        assert frob_norm(v.T @ v - np.eye(3)) <= 1e-12
        assert frob_norm(u @ np.diag(s) @ v.T - t) <= 1e-12
        assert np.allclose(s, np.linalg.svd(t, compute_uv=False), atol=1e-12)


def test_svd3_orthogonal_invariance():
    rng = np.random.default_rng(37)
    t = rng.uniform(-1, 1, (3, 3))
    _, s_ref, _ = svd3(t)
    for _ in range(20):
        g = rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        _, s_left, _ = svd3(q @ t)
        _, s_right, _ = svd3(t @ q)
        assert np.allclose(s_left, s_ref, atol=1e-12)
        assert np.allclose(s_right, s_ref, atol=1e-12)


def test_det3_matches_reference():
    rng = np.random.default_rng(41)
    for _ in range(50):
        m = rng.uniform(-2, 2, (3, 3))
        assert abs(det3(m) - np.linalg.det(m)) <= 1e-12


def test_commutator_and_norm():
    assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
    assert frob_norm(np.zeros((4, 4))) == 0.0
    assert abs(frob_norm(np.eye(4)) - 2.0) <= 1e-15


def test_frobenius_norm_sums_the_reals_without_a_warning():
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert abs(frobenius_norm(m) - frob_norm(m)) <= 1e-15 * frob_norm(m)
        r = m.reshape(2, 2, 2, 2)
        assert frobenius_norm(r) == frobenius_norm(m)
    assert frobenius_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    # a sum of squares that overflows, or meets NaN, comes back as inf or
    # NaN, and no RuntimeWarning (an error in this suite) is raised
    assert frobenius_norm(np.full((4, 4), 1e200, dtype=complex)) == math.inf
    m = np.eye(4, dtype=complex)
    m[0, 1] = complex(math.nan, math.inf)
    assert math.isnan(frobenius_norm(m))


# svd3(t) by repr: the sweep and the completion call no BLAS, so these bytes
# hold under every OpenBLAS kernel
SVD3_PINNED = [
    (
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        "([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0, 0.0], "
        "[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])",
    ),
    (
        # rank 1: the outer product of (0.6, -0.8, 0) and (0.3, 0.4, -0.5)
        [[0.18, 0.24, -0.3], [-0.24, -0.32, 0.4], [0.0, 0.0, 0.0]],
        "([[0.6, 0.7999999999999999, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]], "
        "[0.7071067811865475, 0.0, 0.0], "
        "[[0.42426406871192845, 0.8, 0.42426406871192845], "
        "[0.565685424949238, -0.6, 0.565685424949238], "
        "[-0.7071067811865475, 0.0, 0.7071067811865475]])",
    ),
    (
        # R diag(1, 1/2, -1/2) R^T for a rotation R: a repeated singular value
        [[0.3344, -0.2208, 0.432], [-0.2208, 0.2056, 0.576], [0.432, 0.576, 0.46]],
        "([[0.36, 0.7999999999999999, -0.4800000000000001], "
        "[0.48, -0.6000000000000001, -0.64], [0.8, 1.1102230246251565e-16, 0.6]], "
        "[1.0, 0.5, 0.49999999999999994], "
        "[[0.36, 0.8, 0.48], [0.48, -0.6, 0.6400000000000001], [0.8, 0.0, -0.6]])",
    ),
    (
        # det = -0.465
        [[0.2, -0.7, 0.1], [0.5, 0.3, -0.4], [-0.6, 0.1, -0.8]],
        "([[0.43246143749438687, -0.4852549217975771, 0.7599373434379414], "
        "[-0.1676230467919375, 0.7848661368644507, 0.5965632082082007], "
        "[-0.8859343199495527, -0.3853735954560204, 0.2580844293265732]], "
        "[1.0729671410145825, 0.753783397012356, 0.5749366092809762], "
        "[[0.49791026738010746, 0.6986174588529577, 0.5138278036689974], "
        "[-0.41157211194839877, 0.7118768188565463, -0.5690692325552477], "
        "[0.7633438034750819, -0.07186821940551938, -0.6419822402026986]])",
    ),
]


@pytest.mark.parametrize(
    "t,expected", SVD3_PINNED, ids=["zero", "rank_1", "repeated", "det_negative"]
)
def test_svd3_pinned_reprs(t, expected):
    u, s, v = svd3(t)
    assert repr((u.tolist(), s.tolist(), v.tolist())) == expected


def test_svd3_scale_sweep():
    # random, rank-1 and repeated-singular-value inputs from 1e-300 to 1e152:
    # the thresholds of an unscaled sweep underflow below about 1e-80 (no
    # convergence) and overflow above about 1e80 (no rotation at all)
    rng = np.random.default_rng(59)
    for k, exponent in enumerate(range(-300, 153, 2)):
        if k % 3 == 0:
            t = rng.uniform(-1, 1, (3, 3))
        elif k % 3 == 1:
            t = np.outer(rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
        else:
            qa, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            qb, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            t = qa @ np.diag([1.0, 0.5, -0.5]) @ qb.T
        t = t * 10.0**exponent
        u, s, v = svd3(t)
        s_ref = np.linalg.svd(t, compute_uv=False)
        assert frob_norm(u.T @ u - np.eye(3)) <= 1e-12, exponent
        assert frob_norm(v.T @ v - np.eye(3)) <= 1e-12, exponent
        # singular values at or below 1e-13 * max(1, s[0]) come out as 0
        zeroed = s == 0.0
        assert np.all(s_ref[zeroed] <= 1.01e-13 * max(1.0, s_ref[0])), exponent
        assert np.all(np.abs(s - s_ref)[~zeroed] <= 1e-12 * s_ref[0]), exponent
