import warnings

import numpy as np
import pytest

from lazystates.matcore import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    det3,
    frob_norm,
    herm_eig,
    herm_exp,
    is_hermitian,
    kron,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_b,
    qubit_spectrum,
    svd3,
    swap_subsystems,
)
from lazystates.sampling import ginibre_state, random_hermitian


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
    w, _ = herm_eig(partial_transpose_b(bell_phi_plus))
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


def test_herm_eig_examples(bell_phi_plus):
    w, _ = herm_eig(np.eye(4, dtype=complex))
    assert np.allclose(w, [1, 1, 1, 1])
    w, _ = herm_eig(np.diag([4.0, 1.0, 3.0, 2.0]).astype(complex))
    assert np.allclose(w, [1, 2, 3, 4])
    w, _ = herm_eig(bell_phi_plus)
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-14)


def test_herm_eig_round_trip_1000_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        m = random_hermitian(rng)
        w, v = herm_eig(m)
        assert np.all(np.diff(w) >= 0)
        recon = (v * w) @ v.conj().T
        assert frob_norm(recon - m) <= 1e-10 * max(1.0, frob_norm(m))


def test_herm_eig_matches_reference_solver():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = random_hermitian(rng)
        w, v = herm_eig(m)
        assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-12)
        assert frob_norm(v.conj().T @ v - np.eye(4)) <= 1e-12


def test_herm_eig_two_by_two():
    m = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    w, v = herm_eig(m)
    assert np.allclose(w, np.linalg.eigvalsh(m), atol=1e-14)
    assert frob_norm((v * w) @ v.conj().T - m) <= 1e-14


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kernels_reject_non_finite(bad):
    m = np.eye(4, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        herm_eig(m)
    t = np.eye(3)
    t[0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        svd3(t)


@pytest.mark.parametrize("lower", [1e200, -1e200])
def test_herm_eig_rejects_an_overflowing_norm(lower):
    # Hermitian or not, a norm that overflows to inf would admit any residual
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1], m[1, 0] = 1e200, lower
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not is_hermitian(m)
        with pytest.raises(ValueError, match="overflows"):
            herm_eig(m)


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


def test_herm_eig_deterministic():
    rng = np.random.default_rng(29)
    m = random_hermitian(rng)
    w1, v1 = herm_eig(m)
    w2, v2 = herm_eig(m.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


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


def test_herm_exp_examples():
    h = np.diag([0.3, -0.1, 0.7, 0.2]).astype(complex)
    assert np.allclose(herm_exp(h, 0.0), np.eye(4))
    assert np.allclose(herm_exp(np.eye(4, dtype=complex), np.pi), -np.eye(4), atol=1e-14)
    u = herm_exp(kron(SIGMA_Z, I2), np.pi / 2)
    phases = np.exp(-1j * np.pi / 2 * np.array([1, 1, -1, -1]))
    assert np.allclose(u, np.diag(phases), atol=1e-14)


def test_herm_exp_unitary_inverse():
    rng = np.random.default_rng(43)
    for _ in range(30):
        h = random_hermitian(rng)
        t = rng.uniform(-2, 2)
        u = herm_exp(h, t)
        assert frob_norm(u @ u.conj().T - np.eye(4)) <= 1e-10
        assert frob_norm(herm_exp(h, t) @ herm_exp(h, -t) - np.eye(4)) <= 1e-10


def test_commutator_and_norm():
    assert np.allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z)
    assert frob_norm(np.zeros((4, 4))) == 0.0
    assert abs(frob_norm(np.eye(4)) - 2.0) <= 1e-15
