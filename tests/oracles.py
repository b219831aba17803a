"""Reference computations that the tests hold the package against."""

import math
import platform

import numpy as np

from lazystates.fano import FanoParams
from lazystates.families import check_separable_params
from lazystates.matcore import I2, PAULIS, kron, partial_trace_b

# σ_i ⊗ I, i = x, y, z: the observables of the first qubit's Bloch vector
SIGMA_A = np.array([kron(s, I2) for s in PAULIS])

# the four pure Bell states, the vertices of the physical tetrahedron
TETRA_VERTICES = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]
)


def frob_norm(m) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(m)))


def commutator(a, b):
    """[a, b] = ab - ba."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return a @ b - b @ a


def hermiticity_residual(m) -> float:
    """Frobenius norm of m - m†."""
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(m - m.conj().T))


def discord_svd(m):
    """(sigma_2, n) of the 3x4 matrix m = [x | t], by classify's LAPACK call.

    A 2-qubit state has zero discord with respect to A exactly when m has
    rank at most one (Dakić, Vedral, Brukner, PRL 105, 190502, 2010), so
    the witness is sigma_2(m).  The measurement direction of a zero-discord
    state is the leading left singular vector n of m: the projective pinch
    along n,

        rho -> (P0@I) rho (P0@I) + (P1@I) rho (P1@I),  P± = (I ± n.s)/2,

    moves rho by exactly 0.5 * hypot(sigma_2, sigma_3) in Frobenius norm
    (pinch_residual).
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return float(s[1]), u[:, 0]


def partial_trace_a(m):
    """Trace out the first qubit: out[k,l] = sum_i m[(i,k),(i,l)]."""
    return np.einsum("ikil->kl", np.asarray(m).reshape(2, 2, 2, 2))


def product_residual_reference(rho):
    """||rho - rho_A@rho_B||_F from the 4x4 matrices: the marginals by
    partial traces, their Kronecker product, the norm of the difference."""
    return frob_norm(rho - kron(partial_trace_b(rho), partial_trace_a(rho)))


def partial_transpose_b(m):
    """Transpose the second-qubit indices; involutive, Hermiticity-preserving."""
    return np.asarray(m, dtype=complex).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def ppt_reference(herm):
    """(negativity, min eigenvalue) of the partial transpose of an exactly
    Hermitian herm, by its own eigh call: the magnitudes of the negative
    eigenvalues summed by numpy, and the smallest eigenvalue."""
    w = np.linalg.eigh(partial_transpose_b(herm))[0]
    return float(np.abs(w[w < 0.0]).sum()), float(w[0])


def purity_reference(rho):
    """tr rho^2 as the 4x4 product's trace."""
    return float(np.einsum("ij,ji->", rho, rho).real)


def qubit_spectrum(m):
    """Eigenvalues ((1 - |x|)/2, (1 + |x|)/2) of a qubit state m = (I + x.s)/2.

    The closed form needs no eigensolve and gives exactly (1/2, 1/2) when
    the Bloch vector x rounds to zero.  m must be Hermitian with unit trace;
    only m[0, 1] and the diagonal are read.
    """
    m = np.asarray(m, dtype=complex)
    r = math.hypot(float((m[0, 0] - m[1, 1]).real), 2.0 * abs(m[0, 1]))
    return np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])


def bd_spectrum(lam):
    """Closed-form eigenvalues of the Bell-diagonal state.

    (1 - l1 + l2 + l3, 1 + l1 - l2 + l3, 1 + l1 + l2 - l3, 1 - l1 - l2 - l3)/4.
    """
    l1, l2, l3 = np.asarray(lam, dtype=float).reshape(3)
    return 0.25 * np.array(
        [1 - l1 + l2 + l3, 1 + l1 - l2 + l3, 1 + l1 + l2 - l3, 1 - l1 - l2 - l3]
    )


def lazy_discordant_spectrum(q):
    """Closed-form eigenvalues (1 ± sqrt(y1^2 + (l3 ± l2)^2)) / 4 of the
    lazy-discordant state of LazyDiscordantParams q.

    Order: plus/minus of the (l3+l2) branch, then of the (l3-l2) branch.
    Valid for any parameter triple; positivity holds exactly on the family's
    admissible region.
    """
    s_plus = math.hypot(q.y1, q.lambda3 + q.lambda2)
    s_minus = math.hypot(q.y1, q.lambda3 - q.lambda2)
    return 0.25 * np.array([1 + s_plus, 1 - s_plus, 1 + s_minus, 1 - s_minus])


def separable_fano(s):
    """Closed-form Pauli parameters of the separable mixture of
    SeparableFamilyParams s (middle column of t is zero)."""
    check_separable_params(s)
    p, q = s.p, 1.0 - s.p
    sa, ca = math.sin(s.alpha), math.cos(s.alpha)
    sb, cb = math.sin(s.beta), math.cos(s.beta)
    x = np.array([q * sa, 0.0, p + q * ca])
    y = np.array([q * s.b * sb, 0.0, p * s.a + q * s.b * cb])
    t = np.zeros((3, 3))
    t[:, 0] = (s.b * q * sa * sb, 0.0, s.b * q * ca * sb)
    t[:, 2] = (s.b * q * sa * cb, 0.0, s.a * p + s.b * q * ca * cb)
    return FanoParams(x=x, y=y, t=t)


def fresh_coupling(seed):
    """The seeded unit-spectral-norm coupling, built from scratch.

    A Gaussian-ensemble Hermitian 4x4 from default_rng(seed), divided by its
    largest absolute eigenvalue, as the dynamics check builds it.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    w, _ = np.linalg.eigh(h)
    return h / max(abs(w[0]), abs(w[-1]))


def entropy2_reference(marginal):
    """Base-2 von Neumann entropy of a qubit state, eigenvalues <= 1e-12 dropped."""
    return _entropy2(qubit_spectrum(marginal))


def _entropy2(w):
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def entropy_rate_reference(rho, h, step):
    """Central-difference d/dt of the first-qubit entropy at t = 0 under the
    Hermitian coupling h, one coupling at a time.

    The rate arithmetic of the uncached implementation: a fresh eigensolve
    and propagator per rate, einsum partial traces, the marginal spectrum by
    qubit_spectrum.  The dynamics check reads the marginals another way
    (entropy_rate_heisenberg_reference), so its rates differ from these by
    rounding only: by at most 1e-13/step.
    """
    w, v = np.linalg.eigh(h)
    u_plus = (v * np.exp(-1j * w * step)) @ v.conj().T
    s_plus = entropy2_reference(partial_trace_b(u_plus @ rho @ u_plus.conj().T))
    u_minus = u_plus.conj().T
    s_minus = entropy2_reference(partial_trace_b(u_minus @ rho @ u_minus.conj().T))
    return (s_plus - s_minus) / (2.0 * step)


def heisenberg_rows(u):
    """(6, 32) real rows: applied to rho.view(float).ravel(), rows 0-2 give
    the first-qubit Bloch vector of u rho u† and rows 3-5 that of u† rho u.

    x_i = tr(a_i rho) with a_i = u†(σ_i⊗I)u, resp. u(σ_i⊗I)u†; for a
    Hermitian rho that is the real inner product of a_i's and rho's 32 reals.
    """
    u_dag = u.conj().T
    a = np.concatenate([u_dag @ SIGMA_A @ u, u @ SIGMA_A @ u_dag])
    return a.view(float).reshape(6, 32)


def entropy_rate_heisenberg_reference(rho, h, step):
    """Central-difference d/dt of the first-qubit entropy at t = 0 under the
    Hermitian coupling h, read in the Heisenberg picture, one coupling at a time.

    The rate arithmetic of the dynamics check, from scratch: a fresh
    eigensolve and propagator, heisenberg_rows contracted with rho's 32
    reals by einsum, the radius |x| by einsum, and the entropy of the
    spectrum (1 ∓ |x|)/2.  The dynamics check must give these bits.
    """
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * step)) @ v.conj().T
    rho = np.ascontiguousarray(rho, dtype=complex)
    x = np.einsum("kj,j->k", heisenberg_rows(u), rho.view(float).ravel()).reshape(2, 3)
    s_plus, s_minus = (
        _entropy2(np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0]))
        for r in np.sqrt(np.einsum("ki,ki->k", x, x)).tolist()
    )
    return (s_plus - s_minus) / (2.0 * step)


def numpy_on_openblas_x86_64():
    """True where numpy runs on OpenBLAS on x86-64, so that a child process
    can pick another OpenBLAS kernel with OPENBLAS_CORETYPE."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no mode="dicts"
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def pinch_residual(rho, n):
    """||rho - (P0@I) rho (P0@I) - (P1@I) rho (P1@I)||_F, P± = (I ± n.s)/2.

    The change that measuring the first qubit along the unit vector n makes
    to rho: zero exactly when rho is classical on A in that basis, i.e. has
    zero discord with respect to A, with n its measurement direction.
    """
    n_sigma = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    pi0 = kron((I2 + n_sigma) / 2.0, I2)
    pi1 = kron((I2 - n_sigma) / 2.0, I2)
    return frob_norm(rho - pi0 @ rho @ pi0 - pi1 @ rho @ pi1)


def schmidt_lazy(rho, tol):
    """Laziness of a pure state rho from its Schmidt coefficients.

    A pure state is lazy exactly when it is product or maximally entangled,
    i.e. its Schmidt coefficients are (1, 0) or (1/sqrt2, 1/sqrt2).  The
    rule reads their squares, the marginal's eigenvalues, which are well
    conditioned where the square roots are not.
    """
    w = np.clip(qubit_spectrum(partial_trace_b(rho)), 0.0, None)
    return bool(w[0] <= tol or (abs(w[0] - 0.5) <= tol and abs(w[1] - 0.5) <= tol))
