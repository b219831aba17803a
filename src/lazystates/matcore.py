"""Dense complex-matrix kernels for 2-qubit states.

Everything here works on plain numpy arrays (complex128 for operators,
float64 for the real 3x3 correlation blocks).  Hermitian eigenproblems go to
LAPACK through numpy's eigh, except qubit marginals, whose spectrum has a
closed form.  The one hand-written solver left is svd3, a one-sided Jacobi
SVD kept for the local normal form: LAPACK's choice of singular vectors for
repeated singular values depends on the build, and normal-form output pins
those vectors.  Both solvers raise ValueError on non-finite input.
"""

from __future__ import annotations

import math

import numpy as np

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

# Jacobi sweeps converge quadratically; 3x3 inputs need ~5 sweeps, the large
# limit only guards against a genuinely broken input.
_SWEEP_LIMIT = 60


def kron(a, b):
    """Kronecker product, coerced to complex."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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


def is_hermitian(m, tol: float = 1e-12) -> bool:
    """True when ||m - m†||_F <= tol * max(1, ||m||_F)."""
    return hermiticity_residual(m) <= tol * max(1.0, frob_norm(m))


def _as_4x4(m):
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def partial_trace_b(m):
    """Trace out the second qubit: out[i,j] = sum_k m[(i,k),(j,k)]."""
    return np.einsum("ikjk->ij", _as_4x4(m).reshape(2, 2, 2, 2))


def partial_trace_a(m):
    """Trace out the first qubit: out[k,l] = sum_i m[(i,k),(i,l)]."""
    return np.einsum("ikil->kl", _as_4x4(m).reshape(2, 2, 2, 2))


def partial_transpose_b(m):
    """Transpose the second-qubit indices; involutive, Hermiticity-preserving."""
    return _as_4x4(m).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def swap_subsystems(m):
    """Exchange the two qubits: out[(k,i),(l,j)] = m[(i,k),(j,l)]."""
    m = _as_4x4(m)
    perm = [0, 2, 1, 3]
    return m[np.ix_(perm, perm)]


def _require_finite(m, who):
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{who}: input has non-finite entries")


def herm_eig(m, tol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix by LAPACK (numpy eigh).

    Returns (w, v) with w real ascending and m = v @ diag(w) @ v†.

    Raises ValueError when m has a non-finite entry or is not Hermitian
    within tol * max(1, ||m||_F).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    _require_finite(m, "herm_eig")
    if not is_hermitian(m, tol):
        raise ValueError("herm_eig: input is not Hermitian within tolerance")
    return np.linalg.eigh(m)


def qubit_spectrum(m):
    """Eigenvalues ((1 - |x|)/2, (1 + |x|)/2) of a qubit state m = (I + x.s)/2.

    The closed form needs no eigensolve and gives exactly (1/2, 1/2) when
    the Bloch vector x rounds to zero, so entropies of nearly maximally mixed
    marginals do not pick up solver noise.  m must be Hermitian with unit
    trace; only m[0, 1] and the diagonal are read.
    """
    m = np.asarray(m, dtype=complex)
    r = math.hypot(float((m[0, 0] - m[1, 1]).real), 2.0 * abs(m[0, 1]))
    return np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])


def svd3(t):
    """SVD of a real 3x3 matrix by one-sided Jacobi.

    Returns (u, s, v) with s nonnegative descending and t = u @ diag(s) @ v.T.
    u and v are orthogonal (not necessarily special orthogonal); columns of u
    belonging to zero singular values are completed deterministically from
    the coordinate axes.
    """
    w = np.array(t, dtype=float)
    if w.shape != (3, 3):
        raise ValueError(f"expected a 3x3 real matrix, got shape {w.shape}")
    _require_finite(w, "svd3")
    with np.errstate(over="ignore"):
        gram = float(np.sum(w * w))
    # an overflowing Gram sum would turn the rotation angles into 0/0
    if not math.isfinite(gram):
        raise ValueError("svd3: input too large, its squared norm overflows")
    v = np.eye(3)
    # absolute floor anchored to the input scale, or the parallel leftovers
    # of a rank-deficient input cascade through denormals forever
    gram_floor = 1e-28 * gram
    for _ in range(_SWEEP_LIMIT):
        converged = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gii = float(w[:, i] @ w[:, i])
            gjj = float(w[:, j] @ w[:, j])
            gij = float(w[:, i] @ w[:, j])
            # the relative threshold sits well above the cancellation noise
            # of the Gram dot products, or near-degenerate columns never settle
            if abs(gij) <= max(1e-14 * math.sqrt(gii * gjj), gram_floor):
                continue
            converged = False
            zeta = (gjj - gii) / (2.0 * gij)
            if zeta == 0.0:
                tt = 1.0
            else:
                tt = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            cs = 1.0 / math.sqrt(1.0 + tt * tt)
            sn = cs * tt
            wi = w[:, i].copy()
            w[:, i] = cs * wi - sn * w[:, j]
            w[:, j] = sn * wi + cs * w[:, j]
            vi = v[:, i].copy()
            v[:, i] = cs * vi - sn * v[:, j]
            v[:, j] = sn * vi + cs * v[:, j]
        if converged:
            break
    else:
        raise RuntimeError("svd3: Jacobi sweeps did not converge")

    s = np.sqrt(np.sum(w * w, axis=0))
    order = np.argsort(-s, kind="stable")
    s = s[order]
    w = w[:, order]
    v = v[:, order]
    u = np.zeros((3, 3))
    cutoff = 1e-13 * max(1.0, float(s[0]))
    for k in range(3):
        if s[k] > cutoff:
            u[:, k] = w[:, k] / s[k]
        else:
            s[k] = 0.0
            for e in np.eye(3):
                cand = e - sum((u[:, m] @ e) * u[:, m] for m in range(k))
                nn = float(np.linalg.norm(cand))
                if nn > 0.5:
                    u[:, k] = cand / nn
                    break
    return u, s, v


def det3(m) -> float:
    """Determinant of a real 3x3 matrix (closed form)."""
    m = np.asarray(m, dtype=float)
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def herm_exp(h, t: float):
    """Unitary e^{-i h t} of a Hermitian h, via its eigendecomposition."""
    w, v = herm_eig(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T
