"""Dense complex-matrix kernels for 2-qubit states.

Everything here works on plain numpy arrays (complex128 for operators,
float64 for the real 3x3 correlation blocks).  One kernel policy: every
verdict comes from LAPACK or from a closed form.  Every Hermitian
eigenproblem goes to LAPACK through numpy's eigh, on a matrix that is finite
and exactly Hermitian by construction (the state gate's Hermitian part, its
partial transpose, a seeded coupling), except qubit marginals, whose
spectrum has a closed form; the zero-discord rank test takes numpy's LAPACK
SVD.  The one hand-written solver is svd3, a one-sided Jacobi SVD that
serves only the local normal form: when singular values repeat, the
singular vectors are not unique, and normal-form output pins the choice.
svd3 makes that choice in CPython float arithmetic with math.sqrt and
math.hypot, calling neither BLAS nor LAPACK, so it is the same whichever
kernel OpenBLAS picks at run time; it raises ValueError on non-finite input.
Only the second qubit is traced out here: classify reads purity and the
product residual off the Fano coefficients instead.
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
    """Kronecker product of two matrices, coerced to complex: np.kron's
    products, in one broadcast multiply without its any-rank bookkeeping."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


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


def _hermiticity(m, tol):
    """(||m - m†||_F, ||m||_F, verdict) under the one Hermiticity rule:
    ||m||_F is finite and ||m - m†||_F <= tol * max(1, ||m||_F).  A norm
    that overflows to inf would admit any residual, so it fails.
    """
    with np.errstate(over="ignore"):
        res, norm = hermiticity_residual(m), frob_norm(m)
    return res, norm, norm < np.inf and res <= tol * max(1.0, norm)


def _as_4x4(m):
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def partial_trace_b(m):
    """Trace out the second qubit: out[i,j] = sum_k m[(i,k),(j,k)]."""
    return np.einsum("ikjk->ij", _as_4x4(m).reshape(2, 2, 2, 2))


def partial_transpose_b(m):
    """Transpose the second-qubit indices; involutive, Hermiticity-preserving."""
    return _as_4x4(m).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def swap_subsystems(m):
    """Exchange the two qubits: out[(k,i),(l,j)] = m[(i,k),(j,l)]."""
    m = _as_4x4(m)
    perm = [0, 2, 1, 3]
    return m[np.ix_(perm, perm)]


def _require_finite(m, who):
    if not np.isfinite(m).all():
        raise ValueError(f"{who}: input has non-finite entries")


class InvalidArgument(ValueError):
    """An argument outside its range, named as `<function>: <argument> ...`;
    each library entry raises it before it reads a state or starts work."""


def _require_tol(value, who, name, below=math.inf):
    # a state tolerance >= 1 cannot tell a trace, eigenvalue or lambda 0 from 1
    if not 0.0 < value < below:
        rule = "be a finite number > 0" if below == math.inf else f"lie in (0, {below:g})"
        raise InvalidArgument(f"{who}: {name} must {rule} (got {value!r})")


def dot3(a, b) -> float:
    """a . b of two 3-sequences of floats, summed left to right from +0.0.

    Starting at +0.0, as BLAS does, makes a sum of negative zeros +0.0.
    """
    return 0.0 + a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def svd3(t):
    """SVD of a real 3x3 matrix by one-sided Jacobi.

    Returns (u, s, v) with s nonnegative descending and t = u @ diag(s) @ v.T.
    u and v are orthogonal (not necessarily special orthogonal); columns of u
    belonging to zero singular values, those at or below
    1e-13 * max(1, s[0]), are completed deterministically from the
    coordinate axes.

    The sweep and the completion run on Python float lists, one per column,
    with every dot product summed left to right: the result depends on
    CPython float arithmetic, math.sqrt and math.hypot, not on BLAS.  The
    columns are first scaled by the power of two that brings the largest
    entry into [1/2, 1), which is exact, so the rotation thresholds neither
    underflow nor overflow and a unit-scale input keeps every bit.
    """
    w = np.array(t, dtype=float)
    if w.shape != (3, 3):
        raise ValueError(f"expected a 3x3 real matrix, got shape {w.shape}")
    _require_finite(w, "svd3")
    with np.errstate(over="ignore"):
        gram = float(np.sum(w * w))
    # the singular values are formed back at the input's scale, where a
    # squared norm that overflows would make them inf
    if not math.isfinite(gram):
        raise ValueError("svd3: input too large, its squared norm overflows")
    scale = math.frexp(float(np.max(np.abs(w))))[1]
    w = np.ldexp(w, -scale)
    # absolute floor anchored to the input scale, or the parallel leftovers
    # of a rank-deficient input cascade through denormals forever
    gram_floor = 1e-28 * float(np.sum(w * w))
    w = w.T.tolist()
    v = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    for _ in range(_SWEEP_LIMIT):
        converged = True
        for i, j in ((0, 1), (0, 2), (1, 2)):
            a0, a1, a2 = w[i]
            b0, b1, b2 = w[j]
            gii = a0 * a0 + a1 * a1 + a2 * a2
            gjj = b0 * b0 + b1 * b1 + b2 * b2
            gij = a0 * b0 + a1 * b1 + a2 * b2
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
            w[i] = [cs * a0 - sn * b0, cs * a1 - sn * b1, cs * a2 - sn * b2]
            w[j] = [sn * a0 + cs * b0, sn * a1 + cs * b1, sn * a2 + cs * b2]
            vi, vj = v[i], v[j]
            v[i] = [cs * p - sn * q for p, q in zip(vi, vj)]
            v[j] = [sn * p + cs * q for p, q in zip(vi, vj)]
        if converged:
            break
    else:
        raise RuntimeError("svd3: Jacobi sweeps did not converge")

    w = [[math.ldexp(x, scale) for x in col] for col in w]
    s = [math.sqrt(a * a + b * b + c * c) for a, b, c in w]
    order = sorted(range(3), key=lambda k: -s[k])
    s = [s[k] for k in order]
    w = [w[k] for k in order]
    v = [v[k] for k in order]
    u = []
    cutoff = 1e-13 * max(1.0, s[0])
    for k in range(3):
        if s[k] > cutoff:
            u.append([x / s[k] for x in w[k]])
            continue
        s[k] = 0.0
        for axis in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
            # axis minus its projections onto the columns already set
            proj = [0.0, 0.0, 0.0]
            for um in u:
                c = dot3(um, axis)
                proj = [p + c * q for p, q in zip(proj, um)]
            cand = [p - q for p, q in zip(axis, proj)]
            nn = math.sqrt(dot3(cand, cand))
            if nn > 0.5:
                u.append([x / nn for x in cand])
                break
    return np.array(u).T, np.array(s), np.array(v).T


def det3(m) -> float:
    """Determinant of a real 3x3 matrix (closed form)."""
    m = np.asarray(m, dtype=float)
    return float(
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
