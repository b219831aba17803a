"""Dense complex-matrix kernels for 2-qubit states.

Everything here works on plain numpy arrays (complex128 for operators,
float64 for the real 3x3 correlation blocks).  One kernel policy: every
verdict comes from LAPACK or from a closed form.  Every Hermitian
eigenproblem goes to LAPACK through numpy's eigh, on a matrix that is finite
and exactly Hermitian by construction (the state gate's Hermitian part and
its partial transpose, in one stacked call, or a seeded coupling), except
qubit marginals, whose spectrum has a closed form; the zero-discord rank
test takes numpy's LAPACK SVD.  frobenius_norm takes a Frobenius norm as
one einsum sum of squares, with no BLAS call.  The one hand-written solver
is svd3, a one-sided Jacobi SVD that serves only the local normal form:
when singular values repeat, the singular vectors are not unique, and
normal-form output pins the choice.  svd3 makes that choice in CPython
float arithmetic with math.sqrt and math.hypot, calling neither BLAS nor
LAPACK, so it is the same whichever kernel OpenBLAS picks at run time; it
raises ValueError on non-finite input.
Besides the kernels, this module holds the argument and shape rules every
entry point shares; the Hermiticity rule for a state belongs to the record
of fano's state gate, with the gate's other rows.
"""

from __future__ import annotations

import math
import numbers

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


def frobenius_norm(m) -> float:
    """||m||_F of a C-contiguous complex array: the square root of one einsum
    sum of squares over its reals, which calls no BLAS, so the bits do not
    depend on the kernel OpenBLAS picks at run time.  Non-finite entries
    give inf or NaN."""
    r = m.view(float).ravel()
    return math.sqrt(np.einsum("i,i->", r, r))


def _require_finite(m, who):
    if not np.isfinite(m).all():
        raise ValueError(f"{who}: input has non-finite entries")


class InvalidArgument(ValueError):
    """An argument outside its range, named as `<function>: <argument> ...`;
    each library entry raises it before it reads a state or starts work."""


def _as_array(x, dtype, who, rule, shape=None):
    """x as a C-ordered dtype array (its reals one contiguous view), or
    InvalidArgument; a complex x does not convert to floats."""
    try:
        if dtype is float and np.iscomplexobj(x):
            raise TypeError  # numpy would drop the imaginary part with a warning
        m = np.asarray(x, dtype=dtype, order="C")
        return m if shape is None else m.reshape(shape)
    except (TypeError, ValueError, OverflowError):
        raise InvalidArgument(f"{who}: {rule} (got {x!r})") from None


def _as_4x4(m, who):
    m = _as_array(m, complex, who, "rho must be a 4x4 complex matrix")
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    return m


def _require_int(x, lo, hi, who, rule):
    """Raise InvalidArgument(f"{who}: {rule} (got {x!r})") unless x is an
    integer, not a bool, in [lo, hi]; hi may be math.inf."""
    # type(x) is int first: the ABC check costs more than the rest together
    if not ((type(x) is int or isinstance(x, numbers.Integral) and not isinstance(x, bool))
            and lo <= x <= hi):
        raise InvalidArgument(f"{who}: {rule} (got {x!r})")


def _is_real(x) -> bool:
    """x is a real number and not a bool."""
    # type(x) is float first: the ABC check costs more than the rest together
    return type(x) is float or isinstance(x, numbers.Real) and not isinstance(x, bool)


def _require_real(x, lo, hi, who, rule, open_below=False):
    """Raise InvalidArgument(f"{who}: {rule} (got {x!r})") unless x is a real
    number, not a bool, in [lo, hi], or in (lo, hi] when open_below; with
    finite bounds, NaN and ±inf never pass."""
    if not (_is_real(x) and (lo < x if open_below else lo <= x) and x <= hi):
        raise InvalidArgument(f"{who}: {rule} (got {x!r})")


def _require_type(x, cls, who, name):
    """Raise InvalidArgument(f"{who}: {name} must be a {cls.__name__} (got {x!r})")
    unless x is a cls."""
    if not isinstance(x, cls):
        raise InvalidArgument(f"{who}: {name} must be a {cls.__name__} (got {x!r})")


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
