"""Pauli-basis representation of 2-qubit states and its local normal form.

A 2-qubit density matrix is parametrized by two Bloch vectors x, y and a
real 3x3 correlation matrix T:

    rho = (I@I + sum_i x_i s_i@I + sum_j y_j I@s_j + sum_ij T_ij s_i@s_j) / 4

with s_1, s_2, s_3 the Pauli matrices.  Single-qubit rotations act on the
parameters as x -> Ox, y -> Oy, T -> O_a T O_b^T with O_a, O_b in SO(3), so
T can be brought to diagonal form by local unitaries.  Because SO(3) pairs
can only flip two signs of T at a time, the reachable diagonal d keeps one
negative entry when det T < 0; its absolute values are the singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    I2,
    PAULIS,
    det3,
    dot3,
    frob_norm,
    herm_eig,
    hermiticity_residual,
    kron,
    svd3,
)

# hermiticity/trace acceptance for matrices entering the Pauli decomposition
STATE_TOL = 1e-9

# 16-element tensor basis, index 4*i + j, element 0 the identity
_P4 = (I2,) + PAULIS
PAULI_BASIS = np.stack([kron(a, b) for a in _P4 for b in _P4])


@dataclass(frozen=True)
class FanoParams:
    """Bloch vectors x (first qubit), y (second qubit) and correlation matrix t."""

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(3))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float).reshape(3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float).reshape(3, 3))


@dataclass(frozen=True)
class NormalForm:
    """Result of diagonalizing t with a pair of SO(3) rotations.

    o_a @ t @ o_b.T = diag(d) with |d1| <= |d2| <= |d3|; sigma = |d| are the
    singular values of t in ascending order; x_rot = o_a x, y_rot = o_b y.
    """

    x_rot: np.ndarray
    y_rot: np.ndarray
    d: np.ndarray
    sigma: np.ndarray
    o_a: np.ndarray
    o_b: np.ndarray


@dataclass(frozen=True)
class PhysicalityReport:
    physical: bool
    hermiticity_residual: float
    trace_deviation: float
    min_eigenvalue: float


def decompose(rho, tol: float = STATE_TOL) -> FanoParams:
    """Extract (x, y, T) from a Hermitian unit-trace 4x4 matrix.

    x_i = tr(rho s_i@I), y_j = tr(rho I@s_j), T_ij = tr(rho s_i@s_j).
    Hermiticity and trace are checked at the same tolerances as validate.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    with np.errstate(over="ignore"):
        hres, norm = hermiticity_residual(rho), frob_norm(rho)
    if not norm < np.inf:
        raise ValueError("decompose: matrix too large, its norm overflows")
    if hres > tol * max(1.0, norm):
        raise ValueError(f"decompose: matrix is not Hermitian within {tol:g}")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError(f"decompose: matrix trace deviates from 1 beyond {tol:g}")
    coeffs = np.einsum("kab,ba->k", PAULI_BASIS, rho).real.reshape(4, 4)
    return FanoParams(x=coeffs[1:, 0], y=coeffs[0, 1:], t=coeffs[1:, 1:])


def compose(p: FanoParams):
    """Inverse of decompose; positivity is not enforced (see validate)."""
    coeffs = np.zeros((4, 4))
    coeffs[0, 0] = 1.0
    coeffs[1:, 0] = p.x
    coeffs[0, 1:] = p.y
    coeffs[1:, 1:] = p.t
    return np.einsum("k,kab->ab", coeffs.reshape(16), PAULI_BASIS) / 4.0


def validate(rho, tol: float = STATE_TOL) -> PhysicalityReport:
    """Check Hermiticity, unit trace and positive semidefiniteness.

    The minimum eigenvalue is reported for the symmetrized matrix even when
    the Hermiticity check fails, so the report is always fully populated.
    Entries beyond about 1e154 overflow the Frobenius norms to inf, silently
    here and in decompose; such a matrix is never physical, because the
    Hermiticity bound tol * inf would accept any residual.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    with np.errstate(over="ignore"):
        hres, norm = hermiticity_residual(rho), frob_norm(rho)
    # herm_eig refuses a norm that overflows; scaling by 2^-600 is exact for
    # every entry above about 1e-128, and those set such a minimum
    scale = 1.0 if norm < np.inf else 2.0**-600
    m = rho * scale
    w, _ = herm_eig((m + m.conj().T) / 2.0)
    min_eig = float(w[0]) / scale
    tdev = float(abs(np.trace(rho) - 1.0))
    physical = (
        norm < np.inf and hres <= tol * max(1.0, norm) and tdev <= tol and min_eig >= -tol
    )
    return PhysicalityReport(
        physical=physical,
        hermiticity_residual=hres,
        trace_deviation=tdev,
        min_eigenvalue=min_eig,
    )


def certify(rho, who: str, tol: float = STATE_TOL):
    """The Hermitian part (rho + rho†)/2 of a state that validate passes.

    Raises ValueError naming `who` when rho is unphysical at tol.  For an
    exactly Hermitian rho the result is bit-identical to rho.
    """
    rep = validate(rho, tol)
    if not rep.physical:
        raise ValueError(
            f"{who}: unphysical state (min eigenvalue {rep.min_eigenvalue:.3e}, "
            f"trace deviation {rep.trace_deviation:.3e})"
        )
    rho = np.asarray(rho, dtype=complex)
    return (rho + rho.conj().T) / 2.0


def normal_form(p: FanoParams) -> NormalForm:
    """Diagonalize t by SO(3) rotations and rotate the Bloch vectors along.

    Built on svd3: the descending singular triple is reversed to ascending,
    then determinant signs are repaired by flipping the first (smallest)
    column, which moves a sign onto d[0] when det t < 0.  Within a repeated
    singular value the rotation is a choice: o_a, o_b and the components of
    x_rot and y_rot in that block follow it, and only their norm within the
    block does not.
    x_rot and y_rot are summed left to right like svd3's dot products, so
    every field depends on CPython float arithmetic, math.sqrt and
    math.hypot, and on no BLAS or LAPACK build.
    """
    u, s, v = svd3(p.t)
    u2 = np.ascontiguousarray(u[:, ::-1])
    v2 = np.ascontiguousarray(v[:, ::-1])
    d = np.ascontiguousarray(s[::-1])
    if det3(u2) < 0.0:
        u2[:, 0] *= -1.0
        d[0] = -d[0]
    if det3(v2) < 0.0:
        v2[:, 0] *= -1.0
        d[0] = -d[0]
    o_a = u2.T.copy()
    o_b = v2.T.copy()
    x, y = p.x.tolist(), p.y.tolist()
    return NormalForm(
        x_rot=np.array([dot3(row, x) for row in o_a.tolist()]),
        y_rot=np.array([dot3(row, y) for row in o_b.tolist()]),
        d=d,
        sigma=np.abs(d),
        o_a=o_a,
        o_b=o_b,
    )
