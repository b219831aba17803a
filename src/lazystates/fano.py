"""Pauli-basis representation of 2-qubit states and its local normal form.

A 2-qubit density matrix is parametrized by two Bloch vectors x, y and a
real 3x3 correlation matrix T:

    rho = (I@I + sum_i x_i s_i@I + sum_j y_j I@s_j + sum_ij T_ij s_i@s_j) / 4

with s_1, s_2, s_3 the Pauli matrices.  Single-qubit rotations act on the
parameters as x -> Ox, y -> Oy, T -> O_a T O_b^T with O_a, O_b in SO(3), so
T can be brought to diagonal form by local unitaries.  Because SO(3) pairs
can only flip two signs of T at a time, the reachable diagonal d keeps one
negative entry when det T < 0; its absolute values are the singular values.

Every 4x4 input that should be a state passes one gate, _gate, once, at
DEFAULT_TOL unless classify is given a tol; decompose reads _decomposed off
it, the dynamics check _certified, and normal-form both off one pass.  The
gate makes one eigh call, on its Hermitian part and that part's partial
transpose stacked, so classify's separability spectrum costs no second call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .matcore import (
    I2,
    PAULIS,
    _as_4x4,
    _require_finite,
    _require_real,
    _require_type,
    det3,
    dot3,
    frobenius_norm,
    kron,
    svd3,
)

# the state gate's tolerance: classify's default, and fixed at every other entry
DEFAULT_TOL = 1e-9

# 16-element tensor basis, index 4*i + j, element 0 the identity
_P4 = (I2,) + PAULIS
PAULI_BASIS = np.stack([kron(a, b) for a in _P4 for b in _P4])


@dataclass(frozen=True)
class FanoParams:
    """Bloch vectors x (first qubit), y (second qubit) and correlation matrix t.

    Each is stored as a read-only copy, so a witness computed from the
    parameters is computed from the parameters as built.  A non-finite entry
    raises ValueError when the parameters are built.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        for name, shape in (("x", 3), ("y", 3), ("t", (3, 3))):
            value = np.asarray(getattr(self, name), dtype=float).reshape(shape).copy()
            _require_finite(value, "FanoParams")
            value.flags.writeable = False
            object.__setattr__(self, name, value)


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


class _Gated(NamedTuple):
    rho: np.ndarray  # the input as a complex array
    herm: np.ndarray  # its Hermitian part (rho + rho†)/2
    pt_spectrum: list  # ascending eigenvalues of herm's partial transpose
    overflow: bool  # ||rho||_F overflows to inf
    hermitian: bool  # the overflow-safe Hermiticity rule at tol
    physical: bool  # hermitian, and the trace and positivity rows pass at tol
    diagnostics: dict  # the three rows' numbers, as classify reports them


def _gate(rho, who: str, tol: float) -> _Gated:
    """Judge one 4x4 input; every entry point that takes a state calls this.

    Raises ValueError, naming `who` unless the shape is wrong, for a tol
    outside (0, 1), a shape other than 4x4 or a non-finite entry: a tol of
    1 or more cannot tell a trace of 0 from a trace of 1.  Entries beyond
    about 1e154 overflow ||rho||_F; such a matrix is never Hermitian, and
    herm is then formed from rho * 2^-600, exact for every entry above
    about 1e-128, which set the minimum eigenvalue.  One eigh call solves
    herm and its partial transpose together, so classify reads the
    separability spectrum off the gate.
    """
    # (0, 1) is open at both ends: the largest float below 1 bounds it
    _require_real(
        tol, 0.0, math.nextafter(1.0, 0.0), who, "tol must lie in (0, 1)", open_below=True
    )
    rho = _as_4x4(rho)
    rho_h = rho.conj().T
    # ||rho||_F comes first: a NaN or ±inf entry makes it non-finite, so the
    # finiteness scan runs only then.  A finite norm bounds each entry by
    # 1.4e154, so that rho - rho† cannot overflow
    norm = frobenius_norm(rho)
    # slot 0 holds herm and slot 1 its partial transpose, for one eigh call
    stack = np.empty((2, 4, 4), dtype=complex)
    herm = stack[0]
    if norm < math.inf:
        hres, scale = frobenius_norm(rho - rho_h), 1.0
        np.add(rho, rho_h, out=herm)
    else:
        _require_finite(rho, who)
        with np.errstate(over="ignore"):
            hres, scale = frobenius_norm(rho - rho_h), 2.0**-600
        np.add(rho * scale, rho_h * scale, out=herm)
    herm /= 2.0
    # the Hermiticity rule: ||rho||_F is finite and ||rho - rho†||_F <= tol *
    # max(1, ||rho||_F); a norm that overflows to inf would admit any residual
    hermitian = norm < math.inf and hres <= tol * max(1.0, norm)
    # herm, and so its partial transpose, is its own conjugate transpose entry
    # by entry, and finite, as ||rho * scale||_F keeps each entry below 1e155
    qubits = stack.reshape(2, 2, 2, 2, 2)
    qubits[1] = qubits[0].transpose(0, 3, 2, 1)
    w = np.linalg.eigh(stack)[0].tolist()
    min_eig = w[0][0] / scale
    tdev = float(abs(rho.trace() - 1.0))
    physical = hermitian and tdev <= tol and min_eig >= -tol
    diagnostics = dict(hermiticity_residual=hres, trace_deviation=tdev, min_eigenvalue=min_eig)
    return _Gated(rho, herm, w[1], scale != 1.0, hermitian, physical, diagnostics)


def _coeffs(m):
    """[[tr m, y], [x, T]]: c[i, j] = tr(m s_i@s_j), s_0 = I, for an unchecked m."""
    return np.einsum("kab,ba->k", PAULI_BASIS, m).real.reshape(4, 4)


def _decomposed(g: _Gated) -> FanoParams:
    """decompose's answer from a gate result."""
    if g.overflow:
        raise ValueError("decompose: matrix too large, its norm overflows")
    if not g.hermitian:
        raise ValueError(f"decompose: matrix is not Hermitian within {DEFAULT_TOL:g}")
    if g.diagnostics["trace_deviation"] > DEFAULT_TOL:
        raise ValueError(f"decompose: matrix trace deviates from 1 beyond {DEFAULT_TOL:g}")
    c = _coeffs(g.rho)
    return FanoParams(x=c[1:, 0], y=c[0, 1:], t=c[1:, 1:])


def decompose(rho) -> FanoParams:
    """Extract (x, y, T) from a Hermitian unit-trace 4x4 matrix.

    x_i = tr(rho s_i@I), y_j = tr(rho I@s_j), T_ij = tr(rho s_i@s_j).
    Hermiticity and trace are checked at the gate's fixed DEFAULT_TOL.
    """
    return _decomposed(_gate(rho, "decompose", DEFAULT_TOL))


def compose(p: FanoParams):
    """Inverse of decompose; positivity is not enforced (the state gate judges it)."""
    _require_type(p, FanoParams, "compose", "p")
    coeffs = np.zeros((4, 4))
    coeffs[0, 0] = 1.0
    coeffs[1:, 0] = p.x
    coeffs[0, 1:] = p.y
    coeffs[1:, 1:] = p.t
    return np.einsum("k,kab->ab", coeffs.reshape(16), PAULI_BASIS) / 4.0


def _certified(g: _Gated, who: str):
    """The Hermitian part of a state the gate passed, else ValueError naming `who`."""
    if not g.physical:
        d = g.diagnostics
        raise ValueError(
            f"{who}: unphysical state (min eigenvalue {d['min_eigenvalue']:.3e}, "
            f"trace deviation {d['trace_deviation']:.3e})"
        )
    return g.herm


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
    _require_type(p, FanoParams, "normal_form", "p")
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
