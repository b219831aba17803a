"""Pauli-basis representation of 2-qubit states and its local normal form.

A 2-qubit density matrix is parametrized by two Bloch vectors x, y and a
real 3x3 correlation matrix T:

    rho = (I@I + sum_i x_i s_i@I + sum_j y_j I@s_j + sum_ij T_ij s_i@s_j) / 4

with s_1, s_2, s_3 the Pauli matrices.  Single-qubit rotations act on the
parameters as x -> Ox, y -> Oy, T -> O_a T O_b^T with O_a, O_b in SO(3), so
T can be brought to diagonal form by local unitaries.  Because SO(3) pairs
can only flip two signs of T at a time, the reachable diagonal d keeps one
negative entry when det T < 0; its absolute values are the singular values.

Every 4x4 input that should be a state passes gate once, which takes no
tol, and is read only through its record, Gated: by classify at its tol,
and at DEFAULT_TOL by decompose (params), the dynamics check (certified)
and normal-form (both).  The record keeps the input's Hermitian part, not
the input, so every entry's Fano numbers are coeffs(herm), the same bits.
The gate makes one eigh call, on the Hermitian part and its partial
transpose stacked, so classify's PPT spectrum is free.
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
    _as_array,
    _require_finite,
    _require_type,
    det3,
    dot3,
    frobenius_norm,
    kron,
    svd3,
)

# the tolerance at which a state is read: classify's default, and fixed at every other entry
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
        for name, shape, size in (("x", 3, "3"), ("y", 3, "3"), ("t", (3, 3), "3x3")):
            rule = f"{name} must hold {size} reals"
            value = _as_array(getattr(self, name), float, "FanoParams", rule, shape).copy()
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


# one 4x4 input as the state gate read it, and the readings every entry takes
class Gated(NamedTuple):
    herm: np.ndarray  # the input's Hermitian part (rho + rho†)/2; the record keeps no rho
    pt_spectrum: list  # ascending eigenvalues of herm's partial transpose
    norm: float  # ||rho||_F, inf when it overflows
    diagnostics: dict  # the three rows' numbers, as classify reports them

    def hermitian(self, tol) -> bool:
        # the Hermiticity rule: ||rho||_F is finite and ||rho - rho†||_F <= tol *
        # max(1, ||rho||_F); a norm that overflows to inf would admit any residual
        norm = self.norm
        return norm < math.inf and self.diagnostics["hermiticity_residual"] <= tol * max(1.0, norm)

    def physical(self, tol) -> bool:
        # hermitian, and the trace and positivity rows pass at tol
        d = self.diagnostics
        return self.hermitian(tol) and d["trace_deviation"] <= tol and d["min_eigenvalue"] >= -tol

    def params(self) -> FanoParams:
        """decompose's answer: the parameters of herm, if rho is Hermitian
        with unit trace at DEFAULT_TOL."""
        if self.norm == math.inf:
            raise ValueError("decompose: matrix too large, its norm overflows")
        if not self.hermitian(DEFAULT_TOL):
            raise ValueError(f"decompose: matrix is not Hermitian within {DEFAULT_TOL:g}")
        if self.diagnostics["trace_deviation"] > DEFAULT_TOL:
            raise ValueError(f"decompose: matrix trace deviates from 1 beyond {DEFAULT_TOL:g}")
        c = coeffs(self.herm)
        return FanoParams(x=c[1:, 0], y=c[0, 1:], t=c[1:, 1:])

    def certified(self, who: str):
        """herm, of a state physical at DEFAULT_TOL, else ValueError naming `who`."""
        if not self.physical(DEFAULT_TOL):
            d = self.diagnostics
            raise ValueError(
                f"{who}: unphysical state (min eigenvalue {d['min_eigenvalue']:.3e}, "
                f"trace deviation {d['trace_deviation']:.3e})"
            )
        return self.herm

    def commutator(self):
        """(||[herm, herm_A@I]||_F, herm_A): each product one einsum over the
        qubit indices of r[i, k, j, l] = herm[(i, k), (j, l)], no kron and no BLAS."""
        r = self.herm.reshape(2, 2, 2, 2)
        rho_a = np.einsum("ikjk->ij", r)
        return frobenius_norm(
            np.einsum("ikml,mj->ikjl", r, rho_a) - np.einsum("im,mkjl->ikjl", rho_a, r)
        ), rho_a


def gate(rho, who: str) -> Gated:
    """Read one 4x4 input; every entry point that takes a state calls this once.

    Raises ValueError, naming `who` unless the shape is wrong, for a shape
    other than 4x4 or a non-finite entry; the readings take a tol, the
    gate none.  Entries beyond about 1e154 overflow ||rho||_F; such a
    matrix is never Hermitian, and herm is then formed from rho * 2^-600,
    exact for every entry above about 1e-128, which set the minimum
    eigenvalue.  One eigh call solves herm and its partial transpose
    together, so classify reads the separability spectrum off the gate.
    """
    rho = _as_4x4(rho, who)
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
    # herm, and so its partial transpose, is its own conjugate transpose entry
    # by entry, and finite, as ||rho * scale||_F keeps each entry below 1e155
    qubits = stack.reshape(2, 2, 2, 2, 2)
    qubits[1] = qubits[0].transpose(0, 3, 2, 1)
    w = np.linalg.eigh(stack)[0].tolist()
    tdev = float(abs(rho.trace() - 1.0))
    d = dict(hermiticity_residual=hres, trace_deviation=tdev, min_eigenvalue=w[0][0] / scale)
    return Gated(herm, w[1], norm, d)


def coeffs(m):
    """[[tr m, y], [x, T]]: c[i, j] = tr(m s_i@s_j), s_0 = I, for an unchecked m."""
    return np.einsum("kab,ba->k", PAULI_BASIS, m).real.reshape(4, 4)


def decompose(rho) -> FanoParams:
    """Extract (x, y, T) from a Hermitian unit-trace 4x4 matrix.

    x_i = tr(rho s_i@I), y_j = tr(rho I@s_j), T_ij = tr(rho s_i@s_j).
    Hermiticity and trace are read off the gate's record at DEFAULT_TOL.
    """
    return gate(rho, "decompose").params()


def compose(p: FanoParams):
    """Inverse of decompose; positivity is not enforced (the state gate judges it)."""
    _require_type(p, FanoParams, "compose", "p")
    c = np.zeros((4, 4))
    c[0, 0] = 1.0
    c[1:, 0] = p.x
    c[0, 1:] = p.y
    c[1:, 1:] = p.t
    return np.einsum("k,kab->ab", c.reshape(16), PAULI_BASIS) / 4.0


def normal_form(p: FanoParams) -> NormalForm:
    """Diagonalize t by SO(3) rotations and rotate the Bloch vectors along.

    Built on svd3: its singular vectors, reversed to ascending, are the rows
    of o_a and o_b, and a negative determinant is repaired by flipping the
    first (smallest) row, which moves a sign onto d[0] when det t < 0.
    Within a repeated singular value the rotation is a choice: o_a, o_b and
    the components of x_rot and y_rot in that block follow it, and only
    their norm within the block does not.
    x_rot and y_rot are summed left to right like svd3's dot products, so
    every field depends on CPython float arithmetic, math.sqrt and
    math.hypot, and on no BLAS or LAPACK build.
    """
    _require_type(p, FanoParams, "normal_form", "p")
    u, s, v = svd3(p.t)
    o_a, o_b, d = u.T[::-1].copy(), v.T[::-1].copy(), s[::-1].copy()
    for o in (o_a, o_b):
        if det3(o) < 0.0:
            o[0] *= -1.0
            d[0] = -d[0]
    x, y = p.x.tolist(), p.y.tolist()
    return NormalForm(
        x_rot=np.array([dot3(row, x) for row in o_a.tolist()]),
        y_rot=np.array([dot3(row, y) for row in o_b.tolist()]),
        d=d,
        sigma=np.abs(d),
        o_a=o_a,
        o_b=o_b,
    )
