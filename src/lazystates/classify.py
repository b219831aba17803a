"""The hierarchy verdicts of a 2-qubit state and their witnesses.

A state is "lazy" (with respect to the first qubit) when the marginal
commutes with the joint state, [rho, rho_A @ I] = 0; equivalently, when the
Bloch vector x is parallel to every column of the correlation matrix T.
Both routes measure one number, ||[rho, rho_A @ I]||_F = 0.5 * sqrt(sum_j
|x cross T[:,j]|^2), from the matrices and from the Bloch parameters; they
must agree to rounding, which keeps the equivalence under continuous test.
Physicality is decided once, by fano's state gate at the caller's tol,
and classify passes the state's Hermitian part unchecked to each witness's
one kernel.  Witnesses with a closed form in the 16 Fano numbers c[i, j] =
tr(rho s_i@s_j), s_0 = I, are read off them, for any trace and without
BLAS: purity sum c_ij^2 / 4, the product residual 0.5 * sqrt(sum_ij (c_ij -
c_i0 c_0j)^2).  The commutator is formed by np.einsum and its norm is an
einsum sum of squares, so neither calls BLAS.  Zero discord is the rank of
[x | T], read off one LAPACK SVD; separability is positivity of the partial
transpose, exact for two qubits, whose spectrum comes from the gate's one
eigh call.  classify reports one witness per verdict and alone compares
them with tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fano import _coeffs, _gate
from .matcore import frobenius_norm

DEFAULT_TOL = 1e-9

# the two laziness routes compute one number along different rounding paths;
# they differ by ~1e-16 on physical states, whatever the tolerance
_ROUTE_AGREEMENT = 1e-12

WITNESS_KEYS = (
    "commutator_norm",
    "parallel_residual",
    "sigma_2",
    "negativity",
    "min_pt_eigenvalue",
    "product_residual",
    "purity",
)


class ConsistencyError(RuntimeError):
    """The two laziness witnesses, provably equal, disagreed beyond rounding."""


@dataclass(frozen=True)
class Classification:
    physical: bool
    # None when the state is unphysical
    pure: bool | None = None
    product: bool | None = None
    zero_discord_a: bool | None = None
    lazy_a: bool | None = None
    separable: bool | None = None
    witnesses: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    lazy_gray_zone: bool = False


def _commutator_witness(rho, rho_a) -> float:
    # ||rho (a@I) - (a@I) rho||_F, each product one einsum over the qubit
    # indices of r[i, k, j, l] = rho[(i, k), (j, l)]: no kron and no BLAS
    r = rho.reshape(2, 2, 2, 2)
    return frobenius_norm(
        np.einsum("ikml,mj->ikjl", r, rho_a) - np.einsum("im,mkjl->ikjl", rho_a, r)
    )


def _parallel_residual(x, t) -> float:
    # a zero x or a zero column of t contributes nothing: parallelism holds
    # vacuously.  The nine components x cross t[:, j], each formed as
    # np.cross forms it (one difference of two rounded products) and laid
    # out (j, k) as it does
    (x0, x1, x2), (t0, t1, t2) = x.tolist(), t.tolist()
    cross = [(x1 * c - x2 * b, x2 * a - x0 * c, x0 * b - x1 * a) for a, b, c in zip(t0, t1, t2)]
    return 0.5 * float(np.linalg.norm(cross))


def _product_residual(c) -> float:
    # rho - rho_A@rho_B = sum_ij (c_ij - c_i0 c_0j) s_i@s_j / 4, and the 16
    # products s_i@s_j are orthogonal with squared norm 4
    d = c - c[:, :1] * c[:1, :]
    return 0.5 * math.sqrt(np.einsum("ij,ij->", d, d))


def _purity(c) -> float:
    # tr rho^2 = sum_ij c_ij^2 / 4, by the same orthogonality
    return float(np.einsum("ij,ij->", c, c)) / 4.0


def classify(rho, tol: float = DEFAULT_TOL) -> Classification:
    """Every hierarchy verdict of one state, each with its one witness.

    fano's state gate runs once: a tol that is not a number in (0, 1), a
    shape other than 4x4 or a non-finite entry raises ValueError, and
    unphysical input yields physical=False with the other verdicts absent
    and every witness None.  diagnostics holds the gate's report.  Every
    verdict compares its witness with tol, absolute: lazy_a
    (commutator_norm, the defining quantity), product (product_residual)
    and zero_discord_a (sigma_2 of [x | T]) pass at <= tol, separable at
    min_pt_eigenvalue >= -tol, pure unless purity tr(rho^2) < 1 - tol.
    negativity sums the magnitudes of the negative partial-transpose
    eigenvalues.
    parallel_residual is the second laziness route: it must agree with
    commutator_norm to rounding, or ConsistencyError is raised, and
    lazy_gray_zone flags the rounding case where the two fall on either
    side of tol.
    """
    g = _gate(rho, "classify", tol)
    if not g.physical:
        return Classification(
            physical=False, witnesses=dict.fromkeys(WITNESS_KEYS), diagnostics=g.diagnostics
        )

    rho = g.herm
    c = _coeffs(rho)
    rho_a = np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))
    comm_norm = _commutator_witness(rho, rho_a)
    residual = _parallel_residual(c[1:, 0], c[1:, 1:])
    if abs(comm_norm - residual) > _ROUTE_AGREEMENT * max(1.0, comm_norm):
        raise ConsistencyError(
            "laziness routes disagree: commutator norm "
            f"{comm_norm:.3e}, parallelism residual {residual:.3e}"
        )
    # zero discord with respect to A is rank [x | T] <= 1 (Dakić, Vedral, Brukner, PRL 105, 190502)
    sigma_2 = float(np.linalg.svd(c[1:], full_matrices=False)[1][1])
    product_residual = _product_residual(c)
    # the gate's ascending partial-transpose spectrum: negativity sums the
    # magnitudes of its negative entries left to right, as numpy's sum does
    # (Python's own sum compensates rounding from 3.12 on)
    pt = g.pt_spectrum
    negativity = 0.0
    for x in pt:
        if x < 0.0:
            negativity -= x
    purity = _purity(c)
    witnesses = {
        "commutator_norm": comm_norm,
        "parallel_residual": residual,
        "sigma_2": sigma_2,
        "negativity": negativity,
        "min_pt_eigenvalue": pt[0],
        "product_residual": product_residual,
        "purity": purity,
    }
    # the one place where a witness meets tol
    lazy_c = comm_norm <= tol
    return Classification(
        physical=True,
        pure=not purity < 1.0 - tol,
        product=product_residual <= tol,
        zero_discord_a=sigma_2 <= tol,
        lazy_a=lazy_c,
        separable=pt[0] >= -tol,
        witnesses=witnesses,
        diagnostics=g.diagnostics,
        lazy_gray_zone=lazy_c != (residual <= tol),
    )
