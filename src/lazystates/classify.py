"""Hierarchy predicates for 2-qubit states.

A state is "lazy" (with respect to the first qubit) when the marginal
commutes with the joint state, [rho, rho_A @ I] = 0; equivalently, when the
Bloch vector x is parallel to every column of the correlation matrix T.
Both routes measure one number, ||[rho, rho_A @ I]||_F = 0.5 * sqrt(sum_j
|x cross T[:,j]|^2), from the matrices and from the Bloch parameters; they
must agree to rounding, which keeps the equivalence under continuous test.
Physicality is decided once, by fano's state gate at the caller's tol,
and classify passes the state's Hermitian part unchecked to each witness's
one kernel.  The public predicates that take a 4x4 state call the same
kernel on the Hermitian part that certify returns, at its fixed 1e-9.
Zero discord is the rank of [x | T], read off one LAPACK SVD; separability
is positivity of the partial transpose, exact for two qubits.  Each
predicate returns its witnesses only; classify alone compares them with tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fano import FanoParams, _coeffs, _gate, certify
from .matcore import (
    I2,
    commutator,
    frob_norm,
    kron,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_b,
    qubit_spectrum,
)

DEFAULT_TOL = 1e-9

# the two laziness routes compute one number along different rounding paths;
# they differ by ~1e-16 on physical states, whatever the tolerance
_ROUTE_AGREEMENT = 1e-12

WITNESS_KEYS = (
    "commutator_norm",
    "parallel_residual",
    "negativity",
    "min_eigenvalue",
    "product_residual",
)


class ConsistencyError(RuntimeError):
    """Two predicates that are provably equivalent disagreed beyond tolerance."""


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
    return frob_norm(commutator(rho, kron(rho_a, I2)))


def lazy_by_commutator(rho) -> float:
    """The defining laziness witness ||[rho, rho_A @ I]||_F.

    Raises ValueError on input the state gate rejects at its fixed 1e-9.
    """
    rho = certify(rho, "lazy_by_commutator")
    return _commutator_witness(rho, partial_trace_b(rho))


def _parallel_residual(x, t) -> float:
    # the nine components x cross t[:, j], each formed as np.cross forms it
    # (one difference of two rounded products) and laid out (j, k) as it does
    (x0, x1, x2), (t0, t1, t2) = x.tolist(), t.tolist()
    cross = [(x1 * c - x2 * b, x2 * a - x0 * c, x0 * b - x1 * a) for a, b, c in zip(t0, t1, t2)]
    return 0.5 * frob_norm(cross)


def lazy_by_parallelism(p: FanoParams) -> float:
    """The laziness witness of x parallel to every column of t.

    The residual is 0.5 * sqrt(sum_j ||x cross t[:,j]||^2), the closed form
    of the commutator norm ||[rho, rho_A @ I]||_F, so both routes give one
    number.  A zero x or a zero column contributes nothing (parallelism
    holds vacuously).
    """
    return _parallel_residual(p.x, p.t)


def _discord_svd(m):
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return float(s[1]), u[:, 0]


def zero_discord_a(p: FanoParams):
    """Zero-discord witness with respect to the first qubit.

    A 2-qubit state has zero discord with respect to A exactly when the
    3x4 matrix M = [x | t] has rank at most one (Dakić, Vedral, Brukner,
    PRL 105, 190502, 2010), so the witness is sigma_2(M).  The measurement
    direction of a zero-discord state is the leading left singular vector n
    of M: the projective pinch along n,

        rho -> (P0@I) rho (P0@I) + (P1@I) rho (P1@I),  P± = (I ± n.s)/2,

    moves rho by exactly 0.5 * hypot(sigma_2, sigma_3) in Frobenius norm.
    Returns (sigma_2, n).
    """
    return _discord_svd(np.column_stack((p.x, p.t)))


def _product_residual(rho, rho_a) -> float:
    return frob_norm(rho - kron(rho_a, partial_trace_a(rho)))


def is_product(rho) -> float:
    """The product witness ||rho - rho_A @ rho_B||_F.

    Raises ValueError on input the state gate rejects at its fixed 1e-9.
    """
    rho = certify(rho, "is_product")
    return _product_residual(rho, partial_trace_b(rho))


def _ppt(herm):
    # (negativity, min eigenvalue) of the partial transpose, exactly Hermitian as herm is
    w = np.linalg.eigh(partial_transpose_b(herm))[0]
    return float(np.abs(w[w < 0.0]).sum()), float(w[0])


def separable_ppt(rho):
    """Separability witnesses of the partial transpose (PPT, exact for 2x2).

    Returns (negativity, min_pt_eigenvalue), negativity being the summed
    magnitude of the negative partial-transpose eigenvalues.  Raises
    ValueError on input the state gate rejects at its fixed 1e-9.
    """
    return _ppt(certify(rho, "separable_ppt"))


def _purity(rho) -> float:
    return float(np.einsum("ij,ji->", rho, rho).real)


def pure_schmidt(rho):
    """Purity tr(rho^2) and the Schmidt coefficients of a pure rho.

    The coefficients are the square roots of the marginal's eigenvalues,
    descending; they are Schmidt coefficients only when rho is pure.
    Returns (purity, schmidt).  Raises ValueError on input the state gate
    rejects at its fixed 1e-9.
    """
    rho = certify(rho, "pure_schmidt")
    w = np.clip(qubit_spectrum(partial_trace_b(rho)), 0.0, None)
    return _purity(rho), np.sqrt(w[::-1])


def classify(rho, tol: float = DEFAULT_TOL) -> Classification:
    """Run every hierarchy predicate on one state.

    fano's state gate runs once: a tol that is not finite and > 0, a shape
    other than 4x4 or a non-finite entry raises ValueError, and unphysical
    input yields physical=False with the other verdicts absent.  The
    commutator and parallelism witnesses must agree to rounding, or
    ConsistencyError is raised.  Every verdict compares one witness with
    tol, absolute: lazy_a (the commutator, the defining quantity), product
    and zero_discord_a pass at <= tol, separable at a partial-transpose
    minimum eigenvalue >= -tol, pure unless tr(rho^2) < 1 - tol.
    lazy_gray_zone flags the rounding case where the two laziness
    witnesses fall on either side of tol.
    """
    g = _gate(rho, "classify", tol)
    rep = g.report
    diagnostics = {key: value for key, value in vars(rep).items() if key != "physical"}
    if not rep.physical:
        return Classification(
            physical=False, witnesses=dict.fromkeys(WITNESS_KEYS), diagnostics=diagnostics
        )

    rho = g.herm
    c = _coeffs(rho)
    rho_a = partial_trace_b(rho)
    comm_norm = _commutator_witness(rho, rho_a)
    residual = _parallel_residual(c[1:, 0], c[1:, 1:])
    if abs(comm_norm - residual) > _ROUTE_AGREEMENT * max(1.0, comm_norm):
        raise ConsistencyError(
            "laziness routes disagree: commutator norm "
            f"{comm_norm:.3e}, parallelism residual {residual:.3e}"
        )
    sigma_2, _ = _discord_svd(c[1:])
    product_residual = _product_residual(rho, rho_a)
    negativity, min_pt_eig = _ppt(rho)
    purity = _purity(rho)
    witnesses = {
        "commutator_norm": comm_norm,
        "parallel_residual": residual,
        "negativity": negativity,
        "min_eigenvalue": rep.min_eigenvalue,
        "product_residual": product_residual,
    }
    # the one place where a witness meets tol
    lazy_c = comm_norm <= tol
    return Classification(
        physical=True,
        pure=not purity < 1.0 - tol,
        product=product_residual <= tol,
        zero_discord_a=sigma_2 <= tol,
        lazy_a=lazy_c,
        separable=min_pt_eig >= -tol,
        witnesses=witnesses,
        diagnostics=diagnostics,
        lazy_gray_zone=lazy_c != (residual <= tol),
    )
