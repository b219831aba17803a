"""Hierarchy predicates for 2-qubit states.

A state is "lazy" (with respect to the first qubit) when the marginal
commutes with the joint state, [rho, rho_A @ I] = 0; equivalently, when the
Bloch vector x is parallel to every column of the correlation matrix T.
Both routes measure one number, ||[rho, rho_A @ I]||_F = 0.5 * sqrt(sum_j
|x cross T[:,j]|^2), from the matrices and from the Bloch parameters; they
must agree to rounding, which keeps the equivalence under continuous test.
Physicality is decided once, by fano's state gate at the caller's tol,
and the predicates then see the state's Hermitian part.  Zero discord is
decided by the rank of the Bloch vector beside the correlation matrix,
read off one LAPACK SVD.  Separability is decided by positivity of the
partial transpose, exact for two qubits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fano import FanoParams, _fano_params, _gate, certify
from .matcore import (
    I2,
    commutator,
    frob_norm,
    herm_eig,
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
    pure: bool | None
    product: bool | None
    zero_discord_a: bool | None
    lazy_a: bool | None
    separable: bool | None
    witnesses: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    lazy_gray_zone: bool = False


def _commutator_witness(rho) -> float:
    rho_a = partial_trace_b(rho)
    return frob_norm(commutator(rho, kron(rho_a, I2)))


def lazy_by_commutator(rho, tol: float = DEFAULT_TOL):
    """Laziness by the defining commutator: ||[rho, rho_A @ I]||_F <= tol.

    Returns (verdict, commutator_norm).  Raises ValueError on unphysical input.
    """
    norm = _commutator_witness(certify(rho, "lazy_by_commutator", tol))
    return norm <= tol, norm


def lazy_by_parallelism(p: FanoParams, tol: float = DEFAULT_TOL):
    """Laziness as x parallel to every column of t.

    The residual is 0.5 * sqrt(sum_j ||x cross t[:,j]||^2), the closed form
    of the commutator norm ||[rho, rho_A @ I]||_F, so both routes compare
    one number against the same absolute tol.  A zero x or a zero column
    contributes nothing (parallelism holds vacuously).
    Returns (verdict, residual).
    """
    residual = 0.5 * frob_norm(np.cross(p.x, p.t.T))
    return residual <= tol, residual


def zero_discord_a(p: FanoParams, tol: float = DEFAULT_TOL):
    """Zero discord with respect to the first qubit.

    A 2-qubit state has zero discord with respect to A exactly when the
    3x4 matrix M = [x | t] has rank at most one (Dakić, Vedral, Brukner,
    PRL 105, 190502, 2010), so the verdict is sigma_2(M) <= tol, absolute.
    The measurement direction is then the leading left singular vector n of
    M: the projective pinch along n,

        rho -> (P0@I) rho (P0@I) + (P1@I) rho (P1@I),  P± = (I ± n.s)/2,

    moves rho by exactly 0.5 * hypot(sigma_2, sigma_3) in Frobenius norm.
    Returns (verdict, n-or-None).
    """
    u, s, _ = np.linalg.svd(np.column_stack((p.x, p.t)), full_matrices=False)
    if s[1] > tol:
        return False, None
    return True, u[:, 0]


def is_product(rho, tol: float = DEFAULT_TOL):
    """Product test: ||rho - rho_A @ rho_B||_F <= tol.  Returns (verdict, residual)."""
    rho = np.asarray(rho, dtype=complex)
    rho_a = partial_trace_b(rho)
    rho_b = partial_trace_a(rho)
    residual = frob_norm(rho - kron(rho_a, rho_b))
    return residual <= tol, residual


def separable_ppt(rho, tol: float = DEFAULT_TOL):
    """Separability by positivity of the partial transpose (exact for 2x2).

    Returns (verdict, negativity, min_pt_eigenvalue) where negativity is the
    summed magnitude of the negative partial-transpose eigenvalues.
    """
    w, _ = herm_eig(partial_transpose_b(np.asarray(rho, dtype=complex)))
    negativity = float(np.abs(w[w < 0.0]).sum())
    return float(w[0]) >= -tol, negativity, float(w[0])


def pure_schmidt(rho, tol: float = DEFAULT_TOL):
    """Purity and Schmidt data.

    Returns (is_pure, schmidt_coefficients, pure_lazy).  The Schmidt part is
    None for mixed states.  A pure state is lazy exactly when its Schmidt
    coefficients are (1, 0) or (1/sqrt2, 1/sqrt2); the verdict is computed on
    the marginal eigenvalues, which are well conditioned where the square
    roots are not.
    """
    rho = np.asarray(rho, dtype=complex)
    purity = float(np.einsum("ij,ji->", rho, rho).real)
    if purity < 1.0 - tol:
        return False, None, None
    w = np.clip(qubit_spectrum(partial_trace_b(rho)), 0.0, None)
    coeffs = np.sqrt(w[::-1])
    lazy = bool(w[0] <= tol or (abs(w[0] - 0.5) <= tol and abs(w[1] - 0.5) <= tol))
    return True, coeffs, lazy


def classify(rho, tol: float = DEFAULT_TOL) -> Classification:
    """Run every hierarchy predicate on one state.

    fano's state gate runs once: a tol that is not finite and > 0, a shape
    other than 4x4 or a non-finite entry raises ValueError, and unphysical
    input yields physical=False with the other verdicts absent.  The
    commutator and parallelism witnesses must agree to rounding, or
    ConsistencyError is raised; the commutator (the defining quantity)
    decides lazy_a, and lazy_gray_zone flags the rounding case where the
    two witnesses fall on either side of tol.
    """
    g = _gate(rho, "classify", tol)
    rep = g.report
    diagnostics = {
        "hermiticity_residual": rep.hermiticity_residual,
        "trace_deviation": rep.trace_deviation,
        "min_eigenvalue": rep.min_eigenvalue,
    }
    if not rep.physical:
        return Classification(
            physical=False,
            pure=None,
            product=None,
            zero_discord_a=None,
            lazy_a=None,
            separable=None,
            witnesses={key: None for key in WITNESS_KEYS},
            diagnostics=diagnostics,
        )

    rho = g.herm
    params = _fano_params(rho)
    comm_norm = _commutator_witness(rho)
    lazy_p, residual = lazy_by_parallelism(params, tol)
    if abs(comm_norm - residual) > _ROUTE_AGREEMENT * max(1.0, comm_norm):
        raise ConsistencyError(
            "laziness routes disagree: commutator norm "
            f"{comm_norm:.3e}, parallelism residual {residual:.3e}"
        )
    lazy_c = comm_norm <= tol

    zd, _ = zero_discord_a(params, tol)
    product, product_residual = is_product(rho, tol)
    separable, negativity, _ = separable_ppt(rho, tol)
    pure, _, _ = pure_schmidt(rho, tol)
    witnesses = {
        "commutator_norm": comm_norm,
        "parallel_residual": residual,
        "negativity": negativity,
        "min_eigenvalue": rep.min_eigenvalue,
        "product_residual": product_residual,
    }
    return Classification(
        physical=True,
        pure=pure,
        product=product,
        zero_discord_a=zd,
        lazy_a=lazy_c,
        separable=separable,
        witnesses=witnesses,
        diagnostics=diagnostics,
        lazy_gray_zone=lazy_c != lazy_p,
    )
