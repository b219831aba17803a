"""Hierarchy predicates for 2-qubit states.

A state is "lazy" (with respect to the first qubit) when the marginal
commutes with the joint state, [rho, rho_A @ I] = 0; equivalently, when the
Bloch vector x is parallel to every column of the correlation matrix T.
Both routes measure one number, ||[rho, rho_A @ I]||_F = 0.5 * sqrt(sum_j
|x cross T[:,j]|^2), from the matrices and from the Bloch parameters; they
must agree to rounding, which keeps the equivalence under continuous test.
Physicality is decided once, by fano.validate at the caller's tolerance,
and the predicates then see the state's Hermitian part.  Zero discord is
decided by a candidate measurement direction from the normal form, then
verified exactly by the projective pinch identity.  Separability is
decided by positivity of the partial transpose, exact for two qubits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fano import FanoParams, certify, compose, decompose, normal_form, validate
from .matcore import (
    I2,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    commutator,
    frob_norm,
    herm_eig,
    kron,
    partial_trace_a,
    partial_trace_b,
    partial_transpose_b,
    qubit_spectrum,
    swap_subsystems,
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

    The only measurement directions that can work are the x direction (when
    t vanishes) or the single left singular axis of t (when t has rank one);
    two or more nonzero singular values rule discord in.  A successful
    candidate n is verified exactly against the projective pinch

        rho == (P0@I) rho (P0@I) + (P1@I) rho (P1@I),  P± = (I ± n.s)/2

    and returned rotated back into the original frame.
    Returns (verdict, n-or-None).
    """
    nf = normal_form(p)
    k = int(np.sum(nf.sigma > tol))
    x_rot = nf.x_rot
    xn = float(np.linalg.norm(x_rot))
    n_rot = None
    if k == 0:
        n_rot = x_rot / xn if xn > tol else np.array([0.0, 0.0, 1.0])
    elif k == 1:
        # ascending sigma puts the only nonzero singular axis last
        perp = math.hypot(float(x_rot[0]), float(x_rot[1]))
        if perp <= tol:
            n_rot = np.array([0.0, 0.0, 1.0])
    if n_rot is None:
        return False, None

    n = nf.o_a.T @ n_rot
    rho = compose(p)
    n_sigma = n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z
    pi0 = kron((I2 + n_sigma) / 2.0, I2)
    pi1 = kron((I2 - n_sigma) / 2.0, I2)
    residual = frob_norm(rho - pi0 @ rho @ pi0 - pi1 @ rho @ pi1)
    if residual > 10.0 * tol:
        raise ConsistencyError(
            f"zero-discord candidate failed the pinch check (residual {residual:.3e})"
        )
    return True, n


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

    Unphysical input (fano.validate at tol) yields physical=False with the
    other verdicts absent.  The commutator and parallelism witnesses must
    agree to rounding, or ConsistencyError is raised; the commutator (the
    defining quantity) decides lazy_a, and lazy_gray_zone flags the rounding
    case where the two witnesses fall on either side of tol.
    """
    rho = np.asarray(rho, dtype=complex)
    rep = validate(rho, tol)
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

    rho = (rho + rho.conj().T) / 2.0
    params = decompose(rho, tol)
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


def classify_b(rho, tol: float = DEFAULT_TOL) -> Classification:
    """Classification with the roles of the two qubits exchanged."""
    return classify(swap_subsystems(np.asarray(rho, dtype=complex)), tol)
