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
c_i0 c_0j)^2).  Zero discord is the rank of [x | T], read off one LAPACK
SVD; separability is positivity of the partial transpose, exact for two
qubits.  classify reports one witness per verdict and alone compares them
with tol.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fano import _coeffs, _gate
from .matcore import (
    I2,
    commutator,
    frob_norm,
    kron,
    partial_trace_b,
    partial_transpose_b,
)

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
    return frob_norm(commutator(rho, kron(rho_a, I2)))


def _parallel_residual(x, t) -> float:
    # a zero x or a zero column of t contributes nothing: parallelism holds
    # vacuously.  The nine components x cross t[:, j], each formed as
    # np.cross forms it (one difference of two rounded products) and laid
    # out (j, k) as it does
    (x0, x1, x2), (t0, t1, t2) = x.tolist(), t.tolist()
    cross = [(x1 * c - x2 * b, x2 * a - x0 * c, x0 * b - x1 * a) for a, b, c in zip(t0, t1, t2)]
    return 0.5 * frob_norm(cross)


def _discord_svd(m):
    """(sigma_2, n) of the 3x4 matrix m = [x | t].

    A 2-qubit state has zero discord with respect to A exactly when m has
    rank at most one (Dakić, Vedral, Brukner, PRL 105, 190502, 2010), so
    the witness is sigma_2(m).  The measurement direction of a zero-discord
    state is the leading left singular vector n of m: the projective pinch
    along n,

        rho -> (P0@I) rho (P0@I) + (P1@I) rho (P1@I),  P± = (I ± n.s)/2,

    moves rho by exactly 0.5 * hypot(sigma_2, sigma_3) in Frobenius norm.
    """
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return float(s[1]), u[:, 0]


def _product_residual(c) -> float:
    # rho - rho_A@rho_B = sum_ij (c_ij - c_i0 c_0j) s_i@s_j / 4, and the 16
    # products s_i@s_j are orthogonal with squared norm 4
    d = c - c[:, :1] * c[:1, :]
    return 0.5 * float(np.sqrt(np.einsum("ij,ij->", d, d)))


def _ppt(herm):
    # (negativity, min eigenvalue) of the partial transpose, exactly Hermitian as herm is
    w = np.linalg.eigh(partial_transpose_b(herm))[0]
    return float(np.abs(w[w < 0.0]).sum()), float(w[0])


def _purity(c) -> float:
    # tr rho^2 = sum_ij c_ij^2 / 4, by the same orthogonality
    return float(np.einsum("ij,ij->", c, c)) / 4.0


def classify(rho, tol: float = DEFAULT_TOL) -> Classification:
    """Every hierarchy verdict of one state, each with its one witness.

    fano's state gate runs once: a tol outside (0, 1), a shape other than
    4x4 or a non-finite entry raises ValueError, and unphysical input
    yields physical=False with the other verdicts absent and every witness
    None.  diagnostics holds the gate's report.  Every verdict compares its
    witness with tol, absolute: lazy_a (commutator_norm, the defining
    quantity), product (product_residual) and zero_discord_a (sigma_2 of
    [x | T]) pass at <= tol, separable at min_pt_eigenvalue >= -tol, pure
    unless purity tr(rho^2) < 1 - tol.  negativity sums the magnitudes of
    the negative partial-transpose eigenvalues.
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
    rho_a = partial_trace_b(rho)
    comm_norm = _commutator_witness(rho, rho_a)
    residual = _parallel_residual(c[1:, 0], c[1:, 1:])
    if abs(comm_norm - residual) > _ROUTE_AGREEMENT * max(1.0, comm_norm):
        raise ConsistencyError(
            "laziness routes disagree: commutator norm "
            f"{comm_norm:.3e}, parallelism residual {residual:.3e}"
        )
    sigma_2, _ = _discord_svd(c[1:])
    product_residual = _product_residual(c)
    negativity, min_pt_eig = _ppt(rho)
    purity = _purity(c)
    witnesses = {
        "commutator_norm": comm_norm,
        "parallel_residual": residual,
        "sigma_2": sigma_2,
        "negativity": negativity,
        "min_pt_eigenvalue": min_pt_eig,
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
        separable=min_pt_eig >= -tol,
        witnesses=witnesses,
        diagnostics=g.diagnostics,
        lazy_gray_zone=lazy_c != (residual <= tol),
    )
