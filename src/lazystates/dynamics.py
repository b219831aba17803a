"""Entropy-rate interpretation of laziness.

A state is lazy exactly when the von Neumann entropy of the first qubit has
zero time derivative at t = 0 under every joint coupling Hamiltonian.  The
derivative is estimated by a central difference of the base-2 marginal
entropy along e^{-iht} rho e^{iht}; non-laziness is witnessed by sampling
generic Hamiltonians, which generically see the nonzero derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classify import lazy_by_commutator
from .fano import certify
from .matcore import herm_eig, herm_exp, partial_trace_b, qubit_spectrum

DEFAULT_STEP = 1e-4
RATE_TOL_ZERO = 1e-6
RATE_TOL_NONZERO = 1e-3

# commutator-norm band where the sampled-coupling witness is not trusted to
# separate lazy from non-lazy; such states are logged instead of failed
COMM_GRAY_ZONE = (1e-9, 1e-4)

# marginal eigenvalues below this contribute nothing to the entropy
_ENTROPY_CLAMP = 1e-12


@dataclass(frozen=True)
class CouplingHamiltonian:
    h: np.ndarray
    seed: int | None = None


@dataclass(frozen=True)
class RateReport:
    rate: float
    step: float
    hamiltonian_seed: int | None
    caution: bool


@dataclass(frozen=True)
class DynamicsCheckReport:
    max_abs_rate: float
    rates: tuple
    lazy: bool
    commutator_norm: float
    consistent: bool
    gray_zone: bool
    caution: bool


def random_hamiltonian(seed: int) -> CouplingHamiltonian:
    """Gaussian-ensemble Hermitian 4x4 coupling, rescaled to unit spectral norm."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    w, _ = herm_eig(h)
    spectral = max(abs(float(w[0])), abs(float(w[-1])))
    return CouplingHamiltonian(h=h / spectral, seed=seed)


def _coupling_matrix(h):
    if isinstance(h, CouplingHamiltonian):
        return h.h
    return np.asarray(h, dtype=complex)


def evolve(rho, h, t: float):
    """Conjugate rho by e^{-iht}; trace and spectrum are preserved."""
    rho = certify(rho, "evolve")
    u = herm_exp(_coupling_matrix(h), t)
    return u @ rho @ u.conj().T


def entropy_a(rho) -> float:
    """Base-2 von Neumann entropy of the first-qubit marginal."""
    rho = certify(rho, "entropy_a")
    return _entropy2(partial_trace_b(rho))


def _entropy2(marginal) -> float:
    w = qubit_spectrum(marginal)
    w = w[w > _ENTROPY_CLAMP]
    return float(-(w * np.log2(w)).sum())


def entropy_rate_at_zero(rho, h, step: float = DEFAULT_STEP) -> RateReport:
    """Central-difference d/dt of the marginal entropy at t = 0.

    Requires 0 < step * spectral_norm(h) <= 1e-3 so the O(step^2) truncation
    stays far below the zero/nonzero decision thresholds.  A pure first-qubit
    marginal makes the derivative ill conditioned; the report then carries a
    caution flag.
    """
    return _entropy_rate(certify(rho, "entropy_rate_at_zero"), h, step)


def _entropy_rate(rho, h, step):
    """entropy_rate_at_zero on a state the caller has already certified."""
    hm = _coupling_matrix(h)
    w, v = herm_eig(hm)
    spectral = max(abs(float(w[0])), abs(float(w[-1])))
    if step <= 0.0 or step * spectral > 1e-3:
        raise ValueError(
            "entropy_rate_at_zero: require 0 < step * spectral_norm(h) <= 1e-3 "
            f"(got step={step}, spectral norm={spectral:.3g})"
        )
    marginal = partial_trace_b(rho)
    purity = float(np.einsum("ij,ji->", marginal, marginal).real)
    caution = purity >= 1.0 - 1e-12

    u_plus = (v * np.exp(-1j * w * step)) @ v.conj().T
    s_plus = _entropy2(partial_trace_b(u_plus @ rho @ u_plus.conj().T))
    u_minus = u_plus.conj().T
    s_minus = _entropy2(partial_trace_b(u_minus @ rho @ u_minus.conj().T))
    rate = (s_plus - s_minus) / (2.0 * step)
    return RateReport(
        rate=rate,
        step=step,
        hamiltonian_seed=h.seed if isinstance(h, CouplingHamiltonian) else None,
        caution=caution,
    )


def _consistency(lazy, max_rate, comm_norm, rate_tol, nonzero_tol):
    if lazy:
        consistent = max_rate <= rate_tol
    else:
        consistent = max_rate > nonzero_tol
    gray = not consistent and COMM_GRAY_ZONE[0] <= comm_norm <= COMM_GRAY_ZONE[1]
    return consistent, gray


def laziness_dynamics_check(
    rho,
    n_hamiltonians: int = 20,
    seed: int = 0,
    step: float = DEFAULT_STEP,
    rate_tol: float = RATE_TOL_ZERO,
    nonzero_tol: float = RATE_TOL_NONZERO,
) -> DynamicsCheckReport:
    """Compare the classifier's lazy verdict against sampled entropy rates.

    Consistent means (lazy and max |rate| <= rate_tol) or (non-lazy and
    max |rate| > nonzero_tol).  An inconsistent result whose commutator norm
    falls in COMM_GRAY_ZONE is a boundary case to log, not a failure.
    """
    # lazy_by_commutator is the check's one physicality gate
    lazy, comm = lazy_by_commutator(rho)
    rho = np.asarray(rho, dtype=complex)
    rates = tuple(
        _entropy_rate(rho, random_hamiltonian(seed + k), step)
        for k in range(n_hamiltonians)
    )
    max_abs = max(abs(r.rate) for r in rates)
    consistent, gray = _consistency(lazy, max_abs, comm, rate_tol, nonzero_tol)
    return DynamicsCheckReport(
        max_abs_rate=max_abs,
        rates=rates,
        lazy=lazy,
        commutator_norm=comm,
        consistent=consistent,
        gray_zone=gray,
        caution=any(r.caution for r in rates),
    )
