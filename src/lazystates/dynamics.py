"""Entropy-rate interpretation of laziness.

A state is lazy exactly when the von Neumann entropy of the first qubit has
zero time derivative at t = 0 under every joint coupling Hamiltonian.  The
derivative is estimated by a central difference of the base-2 marginal
entropy along e^{-iht} rho e^{iht}; non-laziness is witnessed by sampling
generic Hamiltonians, which generically see the nonzero derivative.

Two bounded caches, of _COUPLING_CACHE_SIZE entries each, serve the seeded
couplings.  One holds, per seed, the normalised coupling and its
eigendecomposition; the other holds, per (seed, step), the step propagator
u = e^{-ih·step} and u†.  All their arrays are read-only, so repeated checks
in one process eigensolve no coupling and exponentiate none again.  The step
guard runs before anything is cached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_TOL, _commutator_witness
from .fano import certify
from .matcore import herm_eig, herm_exp, partial_trace_b

DEFAULT_STEP = 1e-4
RATE_TOL_ZERO = 1e-6
RATE_TOL_NONZERO = 1e-3

# commutator-norm band where the sampled-coupling witness is not trusted to
# separate lazy from non-lazy; such states are logged instead of failed
COMM_GRAY_ZONE = (1e-9, 1e-4)

# marginal eigenvalues below this contribute nothing to the entropy
_ENTROPY_CLAMP = 1e-12

# seeded couplings, and (seed, step) propagators, kept per process (about
# 1 KB each)
_COUPLING_CACHE_SIZE = 256


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


@functools.lru_cache(maxsize=_COUPLING_CACHE_SIZE, typed=True)
def _coupling(seed: int):
    """Read-only (h, w, v): the coupling of random_hamiltonian(seed) and its
    eigendecomposition h = v @ diag(w) @ v†."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    w, _ = herm_eig(h)
    h = h / max(abs(float(w[0])), abs(float(w[-1])))
    w, v = herm_eig(h)
    for a in (h, w, v):
        a.flags.writeable = False
    return h, w, v


def random_hamiltonian(seed: int) -> CouplingHamiltonian:
    """Gaussian-ensemble Hermitian 4x4 coupling, rescaled to unit spectral norm."""
    return CouplingHamiltonian(h=_coupling(seed)[0].copy(), seed=seed)


def _coupling_matrix(h):
    if isinstance(h, CouplingHamiltonian):
        return h.h
    return np.asarray(h, dtype=complex)


def evolve(rho, h, t: float):
    """Conjugate rho by e^{-iht}; trace and spectrum are preserved."""
    rho = certify(rho, "evolve")
    if not math.isfinite(t):
        raise ValueError(f"evolve: t must be finite (got {t})")
    u = herm_exp(_coupling_matrix(h), t)
    return u @ rho @ u.conj().T


def entropy_a(rho) -> float:
    """Base-2 von Neumann entropy of the first-qubit marginal."""
    return _marginal_entropy(certify(rho, "entropy_a"))


def _marginal_entropy(m) -> float:
    """Base-2 entropy of the first-qubit marginal of the 4x4 state m.

    The marginal [[m00 + m11, m02 + m13], [., m22 + m33]] is read straight
    off m; its spectrum has qubit_spectrum's closed form.
    """
    r = math.hypot(
        float((m[0, 0] + m[1, 1] - (m[2, 2] + m[3, 3])).real),
        2.0 * abs(m[0, 2] + m[1, 3]),
    )
    w = np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])
    w = w[w > _ENTROPY_CLAMP]
    return float(-(w * np.log2(w)).sum())


def _step_propagators(w, v, step):
    """(u, u†) with u = e^{-ih·step}, h = v @ diag(w) @ v†, once the step
    passes the guard."""
    spectral = max(abs(float(w[0])), abs(float(w[-1])))
    if not 0.0 < step * spectral <= 1e-3:
        raise ValueError(
            "entropy_rate_at_zero: require 0 < step * spectral_norm(h) <= 1e-3 "
            f"(got step={step}, spectral norm={spectral:.3g})"
        )
    u = (v * np.exp(-1j * w * step)) @ v.conj().T
    return u, u.conj().T


@functools.lru_cache(maxsize=_COUPLING_CACHE_SIZE, typed=True)
def _propagator(seed: int, step: float):
    """Read-only _step_propagators of random_hamiltonian(seed)'s coupling."""
    u, u_dag = _step_propagators(*_coupling(seed)[1:], step)
    # u_dag is a transposed view; its base is locked too
    for a in (u, u_dag, u_dag.base):
        a.flags.writeable = False
    return u, u_dag


def _pure_marginal(rho) -> bool:
    """True when the first-qubit marginal is pure to 1e-12, where the
    entropy derivative is ill conditioned."""
    marginal = partial_trace_b(rho)
    purity = float(np.einsum("ij,ji->", marginal, marginal).real)
    return purity >= 1.0 - 1e-12


def _entropy_rate(rho, u, u_dag, step) -> float:
    """Central difference of the marginal entropy of a certified rho along
    the step propagators (u, u†)."""
    s_plus = _marginal_entropy(u @ rho @ u_dag)
    s_minus = _marginal_entropy(u_dag @ rho @ u)
    return (s_plus - s_minus) / (2.0 * step)


def entropy_rate_at_zero(rho, h, step: float = DEFAULT_STEP) -> RateReport:
    """Central-difference d/dt of the marginal entropy at t = 0.

    Requires 0 < step * spectral_norm(h) <= 1e-3 so the O(step^2) truncation
    stays far below the zero/nonzero decision thresholds.  A pure first-qubit
    marginal makes the derivative ill conditioned; the report then carries a
    caution flag.
    """
    rho = certify(rho, "entropy_rate_at_zero")
    u, u_dag = _step_propagators(*herm_eig(_coupling_matrix(h)), step)
    return RateReport(
        rate=_entropy_rate(rho, u, u_dag, step),
        step=step,
        hamiltonian_seed=h.seed if isinstance(h, CouplingHamiltonian) else None,
        caution=_pure_marginal(rho),
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
    if n_hamiltonians < 1:
        raise ValueError(
            "laziness_dynamics_check: n_hamiltonians must be at least 1 "
            f"(got {n_hamiltonians})"
        )
    # the check's one physicality gate; the witness and every rate then see
    # the Hermitian part
    rho = certify(rho, "laziness_dynamics_check")
    comm = _commutator_witness(rho)
    lazy = comm <= DEFAULT_TOL
    caution = _pure_marginal(rho)
    rates = tuple(
        RateReport(
            rate=_entropy_rate(rho, *_propagator(seed + k, step), step),
            step=step,
            hamiltonian_seed=seed + k,
            caution=caution,
        )
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
        caution=caution,
    )
