"""Entropy-rate interpretation of laziness.

A state is lazy exactly when the von Neumann entropy of the first qubit has
zero time derivative at t = 0 under every joint coupling Hamiltonian.
laziness_dynamics_check estimates that derivative by a central difference
of the base-2 marginal entropy along e^{-iht} rho e^{iht}, for the seeded
couplings h of unit spectral norm; these are generic, so a non-lazy state
shows a nonzero rate under them.

One bounded cache, of _PROPAGATOR_CACHE_SIZE entries, holds per (seed,
step) the read-only step propagator u = e^{-ih·step} and u†, so repeated
checks in one process build, eigensolve and exponentiate no coupling again;
a check caches only its first _PROPAGATOR_CACHE_SIZE couplings, as more,
walked in order, would each be evicted just before their next use.  The
check range-checks every argument before it certifies the state or caches
anything; its couplings have unit spectral norm, so 0 < step <= 1e-3 keeps
step * spectral_norm(h) <= 1e-3 and the O(step^2) truncation far below the
rate thresholds.  Rates come from one stacked pass over chunks of at most
_PROPAGATOR_CACHE_SIZE pairs, stacked per call and never cached, so a check
holds at most 128 KB of stacked propagators, however many couplings it
samples.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_TOL, _commutator_witness
from .fano import certify
from .matcore import InvalidArgument, _require_tol, partial_trace_b

DEFAULT_STEP = 1e-4
RATE_TOL_ZERO = 1e-6
RATE_TOL_NONZERO = 1e-3

# commutator-norm band where the sampled-coupling witness is not trusted to
# separate lazy from non-lazy; such states are logged instead of failed
COMM_GRAY_ZONE = (1e-9, 1e-4)

# marginal eigenvalues below this contribute nothing to the entropy
_ENTROPY_CLAMP = 1e-12

# (seed, step) propagators kept per process (about 1 KB each)
_PROPAGATOR_CACHE_SIZE = 256


@dataclass(frozen=True)
class DynamicsCheckReport:
    max_abs_rate: float
    rates: tuple
    lazy: bool
    commutator_norm: float
    consistent: bool
    gray_zone: bool
    caution: bool


def _coupling(seed: int):
    """The coupling of seed: a Gaussian-ensemble Hermitian 4x4, rescaled to
    unit spectral norm."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    # h is finite and its own conjugate transpose entry by entry, so eigh,
    # which reads one triangle, sees all of it
    w, _ = np.linalg.eigh(h)
    return h / max(abs(float(w[0])), abs(float(w[-1])))


def _marginal_entropies(m) -> list:
    """Base-2 entropies of the first-qubit marginals of the (k, 4, 4) stack m.

    Each marginal [[m00 + m11, m02 + m13], [., m22 + m33]] is read straight
    off m; its spectrum has qubit_spectrum's closed form.  abs and math.hypot
    run per element: numpy's vectorized abs and hypot round differently.
    """
    z = (m[:, 0, 0] + m[:, 1, 1] - (m[:, 2, 2] + m[:, 3, 3])).real.tolist()
    c = (m[:, 0, 2] + m[:, 1, 3]).tolist()
    r = [math.hypot(zk, 2.0 * abs(ck)) for zk, ck in zip(z, c)]
    w = np.array([((1.0 - rk) / 2.0, (1.0 + rk) / 2.0) for rk in r])
    log_w = np.log2(w, out=np.zeros_like(w), where=w > _ENTROPY_CLAMP)
    return (-(w * log_w).sum(axis=-1)).tolist()


@functools.lru_cache(maxsize=_PROPAGATOR_CACHE_SIZE, typed=True)
def _propagator(seed: int, step: float):
    """Read-only (u, u†), u = e^{-ih·step}, for the coupling h of seed."""
    # the coupling is finite and exactly Hermitian, as _coupling's h
    w, v = np.linalg.eigh(_coupling(seed))
    u = (v * np.exp(-1j * w * step)) @ v.conj().T
    u_dag = u.conj().T
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


def _entropy_rates(rho, pairs, step) -> tuple:
    """Central differences of the marginal entropy of a certified rho along
    each step-propagator pair (u, u†), _PROPAGATOR_CACHE_SIZE pairs a stack."""
    pairs = iter(pairs)
    rates = []
    while chunk := list(itertools.islice(pairs, _PROPAGATOR_CACHE_SIZE)):
        stack = np.array(chunk)  # (k, 2, 4, 4); stack[:, ::-1] swaps u and u†
        s = _marginal_entropies((stack @ rho @ stack[:, ::-1]).reshape(-1, 4, 4))
        rates += [(plus - minus) / (2.0 * step) for plus, minus in zip(s[::2], s[1::2])]
    return tuple(rates)


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

    rates[k] is the rate under the coupling of seed + k; caution flags a
    pure first-qubit marginal, which makes every rate ill conditioned.
    Consistent means (lazy and max |rate| <= rate_tol) or (non-lazy and
    max |rate| > nonzero_tol).  An inconsistent result whose commutator norm
    falls in COMM_GRAY_ZONE is a boundary case to log, not a failure.
    Requires n_hamiltonians >= 1, seed >= 0, 0 < step <= 1e-3, and rate_tol
    and nonzero_tol finite and > 0; each is checked before rho is read.
    """
    who = "laziness_dynamics_check"
    if n_hamiltonians < 1:
        raise InvalidArgument(f"{who}: n_hamiltonians must be at least 1 (got {n_hamiltonians})")
    if seed < 0:
        raise InvalidArgument(f"{who}: seed must be >= 0 (got {seed!r})")
    if not 0.0 < step <= 1e-3:
        raise InvalidArgument(f"{who}: step must lie in (0, 1e-3] (got {step!r})")
    _require_tol(rate_tol, who, "rate_tol")
    _require_tol(nonzero_tol, who, "nonzero_tol")
    # the check's one physicality gate; the witness and every rate then see
    # the Hermitian part
    rho = certify(rho, who)
    comm = _commutator_witness(rho)
    lazy = comm <= DEFAULT_TOL
    caution = _pure_marginal(rho)
    propagators = (
        (_propagator if k < _PROPAGATOR_CACHE_SIZE else _propagator.__wrapped__)(seed + k, step)
        for k in range(n_hamiltonians)
    )
    rates = _entropy_rates(rho, propagators, step)
    max_abs = max(abs(r) for r in rates)
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
