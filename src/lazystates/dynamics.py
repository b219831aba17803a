"""Entropy-rate interpretation of laziness.

A state is lazy exactly when the von Neumann entropy of the first qubit has
zero time derivative at t = 0 under every joint coupling Hamiltonian.
laziness_dynamics_check estimates that derivative by a central difference
of the base-2 marginal entropy along e^{-iht} rho e^{iht}, for the seeded
couplings h of unit spectral norm; these are generic, so a non-lazy state
shows a nonzero rate under them.

Rates come from one stacked pass per chunk of at most _CHUNK couplings: a
read-only (k, 2, 4, 4) stack of the step propagators u = e^{-ih·step} and
u† of the couplings of seeds seed ... seed + k - 1, 128 KB at most.  The
module's one cache, _propagator_stack, keyed by (seed, k, step), holds at
most two such stacks, 256 KB, so a repeated check in one process builds,
eigensolves, exponentiates and stacks no coupling again.  A check caches
only its first stack: its later ones would cycle through the two slots and
each be evicted before its next use.  A check with another n builds and
caches its own stack.  The check range-checks every argument before it
certifies the state or caches anything; its couplings have unit spectral
norm, so 0 < step <= 1e-3 keeps step * spectral_norm(h) <= 1e-3 and the
O(step^2) truncation far below the rate thresholds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import DEFAULT_TOL, _commutator_witness
from .fano import certify
from .matcore import InvalidArgument, partial_trace_b

DEFAULT_STEP = 1e-4
# the fixed max |rate| thresholds of the check: a lazy state's rates are at
# most RATE_TOL_ZERO, a non-lazy state's exceed RATE_TOL_NONZERO
RATE_TOL_ZERO = 1e-6
RATE_TOL_NONZERO = 1e-3

# commutator-norm band where the sampled-coupling witness is not trusted to
# separate lazy from non-lazy; such states are logged instead of failed
COMM_GRAY_ZONE = (1e-9, 1e-4)

# marginal eigenvalues below this contribute nothing to the entropy
_ENTROPY_CLAMP = 1e-12

# couplings per stacked pass: a stack of _CHUNK (u, u†) pairs is 128 KB
_CHUNK = 256


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
    off m; its spectrum is (1 ∓ |x|)/2, x its Bloch vector.  abs and math.hypot
    run per element: numpy's vectorized abs and hypot round differently.
    """
    z = (m[:, 0, 0] + m[:, 1, 1] - (m[:, 2, 2] + m[:, 3, 3])).real.tolist()
    c = (m[:, 0, 2] + m[:, 1, 3]).tolist()
    r = np.array([math.hypot(zk, 2.0 * abs(ck)) for zk, ck in zip(z, c)])
    # 1 - r and 1 + r as 1 + (∓r): a sign flip is exact
    w = (1.0 + np.multiply.outer(r, (-1.0, 1.0))) / 2.0
    log_w = np.log2(w, out=np.zeros_like(w), where=w > _ENTROPY_CLAMP)
    return (-(w * log_w).sum(axis=-1)).tolist()


def _propagator(seed: int, step: float):
    """(u, u†), u = e^{-ih·step}, for the coupling h of seed."""
    # the coupling is finite and exactly Hermitian, as _coupling's h
    w, v = np.linalg.eigh(_coupling(seed))
    u = (v * np.exp(-1j * w * step)) @ v.conj().T
    return u, u.conj().T


# two stacks of at most _CHUNK pairs: the cache never holds more than 256 KB
@functools.lru_cache(maxsize=2, typed=True)
def _propagator_stack(seed: int, k: int, step: float):
    """Read-only (k, 2, 4, 4) stack of the pairs (u, u†) of seeds seed ... seed + k - 1."""
    stack = np.array([_propagator(seed + j, step) for j in range(k)])
    stack.flags.writeable = False
    return stack


def _entropy_rates(rho, n, seed, step) -> tuple:
    """Central differences of the marginal entropy of a certified rho under
    the couplings of seeds seed ... seed + n - 1, one stack of at most _CHUNK
    a pass; only the first stack is taken from the cache."""
    rates = []
    for start in range(0, n, _CHUNK):
        build = _propagator_stack if start == 0 else _propagator_stack.__wrapped__
        stack = build(seed + start, min(_CHUNK, n - start), step)
        # stack[:, ::-1] swaps u and u†
        s = _marginal_entropies((stack @ rho @ stack[:, ::-1]).reshape(-1, 4, 4))
        rates += [(plus - minus) / (2.0 * step) for plus, minus in zip(s[::2], s[1::2])]
    return tuple(rates)


def _consistency(lazy, max_rate, comm_norm):
    if lazy:
        consistent = max_rate <= RATE_TOL_ZERO
    else:
        consistent = max_rate > RATE_TOL_NONZERO
    gray = not consistent and COMM_GRAY_ZONE[0] <= comm_norm <= COMM_GRAY_ZONE[1]
    return consistent, gray


def laziness_dynamics_check(
    rho,
    n_hamiltonians: int = 20,
    seed: int = 0,
    step: float = DEFAULT_STEP,
) -> DynamicsCheckReport:
    """Compare the classifier's lazy verdict against sampled entropy rates.

    rates[k] is the rate under the coupling of seed + k; caution flags a
    pure first-qubit marginal, which makes every rate ill conditioned.
    Consistent means (lazy and max |rate| <= RATE_TOL_ZERO) or (non-lazy
    and max |rate| > RATE_TOL_NONZERO).  An inconsistent result whose
    commutator norm falls in COMM_GRAY_ZONE is a boundary case to log, not a
    failure.  Requires n_hamiltonians >= 1, seed >= 0 and 0 < step <= 1e-3;
    each is checked before rho is read.
    """
    who = "laziness_dynamics_check"
    if n_hamiltonians < 1:
        raise InvalidArgument(f"{who}: n_hamiltonians must be at least 1 (got {n_hamiltonians})")
    if seed < 0:
        raise InvalidArgument(f"{who}: seed must be >= 0 (got {seed!r})")
    if not 0.0 < step <= 1e-3:
        raise InvalidArgument(f"{who}: step must lie in (0, 1e-3] (got {step!r})")
    # the check's one physicality gate; the witness and every rate then see
    # the Hermitian part
    rho = certify(rho, who)
    rho_a = partial_trace_b(rho)
    comm = _commutator_witness(rho, rho_a)
    lazy = comm <= DEFAULT_TOL
    rates = _entropy_rates(rho, n_hamiltonians, seed, step)
    max_abs = max(abs(r) for r in rates)
    consistent, gray = _consistency(lazy, max_abs, comm)
    return DynamicsCheckReport(
        max_abs_rate=max_abs,
        rates=rates,
        lazy=lazy,
        commutator_norm=comm,
        consistent=consistent,
        gray_zone=gray,
        # a marginal pure to 1e-12 leaves the entropy derivative ill conditioned
        caution=float(np.einsum("ij,ji->", rho_a, rho_a).real) >= 1.0 - 1e-12,
    )
