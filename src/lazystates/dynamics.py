"""Entropy-rate interpretation of laziness.

A state is lazy exactly when the von Neumann entropy of the first qubit has
zero time derivative at t = 0 under every joint coupling Hamiltonian.
laziness_dynamics_check estimates that derivative by a central difference
of the base-2 marginal entropy along e^{-iht} rho e^{iht}, for the seeded
couplings h of unit spectral norm; these are generic, so a non-lazy state
shows a nonzero rate under them.

Rates are read in the Heisenberg picture: the first-qubit Bloch vector of
u rho u†, u = e^{-ih·step}, is x_i = tr(u†(σ_i⊗I)u · rho), and that of
u† rho u is tr(u(σ_i⊗I)u† · rho), each a real linear functional of the 32
reals of the gated rho.  The couplings of seeds seed ... seed + k - 1
make one read-only real (6k, 32) map, at most _CHUNK = 64 couplings and
96 KB.  The module's one cache, _bloch_map, keyed by (seed, k, step),
holds at most two maps, so a repeated check in one process builds,
eigensolves and exponentiates no coupling again.  A check caches only its
first map: its later ones would cycle through the two slots and each be
evicted before its next use.  The check range-checks every argument before
it gates the state or caches anything; its couplings have unit
spectral norm, so 0 < step <= 1e-3 keeps step * spectral_norm(h) <= 1e-3
and the O(step^2) truncation far below the rate thresholds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .classify import _commutator_witness
from .fano import DEFAULT_TOL, PAULI_BASIS, _certified, _gate
from .matcore import _require_int, _require_real

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

# couplings per pass: a map of _CHUNK couplings, 1,536 B each, is 96 KB
_CHUNK = 64

# σ_i ⊗ I, i = x, y, z, by a fancy index: the slice [4::4] is not C-contiguous
_SIGMA_A = PAULI_BASIS[[4, 8, 12]]
_SIGNS = np.array([-1.0, 1.0])


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


def _entropies(r):
    """Base-2 entropies of the qubit states of Bloch radii r, spectra (1 ∓ r)/2."""
    # 1 - r and 1 + r as 1 + (∓r): a sign flip is exact
    w = np.multiply.outer(r, _SIGNS)
    w += 1.0
    w /= 2.0
    w_log_w = np.zeros_like(w)
    np.log2(w, out=w_log_w, where=w > _ENTROPY_CLAMP)
    w_log_w *= w
    return -(w_log_w[:, 0] + w_log_w[:, 1])


# two maps of at most _CHUNK couplings: the cache never holds more than 192 KB
@functools.lru_cache(maxsize=2, typed=True)
def _bloch_map(seed: int, k: int, step: float):
    """Read-only (6k, 32) real map: applied to rho.view(float).ravel(), rows
    6j ... 6j + 2 give the first-qubit Bloch vector of u rho u† under the
    coupling of seed + j, and rows 6j + 3 ... 6j + 5 that of u† rho u."""
    a = []
    for j in range(k):
        # the coupling is finite and exactly Hermitian, as _coupling's h
        w, v = np.linalg.eigh(_coupling(seed + j))
        u = (v * np.exp(-1j * w * step)) @ v.conj().T
        u_dag = u.conj().T
        a += [u_dag @ _SIGMA_A @ u, u @ _SIGMA_A @ u_dag]
    # tr(a rho) of a Hermitian rho is the real inner product of their 32 reals
    rows = np.concatenate(a).view(float).reshape(6 * k, 32)
    rows.flags.writeable = False
    return rows


def _entropy_rates(rho, n, seed, step) -> tuple:
    """Central differences of the marginal entropy of a gated rho under
    the couplings of seeds seed ... seed + n - 1, one map of at most _CHUNK
    couplings a pass; only the first map is taken from the cache."""
    v = rho.view(float).ravel()
    x = np.empty(6 * n)
    for start in range(0, n, _CHUNK):
        k = min(_CHUNK, n - start)
        build = _bloch_map if start == 0 else _bloch_map.__wrapped__
        # einsum, not @: BLAS's gemv rounds a row's sum by the map's length,
        # and rate k must keep the bits of a one-coupling check at seed + k
        np.einsum("kj,j->k", build(seed + start, k, step), v, out=x[6 * start : 6 * (start + k)])
    x = x.reshape(-1, 3)
    # entropies of u rho u† and u† rho u alternate
    s = _entropies(np.sqrt(np.einsum("ki,ki->k", x, x)))
    return tuple(((s[::2] - s[1::2]) / (2.0 * step)).tolist())


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
    failure.  Requires integers n_hamiltonians >= 1 and seed >= 0 and a
    real 0 < step <= 1e-3; each is checked before rho is read.
    """
    who = "laziness_dynamics_check"
    _require_int(n_hamiltonians, 1, math.inf, who, "n_hamiltonians must be at least 1")
    _require_int(seed, 0, math.inf, who, "seed must be >= 0")
    _require_real(step, 0.0, 1e-3, who, "step must lie in (0, 1e-3]", open_below=True)
    # the check's one physicality gate; the witness and every rate then see
    # the Hermitian part
    rho = _certified(_gate(rho, who, DEFAULT_TOL), who)
    comm, rho_a = _commutator_witness(rho)
    lazy = comm <= DEFAULT_TOL
    rates = _entropy_rates(rho, n_hamiltonians, seed, step)
    max_abs = max(map(abs, rates))
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
