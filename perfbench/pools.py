"""Seeded input pools for the classify_pool and dynamics_pool workloads.

Every state carries the answer it must receive, known by construction
(the family it was drawn from, `bd_region` for Bell-diagonal points,
`separable_classify` for the separable family) or from an independent numpy
oracle (`np.linalg.eigvalsh` on the partial transpose, `tr(rho^2)`).  The
classifier under test never supplies its own expected answer.

States close to a decision threshold are redrawn, so that every expected
verdict holds with a margin many orders above the classifier's 1e-9
tolerance: no operation of a correct program fails on these pools.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from lazystates import belldiag, families

# the six verdict fields of a Classification, in output order
FIELDS = ("physical", "pure", "product", "zero_discord_a", "lazy_a", "separable")

CLASSIFY_KINDS = (
    "ginibre", "bell_diagonal", "product", "lazy_discordant", "separable_family", "pure",
)
CLASSIFY_PER_KIND = 96
CLASSIFY_UNPHYSICAL = 24  # 4% of the 600-state pool

DYNAMICS_LAZY_KINDS = ("bell_diagonal", "lazy_discordant", "product")
DYNAMICS_NONLAZY_KINDS = ("ginibre", "separable_family")
DYNAMICS_POOL = 60

# margin kept between every drawn state and the nearest verdict threshold
MARGIN = 1e-6
# non-lazy states need an entropy rate well above dynamics' 1e-3 threshold
# under every one of the 20 default couplings; this commutator floor gives it
NONLAZY_COMMUTATOR_FLOOR = 0.02

_I2 = np.eye(2, dtype=complex)
_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class PoolState:
    kind: str
    rho: np.ndarray
    expected: tuple  # FIELDS values (classify) or (lazy,) (dynamics)


# --- independent oracles (plain numpy, no lazystates code) ---------------


def _partial_transpose(rho):
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _marginal_a(rho):
    return np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2))


def _min_pt_eig(rho):
    return float(np.linalg.eigvalsh(_partial_transpose(rho))[0])


def _commutator_norm(rho):
    big = np.kron(_marginal_a(rho), _I2)
    return float(np.linalg.norm(rho @ big - big @ rho))


def _purity(rho):
    return float(np.einsum("ij,ji->", rho, rho).real)


# --- generators ------------------------------------------------------------


def _haar2(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _conjugate_locally(rng, rho):
    u = np.kron(_haar2(rng), _haar2(rng))
    out = u @ rho @ u.conj().T
    return (out + out.conj().T) / 2.0


def _qubit(bloch):
    return (_I2 + sum(b * s for b, s in zip(bloch, _PAULIS))) / 2.0


def _bloch(rng, lo, hi):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v) * rng.uniform(lo, hi)


def _bd_spectrum_min(lam):
    l1, l2, l3 = lam
    return 0.25 * min(1 - l1 + l2 + l3, 1 + l1 - l2 + l3, 1 + l1 + l2 - l3, 1 - l1 - l2 - l3)


def _ginibre(rng):
    while True:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho = rho / np.trace(rho).real
        rho = (rho + rho.conj().T) / 2.0
        if abs(_min_pt_eig(rho)) > MARGIN and _commutator_norm(rho) > NONLAZY_COMMUTATOR_FLOOR:
            return rho, (True, False, False, False, False, _min_pt_eig(rho) >= 0.0)


def _bell_diagonal(rng):
    while True:
        lam = rng.uniform(-1.0, 1.0, 3)
        octa = float(np.abs(lam).sum())
        if _bd_spectrum_min(lam) > MARGIN and abs(octa - 1.0) > MARGIN:
            break
    region = belldiag.bd_region(lam)
    expected = (
        True,
        region == "pure_vertex",
        False,
        region == "zero_discord",
        True,
        region in ("zero_discord", "lazy_separable_discordant"),
    )
    return belldiag.bd_compose(lam), expected


def _unphysical(rng):
    while True:
        lam = rng.uniform(-1.0, 1.0, 3)
        if _bd_spectrum_min(lam) < -0.01:
            return belldiag.bd_compose(lam), (False, None, None, None, None, None)


def _product(rng):
    rho = np.kron(_qubit(_bloch(rng, 0.05, 0.8)), _qubit(_bloch(rng, 0.05, 0.8)))
    return rho, (True, False, True, True, True, True)


def _lazy_discordant(rng):
    while True:
        l2 = rng.uniform(0.02, 0.48)
        l3 = rng.uniform(l2 + 0.02, min(1.0 - l2, 0.95))
        cap = 0.98 - (l3 + l2) ** 2
        if cap <= 0.0:
            continue
        y1 = rng.uniform(-math.sqrt(cap), math.sqrt(cap))
        rho = families.lazy_discordant_compose(families.LazyDiscordantParams(y1, l2, l3))
        if abs(_min_pt_eig(rho)) > MARGIN:
            return rho, (True, False, False, False, True, _min_pt_eig(rho) >= 0.0)


def _separable_family(rng):
    while True:
        params = families.SeparableFamilyParams(
            p=rng.uniform(0.1, 0.9),
            alpha=rng.uniform(0.2, math.pi - 0.2),
            beta=rng.uniform(0.2, math.pi - 0.2),
            a=rng.uniform(0.1, 1.0),
            b=rng.uniform(0.2, 1.0),
        )
        rho = families.separable_compose(params)
        if _commutator_norm(rho) > NONLAZY_COMMUTATOR_FLOOR:
            break
    label = families.separable_classify(params)
    expected = (
        True,
        _purity(rho) >= 1.0 - 1e-9,
        label == "product",
        label in ("product", "zero_discord"),
        label != "not_lazy",
        True,
    )
    return rho, expected


def _pure(rng):
    while True:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        smaller = float(np.linalg.eigvalsh(_marginal_a(rho))[0])
        # entangled, and away from the maximally entangled (lazy) point
        if 0.01 < smaller < 0.49:
            return rho, (True, True, False, False, False, False)


_GENERATORS = {
    "ginibre": _ginibre,
    "bell_diagonal": _bell_diagonal,
    "product": _product,
    "lazy_discordant": _lazy_discordant,
    "separable_family": _separable_family,
    "pure": _pure,
    "unphysical": _unphysical,
}


def _draw(rng, kinds):
    states = []
    for kind in kinds:
        rho, expected = _GENERATORS[kind](rng)
        states.append(PoolState(kind, _conjugate_locally(rng, rho), expected))
    order = rng.permutation(len(states))
    return [states[i] for i in order]


def classify_pool(seed: int):
    """600 states: 96 of each kind in CLASSIFY_KINDS plus 24 unphysical."""
    rng = np.random.default_rng([seed, 1])
    kinds = [k for k in CLASSIFY_KINDS for _ in range(CLASSIFY_PER_KIND)]
    return _draw(rng, kinds + ["unphysical"] * CLASSIFY_UNPHYSICAL)


def dynamics_pool(seed: int):
    """60 states, half lazy (DYNAMICS_LAZY_KINDS), half not (DYNAMICS_NONLAZY_KINDS)."""
    rng = np.random.default_rng([seed, 2])
    half = DYNAMICS_POOL // 2
    lazy = [DYNAMICS_LAZY_KINDS[i % 3] for i in range(half)]
    nonlazy = [DYNAMICS_NONLAZY_KINDS[i % 2] for i in range(half)]
    states = _draw(rng, lazy + nonlazy)
    return [PoolState(s.kind, s.rho, (s.kind in DYNAMICS_LAZY_KINDS,)) for s in states]


def composition(pool) -> dict:
    return dict(sorted(Counter(s.kind for s in pool).items()))


VERDICT_VALUES = ("True", "False", "None")


def verdict_counts(rows) -> list:
    """Histogram of verdict rows: one count per (field, value), in
    FIELDS x VERDICT_VALUES order."""
    counts = Counter((f, str(v)) for row in rows for f, v in zip(FIELDS, row))
    return [counts[f, v] for f in FIELDS for v in VERDICT_VALUES]
