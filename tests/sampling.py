"""Seeded random ensembles for the tests."""

from __future__ import annotations

import numpy as np

from lazystates.belldiag import bd_spectrum
from lazystates.families import LazyDiscordantParams, SeparableFamilyParams, _qubit
from lazystates.matcore import kron


def ginibre_state(rng: np.random.Generator):
    """Random density matrix G G† / tr(G G†) with complex Gaussian G."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_hermitian(rng: np.random.Generator, n: int = 4):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, n: int = 2):
    """Haar-random unitary via phase-fixed QR of a complex Gaussian."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_local_unitary(rng: np.random.Generator):
    """U_A @ U_B for independent Haar single-qubit unitaries."""
    return kron(haar_unitary(rng), haar_unitary(rng))


def _unit_vector(rng: np.random.Generator):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _bloch(rng: np.random.Generator, max_bloch: float):
    return _unit_vector(rng) * rng.uniform(0.0, max_bloch)


def random_product_state(rng: np.random.Generator, max_bloch: float = 0.8):
    """Product of two qubit states with Bloch norms at most max_bloch."""
    return kron(_qubit(_bloch(rng, max_bloch)), _qubit(_bloch(rng, max_bloch)))


def random_classical_quantum_state(rng: np.random.Generator, max_bloch: float = 0.8):
    """p |n><n| @ rho_1 + (1-p) |-n><-n| @ rho_2 for a random axis n of A.

    Measuring A along n leaves the state unchanged: zero discord wrt A.
    """
    n = _unit_vector(rng)
    p = rng.uniform(0.1, 0.9)
    return p * kron(_qubit(n), _qubit(_bloch(rng, max_bloch))) + (1.0 - p) * kron(
        _qubit(-n), _qubit(_bloch(rng, max_bloch))
    )


def random_bell_diagonal_point(rng: np.random.Generator, min_eig: float = 0.0):
    """Uniform cube point, rejected until the state's spectrum clears min_eig."""
    while True:
        lam = rng.uniform(-1.0, 1.0, 3)
        if bd_spectrum(lam).min() >= min_eig:
            return lam


def random_lazy_discordant_params(
    rng: np.random.Generator, margin: float = 0.02
) -> LazyDiscordantParams:
    """Sample the family's admissible region with a safety margin."""
    while True:
        l2 = rng.uniform(margin, 0.5 - margin)
        l3 = rng.uniform(l2 + margin, min(1.0 - l2, 0.95))
        cap = 1.0 - margin - (l3 + l2) ** 2
        if cap <= 0.0:
            continue
        y1 = rng.uniform(-np.sqrt(cap), np.sqrt(cap))
        return LazyDiscordantParams(y1=y1, lambda2=l2, lambda3=l3)


def random_separable_params(rng: np.random.Generator) -> SeparableFamilyParams:
    return SeparableFamilyParams(
        p=rng.uniform(0.05, 0.95),
        alpha=rng.uniform(0.0, np.pi),
        beta=rng.uniform(0.0, np.pi),
        a=rng.uniform(0.0, 1.0),
        b=rng.uniform(0.0, 1.0),
    )
