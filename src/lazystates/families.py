"""Witness-state families with closed-form analyses.

Two generators cover the interesting strict inclusions of the hierarchy:

* lazy-but-discordant states
      rho = (I@I + y1 I@s1 + l2 s2@s2 + l3 s3@s3) / 4
  with 0 < l2 < l3 and y1^2 + (l3 + l2)^2 <= 1 (positivity); their marginal
  on the first qubit is I/2, so they are lazy, and the two nonzero singular
  values of T rule discord in.

* separable-but-not-lazy mixtures
      rho = p |psi1><psi1| @ rho1 + (1-p) |psi2><psi2| @ rho2
  with |psi1> at the Bloch north pole, |psi2> tilted by alpha in the x-z
  plane, rho1 with Bloch vector a*(0,0,1) and rho2 with b*(sin beta, 0,
  cos beta).  The mixture is product when psi1 = psi2 or rho1 = rho2,
  zero-discord when alpha = pi, and otherwise not lazy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import I2, SIGMA_X, SIGMA_Y, SIGMA_Z, kron


@dataclass(frozen=True)
class LazyDiscordantParams:
    y1: float
    lambda2: float
    lambda3: float


@dataclass(frozen=True)
class SeparableFamilyParams:
    p: float
    alpha: float
    beta: float
    a: float
    b: float


def check_lazy_discordant(q: LazyDiscordantParams) -> None:
    """Raise ValueError naming the violated inequality, if any."""
    if not 0.0 < q.lambda2:
        raise ValueError(
            f"lazy-discordant family requires 0 < lambda2 (got lambda2={q.lambda2})"
        )
    if not q.lambda2 < q.lambda3:
        raise ValueError(
            "lazy-discordant family requires lambda2 < lambda3 strictly "
            f"(got lambda2={q.lambda2}, lambda3={q.lambda3})"
        )
    s = q.lambda3 + q.lambda2
    # either term beyond 1 breaks the bound alone, and squaring it may overflow;
    # the negated test also rejects a NaN y1
    if not (abs(q.y1) <= 1.0 and abs(s) <= 1.0 and q.y1**2 + s**2 <= 1.0):
        raise ValueError(
            "positivity bound violated: y1^2 + (lambda3 + lambda2)^2 > 1 "
            f"(got y1={q.y1}, lambda2={q.lambda2}, lambda3={q.lambda3})"
        )


def lazy_discordant_compose(q: LazyDiscordantParams):
    """Compose the lazy-but-discordant state; rejects invalid parameters."""
    check_lazy_discordant(q)
    rho = (
        np.eye(4, dtype=complex)
        + q.y1 * kron(I2, SIGMA_X)
        + q.lambda2 * kron(SIGMA_Y, SIGMA_Y)
        + q.lambda3 * kron(SIGMA_Z, SIGMA_Z)
    )
    return rho / 4.0


def check_separable_params(s: SeparableFamilyParams) -> None:
    if not 0.0 < s.p < 1.0:
        raise ValueError(
            f"mixing weight p must lie strictly inside (0, 1) (got p={s.p})"
        )
    if not 0.0 <= s.alpha <= math.pi:
        raise ValueError(f"alpha must lie in [0, pi] (got alpha={s.alpha})")
    if not 0.0 <= s.beta <= math.pi:
        raise ValueError(f"beta must lie in [0, pi] (got beta={s.beta})")
    if not 0.0 <= s.a <= 1.0:
        raise ValueError(f"a must lie in [0, 1] (got a={s.a})")
    if not 0.0 <= s.b <= 1.0:
        raise ValueError(f"b must lie in [0, 1] (got b={s.b})")


def _qubit(bloch):
    return (I2 + bloch[0] * SIGMA_X + bloch[1] * SIGMA_Y + bloch[2] * SIGMA_Z) / 2.0


def separable_compose(s: SeparableFamilyParams):
    """Compose the two-term separable mixture."""
    check_separable_params(s)
    psi1 = _qubit((0.0, 0.0, 1.0))
    psi2 = _qubit((math.sin(s.alpha), 0.0, math.cos(s.alpha)))
    rho1 = _qubit((0.0, 0.0, s.a))
    rho2 = _qubit((s.b * math.sin(s.beta), 0.0, s.b * math.cos(s.beta)))
    return s.p * kron(psi1, rho1) + (1.0 - s.p) * kron(psi2, rho2)


def separable_classify(s: SeparableFamilyParams) -> str:
    """Closed-form label: product, zero_discord or not_lazy.

    Product when the two pure components coincide (alpha = 0) or the two
    second-qubit states coincide (b sin beta = 0 and a = b cos beta, which
    subsumes a = b = 0); zero-discord when the components are orthogonal
    (alpha = pi); otherwise the state is not lazy.  Each equality holds
    within 1e-9, absolute.
    """
    check_separable_params(s)
    tol = 1e-9
    same_b_state = (
        abs(s.b * math.sin(s.beta)) <= tol and abs(s.a - s.b * math.cos(s.beta)) <= tol
    )
    if s.alpha <= tol or same_b_state:
        return "product"
    if math.pi - s.alpha <= tol:
        return "zero_discord"
    return "not_lazy"
