import math

import numpy as np
import pytest

from lazystates.classify import DEFAULT_TOL as TOL, classify
from lazystates.families import (
    LazyDiscordantParams,
    SeparableFamilyParams,
    check_lazy_discordant,
    lazy_discordant_compose,
    separable_classify,
    separable_compose,
)
from lazystates.fano import decompose
from oracles import frob_norm, lazy_discordant_spectrum, partial_trace_b, separable_fano
from sampling import random_separable_params

# expected spectrum of the (0.5, 0.3, 0.4) state: (1 ± sqrt(0.74))/4 and
# (1 ± sqrt(0.26))/4, frozen from the closed form
SPECTRUM_05_03_04 = (
    0.46505813167606567,
    0.03494186832393433,
    0.37747548783981963,
    0.12252451216018037,
)


def test_lazy_discordant_valid_state():
    q = LazyDiscordantParams(0.5, 0.3, 0.4)
    rho = lazy_discordant_compose(q)
    cls = classify(rho)
    assert cls.physical and cls.lazy_a and not cls.zero_discord_a
    # the first-qubit marginal is maximally mixed
    assert frob_norm(partial_trace_b(rho) - np.eye(2) / 2) <= 1e-14


@pytest.mark.parametrize(
    "params,fragment",
    [
        (LazyDiscordantParams(0.0, 0.5, 0.5), "lambda2 < lambda3"),
        (LazyDiscordantParams(0.0, 0.0, 0.4), "0 < lambda2"),
        (LazyDiscordantParams(0.9, 0.3, 0.4), "positivity"),
        (LazyDiscordantParams(float("nan"), 0.3, 0.4), "positivity"),
        # squaring these overflows; the bound must still reject them
        (LazyDiscordantParams(0.0, 1.0, 1.3407807929942597e154), "positivity"),
        (LazyDiscordantParams(-1e200, 0.3, 0.4), "positivity"),
        # and adding this int to a float overflows
        (LazyDiscordantParams(0.0, 1.0, 10**400), "positivity"),
    ],
)
def test_lazy_discordant_rejections(params, fragment):
    with pytest.raises(ValueError, match=fragment):
        lazy_discordant_compose(params)


def test_lazy_discordant_accepts_exactly_the_positivity_region():
    # points straddling y1^2 + (l3 + l2)^2 = 1, where squaring cannot overflow
    rng = np.random.default_rng(23)
    verdicts = set()
    for _ in range(2000):
        l2 = rng.uniform(0.01, 0.6)
        l3 = l2 + rng.uniform(0.01, 0.6)
        y1 = math.copysign(math.sqrt(abs(1.0 - (l3 + l2) ** 2)), rng.uniform(-1, 1))
        y1 *= 1.0 + rng.choice([-1e-16, 0.0, 1e-16, 1e-3])
        q = LazyDiscordantParams(y1, l2, l3)
        inside = y1**2 + (l3 + l2) ** 2 <= 1.0
        try:
            check_lazy_discordant(q)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == inside, q
        verdicts.add(accepted)
    assert verdicts == {True, False}


def test_lazy_discordant_spectrum_frozen_values():
    sp = lazy_discordant_spectrum(LazyDiscordantParams(0.5, 0.3, 0.4))
    assert np.allclose(sorted(sp), sorted(SPECTRUM_05_03_04), atol=1e-15)
    sp = lazy_discordant_spectrum(LazyDiscordantParams(0.0, 0.3, 0.4))
    assert np.allclose(sorted(sp), sorted([0.425, 0.075, 0.275, 0.225]), atol=1e-15)
    sp = lazy_discordant_spectrum(LazyDiscordantParams(0.0, 0.0, 0.0))
    assert np.allclose(sp, [0.25] * 4)
    # valid for any triple: squaring y1 = 1e200 would overflow
    sp = lazy_discordant_spectrum(LazyDiscordantParams(1e200, 0.1, 0.2))
    assert sp.tolist() == [2.5e199, -2.5e199, 2.5e199, -2.5e199]


def test_lazy_discordant_spectrum_matches_eigensolver():
    rng = np.random.default_rng(17)
    for _ in range(300):
        l2 = rng.uniform(0.01, 0.45)
        l3 = rng.uniform(l2 + 0.01, min(0.99 - l2, 0.95))
        cap = math.sqrt(max(1e-9, 1.0 - (l3 + l2) ** 2))
        q = LazyDiscordantParams(rng.uniform(-cap, cap), l2, l3)
        w, _ = np.linalg.eigh(lazy_discordant_compose(q))
        assert np.max(np.abs(np.sort(lazy_discordant_spectrum(q)) - w)) <= 1e-12


def test_separable_compose_special_cases():
    # alpha = 0: both pure components coincide -> product
    cls = classify(separable_compose(SeparableFamilyParams(0.4, 0.0, 0.7, 0.3, 0.6)))
    assert cls.product
    # alpha = pi: orthogonal components -> zero discord
    cls = classify(separable_compose(SeparableFamilyParams(0.4, math.pi, 0.7, 0.3, 0.6)))
    assert cls.zero_discord_a and not cls.product
    # a = b = 0: both B factors maximally mixed -> product
    cls = classify(separable_compose(SeparableFamilyParams(0.4, 1.0, 0.7, 0.0, 0.0)))
    assert cls.product


def test_separable_compose_always_separable():
    rng = np.random.default_rng(19)
    for _ in range(100):
        rho = separable_compose(random_separable_params(rng))
        w = classify(rho).witnesses
        assert w["min_pt_eigenvalue"] >= -TOL and w["negativity"] <= 1e-12


@pytest.mark.parametrize(
    "bad",
    [
        SeparableFamilyParams(0.0, 1.0, 1.0, 0.5, 0.5),
        SeparableFamilyParams(1.0, 1.0, 1.0, 0.5, 0.5),
        SeparableFamilyParams(0.5, -0.1, 1.0, 0.5, 0.5),
        SeparableFamilyParams(0.5, 1.0, 3.5, 0.5, 0.5),
        SeparableFamilyParams(0.5, 1.0, 1.0, 1.5, 0.5),
        SeparableFamilyParams(0.5, 1.0, 1.0, 0.5, -0.5),
    ],
)
def test_separable_params_rejections(bad):
    with pytest.raises(ValueError):
        separable_compose(bad)


# a field that is not a real number, or is a bool, fails the family's own
# range rule with a plain ValueError, as the CLI's exit 1 needs
@pytest.mark.parametrize("call", [separable_compose, separable_classify])
@pytest.mark.parametrize(
    "bad,message",
    [
        (
            SeparableFamilyParams("a", 0, 0, 0, 0),
            "mixing weight p must lie strictly inside (0, 1) (got p=a)",
        ),
        (
            SeparableFamilyParams(0.5, True, 1.0, 0.5, 0.5),
            "alpha must lie in [0, pi] (got alpha=True)",
        ),
        (
            SeparableFamilyParams(0.5, 1.0, None, 0.5, 0.5),
            "beta must lie in [0, pi] (got beta=None)",
        ),
        (SeparableFamilyParams(0.5, 1.0, 1.0, True, 0.5), "a must lie in [0, 1] (got a=True)"),
        (SeparableFamilyParams(0.5, 1.0, 1.0, 0.5, "1"), "b must lie in [0, 1] (got b=1)"),
    ],
)
def test_separable_calls_reject_a_field_that_is_not_real(call, bad, message):
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "bad,message",
    [
        (
            LazyDiscordantParams("a", 0.1, 0.2),
            "positivity bound violated: y1^2 + (lambda3 + lambda2)^2 > 1 "
            "(got y1=a, lambda2=0.1, lambda3=0.2)",
        ),
        (
            LazyDiscordantParams(0.0, True, 0.4),
            "lazy-discordant family requires 0 < lambda2 (got lambda2=True)",
        ),
        (
            LazyDiscordantParams(0.0, 0.1, None),
            "lazy-discordant family requires lambda2 < lambda3 strictly "
            "(got lambda2=0.1, lambda3=None)",
        ),
    ],
)
def test_lazy_discordant_compose_rejects_a_field_that_is_not_real(bad, message):
    with pytest.raises(ValueError) as exc:
        lazy_discordant_compose(bad)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_separable_fano_frozen_examples():
    p = separable_fano(SeparableFamilyParams(0.5, math.pi / 2, 0.0, 1.0, 1.0))
    assert np.allclose(p.x, [0.5, 0.0, 0.5], atol=1e-15)
    assert np.allclose(p.t[:, 0], 0.0, atol=1e-15)
    assert np.allclose(p.t[:, 1], 0.0)
    assert np.allclose(p.t[:, 2], [0.5, 0.0, 0.5], atol=1e-15)

    p = separable_fano(SeparableFamilyParams(0.5, math.pi / 2, math.pi / 2, 0.0, 1.0))
    assert np.allclose(p.x, [0.5, 0.0, 0.5], atol=1e-15)
    assert np.allclose(p.t[:, 0], [0.5, 0.0, 0.0], atol=1e-15)
    # column 1 is not parallel to x, so the state cannot be lazy
    assert np.linalg.norm(np.cross(p.x, p.t[:, 0])) > 0.2

    # b = 0 wipes both nonzero columns down to the a-term
    p = separable_fano(SeparableFamilyParams(0.3, 1.1, 2.0, 0.6, 0.0))
    assert np.allclose(p.t[:, 0], 0.0)
    assert np.allclose(p.t[:, 2], [0.0, 0.0, 0.6 * 0.3], atol=1e-15)


def test_separable_fano_matches_decompose():
    rng = np.random.default_rng(23)
    for _ in range(300):
        s = random_separable_params(rng)
        p_closed = separable_fano(s)
        p_numeric = decompose(separable_compose(s))
        assert np.max(np.abs(p_closed.x - p_numeric.x)) <= 1e-12
        assert np.max(np.abs(p_closed.y - p_numeric.y)) <= 1e-12
        assert np.max(np.abs(p_closed.t - p_numeric.t)) <= 1e-12


@pytest.mark.parametrize(
    "s,label",
    [
        (SeparableFamilyParams(0.5, math.pi / 2, 0.0, 1.0, 1.0), "product"),
        (SeparableFamilyParams(0.5, math.pi, math.pi / 4, 0.3, 0.7), "zero_discord"),
        (SeparableFamilyParams(0.5, math.pi / 2, math.pi / 2, 0.0, 1.0), "not_lazy"),
        (SeparableFamilyParams(0.3, 0.0, 1.0, 0.2, 0.9), "product"),
        (SeparableFamilyParams(0.3, 2.0, 1.0, 0.0, 0.0), "product"),
        # alpha = 0: the two pure components coincide
        (SeparableFamilyParams(0.5, 0.0, 0.3, 0.2, 0.4), "product"),
    ],
)
def test_separable_classify_examples(s, label):
    assert separable_classify(s) == label


def _case_boundary_margin(s):
    """Distance of s from the closed-form case boundaries."""
    same_b = math.hypot(s.b * math.sin(s.beta), s.a - s.b * math.cos(s.beta))
    return min(
        s.alpha if s.alpha > 0 else math.inf,
        math.pi - s.alpha if s.alpha < math.pi else math.inf,
        same_b if same_b > 0 else math.inf,
    )


def test_separable_classify_agrees_with_classifier():
    rng = np.random.default_rng(29)
    for _ in range(150):
        s = random_separable_params(rng)
        if _case_boundary_margin(s) < 1e-6:
            continue
        label = separable_classify(s)
        cls = classify(separable_compose(s))
        if label == "product":
            assert cls.product and cls.lazy_a
        elif label == "zero_discord":
            assert cls.zero_discord_a and cls.lazy_a and not cls.product
        else:
            assert not cls.lazy_a


def test_separable_classify_near_boundary_residuals():
    # just off the product boundary the residual witnesses stay small even
    # though the boolean verdicts flip; check the residuals, not the booleans
    eps = 1e-7
    s = SeparableFamilyParams(0.5, eps, 0.4, 0.3, 0.8)
    cls = classify(separable_compose(s))
    assert cls.witnesses["product_residual"] <= 10 * eps
    s = SeparableFamilyParams(0.5, 1.0, 0.0, 0.8 + eps, 0.8)
    cls = classify(separable_compose(s))
    assert cls.witnesses["commutator_norm"] <= 10 * eps
