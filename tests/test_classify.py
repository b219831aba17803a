import numpy as np
import pytest

from lazystates.classify import (
    classify,
    classify_b,
    is_product,
    lazy_by_commutator,
    lazy_by_parallelism,
    pure_schmidt,
    separable_ppt,
    zero_discord_a,
)
from lazystates.families import SeparableFamilyParams, separable_compose
from lazystates.fano import FanoParams, compose, decompose, validate
from lazystates.matcore import I2, PAULIS, frob_norm, kron, swap_subsystems
from lazystates.sampling import (
    ginibre_state,
    random_bell_diagonal_point,
    random_lazy_discordant_params,
    random_local_unitary,
    random_product_state,
)
from lazystates.belldiag import bd_compose
from lazystates.families import lazy_discordant_compose


NOT_LAZY_WITNESS = SeparableFamilyParams(0.5, np.pi / 2, np.pi / 2, 0.0, 1.0)


def bloch_product(a, b):
    rho_a = (I2 + sum(a[i] * PAULIS[i] for i in range(3))) / 2
    rho_b = (I2 + sum(b[i] * PAULIS[i] for i in range(3))) / 2
    return kron(rho_a, rho_b)


def test_lazy_by_commutator_examples(bell_phi_plus, maximally_mixed):
    verdict, norm = lazy_by_commutator(maximally_mixed)
    assert verdict and norm == 0.0
    verdict, _ = lazy_by_commutator(bell_phi_plus)
    assert verdict
    verdict, norm = lazy_by_commutator(separable_compose(NOT_LAZY_WITNESS))
    assert not verdict
    assert norm > 0.01


def test_lazy_by_commutator_rejects_unphysical():
    with pytest.raises(ValueError):
        lazy_by_commutator(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))


def test_commutator_norm_closed_form():
    # ||[rho, rho_A @ I]||_F = 0.5 * sqrt(sum_j ||x cross t_j||^2); checks the
    # matrix commutator and the parallelism residual against pure
    # Bloch-parameter arithmetic
    rng = np.random.default_rng(53)
    for _ in range(100):
        rho = ginibre_state(rng)
        p = decompose(rho)
        _, norm = lazy_by_commutator(rho)
        expected = 0.5 * np.sqrt(
            sum(np.linalg.norm(np.cross(p.x, p.t[:, j])) ** 2 for j in range(3))
        )
        assert abs(norm - expected) <= 1e-12
        assert abs(lazy_by_parallelism(p)[1] - expected) <= 1e-12


def test_lazy_by_parallelism_examples():
    verdict, residual = lazy_by_parallelism(
        FanoParams(np.zeros(3), np.zeros(3), np.random.default_rng(1).uniform(-1, 1, (3, 3)))
    )
    assert verdict and residual == 0.0

    p = FanoParams([0.0, 0.0, 0.5], np.zeros(3), np.diag([0.0, 0.0, 0.7]))
    verdict, residual = lazy_by_parallelism(p)
    assert verdict and residual <= 1e-15

    p = FanoParams([0.0, 0.0, 0.5], np.zeros(3), np.diag([0.0, 0.3, 0.7]))
    verdict, residual = lazy_by_parallelism(p)
    assert not verdict
    # cross product of x with column 2 is (-0.15, 0, 0), halved like the commutator
    assert abs(residual - 0.075) <= 1e-15


def test_route_equivalence_random():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        rho = ginibre_state(rng)
        v1, _ = lazy_by_commutator(rho)
        v2, _ = lazy_by_parallelism(decompose(rho))
        assert v1 == v2


def test_route_equivalence_on_lazy_states():
    rng = np.random.default_rng(61)
    states = [bd_compose(random_bell_diagonal_point(rng)) for _ in range(50)]
    states += [random_product_state(rng) for _ in range(50)]
    states += [
        lazy_discordant_compose(random_lazy_discordant_params(rng)) for _ in range(50)
    ]
    for rho in states:
        v1, n1 = lazy_by_commutator(rho)
        v2, n2 = lazy_by_parallelism(decompose(rho))
        assert v1 and v2
        assert n1 <= 1e-12 and n2 <= 1e-12


def test_route_agreement_does_not_scale_with_tol():
    # the routes agree to rounding, not to tol: a tol below rounding must
    # still classify generic states instead of raising ConsistencyError
    rng = np.random.default_rng(89)
    physical = 0
    for _ in range(100):
        cls = classify(ginibre_state(rng), 1e-17)
        if cls.physical:
            physical += 1
            assert not cls.lazy_a
    assert physical >= 50


def test_zero_discord_product_state():
    rho = bloch_product([0.2, -0.1, 0.4], [0.0, 0.3, -0.2])
    verdict, n = zero_discord_a(decompose(rho))
    assert verdict
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_zero_discord_bell_is_discordant(bell_phi_plus):
    verdict, n = zero_discord_a(decompose(bell_phi_plus))
    assert not verdict and n is None


def test_zero_discord_two_singular_values():
    rho = lazy_discordant_compose(
        __import__("lazystates").LazyDiscordantParams(0.5, 0.3, 0.4)
    )
    verdict, _ = zero_discord_a(decompose(rho))
    assert not verdict


def test_zero_discord_classical_mixture():
    # p|0><0| @ rho1 + (1-p)|1><1| @ rho2 admits the z measurement
    rng = np.random.default_rng(67)
    for _ in range(20):
        p = rng.uniform(0.1, 0.9)
        b1 = rng.uniform(-0.5, 0.5, 3)
        b2 = rng.uniform(-0.5, 0.5, 3)
        up = (I2 + PAULIS[2]) / 2
        dn = (I2 - PAULIS[2]) / 2
        rho1 = (I2 + sum(b1[i] * PAULIS[i] for i in range(3))) / 2
        rho2 = (I2 + sum(b2[i] * PAULIS[i] for i in range(3))) / 2
        rho = p * kron(up, rho1) + (1 - p) * kron(dn, rho2)
        verdict, n = zero_discord_a(decompose(rho))
        assert verdict
        assert abs(abs(n[2]) - 1.0) <= 1e-9


def test_is_product_examples(bell_phi_plus):
    rho = bloch_product([0.2, -0.1, 0.4], [0.0, 0.3, -0.2])
    verdict, residual = is_product(rho)
    assert verdict and residual <= 1e-13
    verdict, residual = is_product(bell_phi_plus)
    assert not verdict
    assert residual > 0.5
    # the family mixture collapses to a product when rho1 = rho2
    rho = separable_compose(SeparableFamilyParams(0.5, np.pi / 2, 0.0, 0.7, 0.7))
    verdict, _ = is_product(rho)
    assert verdict


def test_separable_ppt_examples(bell_phi_plus):
    rho = bloch_product([0.2, -0.1, 0.4], [0.0, 0.3, -0.2])
    verdict, negativity, _ = separable_ppt(rho)
    assert verdict and negativity <= 1e-12

    verdict, negativity, min_pt = separable_ppt(bell_phi_plus)
    assert not verdict
    assert abs(negativity - 0.5) <= 1e-12
    assert abs(min_pt + 0.5) <= 1e-12

    verdict, negativity, _ = separable_ppt(bd_compose([0.3, 0.2, 0.1]))
    assert verdict and negativity <= 1e-12  # inside the octahedron, |l| sum 0.6


def test_separable_ppt_octahedron_cross_check():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 300:
        lam = rng.uniform(-1, 1, 3)
        rho = bd_compose(lam)
        if not validate(rho).physical:
            continue
        if abs(np.abs(lam).sum() - 1.0) <= 1e-9:
            continue
        verdict, _, _ = separable_ppt(rho)
        assert verdict == (np.abs(lam).sum() <= 1.0)
        checked += 1


def test_pure_schmidt_examples(bell_phi_plus):
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    pure, coeffs, lazy = pure_schmidt(np.outer(ket, ket.conj()))
    assert pure and lazy
    assert np.allclose(coeffs, [1.0, 0.0], atol=1e-9)

    pure, coeffs, lazy = pure_schmidt(bell_phi_plus)
    assert pure and lazy
    assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-9)

    theta = np.pi / 8
    ket = np.zeros(4, dtype=complex)
    ket[0], ket[3] = np.cos(theta), np.sin(theta)
    rho = np.outer(ket, ket.conj())
    pure, _, lazy = pure_schmidt(rho)
    assert pure and not lazy
    verdict, norm = lazy_by_commutator(rho)
    assert not verdict and norm > 0.0


def test_pure_schmidt_mixed_state(maximally_mixed):
    pure, coeffs, lazy = pure_schmidt(maximally_mixed)
    assert not pure and coeffs is None and lazy is None


def test_classify_fixtures(bell_phi_plus, maximally_mixed):
    cls = classify(bell_phi_plus)
    assert cls.physical and cls.lazy_a and not cls.zero_discord_a and not cls.separable

    cls = classify(
        lazy_discordant_compose(__import__("lazystates").LazyDiscordantParams(0.5, 0.3, 0.4))
    )
    assert cls.physical and cls.lazy_a and not cls.zero_discord_a

    cls = classify(maximally_mixed)
    assert cls.product and cls.zero_discord_a and cls.lazy_a and cls.separable


def test_classify_unphysical_returns_partial_report():
    cls = classify(np.diag([0.9, 0.3, -0.1, -0.1]).astype(complex))
    assert not cls.physical
    assert cls.lazy_a is None and cls.separable is None and cls.pure is None
    assert cls.witnesses["commutator_norm"] is None
    assert cls.diagnostics["min_eigenvalue"] < 0


def test_hierarchy_inclusions_random():
    rng = np.random.default_rng(73)
    states = [ginibre_state(rng) for _ in range(400)]
    states += [random_product_state(rng) for _ in range(100)]
    states += [bd_compose(random_bell_diagonal_point(rng)) for _ in range(100)]
    states += [
        lazy_discordant_compose(random_lazy_discordant_params(rng)) for _ in range(50)
    ]
    for rho in states:
        cls = classify(rho)
        assert cls.physical
        if cls.zero_discord_a:
            assert cls.lazy_a
            assert cls.separable
        if cls.product:
            assert cls.zero_discord_a


def test_strictness_witnesses(bell_phi_plus):
    # lazy & discordant & separable
    cls = classify(
        lazy_discordant_compose(__import__("lazystates").LazyDiscordantParams(0.5, 0.3, 0.4))
    )
    assert cls.lazy_a and not cls.zero_discord_a and cls.separable
    # lazy & entangled
    cls = classify(bell_phi_plus)
    assert cls.lazy_a and not cls.separable
    # separable & not lazy
    cls = classify(separable_compose(NOT_LAZY_WITNESS))
    assert cls.separable and not cls.lazy_a


def test_local_unitary_invariance():
    rng = np.random.default_rng(79)
    states = [ginibre_state(rng) for _ in range(60)]
    states += [random_product_state(rng) for _ in range(40)]
    states += [bd_compose(random_bell_diagonal_point(rng)) for _ in range(50)]
    states += [
        lazy_discordant_compose(random_lazy_discordant_params(rng)) for _ in range(50)
    ]
    fields = ("physical", "pure", "product", "zero_discord_a", "lazy_a", "separable")
    for rho in states:
        u = random_local_unitary(rng)
        rotated = u @ rho @ u.conj().T
        a = classify(rho)
        b = classify(rotated)
        for f in fields:
            assert getattr(a, f) == getattr(b, f), f


def test_lazy_discordant_iff_x_zero_and_two_singular_values():
    rng = np.random.default_rng(83)
    tol = 1e-9
    states = [ginibre_state(rng) for _ in range(150)]
    # enrich with x = 0 states of controlled correlation rank
    for _ in range(150):
        rank = int(rng.integers(0, 4))
        t = np.zeros((3, 3))
        for _ in range(rank):
            t += 0.15 * np.outer(rng.standard_normal(3), rng.standard_normal(3))
        y = rng.uniform(-0.25, 0.25, 3)
        rho = compose(FanoParams(np.zeros(3), y, t))
        if validate(rho).physical:
            states.append(rho)
    from lazystates.fano import normal_form

    for rho in states:
        cls = classify(rho)
        p = decompose(rho)
        nf = normal_form(p)
        expected = np.linalg.norm(p.x) <= tol and nf.sigma[1] > tol
        assert (cls.lazy_a and not cls.zero_discord_a) == expected


def test_classify_b_swaps_roles():
    # a classical mixture over the z basis of A with non-orthogonal B states
    # is zero-discord wrt A but discordant wrt B
    up = (I2 + PAULIS[2]) / 2
    dn = (I2 - PAULIS[2]) / 2
    plus = (I2 + PAULIS[0]) / 2
    rho = 0.5 * kron(up, plus) + 0.5 * kron(dn, up)
    assert classify(rho).zero_discord_a
    assert not classify_b(rho).zero_discord_a
    assert classify_b(rho).zero_discord_a == classify(swap_subsystems(rho)).zero_discord_a
