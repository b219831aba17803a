import hashlib
import math
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lazystates import fano, matcore

from lazystates.classify import (
    DEFAULT_TOL as TOL,
    WITNESS_KEYS,
    _parallel_residual,
    _product_residual,
    _purity,
    classify,
)
from lazystates.families import SeparableFamilyParams, separable_classify, separable_compose
from lazystates.fano import FanoParams, compose, decompose
from lazystates.matcore import I2, PAULIS, kron
from lazystates.stateio import load_state_file
from oracles import (
    discord_svd,
    pinch_residual,
    ppt_reference,
    product_residual_reference,
    purity_reference,
    schmidt_lazy,
    swap_subsystems,
)
from sampling import (
    ginibre_state,
    haar_unitary,
    random_bell_diagonal_point,
    random_classical_quantum_state,
    random_hermitian,
    random_lazy_discordant_params,
    random_local_unitary,
    random_product_state,
    random_separable_params,
)
from lazystates.belldiag import bd_compose
from lazystates.families import lazy_discordant_compose


FIXTURES = Path(__file__).parent / "fixtures"
NOT_LAZY_WITNESS = SeparableFamilyParams(0.5, np.pi / 2, np.pi / 2, 0.0, 1.0)


def bloch_product(a, b):
    rho_a = (I2 + sum(a[i] * PAULIS[i] for i in range(3))) / 2
    rho_b = (I2 + sum(b[i] * PAULIS[i] for i in range(3))) / 2
    return kron(rho_a, rho_b)


def witnesses(rho):
    return classify(rho).witnesses


def discord_of(p):
    """(sigma_2, n) of [x | t] for the parameters p, by classify's LAPACK call."""
    return discord_svd(np.column_stack((p.x, p.t)))


def test_lazy_by_commutator_examples(bell_phi_plus, maximally_mixed):
    norm = witnesses(maximally_mixed)["commutator_norm"]
    assert norm <= TOL and norm == 0.0
    assert witnesses(bell_phi_plus)["commutator_norm"] <= TOL
    assert witnesses(bell_phi_plus)["parallel_residual"] <= TOL
    norm = witnesses(separable_compose(NOT_LAZY_WITNESS))["commutator_norm"]
    assert norm > TOL
    assert norm > 0.01


def test_commutator_norm_closed_form():
    # ||[rho, rho_A @ I]||_F = 0.5 * sqrt(sum_j ||x cross t_j||^2); checks the
    # matrix commutator and the parallelism residual against pure
    # Bloch-parameter arithmetic
    rng = np.random.default_rng(53)
    for _ in range(100):
        rho = ginibre_state(rng)
        p = decompose(rho)
        w = witnesses(rho)
        expected = 0.5 * np.sqrt(
            sum(np.linalg.norm(np.cross(p.x, p.t[:, j])) ** 2 for j in range(3))
        )
        assert abs(w["commutator_norm"] - expected) <= 1e-12
        assert abs(w["parallel_residual"] - expected) <= 1e-12


def test_lazy_by_parallelism_examples():
    # the parallelism kernel on parameter sets, physical or not
    t = np.random.default_rng(1).uniform(-1, 1, (3, 3))
    residual = _parallel_residual(np.zeros(3), t)
    assert residual <= TOL and residual == 0.0

    residual = _parallel_residual(np.array([0.0, 0.0, 0.5]), np.diag([0.0, 0.0, 0.7]))
    assert residual <= TOL and residual <= 1e-15

    residual = _parallel_residual(np.array([0.0, 0.0, 0.5]), np.diag([0.0, 0.3, 0.7]))
    assert residual > TOL
    # cross product of x with column 2 is (-0.15, 0, 0), halved like the commutator
    assert abs(residual - 0.075) <= 1e-15


def test_route_equivalence_random():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        w = witnesses(ginibre_state(rng))
        assert (w["commutator_norm"] <= TOL) == (w["parallel_residual"] <= TOL)


def test_route_equivalence_on_lazy_states():
    rng = np.random.default_rng(61)
    states = [bd_compose(random_bell_diagonal_point(rng)) for _ in range(50)]
    states += [random_product_state(rng) for _ in range(50)]
    states += [
        lazy_discordant_compose(random_lazy_discordant_params(rng)) for _ in range(50)
    ]
    for rho in states:
        w = witnesses(rho)
        n1, n2 = w["commutator_norm"], w["parallel_residual"]
        assert n1 <= TOL and n2 <= TOL
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
    sigma_2, n = discord_of(decompose(rho))
    assert sigma_2 <= TOL and witnesses(rho)["sigma_2"] <= TOL
    assert abs(np.linalg.norm(n) - 1.0) <= 1e-12


def test_zero_discord_bell_is_discordant(bell_phi_plus):
    # [x | t] = [0 | diag(1, -1, 1)]: three unit singular values
    sigma_2 = witnesses(bell_phi_plus)["sigma_2"]
    assert sigma_2 > TOL
    assert abs(sigma_2 - 1.0) <= 1e-12


def test_zero_discord_two_singular_values():
    rho = lazy_discordant_compose(
        __import__("lazystates").LazyDiscordantParams(0.5, 0.3, 0.4)
    )
    assert witnesses(rho)["sigma_2"] > TOL


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
        sigma_2, n = discord_of(decompose(rho))
        assert sigma_2 <= TOL
        assert abs(abs(n[2]) - 1.0) <= 1e-9


def test_pinch_residual_is_half_the_tail_of_x_beside_t():
    # along the returned n the pinch moves rho by 0.5 * hypot(sigma_2,
    # sigma_3) of [x | t]; every state gets its n, and sigma_2 of a physical
    # state lies below 2 (||[x | t]||_F^2 <= 3)
    rng = np.random.default_rng(97)
    states = [ginibre_state(rng) for _ in range(100)]
    states += [random_product_state(rng) for _ in range(50)]
    states += [random_classical_quantum_state(rng) for _ in range(50)]
    states += [
        lazy_discordant_compose(random_lazy_discordant_params(rng)) for _ in range(50)
    ]
    states += [bd_compose(random_bell_diagonal_point(rng)) for _ in range(50)]
    zero_discord = 0
    for rho in states:
        p = decompose(rho)
        s = np.linalg.svd(np.column_stack((p.x, p.t)), compute_uv=False)
        sigma_2, n = discord_of(p)
        assert sigma_2 <= 2.0
        assert abs(pinch_residual(rho, n) - 0.5 * math.hypot(s[1], s[2])) <= 1e-12
        if sigma_2 <= TOL:
            zero_discord += 1
            assert pinch_residual(rho, n) <= 1e-9
    assert zero_discord == 100  # the product and classical-quantum states


def test_classify_makes_no_svd3_call(monkeypatch, bell_phi_plus, maximally_mixed):
    def no_svd3(t):
        raise AssertionError("classify reached svd3")

    monkeypatch.setattr(fano, "svd3", no_svd3)
    monkeypatch.setattr(matcore, "svd3", no_svd3)
    rng = np.random.default_rng(103)
    states = [bell_phi_plus, maximally_mixed, ginibre_state(rng)]
    states += [random_product_state(rng), random_classical_quantum_state(rng)]
    assert [classify(rho).zero_discord_a for rho in states] == [False, True, False, True, True]


def test_classify_makes_no_decompose_call(monkeypatch, bell_phi_plus, maximally_mixed):
    # the state gate has already checked what decompose would check
    def no_decompose(rho):
        raise AssertionError("classify reached decompose")

    rng = np.random.default_rng(107)
    states = [bell_phi_plus, maximally_mixed, ginibre_state(rng)]
    states += [random_product_state(rng), random_classical_quantum_state(rng)]
    expected = [repr(classify(rho)) for rho in states]
    monkeypatch.setattr(fano, "decompose", no_decompose)
    # and the binding a module made when it imported the name
    monkeypatch.setattr(sys.modules["lazystates.classify"], "decompose", no_decompose,
                        raising=False)
    assert [repr(classify(rho)) for rho in states] == expected


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("a,sigma", [(0.3, 0.5), (0.6, 0.1)])
def test_zero_discord_flips_where_sigma_2_crosses_tol(a, sigma, tol):
    # x = a e1 + eps e2 beside t = sigma e1 e1^T: sigma_1 sigma_2 = sigma eps
    # and sigma_1^2 + sigma_2^2 = a^2 + sigma^2 + eps^2 for [x | t], so eps
    # below sets sigma_2 to s2.  At a = 0.6, sigma = 0.1, eps is about 6 s2:
    # a rule that read eps against tol would flip at a sixth of tol
    for factor, expected in ((0.5, True), (1.5, False)):
        s2 = factor * tol
        eps = s2 * math.sqrt((a * a + sigma * sigma - s2 * s2) / (sigma * sigma - s2 * s2))
        p = FanoParams([a, eps, 0.0], np.zeros(3), np.diag([sigma, 0.0, 0.0]))
        s = np.linalg.svd(np.column_stack((p.x, p.t)), compute_uv=False)
        assert abs(s[1] - s2) <= 1e-6 * s2
        assert (discord_of(p)[0] <= tol) is expected
        assert classify(compose(p), tol).zero_discord_a is expected


# each verdict at its threshold: true at a tol equal to its witness and false
# one float below, so a <= that became < (or >= that became >) fails here
@pytest.mark.parametrize(
    "verdict,witness",
    [("lazy_a", "commutator_norm"), ("product", "product_residual"), ("zero_discord_a", "sigma_2")],
)
def test_ginibre_verdicts_flip_exactly_at_tol(verdict, witness):
    rho = ginibre_state(np.random.default_rng(0))
    tol = classify(rho).witnesses[witness]
    assert 0.0 < tol < 1.0
    assert getattr(classify(rho, tol), verdict)
    assert not getattr(classify(rho, math.nextafter(tol, 0.0)), verdict)


@pytest.mark.parametrize("p", [0.6, 0.8])
def test_werner_separable_and_pure_flip_exactly_at_tol(bell_phi_plus, p):
    werner = p * bell_phi_plus + (1.0 - p) * np.eye(4) / 4.0
    w = classify(werner).witnesses
    tol = -w["min_pt_eigenvalue"]
    assert 0.0 < tol < 1.0
    assert classify(werner, tol).separable
    assert not classify(werner, math.nextafter(tol, 0.0)).separable
    # pure unless purity < 1 - tol; for purity in [0.5, 1), 1 - (1 - purity)
    # is purity exactly (Sterbenz), and likewise for the float above it
    purity = w["purity"]
    assert 0.5 <= purity < math.nextafter(purity, 2.0) < 1.0
    assert classify(werner, 1.0 - purity).pure
    assert not classify(werner, 1.0 - math.nextafter(purity, 2.0)).pure


def test_is_product_examples(bell_phi_plus):
    rho = bloch_product([0.2, -0.1, 0.4], [0.0, 0.3, -0.2])
    residual = witnesses(rho)["product_residual"]
    assert residual <= TOL and residual <= 1e-13
    residual = witnesses(bell_phi_plus)["product_residual"]
    assert residual > TOL
    assert residual > 0.5
    # the family mixture collapses to a product when rho1 = rho2
    rho = separable_compose(SeparableFamilyParams(0.5, np.pi / 2, 0.0, 0.7, 0.7))
    assert witnesses(rho)["product_residual"] <= TOL


def _ppt_witnesses(rho):
    w = witnesses(rho)
    return w["negativity"], w["min_pt_eigenvalue"]


def test_separable_ppt_examples(bell_phi_plus):
    rho = bloch_product([0.2, -0.1, 0.4], [0.0, 0.3, -0.2])
    negativity, min_pt = _ppt_witnesses(rho)
    assert min_pt >= -TOL and negativity <= 1e-12

    negativity, min_pt = _ppt_witnesses(bell_phi_plus)
    assert min_pt < -TOL
    assert abs(negativity - 0.5) <= 1e-12
    assert abs(min_pt + 0.5) <= 1e-12

    negativity, min_pt = _ppt_witnesses(bd_compose([0.3, 0.2, 0.1]))
    assert min_pt >= -TOL and negativity <= 1e-12  # inside the octahedron, |l| sum 0.6


def test_separable_ppt_octahedron_cross_check():
    rng = np.random.default_rng(71)
    checked = 0
    while checked < 300:
        lam = rng.uniform(-1, 1, 3)
        cls = classify(bd_compose(lam))
        if not cls.physical:
            continue
        if abs(np.abs(lam).sum() - 1.0) <= 1e-9:
            continue
        min_pt = cls.witnesses["min_pt_eigenvalue"]
        assert (min_pt >= -TOL) == (np.abs(lam).sum() <= 1.0)
        checked += 1


def test_pure_schmidt_examples(bell_phi_plus):
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    rho = np.outer(ket, ket.conj())
    purity = witnesses(rho)["purity"]
    assert not purity < 1.0 - TOL and schmidt_lazy(rho, TOL)

    purity = witnesses(bell_phi_plus)["purity"]
    assert not purity < 1.0 - TOL and schmidt_lazy(bell_phi_plus, TOL)

    theta = np.pi / 8
    ket = np.zeros(4, dtype=complex)
    ket[0], ket[3] = np.cos(theta), np.sin(theta)
    rho = np.outer(ket, ket.conj())
    w = witnesses(rho)
    assert not w["purity"] < 1.0 - TOL and not schmidt_lazy(rho, TOL)
    norm = w["commutator_norm"]
    assert norm > TOL and norm > 0.0


def test_pure_schmidt_mixed_state(maximally_mixed):
    cls = classify(maximally_mixed)
    purity = cls.witnesses["purity"]
    assert purity < 1.0 - TOL and purity == 0.25 and not cls.pure


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
        if classify(rho).physical:
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
    a, b = classify(rho), classify(swap_subsystems(rho))
    assert a.zero_discord_a
    assert not b.zero_discord_a
    # the symmetric predicates do not see the exchange
    for f in ("physical", "pure", "product", "separable"):
        assert getattr(a, f) == getattr(b, f), f


def _pure(ket):
    return np.outer(ket, ket.conj())


def _rotated_bell(rng):
    u = random_local_unitary(rng)
    return u @ _pure(np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)) @ u.conj().T


# every generator of tests/sampling.py, and three kinds of pure state
CORPUS_KINDS = {
    "ginibre": ginibre_state,
    "hermitian": random_hermitian,
    "product": random_product_state,
    "classical_quantum": random_classical_quantum_state,
    "bell_diagonal": lambda rng: bd_compose(random_bell_diagonal_point(rng)),
    "lazy_discordant": lambda rng: lazy_discordant_compose(random_lazy_discordant_params(rng)),
    "separable_family": lambda rng: separable_compose(random_separable_params(rng)),
    "pure": lambda rng: _pure(haar_unitary(rng, 4)[:, 0]),
    "pure_product": lambda rng: _pure(random_local_unitary(rng)[:, 0]),
    "pure_bell": _rotated_bell,
}
CORPUS_FIELDS = (
    "physical", "pure", "product", "zero_discord_a", "lazy_a", "separable", "lazy_gray_zone",
)


def _verdict_code(cls):
    """One letter per field: T, F, or - for a verdict that is absent."""
    return "".join(
        "-" if getattr(cls, f) is None else "TF"[not getattr(cls, f)] for f in CORPUS_FIELDS
    )


def test_verdicts_pinned_on_seeded_corpus():
    # 200 seeded states of each kind.  Only booleans are pinned: the witness
    # bytes of random states may move with the OpenBLAS kernel, but no
    # verdict lies within rounding of its threshold
    rng = np.random.default_rng(2024)
    codes, counts = [], {}
    for kind, draw in CORPUS_KINDS.items():
        kind_codes = [_verdict_code(classify(draw(rng))) for _ in range(200)]
        codes += kind_codes
        counts[kind] = dict(Counter(kind_codes))
    assert counts == {
        "ginibre": {"TFFFFFF": 156, "TFFFFTF": 44},
        "hermitian": {"F-----F": 200},
        "product": {"TFTTTTF": 200},
        "classical_quantum": {"TFFTTTF": 200},
        "bell_diagonal": {"TFFFTFF": 101, "TFFFTTF": 99},
        "lazy_discordant": {"TFFFTTF": 200},
        "separable_family": {"TFFFFTF": 200},
        "pure": {"TTFFFFF": 200},
        "pure_product": {"TTTTTTF": 200},
        "pure_bell": {"TTFFTFF": 200},
    }
    digest = hashlib.sha256(" ".join(codes).encode()).hexdigest()
    assert digest == "9fc2516103a2ba55e7e84e5f6c646902b09376da5d7efe158a7b3f71031aabf2"


def _hex(values):
    return {key: float(value).hex() for key, value in values.items()}


def _assert_closed_forms_match_the_matrix_route(cls, herm):
    # product_residual and purity are the closed forms in the Fano
    # coefficients of the Hermitian part, and agree with the 4x4 products
    # they replaced to rounding
    c = fano.coeffs(herm)
    assert cls.witnesses["product_residual"].hex() == _product_residual(c).hex()
    assert cls.witnesses["purity"].hex() == _purity(c).hex()
    assert abs(cls.witnesses["product_residual"] - product_residual_reference(herm)) <= 1e-15
    assert abs(cls.witnesses["purity"] - purity_reference(herm)) <= 1e-15


def test_classify_reads_the_bits_of_the_public_predicates():
    # each witness keeps the bits of the public predicate it replaced, which
    # applied the same kernel to the gate's Hermitian part (sigma_2 to
    # [x | T] laid out by decompose), product_residual and purity are the
    # closed forms in its Fano coefficients, and the diagnostics are the
    # gate's report at its fixed tolerance: on the corpus of
    # test_verdicts_pinned_on_seeded_corpus, the sign of zero included
    rng = np.random.default_rng(2024)
    physical = 0
    for draw in CORPUS_KINDS.values():
        for _ in range(200):
            rho = draw(rng)
            cls = classify(rho)
            gated = fano.gate(rho, "test")
            assert _hex(cls.diagnostics) == _hex(gated.diagnostics)
            if not cls.physical:
                assert cls.witnesses == dict.fromkeys(WITNESS_KEYS)
                continue
            physical += 1
            herm = gated.certified("test")
            p = decompose(herm)
            negativity, min_pt_eig = ppt_reference(herm)
            _assert_closed_forms_match_the_matrix_route(cls, herm)
            expected = {
                "commutator_norm": gated.commutator()[0],
                "parallel_residual": _parallel_residual(p.x, p.t),
                "sigma_2": discord_of(p)[0],
                "negativity": negativity,
                "min_pt_eigenvalue": min_pt_eig,
                "product_residual": cls.witnesses["product_residual"],
                "purity": cls.witnesses["purity"],
            }
            assert _hex(cls.witnesses) == _hex(expected)
            # the kernel keeps the bits of the np.cross form it replaced
            cross = 0.5 * np.linalg.norm(np.cross(p.x, p.t.T))
            assert expected["parallel_residual"].hex() == cross.hex()
            # each verdict reads its reported witness
            assert cls.zero_discord_a == (expected["sigma_2"] <= TOL)
            assert cls.pure == (not expected["purity"] < 1.0 - TOL)
            assert cls.separable == (min_pt_eig >= -TOL)
    assert physical == 1800


def test_closed_form_witnesses_keep_a_trace_off_one():
    # the gate admits |tr rho - 1| <= tol; near_physical.json has trace
    # 1 + 1e-7, so c_00 != 1, and the unit-trace forms (1 + |x|^2 + |y|^2 +
    # ||T||^2)/4 and 0.5 * ||T - x y^T||_F would miss the matrix route by
    # 5e-8 and 1e-14
    rho = load_state_file(FIXTURES / "near_physical.json")
    cls = classify(rho, 1e-6)
    assert cls.physical
    herm = fano.gate(rho, "test").herm
    assert abs(np.trace(herm).real - 1.0) > 1e-8
    _assert_closed_forms_match_the_matrix_route(cls, herm)


def _counted(calls, name, call):
    def counted(*args, **kwargs):
        calls[name] += 1
        return call(*args, **kwargs)

    return counted


def test_classify_runs_one_stacked_eigensolve_and_one_svd(monkeypatch, bell_phi_plus):
    # the gate's one eigh call, on the (2, 4, 4) stack of its Hermitian part
    # and that part's partial transpose, and the [x | T] SVD
    calls = Counter()
    shapes = []
    eigh = np.linalg.eigh

    def recorded(m):
        shapes.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", _counted(calls, "eigh", recorded))
    monkeypatch.setattr(np.linalg, "svd", _counted(calls, "svd", np.linalg.svd))
    rng = np.random.default_rng(7)
    for rho in (bell_phi_plus, np.eye(4) / 4, ginibre_state(rng), random_product_state(rng)):
        calls.clear()
        shapes.clear()
        assert classify(rho).physical
        assert calls == {"eigh": 1, "svd": 1} and shapes == [(2, 4, 4)]
    for rho in (np.diag([1.5, -0.5, 0.0, 0.0]), random_hermitian(rng), np.eye(4)):
        calls.clear()
        shapes.clear()
        assert not classify(rho).physical
        assert calls == {"eigh": 1} and shapes == [(2, 4, 4)]


def test_pure_state_lazy_iff_product_or_maximally_entangled():
    rng = np.random.default_rng(109)
    checked = Counter()
    for kind in ("pure", "pure_product", "pure_bell"):
        for _ in range(100):
            rho = CORPUS_KINDS[kind](rng)
            cls = classify(rho)
            assert cls.pure
            assert cls.lazy_a == schmidt_lazy(rho, TOL)
            checked[cls.lazy_a] += 1
    assert checked == {False: 100, True: 200}


# the error of a call that passes a tolerance the function does not take
NO_TOL = "takes 1 positional argument but 2 were given"
# the error of a call that passes classify a tolerance outside (0, 1)
BAD_TOL = r"^classify: tol must lie in \(0, 1\)"


def _found_zero_discord_a(bell):
    with pytest.raises(ValueError, match=BAD_TOL):
        classify(bell, math.nan)
    assert classify(bell).witnesses["sigma_2"] > TOL  # discordant


def _found_lazy_by_parallelism(bell):
    with pytest.raises(ValueError, match=BAD_TOL):
        classify(bell, -1.0)
    assert classify(bell).witnesses["parallel_residual"] <= TOL  # lazy


def _found_pure_schmidt(bell):
    with pytest.raises(ValueError, match=BAD_TOL):
        classify(bell, math.nan)
    assert classify(bell).lazy_a and schmidt_lazy(bell, TOL)


def _found_separable_classify(bell):
    # alpha = 0: the two pure components coincide, so the mixture is product
    s = SeparableFamilyParams(0.5, 0.0, 0.3, 0.2, 0.4)
    with pytest.raises(TypeError, match=NO_TOL):
        separable_classify(s, math.nan)
    assert separable_classify(s) == "product"


def _found_is_product(bell):
    with pytest.raises(ValueError) as exc:
        classify(np.full((4, 4), math.nan))
    assert str(exc.value) == "classify: input has non-finite entries"


def _found_separable_ppt(bell):
    with pytest.raises(ValueError, match=BAD_TOL):
        classify(np.eye(4) / 4, -1.0)
    assert classify(np.eye(4) / 4).witnesses["min_pt_eigenvalue"] >= -TOL  # separable


# each call answered wrongly while the predicates took a tol.  A function
# that still exists cannot be written with one; each of the others is gone,
# its verdict and witness now come from classify alone, which raises
# ValueError naming itself on a bad tol or input, and the state gets the
# right answer
@pytest.mark.parametrize(
    "check",
    [
        _found_zero_discord_a,
        _found_lazy_by_parallelism,
        _found_pure_schmidt,
        _found_separable_classify,
        _found_is_product,
        _found_separable_ppt,
    ],
    ids=lambda f: f.__name__.removeprefix("_found_"),
)
def test_formerly_wrong_predicate_calls(check, bell_phi_plus):
    check(bell_phi_plus)
