import math

import numpy as np
import pytest

from lazystates import dynamics
from lazystates.belldiag import bd_compose
from lazystates.dynamics import (
    COMM_GRAY_ZONE,
    DEFAULT_STEP,
    CouplingHamiltonian,
    RateReport,
    _consistency,
    _coupling,
    _propagator,
    entropy_a,
    entropy_rate_at_zero,
    evolve,
    laziness_dynamics_check,
    random_hamiltonian,
)
from lazystates.families import (
    SeparableFamilyParams,
    lazy_discordant_compose,
    separable_compose,
)
from lazystates.fano import certify
from lazystates.matcore import (
    frob_norm,
    herm_eig,
    hermiticity_residual,
    kron,
    partial_trace_b,
    qubit_spectrum,
)
from lazystates.sampling import (
    ginibre_state,
    random_bell_diagonal_point,
    random_lazy_discordant_params,
    random_product_state,
    random_separable_params,
)

NOT_LAZY_WITNESS = separable_compose(
    SeparableFamilyParams(0.5, np.pi / 2, np.pi / 2, 0.0, 1.0)
)


def test_random_hamiltonian_reproducible_and_hermitian():
    h1 = random_hamiltonian(42)
    h2 = random_hamiltonian(42)
    assert np.array_equal(h1.h, h2.h)
    assert hermiticity_residual(h1.h) <= 1e-15
    w, _ = herm_eig(h1.h)
    assert abs(max(abs(w[0]), abs(w[-1])) - 1.0) <= 1e-12
    assert h1.seed == 42


def test_random_hamiltonian_seeds_differ():
    h1 = random_hamiltonian(1)
    h2 = random_hamiltonian(2)
    assert frob_norm(h1.h - h2.h) > 0.1


def test_evolve_basics(bell_phi_plus):
    h = random_hamiltonian(7)
    assert np.allclose(evolve(bell_phi_plus, h, 0.0), bell_phi_plus, atol=1e-14)
    # a state commutes with itself as generator
    rho = ginibre_state(np.random.default_rng(1))
    assert np.allclose(evolve(rho, rho, 2.3), rho, atol=1e-12)


def test_evolve_preserves_spectrum_trace_positivity():
    rng = np.random.default_rng(3)
    for _ in range(30):
        rho = ginibre_state(rng)
        h = random_hamiltonian(int(rng.integers(1, 10_000)))
        t = float(rng.uniform(-2, 2))
        out = evolve(rho, h, t)
        w_in, _ = herm_eig(rho)
        w_out, _ = herm_eig(out)
        assert np.max(np.abs(w_in - w_out)) <= 1e-10
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert w_out[0] >= -1e-10


def test_evolve_rejects_bad_inputs(bell_phi_plus):
    with pytest.raises(ValueError):
        evolve(np.diag([2.0, -1.0, 0.0, 0.0]).astype(complex), random_hamiltonian(1), 0.1)
    with pytest.raises(ValueError):
        evolve(bell_phi_plus, np.triu(np.ones((4, 4))).astype(complex), 0.1)


def test_entropy_a_examples(bell_phi_plus):
    assert abs(entropy_a(bell_phi_plus) - 1.0) <= 1e-12
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0
    assert entropy_a(np.outer(ket, ket.conj())) <= 1e-12
    # marginal eigenvalues (3/4, 1/4): S = 2 - (3/4) log2 3
    rho = np.diag([0.375, 0.375, 0.125, 0.125]).astype(complex)
    expected = 2.0 - 0.75 * np.log2(3.0)
    assert abs(entropy_a(rho) - expected) <= 1e-12


def test_entropy_rate_zero_for_lazy_states(bell_phi_plus):
    for k in range(10):
        h = random_hamiltonian(100 + k)
        assert abs(entropy_rate_at_zero(bell_phi_plus, h).rate) <= 1e-6
    rho = random_product_state(np.random.default_rng(5), max_bloch=0.8)
    for k in range(10):
        h = random_hamiltonian(200 + k)
        assert abs(entropy_rate_at_zero(rho, h).rate) <= 1e-6


def test_entropy_rate_nonzero_for_witness():
    rates = [
        abs(entropy_rate_at_zero(NOT_LAZY_WITNESS, random_hamiltonian(300 + k)).rate)
        for k in range(20)
    ]
    assert max(rates) > 1e-3


def test_entropy_rate_step_contract():
    h = random_hamiltonian(1)
    rho = bd_compose([0.2, 0.1, -0.3])
    with pytest.raises(ValueError):
        entropy_rate_at_zero(rho, h, step=0.0)
    with pytest.raises(ValueError):
        entropy_rate_at_zero(rho, h, step=0.01)
    report = entropy_rate_at_zero(rho, h, step=1e-4)
    assert report.step == 1e-4
    assert report.hamiltonian_seed == 1
    assert not report.caution


def test_entropy_rate_caution_for_pure_marginal():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    report = entropy_rate_at_zero(np.outer(ket, ket.conj()), random_hamiltonian(4))
    assert report.caution


def test_entropy_rate_step_halving_second_order():
    rng = np.random.default_rng(31)
    for k in range(20):
        # mix toward the identity to keep the marginal comfortably nonsingular
        rho = 0.5 * ginibre_state(rng) + 0.5 * np.eye(4) / 4
        h = random_hamiltonian(400 + k)
        r1 = entropy_rate_at_zero(rho, h, step=1e-4).rate
        r2 = entropy_rate_at_zero(rho, h, step=5e-5).rate
        w, _ = herm_eig(rho)
        w_min = max(float(w[0]), 1e-3)
        scale = max(1.0, 1.0 / w_min**2)
        assert abs(r1 - r2) <= 10.0 * (1e-4) ** 2 * scale


def test_rate_exactly_zero_for_maximally_mixed(maximally_mixed):
    report = laziness_dynamics_check(maximally_mixed, n_hamiltonians=5, seed=9)
    assert report.max_abs_rate <= 1e-12
    assert report.lazy and report.consistent


def test_dynamics_check_consistency():
    report = laziness_dynamics_check(bd_compose([0.5, 0.5, -0.5]), 20, seed=11)
    assert report.lazy and report.max_abs_rate <= 1e-6 and report.consistent
    report = laziness_dynamics_check(NOT_LAZY_WITNESS, 20, seed=11)
    assert not report.lazy and report.max_abs_rate > 1e-3 and report.consistent
    assert len(report.rates) == 20


def test_consistency_gray_zone_logic():
    # inconsistent but the commutator norm sits in the declared gray band
    consistent, gray = _consistency(
        lazy=False, max_rate=1e-5, comm_norm=1e-6,
        rate_tol=1e-6, nonzero_tol=1e-3,
    )
    assert not consistent and gray
    # inconsistent with a large commutator norm: a genuine failure
    consistent, gray = _consistency(
        lazy=False, max_rate=1e-5, comm_norm=1e-2,
        rate_tol=1e-6, nonzero_tol=1e-3,
    )
    assert not consistent and not gray
    # consistent cases are never gray
    consistent, gray = _consistency(
        lazy=True, max_rate=1e-8, comm_norm=0.0,
        rate_tol=1e-6, nonzero_tol=1e-3,
    )
    assert consistent and not gray
    assert COMM_GRAY_ZONE[0] < COMM_GRAY_ZONE[1]


def test_commutator_norm_predicts_rate_sign():
    # 500 states x 20 couplings: the commutator norm crossing 1e-9 predicts
    # the max sampled rate crossing 1e-4; the band between is logged, not failed
    rng = np.random.default_rng(37)
    from lazystates.classify import lazy_by_commutator

    couplings = [random_hamiltonian(500 + k) for k in range(20)]
    gray_lo, gray_hi = 1e-9, 1e-4
    states = [ginibre_state(rng) for _ in range(350)]
    states += [random_product_state(rng) for _ in range(100)]
    states += [bd_compose(np.random.default_rng(38).uniform(-0.4, 0.4, 3)) for _ in range(50)]
    gray_logged = 0
    for rho in states:
        _, comm = lazy_by_commutator(rho)
        max_rate = max(abs(entropy_rate_at_zero(rho, h).rate) for h in couplings)
        if gray_lo <= comm <= gray_hi:
            gray_logged += 1
            continue
        assert (comm > gray_hi) == (max_rate > 1e-4)
    assert gray_logged <= 5


# one state of each kind the dynamics benchmark pool draws, half of them lazy
DYNAMICS_KINDS = {
    "bell_diagonal": lambda rng: bd_compose(random_bell_diagonal_point(rng)),
    "lazy_discordant": lambda rng: lazy_discordant_compose(
        random_lazy_discordant_params(rng)
    ),
    "product": random_product_state,
    "ginibre": ginibre_state,
    "separable_family": lambda rng: separable_compose(random_separable_params(rng)),
}


def _fresh_coupling(seed):
    # built from scratch as random_hamiltonian documents it, with no cache
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2.0
    w, _ = herm_eig(h)
    return CouplingHamiltonian(h=h / max(abs(w[0]), abs(w[-1])), seed=seed)


def _uncached_rates(rho, n_hamiltonians, seed, step):
    # the public path: a fresh coupling per call, eigensolved per rate
    for k in range(n_hamiltonians):
        assert np.array_equal(random_hamiltonian(seed + k).h, _fresh_coupling(seed + k).h)
    return tuple(
        entropy_rate_at_zero(rho, _fresh_coupling(seed + k), step)
        for k in range(n_hamiltonians)
    )


def _entropy2_reference(marginal):
    w = qubit_spectrum(marginal)
    w = w[w > 1e-12]
    return float(-(w * np.log2(w)).sum())


def _entropy_rate_reference(rho, coupling, step):
    # the rate arithmetic of the uncached implementation, kept here as an
    # oracle: fresh eigensolve and propagator per rate, einsum partial
    # traces, the marginal spectrum by qubit_spectrum
    w, v = herm_eig(coupling.h)
    marginal = partial_trace_b(rho)
    purity = float(np.einsum("ij,ji->", marginal, marginal).real)
    u_plus = (v * np.exp(-1j * w * step)) @ v.conj().T
    s_plus = _entropy2_reference(partial_trace_b(u_plus @ rho @ u_plus.conj().T))
    u_minus = u_plus.conj().T
    s_minus = _entropy2_reference(partial_trace_b(u_minus @ rho @ u_minus.conj().T))
    return RateReport(
        rate=(s_plus - s_minus) / (2.0 * step),
        step=step,
        hamiltonian_seed=coupling.seed,
        caution=purity >= 1.0 - 1e-12,
    )


def _reference_rates(rho, n_hamiltonians, seed, step):
    return tuple(
        _entropy_rate_reference(rho, _fresh_coupling(seed + k), step)
        for k in range(n_hamiltonians)
    )


CHECK_CASES = [(0, 20, 1e-4), (11, 5, 5e-5), (1000, 33, 2e-4), (2**40, 3, 1e-5)]


@pytest.mark.parametrize("seed,n_hamiltonians,step", CHECK_CASES)
def test_cached_couplings_give_the_uncached_rates(seed, n_hamiltonians, step):
    rng = np.random.default_rng(seed % 997)
    states = [make(rng) for make in DYNAMICS_KINDS.values()]
    _coupling.cache_clear()
    _propagator.cache_clear()
    cold = [laziness_dynamics_check(rho, n_hamiltonians, seed, step) for rho in states]
    # one propagator pair built per (seed, step), shared by every state
    assert _propagator.cache_info().misses == n_hamiltonians
    warm = [laziness_dynamics_check(rho, n_hamiltonians, seed, step) for rho in states]
    oracle = [_uncached_rates(rho, n_hamiltonians, seed, step) for rho in states]
    # repr tells every float bit pattern apart, -0.0 from 0.0 included
    assert repr([r.rates for r in cold]) == repr(oracle)
    assert repr(warm) == repr(cold)


def test_warm_check_eigensolves_no_coupling(monkeypatch):
    rho = ginibre_state(np.random.default_rng(5))
    laziness_dynamics_check(rho, 6, seed=70)
    calls = []
    monkeypatch.setattr(dynamics, "herm_eig", lambda m: calls.append(m) or herm_eig(m))
    laziness_dynamics_check(rho, 6, seed=70)
    assert calls == []


def test_mutating_a_returned_coupling_leaves_the_check_alone():
    rho = ginibre_state(np.random.default_rng(6))
    before = laziness_dynamics_check(rho, 4, seed=40)
    coupling = random_hamiltonian(41)
    assert coupling.h.flags.writeable
    assert not any(a.flags.writeable for a in _coupling(41))
    coupling.h[:] = 0.0
    after = laziness_dynamics_check(rho, 4, seed=40)
    assert repr(after) == repr(before)
    assert repr(after.rates) == repr(_uncached_rates(rho, 4, 40, DEFAULT_STEP))
    assert not np.array_equal(random_hamiltonian(41).h, coupling.h)


def test_cache_accepts_the_seeds_numpy_accepts():
    h = random_hamiltonian(np.int64(5)).h
    # 5.0 == np.int64(5), but default_rng refuses a float seed, cached or not
    with pytest.raises(TypeError):
        random_hamiltonian(5.0)
    assert np.array_equal(random_hamiltonian(5).h, h)


@pytest.mark.parametrize("step", [0.0, -1e-4, 0.01])
def test_bad_step_raises_the_same_error_on_a_warm_cache(step):
    rho = bd_compose([0.2, 0.1, -0.3])
    laziness_dynamics_check(rho, 3, seed=5)
    with pytest.raises(ValueError) as cached:
        laziness_dynamics_check(rho, 3, seed=5, step=step)
    with pytest.raises(ValueError) as direct:
        entropy_rate_at_zero(rho, _fresh_coupling(5), step=step)
    assert str(cached.value) == str(direct.value)


@pytest.mark.parametrize("seed,n_hamiltonians,step", CHECK_CASES)
def test_check_matches_the_reference_arithmetic(seed, n_hamiltonians, step):
    rng = np.random.default_rng(seed % 997)
    states = [make(rng) for make in DYNAMICS_KINDS.values()]
    oracle = [_reference_rates(rho, n_hamiltonians, seed, step) for rho in states]
    _coupling.cache_clear()
    _propagator.cache_clear()
    for _ in ("cold", "warm"):
        reports = [laziness_dynamics_check(rho, n_hamiltonians, seed, step) for rho in states]
        assert repr([r.rates for r in reports]) == repr(oracle)
        assert [r.caution for r in reports] == [o[0].caution for o in oracle]
    direct = [
        tuple(
            entropy_rate_at_zero(rho, random_hamiltonian(seed + k), step)
            for k in range(n_hamiltonians)
        )
        for rho in states
    ]
    assert repr(direct) == repr(oracle)


def test_entropy_a_matches_the_reference_arithmetic(bell_phi_plus):
    rng = np.random.default_rng(17)
    states = [bell_phi_plus] + [make(rng) for make in DYNAMICS_KINDS.values() for _ in range(4)]
    states += [evolve(rho, random_hamiltonian(3), 0.7) for rho in states]
    for rho in states:
        marginal = partial_trace_b(certify(rho, "test"))
        assert repr(entropy_a(rho)) == repr(_entropy2_reference(marginal))


def test_propagators_are_keyed_by_seed_and_step():
    # alternating steps and overlapping seed ranges on a warm cache: a key
    # that dropped the step or shifted the seed would hand back a wrong pair
    rho = ginibre_state(np.random.default_rng(8))
    for step in (1e-4, 5e-5, 1e-4, 2e-4):
        for seed in (60, 61, 60):
            report = laziness_dynamics_check(rho, 3, seed, step)
            assert repr(report.rates) == repr(_reference_rates(rho, 3, seed, step))
    u, _ = _propagator(60, 1e-4)
    assert not np.array_equal(u, _propagator(61, 1e-4)[0])
    assert not np.array_equal(u, _propagator(60, 5e-5)[0])


def test_cached_propagators_are_read_only():
    u, u_dag = _propagator(62, DEFAULT_STEP)
    assert np.array_equal(u_dag, u.conj().T)
    w, v = herm_eig(_fresh_coupling(62).h)
    assert np.array_equal(u, (v * np.exp(-1j * w * DEFAULT_STEP)) @ v.conj().T)
    for a in (u, u_dag, u_dag.base):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    assert _propagator(62, DEFAULT_STEP)[0] is u


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_non_finite_step_is_rejected(bell_phi_plus, step):
    with pytest.raises(ValueError, match="require 0 < step"):
        entropy_rate_at_zero(bell_phi_plus, random_hamiltonian(0), step=step)
    with pytest.raises(ValueError, match="require 0 < step"):
        laziness_dynamics_check(bell_phi_plus, 3, step=step)
    with pytest.raises(ValueError, match="t must be finite"):
        evolve(bell_phi_plus, random_hamiltonian(0), step)


def test_rejected_step_leaves_nothing_cached(bell_phi_plus):
    _propagator.cache_clear()
    for step in (math.nan, 0.0, 0.01):
        with pytest.raises(ValueError):
            laziness_dynamics_check(bell_phi_plus, 2, seed=3, step=step)
    assert _propagator.cache_info().currsize == 0


@pytest.mark.parametrize("n_hamiltonians", [0, -1])
def test_check_needs_a_coupling(bell_phi_plus, n_hamiltonians):
    with pytest.raises(ValueError, match="n_hamiltonians must be at least 1"):
        laziness_dynamics_check(bell_phi_plus, n_hamiltonians)


def test_check_works_on_the_certified_hermitian_part():
    # an anti-Hermitian part far inside the 1e-9 gate still moved the rates
    # when they were computed on the raw matrix
    rng = np.random.default_rng(21)
    rho = ginibre_state(rng)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    skew = (g - g.conj().T) / 2.0
    perturbed = rho + 2e-12 * skew / frob_norm(skew)
    herm = certify(perturbed, "test")
    assert hermiticity_residual(herm) == 0.0
    assert repr(laziness_dynamics_check(perturbed, 20, seed=0)) == repr(
        laziness_dynamics_check(herm, 20, seed=0)
    )
    # exactly Hermitian input is used as it is
    assert repr(laziness_dynamics_check(rho, 20, seed=0)) == repr(
        laziness_dynamics_check(certify(rho, "test"), 20, seed=0)
    )
