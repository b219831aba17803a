import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lazystates import dynamics
from lazystates.belldiag import bd_compose
from lazystates.classify import classify
from lazystates.dynamics import (
    _CHUNK,
    COMM_GRAY_ZONE,
    DEFAULT_STEP,
    RATE_TOL_NONZERO,
    RATE_TOL_ZERO,
    _bloch_map,
    _consistency,
    _coupling,
    _entropies,
    laziness_dynamics_check,
)
from lazystates.families import (
    SeparableFamilyParams,
    _qubit,
    lazy_discordant_compose,
    separable_compose,
)
from lazystates.fano import certify
from lazystates.matcore import InvalidArgument, kron, partial_trace_b
from lazystates.stateio import load_state_file
from oracles import (
    entropy2_reference,
    entropy_rate_heisenberg_reference,
    entropy_rate_reference,
    fresh_coupling,
    frob_norm,
    heisenberg_rows,
    hermiticity_residual,
    numpy_on_openblas_x86_64,
)
from sampling import (
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
    # the seeded coupling of the check
    h1 = _coupling(42)
    h2 = _coupling(42)
    assert np.array_equal(h1, h2)
    assert hermiticity_residual(h1) <= 1e-15
    w, _ = np.linalg.eigh(h1)
    assert abs(max(abs(w[0]), abs(w[-1])) - 1.0) <= 1e-12
    # the check's rate k is the rate under the coupling of seed + k
    rho = ginibre_state(np.random.default_rng(42))
    report = laziness_dynamics_check(rho, 2, seed=41)
    assert report.rates[1] == entropy_rate_heisenberg_reference(rho, h1, DEFAULT_STEP)
    assert_near_the_schroedinger_rates([report.rates], [rho], 41, DEFAULT_STEP)


def test_random_hamiltonian_seeds_differ():
    h1 = _coupling(1)
    h2 = _coupling(2)
    assert frob_norm(h1 - h2) > 0.1


def test_entropy_a_examples(bell_phi_plus):
    # the first-qubit marginal entropy every rate is a difference of, read
    # off the Bloch vector that the rows of u = I give
    ket = np.zeros(4, dtype=complex)
    ket[1] = 1.0
    # marginal eigenvalues (3/4, 1/4): S = 2 - (3/4) log2 3
    rho = np.diag([0.375, 0.375, 0.125, 0.125]).astype(complex)
    states = [bell_phi_plus, np.outer(ket, ket.conj()), rho]
    x = np.array([heisenberg_rows(np.eye(4))[:3] @ m.view(float).ravel() for m in states])
    assert np.array_equal(x, [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.5]])
    bell, pure, mixed = _entropies(np.sqrt((x * x).sum(axis=1))).tolist()
    assert abs(bell - 1.0) <= 1e-12
    assert pure <= 1e-12
    assert abs(mixed - (2.0 - 0.75 * np.log2(3.0))) <= 1e-12


def test_entropy_rate_zero_for_lazy_states(bell_phi_plus):
    # rate k of a check is the rate under the coupling of seed + k
    for rate in laziness_dynamics_check(bell_phi_plus, 10, seed=100).rates:
        assert abs(rate) <= 1e-6
    rho = random_product_state(np.random.default_rng(5), max_bloch=0.8)
    for rate in laziness_dynamics_check(rho, 10, seed=200).rates:
        assert abs(rate) <= 1e-6


def test_entropy_rate_nonzero_for_witness():
    assert laziness_dynamics_check(NOT_LAZY_WITNESS, 20, seed=300).max_abs_rate > 1e-3


def test_entropy_rate_step_contract():
    rho = bd_compose([0.2, 0.1, -0.3])
    with pytest.raises(ValueError):
        laziness_dynamics_check(rho, 1, seed=1, step=0.0)
    with pytest.raises(ValueError):
        laziness_dynamics_check(rho, 1, seed=1, step=0.01)
    report = laziness_dynamics_check(rho, 1, seed=1, step=1e-4)
    (rate,) = report.rates
    assert type(rate) is float
    # the check's one rate at seed 1 and step 1e-4 is the oracle's
    assert rate == entropy_rate_heisenberg_reference(rho, _coupling(1), 1e-4)
    assert_near_the_schroedinger_rates([report.rates], [rho], 1, 1e-4)
    assert not report.caution


def test_entropy_rate_caution_for_pure_marginal():
    ket = np.zeros(4, dtype=complex)
    ket[0] = 1.0
    report = laziness_dynamics_check(np.outer(ket, ket.conj()), 1, seed=4)
    assert report.caution


def test_entropy_rate_step_halving_second_order():
    rng = np.random.default_rng(31)
    for k in range(20):
        # mix toward the identity to keep the marginal comfortably nonsingular
        rho = 0.5 * ginibre_state(rng) + 0.5 * np.eye(4) / 4
        (r1,) = laziness_dynamics_check(rho, 1, seed=400 + k, step=1e-4).rates
        (r2,) = laziness_dynamics_check(rho, 1, seed=400 + k, step=5e-5).rates
        w, _ = np.linalg.eigh(rho)
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


@pytest.mark.parametrize("lazy,threshold", [(True, RATE_TOL_ZERO), (False, RATE_TOL_NONZERO)])
def test_consistency_at_the_rate_thresholds(lazy, threshold):
    # a lazy state may reach RATE_TOL_ZERO; a non-lazy one must exceed RATE_TOL_NONZERO
    below, above = math.nextafter(threshold, 0.0), math.nextafter(threshold, math.inf)
    consistent = [_consistency(lazy, rate, 0.0)[0] for rate in (below, threshold, above)]
    assert consistent == ([True, True, False] if lazy else [False, False, True])


@pytest.mark.parametrize("end", [0, 1])
def test_gray_zone_includes_both_ends(end):
    # an inconsistent non-lazy state is gray on [COMM_GRAY_ZONE[0], COMM_GRAY_ZONE[1]]
    inside = COMM_GRAY_ZONE[end]
    outside = math.nextafter(inside, (0.0, math.inf)[end])
    inward = math.nextafter(inside, (math.inf, 0.0)[end])
    gray = [_consistency(False, 0.0, comm)[1] for comm in (outside, inside, inward)]
    assert gray == [False, True, True]


def test_consistency_gray_zone_logic():
    # inconsistent but the commutator norm sits in the declared gray band
    consistent, gray = _consistency(lazy=False, max_rate=1e-5, comm_norm=1e-6)
    assert not consistent and gray
    # inconsistent with a large commutator norm: a genuine failure
    consistent, gray = _consistency(lazy=False, max_rate=1e-5, comm_norm=1e-2)
    assert not consistent and not gray
    # consistent cases are never gray
    consistent, gray = _consistency(lazy=True, max_rate=1e-8, comm_norm=0.0)
    assert consistent and not gray
    assert COMM_GRAY_ZONE[0] < COMM_GRAY_ZONE[1]


def test_one_coupling_misses_a_non_lazy_state_that_two_catch():
    # laziness is a zero rate under every coupling: this state's rate under
    # the coupling of seed 1 is zero, under seed 2's it is not
    rho = load_state_file(Path(__file__).parent / "fixtures" / "missed_by_one_coupling.json")
    cls = classify(rho)
    assert cls.physical and not cls.lazy_a
    one = laziness_dynamics_check(rho, 1, seed=1)
    assert one.commutator_norm > COMM_GRAY_ZONE[1]
    assert not one.lazy and not one.consistent and not one.gray_zone
    two = laziness_dynamics_check(rho, 2, seed=1)
    assert not two.lazy and two.consistent


def test_commutator_norm_predicts_rate_sign():
    # 500 states x 20 couplings: the commutator norm crossing 1e-9 predicts
    # the max sampled rate crossing 1e-4; the band between is logged, not failed
    rng = np.random.default_rng(37)
    gray_lo, gray_hi = 1e-9, 1e-4
    states = [ginibre_state(rng) for _ in range(350)]
    states += [random_product_state(rng) for _ in range(100)]
    states += [bd_compose(np.random.default_rng(38).uniform(-0.4, 0.4, 3)) for _ in range(50)]
    gray_logged = 0
    for rho in states:
        comm = classify(rho).witnesses["commutator_norm"]
        # the couplings of seeds 500-519
        max_rate = laziness_dynamics_check(rho, 20, seed=500).max_abs_rate
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


def _bloch_without_blas(rng):
    # random_product_state's draws, normalized by einsum, not np.linalg.norm
    v = rng.standard_normal(3)
    return v / math.sqrt(np.einsum("i,i->", v, v)) * rng.uniform(0.0, 0.8)


def _ginibre_without_blas(rng):
    # ginibre_state's draws, with G G† formed by einsum, not @
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = np.einsum("ij,kj->ik", g, g.conj())
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


# DYNAMICS_KINDS with no BLAS call: elementwise numpy, kron, einsum and
# compose's einsum only, so the states keep their bytes under every OpenBLAS
# kernel and differ from DYNAMICS_KINDS' by rounding only
PINNED_KINDS = dict(
    DYNAMICS_KINDS,
    product=lambda rng: kron(_qubit(_bloch_without_blas(rng)), _qubit(_bloch_without_blas(rng))),
    ginibre=_ginibre_without_blas,
)


def _caution_reference(rho):
    marginal = partial_trace_b(rho)
    return float(np.einsum("ij,ji->", marginal, marginal).real) >= 1.0 - 1e-12


def _reference_rates(rho, n_hamiltonians, seed, step):
    # a fresh coupling per rate, eigensolved per rate
    return tuple(
        entropy_rate_heisenberg_reference(rho, fresh_coupling(seed + k), step)
        for k in range(n_hamiltonians)
    )


def assert_near_the_schroedinger_rates(rates, states, seed, step):
    """Each rate list within 1e-13/step of entropy_rate_reference, which forms
    u rho u† and reads the marginal off the matrix."""
    for rho, state_rates in zip(states, rates, strict=True):
        for k, rate in enumerate(state_rates):
            reference = entropy_rate_reference(
                certify(rho, "test"), fresh_coupling(seed + k), step
            )
            assert abs(rate - reference) <= 1e-13 / step


CHECK_CASES = [(0, 20, 1e-4), (11, 5, 5e-5), (1000, 33, 2e-4), (2**40, 3, 1e-5)]


@pytest.mark.parametrize("seed,n_hamiltonians,step", CHECK_CASES)
def test_cached_couplings_give_the_uncached_rates(seed, n_hamiltonians, step):
    rng = np.random.default_rng(seed % 997)
    states = [make(rng) for make in DYNAMICS_KINDS.values()]
    _bloch_map.cache_clear()
    cold = [laziness_dynamics_check(rho, n_hamiltonians, seed, step) for rho in states]
    # one map built per (seed, n, step), shared by every state
    assert _bloch_map.cache_info().misses == 1
    warm = [laziness_dynamics_check(rho, n_hamiltonians, seed, step) for rho in states]
    for k in range(n_hamiltonians):
        assert np.array_equal(_coupling(seed + k), fresh_coupling(seed + k))
    oracle = [_reference_rates(rho, n_hamiltonians, seed, step) for rho in states]
    # repr tells every float bit pattern apart, -0.0 from 0.0 included
    assert repr([r.rates for r in cold]) == repr(oracle)
    assert repr(warm) == repr(cold)
    assert_near_the_schroedinger_rates([r.rates for r in cold], states, seed, step)


def test_warm_check_eigensolves_no_coupling(monkeypatch):
    rho = ginibre_state(np.random.default_rng(5))
    laziness_dynamics_check(rho, 6, seed=70)
    herm = certify(rho, "test")
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    monkeypatch.setattr(dynamics, "_coupling", lambda seed: calls.append(seed))
    laziness_dynamics_check(rho, 6, seed=70)
    # the gate's one eigensolve, of the stack whose slot 0 is the state's
    # Hermitian part, and none of a coupling
    assert len(calls) == 1 and calls[0].shape == (2, 4, 4)
    assert np.array_equal(calls[0][0], herm)


def test_mutating_a_returned_coupling_leaves_the_check_alone():
    rho = ginibre_state(np.random.default_rng(6))
    before = laziness_dynamics_check(rho, 4, seed=40)
    coupling = _coupling(41)
    assert coupling.flags.writeable
    assert not _bloch_map(40, 4, DEFAULT_STEP).flags.writeable
    coupling[:] = 0.0
    after = laziness_dynamics_check(rho, 4, seed=40)
    assert repr(after) == repr(before)
    assert repr(after.rates) == repr(_reference_rates(rho, 4, 40, DEFAULT_STEP))
    assert_near_the_schroedinger_rates([after.rates], [rho], 40, DEFAULT_STEP)
    assert not np.array_equal(_coupling(41), coupling)


def test_cache_accepts_the_seeds_numpy_accepts():
    rows = _bloch_map(np.int64(5), 1, DEFAULT_STEP)
    assert np.array_equal(_bloch_map(5, 1, DEFAULT_STEP), rows)
    # 5.0 == 5, but default_rng refuses a float seed, and the check refuses
    # it before it reads the state
    with pytest.raises(TypeError):
        _bloch_map(5.0, 1, DEFAULT_STEP)
    with pytest.raises(InvalidArgument) as exc:
        laziness_dynamics_check(np.eye(4) / 4, 1, seed=5.0)
    assert str(exc.value) == "laziness_dynamics_check: seed must be >= 0 (got 5.0)"


@pytest.mark.parametrize("step", [0.0, -1e-4, 0.01])
def test_bad_step_raises_the_same_error_on_a_warm_cache(step):
    rho = bd_compose([0.2, 0.1, -0.3])
    _bloch_map.cache_clear()
    with pytest.raises(InvalidArgument) as cold:
        laziness_dynamics_check(rho, 3, seed=5, step=step)
    laziness_dynamics_check(rho, 3, seed=5)
    with pytest.raises(InvalidArgument) as cached:
        laziness_dynamics_check(rho, 3, seed=5, step=step)
    assert str(cached.value) == str(cold.value) == (
        f"laziness_dynamics_check: step must lie in (0, 1e-3] (got {step!r})"
    )


@pytest.mark.parametrize("seed,n_hamiltonians,step", CHECK_CASES)
def test_check_matches_the_reference_arithmetic(seed, n_hamiltonians, step):
    rng = np.random.default_rng(seed % 997)
    states = [make(rng) for make in DYNAMICS_KINDS.values()]
    oracle = [_reference_rates(rho, n_hamiltonians, seed, step) for rho in states]
    _bloch_map.cache_clear()
    for _ in ("cold", "warm"):
        reports = [laziness_dynamics_check(rho, n_hamiltonians, seed, step) for rho in states]
        assert repr([r.rates for r in reports]) == repr(oracle)
        assert_near_the_schroedinger_rates([r.rates for r in reports], states, seed, step)
        assert [r.caution for r in reports] == [_caution_reference(rho) for rho in states]
    # rate k of a check is the one rate of the check at seed + k
    direct = [
        tuple(
            laziness_dynamics_check(rho, 1, seed + k, step).rates[0]
            for k in range(n_hamiltonians)
        )
        for rho in states
    ]
    assert repr(direct) == repr(oracle)


def test_entropy_a_matches_the_reference_arithmetic(bell_phi_plus):
    rng = np.random.default_rng(17)
    states = [bell_phi_plus] + [make(rng) for make in DYNAMICS_KINDS.values() for _ in range(4)]
    # evolved for t = 0.7 under the coupling of seed 3
    w, v = np.linalg.eigh(fresh_coupling(3))
    u = (v * np.exp(-1j * w * 0.7)) @ v.conj().T
    states += [u @ rho @ u.conj().T for rho in states]
    marginals = [partial_trace_b(certify(rho, "test")) for rho in states]
    # the radius the reference reads off the marginal matrix
    radii = [math.hypot((m[0, 0] - m[1, 1]).real, 2.0 * abs(m[0, 1])) for m in marginals]
    assert repr(_entropies(np.array(radii)).tolist()) == repr(
        [entropy2_reference(m) for m in marginals]
    )


# SHA-256 of the 200 states' bytes, the same under every OpenBLAS kernel, and
# of repr of their reports, recorded under the SkylakeX kernel, as the goldens
# are: only the reports' rates move with the kernel, as the commutator norm
# is an einsum sum
PINNED_STATES_SHA256 = "bb544d46f961b5659a65f03934bbfe90c19858c479e854430c2e387e2751cc06"
PINNED_REPORTS_SHA256 = "1739837cfe33704e8f0ea6f4fdd113776820da973259a48c46e14b7fab4d0163"


def test_dynamics_reports_are_pinned():
    rng = np.random.default_rng(1600)
    states = [make(rng) for _ in range(40) for make in PINNED_KINDS.values()]
    digest = hashlib.sha256(b"".join(rho.tobytes() for rho in states)).hexdigest()
    assert digest == PINNED_STATES_SHA256
    reports = [laziness_dynamics_check(rho, 20, seed=0, step=1e-4) for rho in states]
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == PINNED_REPORTS_SHA256


def _kernel_free_witnesses(states):
    """SHA-256 of classify's commutator_norm and hermiticity_residual."""
    rows = []
    for rho in states:
        cls = classify(rho)
        rows.append((cls.witnesses["commutator_norm"], cls.diagnostics["hermiticity_residual"]))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


_PRESCOTT_WITNESS_CHILD = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_dynamics import _kernel_free_witnesses
print(_kernel_free_witnesses(np.load(sys.argv[2])))
"""


@pytest.mark.skipif(
    not numpy_on_openblas_x86_64(), reason="needs numpy on OpenBLAS, x86-64"
)
def test_classify_einsum_witnesses_do_not_depend_on_the_openblas_kernel(tmp_path):
    # commutator_norm and hermiticity_residual are einsum sums, which call no
    # BLAS: Prescott's zgemm and ddot round differently from SkylakeX's, so a
    # matrix product or np.linalg.norm left in either changes the digest.
    # The corpus: the BLAS-free pinned states, and seeded matrices with an
    # anti-Hermitian part, inside the gate's 1e-9 (physical) and far outside
    rng = np.random.default_rng(1601)
    states = [make(rng) for _ in range(8) for make in PINNED_KINDS.values()]
    for rho in states[:16]:
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        states += [rho + 1e-11 * (g - g.conj().T), rho + 0.1 * g]
    corpus = tmp_path / "states.npy"
    np.save(corpus, np.array(states))
    result = subprocess.run(
        [sys.executable, "-c", _PRESCOTT_WITNESS_CHILD,
         os.path.dirname(os.path.abspath(__file__)), str(corpus)],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
    )
    assert result.returncode == 0, result.stderr
    classified = [classify(rho) for rho in states]
    assert sum(c.physical for c in classified) > len(PINNED_KINDS) * 8
    assert all(c.diagnostics["hermiticity_residual"] > 0.0 for c in classified[-32:])
    assert result.stdout.strip() == _kernel_free_witnesses(states)


@pytest.mark.parametrize(
    "n_hamiltonians",
    [
        1,
        _CHUNK - 1,
        _CHUNK,
        _CHUNK + 1,
        2 * _CHUNK + 1,
        4 * _CHUNK - 1,
        4 * _CHUNK,
        4 * _CHUNK + 1,
        8 * _CHUNK + 1,
    ],
)
def test_chunk_boundaries_give_the_reference_rates(monkeypatch, n_hamiltonians):
    rho = ginibre_state(np.random.default_rng(n_hamiltonians))
    contracted = []
    einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        if subscripts == "kj,j->k":
            contracted.append(len(operands[0]))
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    report = laziness_dynamics_check(rho, n_hamiltonians, seed=3000)
    monkeypatch.undo()
    assert repr(report.rates) == repr(_reference_rates(rho, n_hamiltonians, 3000, DEFAULT_STEP))
    assert_near_the_schroedinger_rates([report.rates], [rho], 3000, DEFAULT_STEP)
    # each pass contracts the six rows of each of at most _CHUNK couplings
    sizes = [min(_CHUNK, n_hamiltonians - start) for start in range(0, n_hamiltonians, _CHUNK)]
    assert contracted == [6 * k for k in sizes]


_PRESCOTT_RATES_CHILD = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from test_dynamics import DYNAMICS_KINDS, _reference_rates
from lazystates.dynamics import laziness_dynamics_check
rng = np.random.default_rng(23)
for name, make in DYNAMICS_KINDS.items():
    rho = make(rng)
    for n in (20, 65):
        rates = laziness_dynamics_check(rho, n, seed=0).rates
        if repr(rates) != repr(_reference_rates(rho, n, 0, 1e-4)):
            sys.exit(name + ": stacked rates differ from the reference")
"""


@pytest.mark.skipif(
    not numpy_on_openblas_x86_64(), reason="needs numpy on OpenBLAS, x86-64"
)
def test_stacked_rates_match_the_reference_under_the_prescott_kernel():
    # Prescott's zgemm rounds differently from the newer kernels; the rates
    # of a whole map must still equal the per-coupling ones bit for bit
    result = subprocess.run(
        [sys.executable, "-c", _PRESCOTT_RATES_CHILD, os.path.dirname(os.path.abspath(__file__))],
        capture_output=True, text=True, env={**os.environ, "OPENBLAS_CORETYPE": "Prescott"},
    )
    assert result.returncode == 0, result.stderr


def test_repeated_check_past_the_cache_size_hits_the_cache():
    # maps past the first are built uncached; cycled through the cache in
    # order, each would be evicted before its next use
    rho = ginibre_state(np.random.default_rng(9))
    n = _CHUNK + 1
    _bloch_map.cache_clear()
    first = laziness_dynamics_check(rho, n, seed=5000)
    assert _bloch_map.cache_info()[:2] == (0, 1)  # hits, misses
    second = laziness_dynamics_check(rho, n, seed=5000)
    assert _bloch_map.cache_info()[:2] == (1, 1)
    assert _bloch_map.cache_info().currsize == 1
    assert repr(second) == repr(first)
    assert repr(first.rates) == repr(_reference_rates(rho, n, 5000, DEFAULT_STEP))


def test_bloch_maps_are_keyed_by_seed_and_step():
    # alternating steps, overlapping seed ranges and counts on a warm cache:
    # a key that dropped the step or the count or shifted the seed would
    # hand back a wrong map
    rho = ginibre_state(np.random.default_rng(8))
    for step in (1e-4, 5e-5, 1e-4, 2e-4):
        for seed, n in ((60, 3), (61, 3), (60, 3), (60, 2)):
            report = laziness_dynamics_check(rho, n, seed, step)
            assert repr(report.rates) == repr(_reference_rates(rho, n, seed, step))
            assert_near_the_schroedinger_rates([report.rates], [rho], seed, step)
    rows = _bloch_map(60, 3, 1e-4)
    assert not np.array_equal(rows, _bloch_map(61, 3, 1e-4))
    assert not np.array_equal(rows, _bloch_map(60, 3, 5e-5))
    assert np.array_equal(_bloch_map(60, 2, 1e-4), rows[:12])


def test_cached_bloch_maps_are_read_only():
    rows = _bloch_map(62, 2, DEFAULT_STEP)
    assert rows.shape == (12, 32) and rows.dtype == np.float64
    for k in range(2):
        w, v = np.linalg.eigh(fresh_coupling(62 + k))
        u = (v * np.exp(-1j * w * DEFAULT_STEP)) @ v.conj().T
        assert np.array_equal(rows[6 * k : 6 * k + 6], heisenberg_rows(u))
    # the map and the view of it the check contracts with
    for a in (rows, rows[6:]):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    assert _bloch_map(62, 2, DEFAULT_STEP) is rows


def test_stack_cache_never_holds_more_than_256_kb():
    maxsize = _bloch_map.cache_parameters()["maxsize"]
    # a full-size map is 6 rows of 32 float64 per coupling, at most 128 KB,
    # so that maxsize of them stay within 256 KB
    full = _bloch_map(7000, _CHUNK, DEFAULT_STEP).nbytes
    assert full == _CHUNK * 6 * 32 * 8 <= 128 * 1024
    assert maxsize * full <= 256 * 1024
    for key in range(maxsize + 2):
        _bloch_map(7001 + key, _CHUNK - key % 2, DEFAULT_STEP)
        assert _bloch_map.cache_info().currsize <= maxsize


def test_warm_benchmark_check_makes_one_cache_hit_and_builds_nothing(monkeypatch):
    rho = ginibre_state(np.random.default_rng(10))
    cold = laziness_dynamics_check(rho, 20, seed=0, step=1e-4)
    before = _bloch_map.cache_info()
    built = []
    monkeypatch.setattr(dynamics, "_coupling", lambda *args: built.append(args))
    warm = laziness_dynamics_check(rho, 20, seed=0, step=1e-4)
    after = _bloch_map.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert built == []
    assert repr(warm) == repr(cold)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf])
def test_non_finite_step_is_rejected(bell_phi_plus, step):
    with pytest.raises(InvalidArgument) as exc:
        laziness_dynamics_check(bell_phi_plus, 3, step=step)
    assert str(exc.value) == f"laziness_dynamics_check: step must lie in (0, 1e-3] (got {step!r})"


def test_rejected_step_leaves_nothing_cached(bell_phi_plus):
    _bloch_map.cache_clear()
    for step in (math.nan, 0.0, 0.01):
        with pytest.raises(ValueError):
            laziness_dynamics_check(bell_phi_plus, 2, seed=3, step=step)
    assert _bloch_map.cache_info().currsize == 0


@pytest.mark.parametrize("n_hamiltonians", [0, -1])
def test_check_needs_a_coupling(bell_phi_plus, n_hamiltonians):
    with pytest.raises(ValueError, match="n_hamiltonians must be at least 1"):
        laziness_dynamics_check(bell_phi_plus, n_hamiltonians)


def test_largest_step_is_accepted(bell_phi_plus):
    # 19 of these couplings have a computed spectral norm of 1 + 1 ulp; the
    # check bounds the step alone, as its couplings have unit norm
    report = laziness_dynamics_check(bell_phi_plus, 50, step=1e-3)
    assert len(report.rates) == 50 and report.consistent


def test_check_rejects_a_negative_seed_before_judging_the_state(monkeypatch):
    judged = []
    monkeypatch.setattr(dynamics, "certify", lambda *args: judged.append(args))
    with pytest.raises(InvalidArgument) as exc:
        laziness_dynamics_check(np.eye(4) / 4, 3, seed=-1)
    assert str(exc.value) == "laziness_dynamics_check: seed must be >= 0 (got -1)"
    assert judged == []


BAD_ARGUMENT_TYPES = [
    ({"n_hamiltonians": "2"}, "n_hamiltonians must be at least 1 (got '2')"),
    ({"n_hamiltonians": 2.5}, "n_hamiltonians must be at least 1 (got 2.5)"),
    ({"n_hamiltonians": True}, "n_hamiltonians must be at least 1 (got True)"),
    ({"seed": None}, "seed must be >= 0 (got None)"),
    ({"seed": "0"}, "seed must be >= 0 (got '0')"),
    ({"step": "1e-4"}, "step must lie in (0, 1e-3] (got '1e-4')"),
    ({"step": None}, "step must lie in (0, 1e-3] (got None)"),
]


@pytest.mark.parametrize(
    "kwargs,message", BAD_ARGUMENT_TYPES, ids=[repr(kw) for kw, _ in BAD_ARGUMENT_TYPES]
)
def test_a_bad_argument_type_is_an_invalid_argument(monkeypatch, kwargs, message):
    judged = []
    monkeypatch.setattr(dynamics, "certify", lambda *args: judged.append(args))
    with pytest.raises(InvalidArgument) as exc:
        laziness_dynamics_check(np.eye(4) / 4, **kwargs)
    assert str(exc.value) == f"laziness_dynamics_check: {message}"
    assert judged == []


def test_numpy_integer_and_float_arguments_are_accepted():
    rho = ginibre_state(np.random.default_rng(12))
    report = laziness_dynamics_check(rho, np.int64(3), np.int64(7), np.float64(1e-4))
    assert repr(report) == repr(laziness_dynamics_check(rho, 3, 7, 1e-4))


def test_bad_step_on_an_unphysical_state_is_an_invalid_argument(bell_phi_plus):
    # the step is checked before the state: the error names the step, not
    # an unphysical state
    with pytest.raises(InvalidArgument) as exc:
        laziness_dynamics_check(2.0 * bell_phi_plus, 3, step=0.01)
    assert str(exc.value) == "laziness_dynamics_check: step must lie in (0, 1e-3] (got 0.01)"


def test_check_eigensolves_only_exactly_hermitian_matrices(monkeypatch, bell_phi_plus):
    # a cold check eigensolves the gate's stack of the Hermitian part and
    # its partial transpose once and each coupling twice (for its norm, then
    # for its propagator), every matrix exactly Hermitian by construction,
    # so no Hermiticity guard is needed
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
    _bloch_map.cache_clear()
    laziness_dynamics_check(bell_phi_plus, 3, seed=7)
    assert len(calls) == 1 + 2 * 3
    assert calls[0].shape == (2, 4, 4)
    assert all(np.array_equal(m, m.conj().swapaxes(-1, -2)) for m in calls)


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
