"""Acceptance suite: one test per criterion, one [PASS]/[FAIL] line each.

Run under pytest, or standalone for the line-per-criterion report:

    python3 tests/test_acceptance.py
"""

import math
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from lazystates.belldiag import bd_census, bd_compose
from lazystates.classify import _discord_svd, classify
from lazystates.families import (
    LazyDiscordantParams,
    SeparableFamilyParams,
    lazy_discordant_compose,
    separable_classify,
    separable_compose,
)
from lazystates.fano import decompose
from oracles import (
    bd_spectrum,
    entropy_rate_reference,
    fresh_coupling,
    lazy_discordant_spectrum,
    pinch_residual,
    separable_fano,
)
from sampling import (
    ginibre_state,
    random_bell_diagonal_point,
    random_lazy_discordant_params,
    random_local_unitary,
    random_product_state,
    random_separable_params,
)

HERE = Path(__file__).parent
TOL = 1e-9
GRAY_RESIDUALS = (1e-10, 1e-8)
CENSUS_SEED = 7
CENSUS_SAMPLES = 1_000_000
# the central-difference step of criterion 7's rate oracle, the check's default
RATE_STEP = 1e-4

VERDICT_FIELDS = ("physical", "pure", "product", "zero_discord_a", "lazy_a", "separable")


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name} {detail}"


@lru_cache(maxsize=1)
def _ginibre_batch():
    rng = np.random.default_rng(20_240_817)
    return tuple(ginibre_state(rng) for _ in range(10_000))


def test_criterion_1_route_equivalence():
    t0 = time.perf_counter()
    disagreements = 0
    gray = 0
    for rho in _ginibre_batch():
        witnesses = classify(rho, TOL).witnesses
        comm, residual = witnesses["commutator_norm"], witnesses["parallel_residual"]
        in_gray = (
            GRAY_RESIDUALS[0] <= comm <= GRAY_RESIDUALS[1]
            or GRAY_RESIDUALS[0] <= residual <= GRAY_RESIDUALS[1]
        )
        if in_gray:
            gray += 1
            print(f"  gray-zone state: commutator {comm:.3e}, residual {residual:.3e}")
        elif (comm <= TOL) != (residual <= TOL):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: commutator and parallelism routes agree on 10000 states",
        disagreements == 0 and gray <= 10 and elapsed < 30.0,
        f"disagreements={disagreements}, gray={gray}, {elapsed:.1f}s",
    )


def _zero_discord_pinch(rho):
    """Pinch residual along the measurement direction n of [x | T]."""
    p = decompose(rho)
    _, n = _discord_svd(np.column_stack((p.x, p.t)))
    return pinch_residual(rho, n)


def test_criterion_2_hierarchy_inclusions():
    violations = 0
    worst_pinch = 0.0
    for rho in _ginibre_batch():
        cls = classify(rho, TOL)
        if not cls.physical:
            violations += 1
            continue
        if cls.product and not cls.zero_discord_a:
            violations += 1
        if cls.zero_discord_a and not cls.lazy_a:
            violations += 1
        if cls.zero_discord_a and not cls.separable:
            violations += 1
        if cls.zero_discord_a:
            worst_pinch = max(worst_pinch, _zero_discord_pinch(rho))
    _report(
        "criterion 2: product => zero-discord => lazy and zero-discord => separable",
        violations == 0 and worst_pinch <= TOL,
        f"violations={violations}, worst zero-discord pinch residual {worst_pinch:.1e}",
    )


def test_criterion_3_strictness_witnesses():
    v = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    bell = np.outer(v, v.conj())
    cls = classify(bell, TOL)
    ok_a = (
        cls.physical and cls.lazy_a and not cls.zero_discord_a and not cls.separable
    )

    q = LazyDiscordantParams(0.5, 0.3, 0.4)
    rho = lazy_discordant_compose(q)
    cls = classify(rho, TOL)
    w, _ = np.linalg.eigh(rho)
    spectrum_err = float(np.max(np.abs(np.sort(lazy_discordant_spectrum(q)) - w)))
    ok_b = cls.physical and cls.lazy_a and not cls.zero_discord_a and spectrum_err <= 1e-12

    s = SeparableFamilyParams(0.5, math.pi / 2, math.pi / 2, 0.0, 1.0)
    cls = classify(separable_compose(s), TOL)
    ok_c = cls.physical and cls.separable and not cls.lazy_a

    _report(
        "criterion 3: strictness witnesses (Bell / lazy-discordant / separable-non-lazy)",
        ok_a and ok_b and ok_c,
        f"bell={ok_a}, lazy_discordant={ok_b} (spectrum err {spectrum_err:.1e}), "
        f"separable_witness={ok_c}",
    )


def _halfspace_volumes(n=1200):
    """Independent quadrature oracle for the tetrahedron and octahedron volumes.

    Midpoint rule over (l1, l2); the l3 extent of each body is an exact
    interval intersection per grid cell.
    """
    c = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    l1, l2 = np.meshgrid(c, c, indexing="ij")
    lo = np.maximum(np.maximum(l1 - l2 - 1.0, l2 - l1 - 1.0), -1.0)
    hi = np.minimum(np.minimum(1.0 + l1 + l2, 1.0 - l1 - l2), 1.0)
    tetra = float(np.clip(hi - lo, 0.0, None).sum()) * (2.0 / n) ** 2
    octa = float((2.0 * np.clip(1.0 - np.abs(l1) - np.abs(l2), 0.0, None)).sum()) * (
        2.0 / n
    ) ** 2
    return tetra, octa


def test_criterion_4_census_fractions():
    tetra, octa = _halfspace_volumes()
    oracle_ok = abs(tetra - 8.0 / 3.0) <= 1e-4 and abs(octa - 4.0 / 3.0) <= 1e-4

    t0 = time.perf_counter()
    report = bd_census(CENSUS_SAMPLES, CENSUS_SEED)
    elapsed = time.perf_counter() - t0

    physical = report.samples - report.counts["unphysical"]
    frac_physical = physical / report.samples
    sigma_physical = math.sqrt((1.0 / 3.0) * (2.0 / 3.0) / report.samples)
    ok_physical = abs(frac_physical - 1.0 / 3.0) <= 3.0 * sigma_physical

    separable = report.counts["zero_discord"] + report.counts["lazy_separable_discordant"]
    frac_separable = separable / physical
    sigma_separable = math.sqrt(0.25 / physical)
    ok_separable = abs(frac_separable - 0.5) <= 3.0 * sigma_separable

    ok_zero_discord = report.counts["zero_discord"] == 0

    _report(
        "criterion 4: census fractions match the polytope volumes",
        oracle_ok and ok_physical and ok_separable and ok_zero_discord and elapsed < 20.0,
        f"oracle tetra={tetra:.6f} octa={octa:.6f}, physical={frac_physical:.5f} "
        f"(target 1/3 ± {3 * sigma_physical:.5f}), separable|physical="
        f"{frac_separable:.5f} (target 1/2 ± {3 * sigma_separable:.5f}), "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_spectrum_formula_and_ppt():
    rng = np.random.default_rng(1_234_509)
    worst = 0.0
    ppt_mismatches = 0
    physical_seen = 0
    for _ in range(10_000):
        lam = rng.uniform(-1.0, 1.0, 3)
        formula = np.sort(bd_spectrum(lam))
        w, _ = np.linalg.eigh(bd_compose(lam))
        worst = max(worst, float(np.max(np.abs(formula - w))))
        octa_sum = float(np.abs(lam).sum())
        if formula[0] >= -TOL and abs(octa_sum - 1.0) > 1e-8:
            physical_seen += 1
            min_pt = classify(bd_compose(lam), TOL).witnesses["min_pt_eigenvalue"]
            if (min_pt >= -TOL) != (octa_sum <= 1.0):
                ppt_mismatches += 1
    _report(
        "criterion 5: closed-form spectrum matches the eigensolver; PPT <=> octahedron",
        worst <= 1e-12 and ppt_mismatches == 0 and physical_seen > 2000,
        f"max spectrum error {worst:.2e}, ppt mismatches {ppt_mismatches} "
        f"over {physical_seen} physical points",
    )


def _case_boundary_margin(s):
    same_b = math.hypot(s.b * math.sin(s.beta), s.a - s.b * math.cos(s.beta))
    return min(
        s.alpha if s.alpha > 0 else math.inf,
        math.pi - s.alpha if s.alpha < math.pi else math.inf,
        same_b if same_b > 0 else math.inf,
    )


def test_criterion_6_family_closed_forms():
    worst = 0.0
    worst_pinch = 0.0
    label_mismatches = 0
    compared = 0
    grid_p = np.linspace(0.1, 0.9, 7)
    grid_angle = np.linspace(0.0, math.pi, 7)
    grid_unit = np.linspace(0.0, 1.0, 7)
    for p in grid_p:
        for alpha in grid_angle:
            for beta in grid_angle:
                for a in grid_unit:
                    for b in grid_unit:
                        s = SeparableFamilyParams(p, alpha, beta, a, b)
                        rho = separable_compose(s)
                        closed = separable_fano(s)
                        numeric = decompose(rho)
                        worst = max(
                            worst,
                            float(np.max(np.abs(closed.x - numeric.x))),
                            float(np.max(np.abs(closed.y - numeric.y))),
                            float(np.max(np.abs(closed.t - numeric.t))),
                        )
                        if _case_boundary_margin(s) < 1e-6:
                            continue
                        compared += 1
                        label = separable_classify(s)
                        cls = classify(rho, TOL)
                        if label == "product":
                            ok = cls.product and cls.lazy_a
                        elif label == "zero_discord":
                            ok = cls.zero_discord_a and cls.lazy_a and not cls.product
                        else:
                            ok = not cls.lazy_a
                        if not ok:
                            label_mismatches += 1
                        if cls.zero_discord_a:
                            worst_pinch = max(worst_pinch, _zero_discord_pinch(rho))
    _report(
        "criterion 6: family closed forms within 1e-12 and labels match the classifier",
        worst <= 1e-12 and label_mismatches == 0 and compared >= 10_000
        and worst_pinch <= TOL,
        f"max closed-form error {worst:.2e}, label mismatches {label_mismatches} "
        f"over {compared} off-boundary grid points, worst zero-discord pinch "
        f"residual {worst_pinch:.1e}",
    )


def _lazy_pool(rng, count):
    states = []
    while len(states) < count:
        kind = len(states) % 3
        if kind == 0:
            rho = bd_compose(random_bell_diagonal_point(rng, min_eig=0.02))
        elif kind == 1:
            rho = lazy_discordant_compose(random_lazy_discordant_params(rng))
        else:
            rho = random_product_state(rng, max_bloch=0.8)
        u = random_local_unitary(rng)
        states.append(u @ rho @ u.conj().T)
    return states


def _non_lazy_pool(rng, count):
    states = []
    while len(states) < count:
        if len(states) % 4 == 0:
            rho = separable_compose(random_separable_params(rng))
        else:
            rho = ginibre_state(rng)
        if classify(rho, TOL).witnesses["commutator_norm"] > 1e-4:
            states.append(rho)
    return states


def test_criterion_7_dynamics_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55_001)
    couplings = [fresh_coupling(9_000 + k) for k in range(20)]

    failures = 0
    gray_logged = 0
    for rho in _lazy_pool(rng, 200):
        cls = classify(rho, TOL)
        assert cls.lazy_a
        max_rate = max(abs(entropy_rate_reference(rho, h, RATE_STEP)) for h in couplings)
        if max_rate > 1e-6:
            failures += 1
    for rho in _non_lazy_pool(rng, 200):
        cls = classify(rho, TOL)
        assert not cls.lazy_a
        comm = cls.witnesses["commutator_norm"]
        max_rate = max(abs(entropy_rate_reference(rho, h, RATE_STEP)) for h in couplings)
        if max_rate <= 1e-3:
            if 1e-9 <= comm <= 1e-4:
                gray_logged += 1
                print(f"  gray-zone state: commutator {comm:.3e}, max rate {max_rate:.3e}")
            else:
                failures += 1
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 7: entropy rates separate 200 lazy from 200 non-lazy states",
        failures == 0 and elapsed < 60.0,
        f"failures={failures}, gray logged={gray_logged}, {elapsed:.1f}s",
    )


def test_criterion_8_local_unitary_invariance():
    rng = np.random.default_rng(77_003)
    mismatches = 0
    for k in range(1000):
        kind = k % 5
        if kind in (0, 1):
            rho = ginibre_state(rng)
        elif kind == 2:
            rho = bd_compose(random_bell_diagonal_point(rng))
        elif kind == 3:
            rho = random_product_state(rng)
        else:
            rho = lazy_discordant_compose(random_lazy_discordant_params(rng))
        u = random_local_unitary(rng)
        before = classify(rho, TOL)
        after = classify(u @ rho @ u.conj().T, TOL)
        if any(getattr(before, f) != getattr(after, f) for f in VERDICT_FIELDS):
            mismatches += 1
    _report(
        "criterion 8: verdicts invariant under 1000 local-unitary conjugations",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lazystates", *args], capture_output=True, text=True
    )


def test_criterion_9_cli_golden_and_exit_codes():
    fixtures = HERE / "fixtures"
    golden = HERE / "golden"

    out = _run_cli("classify", str(fixtures / "bell.json"))
    golden_ok = out.returncode == 0 and out.stdout == (golden / "classify_bell.txt").read_text()

    census_a = _run_cli("bd", "census", "--samples", "50000", "--seed", "7")
    census_b = _run_cli("bd", "census", "--samples", "50000", "--seed", "7")
    census_ok = (
        census_a.stdout == census_b.stdout
        and census_a.stdout == (golden / "census_s7_n50000.csv").read_text()
    )

    code0 = _run_cli("classify", str(fixtures / "maximally_mixed.json")).returncode
    code1 = _run_cli("classify", str(fixtures / "trace_low.json")).returncode
    code2 = _run_cli("classify", str(fixtures / "not_json.json")).returncode
    code3 = _run_cli(
        "dynamics-check", str(fixtures / "generic_nonlazy.json"),
        "--hamiltonians", "3", "--seed", "1", "--nonzero-tol", "1e9",
    ).returncode
    codes_ok = (code0, code1, code2, code3) == (0, 1, 2, 3)

    _report(
        "criterion 9: CLI outputs are byte-identical and exit codes hold",
        golden_ok and census_ok and codes_ok,
        f"golden={golden_ok}, census={census_ok}, codes={(code0, code1, code2, code3)}",
    )


_CRITERIA = (
    test_criterion_1_route_equivalence,
    test_criterion_2_hierarchy_inclusions,
    test_criterion_3_strictness_witnesses,
    test_criterion_4_census_fractions,
    test_criterion_5_spectrum_formula_and_ppt,
    test_criterion_6_family_closed_forms,
    test_criterion_7_dynamics_equivalence,
    test_criterion_8_local_unitary_invariance,
    test_criterion_9_cli_golden_and_exit_codes,
)


def main():
    failed = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except AssertionError:
            failed += 1
    print(f"{len(_CRITERIA) - failed}/{len(_CRITERIA)} acceptance criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
