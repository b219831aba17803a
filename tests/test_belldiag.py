import numpy as np
import pytest

from lazystates import belldiag
from lazystates.belldiag import (
    BOUNDARY_TOL,
    MAX_WORKERS,
    REGION_LABELS,
    TETRA_VERTICES,
    _CENSUS_BLOCK,
    _LABEL_CHUNK,
    _label_points,
    bd_census,
    bd_compose,
    bd_region,
    bd_slice,
    census_to_csv,
    slice_to_csv,
)
from lazystates.classify import classify
from lazystates.fano import decompose
from lazystates.matcore import InvalidArgument
from oracles import bd_spectrum


def test_bd_compose_examples(bell_phi_plus, maximally_mixed):
    assert np.allclose(bd_compose([0, 0, 0]), maximally_mixed)
    assert np.allclose(bd_compose([1, -1, 1]), bell_phi_plus, atol=1e-14)
    rho = bd_compose([1, 1, -1])
    w, _ = np.linalg.eigh(rho)
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-14)


def test_bd_compose_fano_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.uniform(-1, 1, 3)
        p = decompose(bd_compose(lam))
        assert np.allclose(p.x, 0, atol=1e-14)
        assert np.allclose(p.y, 0, atol=1e-14)
        assert np.allclose(p.t, np.diag(lam), atol=1e-14)


def test_bd_spectrum_examples():
    assert np.allclose(bd_spectrum([0, 0, 0]), [0.25] * 4)
    sp = bd_spectrum([1, 1, 1])
    assert np.allclose(sorted(sp), [-0.5, 0.5, 0.5, 0.5])
    sp = bd_spectrum([0.5, 0.5, -0.5])
    assert np.allclose(sorted(sp), [0.125, 0.125, 0.125, 0.625])


def test_bd_spectrum_matches_eigensolver():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        lam = rng.uniform(-1, 1, 3)
        w, _ = np.linalg.eigh(bd_compose(lam))
        assert np.max(np.abs(np.sort(bd_spectrum(lam)) - w)) <= 1e-12


@pytest.mark.parametrize(
    "lam,label",
    [
        ((0, 0, 0.5), "zero_discord"),
        ((0.7, 0, 0), "zero_discord"),
        ((0, 0, 0), "zero_discord"),
        ((0.3, 0.2, 0.1), "lazy_separable_discordant"),
        ((0.5, 0.5, -0.5), "lazy_entangled"),
        ((1, 1, 1), "unphysical"),
        ((-1, -1, -1), "pure_vertex"),
        ((-1, 1, 1), "pure_vertex"),
        ((1, -1, 1), "pure_vertex"),
        ((1, 1, -1), "pure_vertex"),
    ],
)
def test_bd_region_examples(lam, label):
    assert bd_region(lam) == label


def _label_points_rowwise(lam, tol):
    """Reference labeling: reductions along each point's row."""
    lam = np.asarray(lam, dtype=float).reshape(-1, 3)
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    evs = 0.25 * np.stack(
        [1 - l1 + l2 + l3, 1 + l1 - l2 + l3, 1 + l1 + l2 - l3, 1 - l1 - l2 - l3],
        axis=1,
    )
    min_ev = evs.min(axis=1)
    absl = np.abs(lam)
    octa = absl.sum(axis=1)
    nnz = (absl > tol).sum(axis=1)
    vertex = np.zeros(len(lam), dtype=bool)
    for v in TETRA_VERTICES:
        vertex |= np.abs(lam - v).max(axis=1) <= tol

    codes = np.full(len(lam), 4, dtype=np.int8)
    codes[octa <= 1.0 + tol] = 3
    codes[nnz <= 1] = 2
    codes[vertex] = 1
    codes[min_ev < -tol] = 0

    physical = min_ev >= -tol
    boundary = (np.abs(min_ev) <= tol) | (physical & (np.abs(octa - 1.0) <= tol))
    return codes, boundary


# sign flips of two coordinates: local unitaries that permute the four faces
_PAIR_FLIPS = np.array([[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]], dtype=float)


def _adversarial_points(tol, seed=17):
    """Cube points at and within a few tol of every region boundary."""
    rng = np.random.default_rng(seed)
    offsets = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * tol
    grid = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), -1)
    vertices = (TETRA_VERTICES[:, None, :] + grid.reshape(1, -1, 3)).reshape(-1, 3)

    # face 1 - l1 - l2 - l3 = 4 * min_ev with min_ev in {0, +-tol}, then its images
    l12 = rng.uniform(-1.0, 1.0, size=(400, 2))
    face = [
        np.column_stack([l12, 1.0 - l12[:, 0] - l12[:, 1] - 4.0 * d])
        for d in (-tol, 0.0, tol)
    ]
    faces = (np.concatenate(face)[None, :, :] * _PAIR_FLIPS[:, None, :]).reshape(-1, 3)

    u = rng.normal(size=(400, 3))
    u /= np.abs(u).sum(axis=1, keepdims=True)
    octahedron = np.concatenate([(1.0 + d) * u for d in (-tol, 0.0, tol)])
    # dyadic points: for a power-of-two tol, min_ev and |l|_1 - 1 are exactly d
    exact = np.concatenate(
        [[[0.25, 0.5, 0.25 - 4.0 * d], [0.25, 0.25, 0.5 + d]] for d in offsets]
    )
    exact = (exact[None, :, :] * _PAIR_FLIPS[:, None, :]).reshape(-1, 3)

    along = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, size=40)])
    off = [0.0, tol, -tol, 2.0 * tol, -2.0 * tol]
    axes = []
    for k in range(3):
        for o1 in off:
            for o2 in off:
                pts = np.empty((len(along), 3))
                pts[:, k] = along
                pts[:, (k + 1) % 3] = o1
                pts[:, (k + 2) % 3] = o2
                axes.append(pts)
    pts = np.concatenate([vertices, faces, octahedron, exact] + axes)
    return pts[np.all(np.abs(pts) <= 1.0, axis=1)]


# 2**-20 is a power of two, so offsets of +-tol and +-2 tol from the dyadic
# boundary points are exact and `<= tol` is told apart from `< tol`
@pytest.mark.parametrize("tol", [BOUNDARY_TOL, 2.0**-20])
def test_label_points_matches_rowwise_reference(tol):
    uniform = np.random.default_rng(23).uniform(-1.0, 1.0, size=(1 << 16, 3))
    adversarial = _adversarial_points(tol)
    for pts in (uniform, adversarial):
        codes, boundary = _label_points(pts, tol)
        ref_codes, ref_boundary = _label_points_rowwise(pts, tol)
        assert codes.dtype == ref_codes.dtype
        assert np.array_equal(codes, ref_codes)
        assert np.array_equal(boundary, ref_boundary)
    # the adversarial set reaches every region and both sides of the boundary flag
    assert set(np.unique(ref_codes)) == set(range(len(REGION_LABELS)))
    assert ref_boundary.any() and not ref_boundary.all()


@pytest.mark.parametrize("tol", [BOUNDARY_TOL, 2.0**-20])
@pytest.mark.parametrize(
    "n",
    [1, _LABEL_CHUNK - 1, _LABEL_CHUNK, _LABEL_CHUNK + 1, 2 * _LABEL_CHUNK + 3],
)
def test_label_points_chunk_seams(tol, n):
    # boundary points tiled across the seams between labeling chunks
    pts = np.resize(_adversarial_points(tol), (n, 3))
    codes, boundary = _label_points(pts, tol)
    ref_codes, ref_boundary = _label_points_rowwise(pts, tol)
    assert codes.shape == boundary.shape == (n,)
    assert np.array_equal(codes, ref_codes)
    assert np.array_equal(boundary, ref_boundary)


def test_bd_region_symmetry():
    # coordinate permutations and pairs of sign flips are local unitaries
    rng = np.random.default_rng(7)
    flips = [(1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1)]
    for _ in range(200):
        lam = rng.uniform(-1, 1, 3)
        ref = bd_region(lam)
        for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)):
            for flip in flips:
                image = np.array(flip) * lam[list(perm)]
                assert bd_region(image) == ref


def test_all_physical_bell_diagonal_states_are_lazy():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 200:
        lam = rng.uniform(-1, 1, 3)
        rho = bd_compose(lam)
        cls = classify(rho)
        if not cls.physical:
            continue
        assert cls.lazy_a
        checked += 1


def test_census_counts_and_determinism():
    r1 = bd_census(30000, seed=42)
    r2 = bd_census(30000, seed=42)
    assert r1.counts == r2.counts
    assert r1.boundary_hits == r2.boundary_hits
    assert sum(r1.counts.values()) == 30000
    r3 = bd_census(30000, seed=42, workers=4)
    assert r3.counts == r1.counts
    r4 = bd_census(30000, seed=43)
    assert r4.counts != r1.counts


def test_census_workers_agree_across_blocks():
    # three blocks, the last one two labeling chunks long
    samples = 2 * _CENSUS_BLOCK + _LABEL_CHUNK + 1
    reports = [bd_census(samples, seed=42, workers=w) for w in (1, 2, 3)]
    assert sum(reports[0].counts.values()) == samples
    for r in reports[1:]:
        assert r.counts == reports[0].counts
        assert r.boundary_hits == reports[0].boundary_hits


def test_census_fractions_sane():
    r = bd_census(100000, seed=2)
    physical = 1.0 - r.fractions["unphysical"]
    assert abs(physical - 1 / 3) < 0.01
    separable = r.counts["zero_discord"] + r.counts["lazy_separable_discordant"]
    assert abs(separable / (physical * r.samples) - 0.5) < 0.02
    # the segments and vertices have measure zero
    assert r.counts["zero_discord"] == 0
    assert r.counts["pure_vertex"] == 0


def test_census_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bd_census(0, seed=1)
    with pytest.raises(ValueError):
        bd_census(10, seed=-1)


@pytest.mark.parametrize("workers", [0, -3, MAX_WORKERS + 1])
def test_census_rejects_a_worker_count_before_any_block(monkeypatch, workers):
    labeled = []
    monkeypatch.setattr(belldiag, "_label_points", lambda *args: labeled.append(args))
    with pytest.raises(InvalidArgument) as exc:
        bd_census(10, seed=1, workers=workers)
    assert str(exc.value) == (
        f"bd_census: workers must lie in [1, {MAX_WORKERS}] (got {workers})"
    )
    assert labeled == []


class _FirstBlockDrawn(Exception):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_census_starts_work_at_once(monkeypatch, workers):
    # 10**30 samples are about 1.5e25 blocks: a census that listed its blocks
    # before drawing the first would run out of memory long before this raises
    def first_block(*args):
        raise _FirstBlockDrawn

    monkeypatch.setattr(belldiag, "_block_points", first_block)
    with pytest.raises(_FirstBlockDrawn):
        bd_census(10**30, 1, workers=workers)


def test_census_csv_schema():
    text = census_to_csv(bd_census(1000, seed=9))
    lines = text.strip().split("\n")
    assert lines[0].startswith("# lazystates-census ")
    assert "seed=9" in lines[0] and "samples=1000" in lines[0]
    assert lines[1] == "label,count,fraction,stderr"
    assert len(lines) == 2 + len(REGION_LABELS)
    assert lines[2].startswith("unphysical,")


def test_slice_axis3_value1_edge():
    sl = bd_slice(axis=3, value=1.0, grid=5)
    for i in range(5):
        for j in range(5):
            l1 = sl.free1[i]
            l2 = sl.free2[j]
            if abs(l1 + l2) > 1e-9:
                assert sl.labels[i][j] == "unphysical"
            elif abs(abs(l1) - 1.0) <= 1e-9:
                assert sl.labels[i][j] == "pure_vertex"
            elif abs(l1) <= 1e-9:
                assert sl.labels[i][j] == "zero_discord"
            else:
                assert sl.labels[i][j] == "lazy_entangled"


def test_slice_axis3_value0_all_separable():
    sl = bd_slice(axis=3, value=0.0, grid=21)
    seen_physical = 0
    for i in range(21):
        for j in range(21):
            label = sl.labels[i][j]
            expected_physical = abs(sl.free1[i]) + abs(sl.free2[j]) <= 1.0 + 1e-9
            assert (label != "unphysical") == expected_physical
            if expected_physical:
                seen_physical += 1
                assert label in ("zero_discord", "lazy_separable_discordant")
    assert seen_physical > 0


def test_slice_grid2_and_csv():
    sl = bd_slice(axis=1, value=0.5, grid=2)
    assert len(sl.labels) == 2 and len(sl.labels[0]) == 2
    text = slice_to_csv(sl)
    lines = text.strip().split("\n")
    assert lines[0] == "i,j,l_free1,l_free2,label"
    assert len(lines) == 1 + 4
    assert lines[1].split(",")[:4] == ["0", "0", "-1.0", "-1.0"]


def _slice_to_csv_rowwise(sl):
    """Reference CSV: each line formatted whole, then joined by newlines."""
    free2 = [repr(float(v)) for v in sl.free2]
    lines = ["i,j,l_free1,l_free2,label"]
    for i, row in enumerate(sl.labels):
        prefix, mid = f"{i},", f",{float(sl.free1[i])!r},"
        lines.extend(
            f"{prefix}{j}{mid}{y},{label}" for j, (y, label) in enumerate(zip(free2, row))
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("grid", [2, 3, 37])
@pytest.mark.parametrize("axis", [1, 2, 3])
@pytest.mark.parametrize("value", [0.0, 0.5, 1 / 3, -1.0])
def test_slice_csv_matches_rowwise_reference(grid, axis, value):
    sl = bd_slice(axis=axis, value=value, grid=grid)
    assert slice_to_csv(sl) == _slice_to_csv_rowwise(sl)


def test_slice_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bd_slice(axis=4, value=0.0, grid=3)
    with pytest.raises(ValueError):
        bd_slice(axis=1, value=1.5, grid=3)
    with pytest.raises(ValueError):
        bd_slice(axis=1, value=0.0, grid=1)


def test_region_cross_check_against_classifier():
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 60:
        lam = rng.uniform(-1, 1, 3)
        label = bd_region(lam)
        cls = classify(bd_compose(lam))
        if label == "unphysical":
            assert not cls.physical or cls.diagnostics["min_eigenvalue"] < 0
            continue
        checked += 1
        assert cls.physical and cls.lazy_a
        if label == "zero_discord":
            assert cls.zero_discord_a
        elif label == "lazy_separable_discordant":
            assert cls.separable and not cls.zero_discord_a
        elif label == "lazy_entangled":
            assert not cls.separable
