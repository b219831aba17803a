"""Bell-diagonal geometry in the (l1, l2, l3) cube.

States rho = (I@I + l1 s1@s1 + l2 s2@s2 + l3 s3@s3)/4 are physical exactly
on the tetrahedron with vertices (-1,-1,-1), (-1,1,1), (1,-1,1), (1,1,-1),
separable exactly on the octahedron |l1|+|l2|+|l3| <= 1, and zero-discord
only on the three coordinate segments.  All of them are lazy.  This module
labels cube points, runs a reproducible Monte Carlo census of the region
fractions and emits plotting-ready CSV slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .matcore import PAULIS, kron

BOUNDARY_TOL = 1e-9

# label order doubles as the precedence used when tolerance bands overlap:
# unphysical > pure_vertex > zero_discord > separable/entangled split
REGION_LABELS = (
    "unphysical",
    "pure_vertex",
    "zero_discord",
    "lazy_separable_discordant",
    "lazy_entangled",
)

TETRA_VERTICES = np.array(
    [[-1.0, -1.0, -1.0], [-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]
)

# fixed census block size; samples are generated per (seed, block index), so
# counts cannot depend on how blocks are distributed over workers
_CENSUS_BLOCK = 1 << 16


@dataclass(frozen=True)
class CensusReport:
    samples: int
    seed: int
    counts: dict
    fractions: dict
    stderrs: dict
    boundary_hits: int


@dataclass(frozen=True)
class SliceGrid:
    axis: int
    value: float
    grid: int
    free_axes: tuple
    free1: np.ndarray
    free2: np.ndarray
    labels: list


def bd_compose(lam):
    """Bell-diagonal state (I@I + sum_i lam_i s_i@s_i) / 4."""
    lam = np.asarray(lam, dtype=float).reshape(3)
    rho = np.eye(4, dtype=complex)
    for i in range(3):
        rho = rho + lam[i] * kron(PAULIS[i], PAULIS[i])
    return rho / 4.0


def bd_spectrum(lam):
    """Closed-form eigenvalues of the Bell-diagonal state.

    (1 - l1 + l2 + l3, 1 + l1 - l2 + l3, 1 + l1 + l2 - l3, 1 - l1 - l2 - l3)/4.
    """
    l1, l2, l3 = np.asarray(lam, dtype=float).reshape(3)
    return 0.25 * np.array(
        [1 - l1 + l2 + l3, 1 + l1 - l2 + l3, 1 + l1 + l2 - l3, 1 - l1 - l2 - l3]
    )


def _label_points(lam, tol):
    """Vector core: region codes (indices into REGION_LABELS) + boundary mask."""
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


def bd_region(lam, tol: float = BOUNDARY_TOL) -> str:
    """Region label of one cube point."""
    codes, _ = _label_points(np.asarray(lam, dtype=float).reshape(1, 3), tol)
    return REGION_LABELS[codes[0]]


def _block_points(seed, block_index, count):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.default_rng(seq).uniform(-1.0, 1.0, size=(count, 3))


def bd_census(
    samples: int, seed: int, workers: int = 1, tol: float = BOUNDARY_TOL
) -> CensusReport:
    """Label uniform samples of the cube [-1,1]^3.

    Deterministic in (samples, seed): sample i lives in block i // 65536 and
    each block draws from its own seeded stream, so the counts are identical
    for any worker count.  Samples within tol of a region boundary are tallied
    separately as boundary hits (they still receive their label).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    nblocks = (samples + _CENSUS_BLOCK - 1) // _CENSUS_BLOCK
    blocks = [
        (bi, min(_CENSUS_BLOCK, samples - bi * _CENSUS_BLOCK)) for bi in range(nblocks)
    ]

    def _work(block):
        bi, count = block
        codes, boundary = _label_points(_block_points(seed, bi, count), tol)
        return np.bincount(codes, minlength=5), int(boundary.sum())

    counts = np.zeros(5, dtype=np.int64)
    boundary_hits = 0
    if workers <= 1:
        results = map(_work, blocks)
    else:
        # imported here: only --workers pays for loading concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_work, blocks))
    for block_counts, block_boundary in results:
        counts += block_counts
        boundary_hits += block_boundary

    fractions = {label: counts[i] / samples for i, label in enumerate(REGION_LABELS)}
    stderrs = {
        label: math.sqrt(f * (1.0 - f) / samples) for label, f in fractions.items()
    }
    return CensusReport(
        samples=samples,
        seed=seed,
        counts={label: int(counts[i]) for i, label in enumerate(REGION_LABELS)},
        fractions=fractions,
        stderrs=stderrs,
        boundary_hits=boundary_hits,
    )


def bd_slice(axis: int, value: float, grid: int, tol: float = BOUNDARY_TOL) -> SliceGrid:
    """Label a (grid x grid) plane lam_axis = value, row-major.

    The two free coordinates run over linspace(-1, 1, grid); rows index the
    lower-numbered free axis.
    """
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1, 2 or 3")
    if not -1.0 <= value <= 1.0:
        raise ValueError("value must lie in [-1, 1]")
    if grid < 2:
        raise ValueError("grid must be >= 2")
    free = tuple(a for a in (1, 2, 3) if a != axis)
    coords = np.linspace(-1.0, 1.0, grid)
    f1, f2 = np.meshgrid(coords, coords, indexing="ij")
    pts = np.empty((grid * grid, 3))
    pts[:, axis - 1] = value
    pts[:, free[0] - 1] = f1.ravel()
    pts[:, free[1] - 1] = f2.ravel()
    codes, _ = _label_points(pts, tol)
    labels = [
        [REGION_LABELS[codes[i * grid + j]] for j in range(grid)] for i in range(grid)
    ]
    return SliceGrid(
        axis=axis,
        value=float(value),
        grid=grid,
        free_axes=free,
        free1=coords,
        free2=coords.copy(),
        labels=labels,
    )


def census_to_csv(report: CensusReport) -> str:
    lines = [
        f"# lazystates-census version={__version__} seed={report.seed} "
        f"samples={report.samples} boundary_hits={report.boundary_hits}",
        "label,count,fraction,stderr",
    ]
    for label in REGION_LABELS:
        lines.append(
            f"{label},{report.counts[label]},"
            f"{float(report.fractions[label])!r},{float(report.stderrs[label])!r}"
        )
    return "\n".join(lines) + "\n"


def slice_to_csv(sl: SliceGrid) -> str:
    lines = ["i,j,l_free1,l_free2,label"]
    for i in range(sl.grid):
        for j in range(sl.grid):
            lines.append(
                f"{i},{j},{float(sl.free1[i])!r},{float(sl.free2[j])!r},{sl.labels[i][j]}"
            )
    return "\n".join(lines) + "\n"
