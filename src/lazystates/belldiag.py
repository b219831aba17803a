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
import threading
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .fano import FanoParams, compose
from .matcore import InvalidArgument, _require_int, _require_real, _require_type

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

# fixed census block size; samples are generated per (seed, block index), so
# counts cannot depend on how blocks are distributed over workers
_CENSUS_BLOCK = 1 << 16

# bd_census takes at most this many workers: it starts a thread per worker
MAX_WORKERS = 64

# rows per _label_points chunk: 8192 float64 values make a 64 KB temporary
_LABEL_CHUNK = 1 << 13


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
    # both free axes run over coords; labels[i][j] is the point (coords[i], coords[j])
    coords: np.ndarray
    labels: list


def bd_compose(lam):
    """Bell-diagonal state (I@I + sum_i lam_i s_i@s_i) / 4, composed from T = diag(lam)."""
    t = np.diag(np.asarray(lam, dtype=float).reshape(3))
    return compose(FanoParams(x=np.zeros(3), y=np.zeros(3), t=t))


def _label_points(lam, tol):
    """Vector core: region codes (indices into REGION_LABELS) + boundary mask.

    Column by column, each element takes the same float operations in the
    same order as the row-wise reductions it replaced, which the tests keep as
    a reference.  The output must stay bit-identical: the census and slice
    digests and the goldens pin it.

    The points are labeled in fixed chunks of _LABEL_CHUNK rows, written into
    preallocated outputs.  Chunking changes allocation sizes, not arithmetic:
    every temporary stays at 64 KB, which malloc reuses from call to call
    instead of mapping fresh pages for each census block.  Labels are per
    point, so the output does not depend on the chunk size.
    """
    lam = np.asarray(lam, dtype=float).reshape(-1, 3)
    codes = np.empty(len(lam), dtype=np.int8)
    boundary = np.empty(len(lam), dtype=bool)
    for start in range(0, len(lam), _LABEL_CHUNK):
        end = start + _LABEL_CHUNK
        _label_chunk(lam[start:end], tol, codes[start:end], boundary[start:end])
    return codes, boundary


def _label_chunk(lam, tol, codes, boundary):
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    abs1, abs2, abs3 = np.abs(l1), np.abs(l2), np.abs(l3)
    octa = abs1 + abs2 + abs3
    nz1, nz2, nz3 = abs1 > tol, abs2 > tol, abs3 > tol
    on_axis = ~((nz1 & nz2) | (nz1 & nz3) | (nz2 & nz3))
    # 0.25 * min(...) == min(0.25 * ...): scaling by a power of two is monotone
    a, b = 1 - l1, 1 + l1
    min_ev = 0.25 * np.minimum(
        np.minimum(a + l2 + l3, b - l2 + l3), np.minimum(b + l2 - l3, a - l2 - l3)
    )
    p1, p2, p3 = (np.abs(lk - 1.0) <= tol for lk in (l1, l2, l3))
    m1, m2, m3 = (np.abs(lk + 1.0) <= tol for lk in (l1, l2, l3))
    vertex = (m1 & m2 & m3) | (m1 & p2 & p3) | (p1 & m2 & p3) | (p1 & p2 & m3)

    codes[:] = 4
    codes[octa <= 1.0 + tol] = 3
    codes[on_axis] = 2
    codes[vertex] = 1
    codes[min_ev < -tol] = 0

    physical = min_ev >= -tol
    np.logical_or(
        np.abs(min_ev) <= tol, physical & (np.abs(octa - 1.0) <= tol), out=boundary
    )


def bd_region(lam) -> str:
    """Region label of one point of the cube [-1, 1]^3, at BOUNDARY_TOL."""
    lam = np.asarray(lam, dtype=float).reshape(1, 3)
    # the negated test rejects NaN as well as points outside the cube
    if not ((-1.0 <= lam) & (lam <= 1.0)).all():
        raise InvalidArgument(f"bd_region: lam must lie in [-1, 1]^3 (got {lam[0].tolist()})")
    codes, _ = _label_points(lam, BOUNDARY_TOL)
    return REGION_LABELS[codes[0]]


def _block_points(seed, block_index, count):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(block_index,))
    return np.random.default_rng(seq).uniform(-1.0, 1.0, size=(count, 3))


def bd_census(samples: int, seed: int, workers: int = 1) -> CensusReport:
    """Label uniform samples of the cube [-1,1]^3.

    Deterministic in (samples, seed): sample i lives in block i // 65536 and
    each block draws from its own seeded stream, so the counts are identical
    for any worker count.  Samples within BOUNDARY_TOL of a region boundary
    are tallied separately as boundary hits (they still receive their label).
    workers must lie in [1, MAX_WORKERS].
    """
    _require_int(samples, 1, math.inf, "bd_census", "samples must be >= 1")
    _require_int(seed, 0, math.inf, "bd_census", "seed must be >= 0")
    _require_int(workers, 1, MAX_WORKERS, "bd_census", f"workers must lie in [1, {MAX_WORKERS}]")
    nblocks = (samples + _CENSUS_BLOCK - 1) // _CENSUS_BLOCK
    # set when the calling thread stops waiting, e.g. on Ctrl-C
    stop = threading.Event()

    def _work(first):
        # blocks first, first + workers, ... straight from a range: no block list
        counts, hits = np.zeros(5, dtype=np.int64), 0
        for bi in range(first, nblocks, workers):
            if stop.is_set():
                break
            count = min(_CENSUS_BLOCK, samples - bi * _CENSUS_BLOCK)
            codes, boundary = _label_points(_block_points(seed, bi, count), BOUNDARY_TOL)
            counts += np.bincount(codes, minlength=5)
            hits += int(boundary.sum())
        return counts, hits

    if workers == 1:
        results = [_work(0)]
    else:
        # imported here: only --workers pays for loading concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                results = list(pool.map(_work, range(workers)))
            except BaseException:
                # the pool's exit waits for its workers: each stops within a block
                stop.set()
                raise
    counts = sum(block_counts for block_counts, _ in results)
    boundary_hits = sum(hits for _, hits in results)

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


def bd_slice(axis: int, value: float, grid: int) -> SliceGrid:
    """Label a (grid x grid) plane lam_axis = value, row-major.

    The two free coordinates run over linspace(-1, 1, grid); rows index the
    lower-numbered free axis.
    """
    _require_int(axis, 1, 3, "bd_slice", "axis must be 1, 2 or 3")
    _require_real(value, -1.0, 1.0, "bd_slice", "value must lie in [-1, 1]")
    _require_int(grid, 2, math.inf, "bd_slice", "grid must be >= 2")
    free = tuple(a for a in (1, 2, 3) if a != axis)
    coords = np.linspace(-1.0, 1.0, grid)
    f1, f2 = np.meshgrid(coords, coords, indexing="ij")
    pts = np.empty((grid * grid, 3))
    pts[:, axis - 1] = value
    pts[:, free[0] - 1] = f1.ravel()
    pts[:, free[1] - 1] = f2.ravel()
    codes, _ = _label_points(pts, BOUNDARY_TOL)
    labels = np.array(REGION_LABELS, dtype=object)[codes].reshape(grid, grid).tolist()
    return SliceGrid(coords=coords, labels=labels)


def census_to_csv(report: CensusReport) -> str:
    _require_type(report, CensusReport, "census_to_csv", "report")
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
    """One `i,j,l_free1,l_free2,label` line per grid point, row-major.

    Each row's "i," and ",x_i," and each column's "j" and "y_j," are formatted
    once; a line is five such pieces, and the file is built with one join.
    """
    _require_type(sl, SliceGrid, "slice_to_csv", "sl")
    g = len(sl.coords)
    # pieces of one grid row: "\ni,", "j", ",x_i,", "y_j,", label per line
    cells = [None] * (5 * g)
    cells[1::5] = [str(j) for j in range(g)]
    cells[3::5] = [f"{float(y)!r}," for y in sl.coords]
    parts = ["i,j,l_free1,l_free2,label"]
    for i, (x, row) in enumerate(zip(sl.coords, sl.labels)):
        cells[0::5] = [f"\n{i},"] * g
        cells[2::5] = [f",{float(x)!r},"] * g
        cells[4::5] = row
        parts += cells
    parts.append("\n")
    return "".join(parts)
