"""Finite Taylor spectra of commuting positive pairs.

A spectrum is a finite multiset of points ``(s, t)`` in the closed positive
quadrant, optionally carrying a third coordinate ``r``.  Everything the
classifiers consume -- mapping under continuous functions, radii, unions,
coordinate projections -- lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Callable

import numpy as np

from . import linalg
from .errors import EmptySpectrum, ImageOutsideQuadrant, NegativeCoordinate

DEDUP_TOL = 1e-8


@dataclass(frozen=True)
class SpectralPoint:
    """One atom of a joint spectrum.

    ``s`` is the |Q| coordinate, ``t`` the |E| coordinate and ``r`` the
    optional |Q*| coordinate used by the Brownian tests.
    """

    s: float
    t: float
    r: float | None = None
    mult: int = 1

    def coords(self) -> tuple[float, ...]:
        if self.r is None:
            return (self.s, self.t)
        return (self.s, self.t, self.r)


def _row(p) -> tuple:
    """``(s, t, r, mult)`` of a :class:`SpectralPoint` or of an ``(s, t[, r])`` sequence."""
    if isinstance(p, SpectralPoint):
        return p.s, p.t, p.r, p.mult
    vals = tuple(map(float, p))
    if len(vals) not in (2, 3):
        raise ValueError(f"cannot read a spectral point from {p!r}")
    return vals[0], vals[1], vals[2] if len(vals) == 3 else None, 1


def _coerce_point(p) -> SpectralPoint:
    return p if isinstance(p, SpectralPoint) else SpectralPoint(*_row(p))


def _clamped(value, tol: float, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} = {x!r} is not finite")
    if x < -tol:
        raise NegativeCoordinate(f"{what} = {x!r} is negative beyond tolerance")
    return x if x > 0.0 else 0.0  # also turns -0.0 into 0.0


def _far_apart(keys: list[tuple], tol: float) -> bool:
    """True when no two of the sorted ``keys`` lie within ``tol`` of each other.

    Checks the pairs whose ``s`` are at most 2 tol apart, and gives up (False)
    once there are more of them than keys, which leaves dense sets to the
    array scan of :func:`_merge`.
    """
    budget = len(keys)
    for i, a in enumerate(keys):
        for j in range(i + 1, len(keys)):
            b = keys[j]
            if b[0] - a[0] > 2.0 * tol:
                break
            budget -= 1
            if budget < 0 or max(abs(p - q) for p, q in zip(a, b)) <= tol:
                return False
    return True


def _merge(keys: list[tuple], counts: list[int], tol: float) -> tuple[list[tuple], list[int]]:
    """Single-linkage merge of the points ``keys`` at Chebyshev distance ``tol``.

    Returns the lexicographically smallest point of each cluster, in
    lexicographic order, with the summed multiplicities.
    """
    # exact duplicates first, so that no window below is crowded with equal points
    total: dict[tuple, int] = {}
    for key, count in zip(keys, counts):
        total[key] = total.get(key, 0) + count
    keys = sorted(total)
    counts = [total[key] for key in keys]
    if _far_apart(keys, tol):
        return keys, counts
    # Near pairs are looked for in windows 2 tol wide along one coordinate, so
    # that rounding of a window's bound cannot drop a pair the exact test
    # would join.
    x = np.array(keys)
    n = len(x)
    best = None
    for column in x.T:  # scan the coordinate whose windows hold the fewest pairs
        order = np.argsort(column, kind="stable")
        v = column[order]
        width = np.searchsorted(v, v + 2.0 * tol, side="right") - np.arange(1, n + 1)
        pairs = int(width.sum())
        if best is None or pairs < best[0]:
            best = (pairs, order, width)
    _, order, width = best
    root = np.arange(n)
    step, i = 1, np.flatnonzero(width >= 1)
    while len(i):
        a, b = order[i], order[i + step]
        near = np.abs(x[a] - x[b]).max(axis=1) <= tol
        root = _join(root, a[near], b[near])
        step += 1
        if (width >= step).any():
            # a window whose points all share one cluster has nothing left to join
            seam = np.concatenate(([0], np.cumsum(root[order[1:]] != root[order[:-1]])))
            width[seam[np.arange(n) + width] == seam] = 0
        i = np.flatnonzero(width >= step)
    summed = np.zeros(n, dtype=np.int64)
    np.add.at(summed, root, counts)
    kept = np.flatnonzero(root == np.arange(n))
    return [keys[k] for k in kept.tolist()], summed[kept].tolist()


def _join(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Join the clusters of ``a[k]`` and ``b[k]`` for every k.

    ``root`` maps each row to the smallest row of its cluster; hooking the
    larger root under the smaller keeps it so.
    """
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        np.minimum.at(root, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        while True:
            up = root[root]
            if (up == root).all():
                break
            root = up


@dataclass(frozen=True)
class JointSpectrum:
    """Finite multiset of spectral points, deduplicated on construction.

    Points joined by a chain of steps, each at most ``dedup_tol`` in every
    coordinate, are one cluster.  A cluster keeps its lexicographically
    smallest point (by ``(s, t, r)``), not the first one read in, and the sum
    of the multiplicities, so the result does not depend on the input order.
    Points come out sorted by ``(s, t, r)``; the arrays ``s``, ``t``, ``r``
    (``None`` without an r coordinate) and ``mult`` hold the same data.
    Coordinates in ``[-dedup_tol, 0)`` are clamped to 0; anything more
    negative raises :class:`NegativeCoordinate`, and NaN or an infinity raises
    ``ValueError``.  Either every point carries an ``r`` coordinate or none
    does.
    """

    points: tuple[SpectralPoint, ...]
    dedup_tol: float = DEDUP_TOL

    def __post_init__(self) -> None:
        tol = float(self.dedup_tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"dedup_tol = {tol!r} is not a finite nonnegative tolerance")
        rows = [_row(p) for p in self.points]
        missing = sum(r is None for _, _, r, _ in rows)
        if 0 < missing < len(rows):
            raise ValueError("either every point carries r or none does")
        with_r = bool(rows) and not missing
        if any(m < 1 for *_, m in rows):
            raise ValueError("multiplicities must be positive")
        counts = [int(m) for *_, m in rows]
        if sum(counts) >= 2 ** 63:
            raise ValueError("the multiplicities add up beyond 2**63 - 1")
        names = ("s", "t", "r") if with_r else ("s", "t")
        tols = (tol,) * len(names)
        keys = [tuple(map(_clamped, row, tols, names)) for row in rows]
        keys, counts = _merge(keys, counts, tol)
        points = tuple(SpectralPoint(k[0], k[1], k[2] if with_r else None, c)
                       for k, c in zip(keys, counts))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dedup_tol", tol)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def has_r(self) -> bool:
        return bool(self.points) and self.points[0].r is not None

    # Each array is built on first use and kept; it is read-only.
    @cached_property
    def s(self) -> np.ndarray:
        """The ``s`` coordinates, in the order of ``points``."""
        return _frozen_array([p.s for p in self.points], float)

    @cached_property
    def t(self) -> np.ndarray:
        """The ``t`` coordinates, in the order of ``points``."""
        return _frozen_array([p.t for p in self.points], float)

    @cached_property
    def r(self) -> np.ndarray | None:
        """The ``r`` coordinates, or ``None`` when the points carry none."""
        return _frozen_array([p.r for p in self.points], float) if self.has_r else None

    @cached_property
    def mult(self) -> np.ndarray:
        """The multiplicities, in the order of ``points``."""
        return _frozen_array([p.mult for p in self.points], np.int64)


def _frozen_array(values: list, dtype) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def joint_spectrum(pair_or_embedding, dedup_tol: float = DEDUP_TOL,
                   eps: float = linalg.DEFAULT_EPS) -> JointSpectrum:
    """Taylor spectrum of a commuting positive pair, as a finite point set.

    A pair model yields the joint eigenvalues ``(a, b)`` it holds: a dense
    pair was diagonalized, and tested, once when it was made, so ``eps``
    plays no part here.  A shift embedding contributes the spectrum of its
    modulus pair (|Q|, |E|), read from its Gram pair (Q*Q, E*E) by
    :func:`linalg.modulus_pair_spectrum` at ``eps``.
    """
    from .model import PairModel, ShiftEmbedding

    obj = pair_or_embedding
    if isinstance(obj, ShiftEmbedding):
        s, t = linalg.modulus_pair_spectrum(obj.Q, obj.E, eps)
    elif isinstance(obj, PairModel):
        s, t = obj.a, obj.b
    else:
        raise TypeError(f"cannot read a commuting pair from {type(obj).__name__}")
    return JointSpectrum(tuple(map(SpectralPoint, map(float, s), map(float, t))), dedup_tol)


def spectral_map(sigma: JointSpectrum,
                 psi: Callable[[float, float], tuple[float, float]]) -> JointSpectrum:
    """Image of the spectrum under a map of the two leading coordinates.

    Multiplicities of points that collide are added; an ``r`` coordinate, if
    present, is dropped.  Raises :class:`ImageOutsideQuadrant` when an image
    coordinate is below ``-dedup_tol``.
    """
    out = []
    for p in sigma.points:
        x, y = (float(v) for v in psi(p.s, p.t))
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"map is not finite at ({p.s!r}, {p.t!r})")
        if min(x, y) < -sigma.dedup_tol:
            raise ImageOutsideQuadrant(
                f"psi({p.s!r}, {p.t!r}) = ({x!r}, {y!r}) leaves the positive quadrant"
            )
        out.append(SpectralPoint(max(x, 0.0), max(y, 0.0), None, p.mult))
    return JointSpectrum(tuple(out), sigma.dedup_tol)


def radius(sigma: JointSpectrum) -> float:
    """Joint spectral radius ``max sqrt(s^2 + t^2)``."""
    if not sigma.points:
        raise EmptySpectrum("radius of an empty spectrum")
    return max(map(math.hypot, sigma.s.tolist(), sigma.t.tolist()))


def inner_radius(sigma: JointSpectrum) -> float:
    """Distance of the spectrum from the origin, ``min sqrt(s^2 + t^2)``."""
    if not sigma.points:
        raise EmptySpectrum("inner radius of an empty spectrum")
    return min(map(math.hypot, sigma.s.tolist(), sigma.t.tolist()))


def union(first: JointSpectrum, second: JointSpectrum) -> JointSpectrum:
    """Multiset union; matching points add their multiplicities.

    The finer of the two dedup tolerances would split points the coarser one
    merged, so the union uses the larger tolerance.
    """
    tol = max(first.dedup_tol, second.dedup_tol)
    return JointSpectrum(first.points + second.points, tol)


def product_vanishes(sigma: JointSpectrum, eps: float = linalg.DEFAULT_EPS) -> bool:
    """True when ``s * t <= eps`` for every point (the pair has a vanishing product)."""
    return bool(np.all(sigma.s * sigma.t <= eps))


def _run_starts(values: np.ndarray, tol: float) -> tuple[float, ...]:
    v = np.sort(values)
    start = np.ones(len(v), dtype=bool)
    start[1:] = np.diff(v) > tol
    return tuple(v[start].tolist())


def projections(sigma: JointSpectrum) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coordinate projections: the spectra of the two single operators.

    Each projection merges by the rule of :class:`JointSpectrum`: sorted
    values split where neighbours are more than ``dedup_tol`` apart, and each
    run keeps its smallest value.
    """
    if not sigma.points:
        raise EmptySpectrum("projections of an empty spectrum")
    return _run_starts(sigma.s, sigma.dedup_tol), _run_starts(sigma.t, sigma.dedup_tol)


def format_float(x: float) -> str:
    """17 significant digits: enough to read back the same double."""
    return format(float(x), ".17g")


def format_floats(values) -> list[str]:
    """:func:`format_float` of every entry of an array, in one C-level pass."""
    return list(map(format, np.asarray(values, dtype=float).ravel().tolist(), repeat(".17g")))


def spectrum_to_csv(sigma: JointSpectrum) -> str:
    """CSV export, one point per line, 17 significant digits."""
    cols = [format_floats(sigma.s), format_floats(sigma.t)]
    if sigma.has_r:
        cols.append(format_floats(sigma.r))
    cols.append(map(str, sigma.mult.tolist()))
    header = "s,t,r,mult" if sigma.has_r else "s,t,mult"
    return "\n".join([header, *map(",".join, zip(*cols))]) + "\n"


def spectrum_from_csv(text: str, dedup_tol: float = DEDUP_TOL) -> JointSpectrum:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        return JointSpectrum((), dedup_tol)
    header = [h.strip() for h in lines[0].split(",")]
    if header not in (["s", "t", "mult"], ["s", "t", "r", "mult"]):
        raise ValueError(f"unrecognized spectrum CSV header: {lines[0]!r}")
    with_r = len(header) == 4
    pts = []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"spectrum CSV row has {len(cells)} cells, expected {len(header)}")
        if with_r:
            pts.append(SpectralPoint(float(cells[0]), float(cells[1]),
                                     float(cells[2]), int(cells[3])))
        else:
            pts.append(SpectralPoint(float(cells[0]), float(cells[1]),
                                     None, int(cells[2])))
    return JointSpectrum(tuple(pts), dedup_tol)
