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
from typing import Callable, Iterable

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


def _counts(mult) -> np.ndarray:
    """Multiplicities as int64: whole numbers >= 1 (``2.0`` is 2) adding up below 2**63."""
    m = np.asarray(mult)
    whole = m.dtype.kind != "f" or (np.isfinite(m) & (m == np.floor(m))).all()
    if not (whole and (m >= 1).all()):
        raise ValueError("multiplicities must be whole numbers >= 1")
    counts = list(map(int, m.tolist()))
    if sum(counts) >= 2 ** 63:
        raise ValueError("the multiplicities add up beyond 2**63 - 1")
    return np.array(counts, dtype=np.int64)


def _clamped(value, tol: float, what: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} = {x!r} is not finite")
    if x < -tol:
        raise NegativeCoordinate(f"{what} = {x!r} is negative beyond tolerance")
    return x if x > 0.0 else 0.0  # also turns -0.0 into 0.0


def clamped_columns(columns, tol: float, names) -> np.ndarray:
    """The coordinate rule: ``columns`` as one float array, entries in ``[-tol, 0]`` set to 0.0.

    An entry that is NaN or an infinity raises ``ValueError``, and one below
    ``-tol`` raises :class:`NegativeCoordinate`; the message names the first
    such point's entry by its column's name in ``names``.
    """
    x = np.array(columns, dtype=float)
    if not (np.minimum.reduce(x, None, initial=0.0) >= -tol
            and np.maximum.reduce(x, None, initial=0.0) < math.inf):
        # walked only to name the first bad entry
        for row in x.T.tolist():
            list(map(_clamped, row, repeat(tol), names))
    return np.where(x > 0.0, x, 0.0)  # also turns -0.0 into 0.0


def _apart(x: np.ndarray, tol: float) -> bool:
    """True when, along some coordinate, the sorted values lie more than ``tol`` apart.

    Then so do any two of them (a rounded difference grows with the
    distance), and no two points are within ``tol`` of each other.
    """
    v = np.sort(x)
    gaps = np.minimum.reduce(v[:, 1:] - v[:, :-1], 1, initial=math.inf)
    return bool(np.logical_or.reduce(gaps > tol))


def _merge(x: np.ndarray, counts: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage merge of the points, the columns of ``x``, at Chebyshev distance ``tol``.

    Returns the lexicographically smallest point of each cluster, in
    lexicographic order, with the summed multiplicities ``counts``.
    """
    order = np.lexsort(x[::-1])
    x, counts = x.take(order, 1), counts.take(order)
    if _apart(x, tol):
        return x, counts  # nothing near, so nothing equal either
    # exact duplicates first, so that no window below is crowded with equal points
    start = np.empty(x.shape[1], dtype=bool)
    start[0] = True
    np.logical_or.reduce(x[:, 1:] != x[:, :-1], out=start[1:])
    start = start.nonzero()[0]
    x, counts = x.take(start, 1), np.add.reduceat(counts, start)
    if _apart(x, tol):
        return x, counts
    # Near pairs are looked for in windows 2 tol wide along one coordinate, so
    # that rounding of a window's bound cannot drop a pair the exact test
    # would join.
    n = x.shape[1]
    best = None
    for column in x:  # scan the coordinate whose windows hold the fewest pairs
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
        near = np.abs(x[:, a] - x[:, b]).max(axis=0) <= tol
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
    return x[:, kept], summed[kept]


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


class JointSpectrum:
    """Finite multiset of spectral points, deduplicated on construction.

    The data are the read-only arrays ``s``, ``t``, ``r`` (``None`` without an
    r coordinate) and ``mult``, sorted by ``(s, t, r)``; ``points`` is a view
    of them as :class:`SpectralPoint` objects, built on first use.  Points
    (``JointSpectrum(points)``) and columns (:meth:`from_arrays`) pass one
    validation.  Points joined by a chain of steps, each at most ``dedup_tol``
    in every coordinate, are one cluster, which keeps its lexicographically
    smallest point and the sum of the multiplicities, so the result does not
    depend on the input order.  Coordinates in ``[-dedup_tol, 0)`` are clamped
    to 0 and more negative ones raise :class:`NegativeCoordinate`; NaN, an
    infinity, a multiplicity that is not a whole number >= 1, or ``r`` on only
    some points raise ``ValueError``.
    """

    def __init__(self, points: Iterable = (), dedup_tol: float = DEDUP_TOL) -> None:
        rows = [_row(p) for p in points]
        s, t, r, mult = zip(*rows) if rows else ((),) * 4
        missing = r.count(None)
        if 0 < missing < len(rows):
            raise ValueError("either every point carries r or none does")
        self._build((s, t) if missing or not rows else (s, t, r), mult, dedup_tol)

    @classmethod
    def from_arrays(cls, s, t, r=None, mult=None, dedup_tol: float = DEDUP_TOL) -> "JointSpectrum":
        """The spectrum of coordinate columns; ``mult`` is 1 everywhere when omitted."""
        sigma = cls.__new__(cls)
        sigma._build((s, t) if r is None else (s, t, r), mult, dedup_tol)
        return sigma

    def _build(self, columns: tuple, mult, dedup_tol: float) -> None:
        tol = float(dedup_tol)
        if not (math.isfinite(tol) and tol >= 0.0):
            raise ValueError(f"dedup_tol = {tol!r} is not a finite nonnegative tolerance")
        x = clamped_columns(columns, tol, ("s", "t", "r"))
        counts = np.ones(x.shape[1], dtype=np.int64) if mult is None else _counts(mult)
        if len(counts) != x.shape[1]:
            raise ValueError(f"{len(counts)} multiplicities for {x.shape[1]} points")
        self._set(*_merge(x, counts, tol), tol)

    def _set(self, x: np.ndarray, mult: np.ndarray, tol: float) -> None:
        x.flags.writeable = mult.flags.writeable = False
        self._x, self.mult, self.dedup_tol = x, mult, tol
        self.s, self.t = x[0], x[1]
        self.r = x[2] if len(x) == 3 and len(mult) else None

    def take(self, rows) -> "JointSpectrum":
        """The points at ``rows`` (a mask or indices), in order; being apart already, none merge."""
        part = JointSpectrum.__new__(JointSpectrum)
        part._set(self._x[:, rows], self.mult[rows], self.dedup_tol)
        return part

    @cached_property
    def points(self) -> tuple[SpectralPoint, ...]:
        """The points as :class:`SpectralPoint` objects, built on first use."""
        r = repeat(None) if self.r is None else self.r.tolist()
        return tuple(map(SpectralPoint, self.s.tolist(), self.t.tolist(), r, self.mult.tolist()))

    def __len__(self) -> int:
        return len(self.mult)

    def __iter__(self):
        return iter(self.points)

    @property
    def has_r(self) -> bool:
        return self.r is not None


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
    return JointSpectrum.from_arrays(s, t, dedup_tol=dedup_tol)


def spectral_map(sigma: JointSpectrum,
                 psi: Callable[[np.ndarray, np.ndarray], tuple]) -> JointSpectrum:
    """Image of the spectrum under a map of the two leading coordinates.

    ``psi(s, t)`` receives the coordinate arrays and returns the two image
    coordinates, elementwise (every map in this package is arithmetic on
    them).  Multiplicities of points that collide are added; an ``r``
    coordinate, if present, is dropped.  The first point whose image is not
    finite raises ``ValueError``, or :class:`ImageOutsideQuadrant` when an
    image coordinate is below ``-dedup_tol``.
    """
    x, y = (np.asarray(v, dtype=float) for v in psi(sigma.s, sigma.t))
    bad = ~(np.isfinite(x) & np.isfinite(y)) | (np.minimum(x, y) < -sigma.dedup_tol)
    if bad.any():
        s, t, xi, yi = (float(v[bad.argmax()]) for v in (sigma.s, sigma.t, x, y))
        if not (math.isfinite(xi) and math.isfinite(yi)):
            raise ValueError(f"map is not finite at ({s!r}, {t!r})")
        raise ImageOutsideQuadrant(
            f"psi({s!r}, {t!r}) = ({xi!r}, {yi!r}) leaves the positive quadrant")
    return JointSpectrum.from_arrays(x, y, None, sigma.mult, sigma.dedup_tol)


def radius(sigma: JointSpectrum) -> float:
    """Joint spectral radius ``max sqrt(s^2 + t^2)``."""
    if not len(sigma):
        raise EmptySpectrum("radius of an empty spectrum")
    return max(map(math.hypot, sigma.s.tolist(), sigma.t.tolist()))


def inner_radius(sigma: JointSpectrum) -> float:
    """Distance of the spectrum from the origin, ``min sqrt(s^2 + t^2)``."""
    if not len(sigma):
        raise EmptySpectrum("inner radius of an empty spectrum")
    return min(map(math.hypot, sigma.s.tolist(), sigma.t.tolist()))


def union(first: JointSpectrum, second: JointSpectrum) -> JointSpectrum:
    """Multiset union; matching points add their multiplicities.

    The finer of the two dedup tolerances would split points the coarser one
    merged, so the union uses the larger tolerance.
    """
    tol = max(first.dedup_tol, second.dedup_tol)
    parts = [x for x in (first, second) if len(x)] or [first]
    if len({x.has_r for x in parts}) > 1:
        raise ValueError("either every point carries r or none does")
    return JointSpectrum.from_arrays(*np.concatenate([x._x for x in parts], axis=1),
                                     mult=np.concatenate([x.mult for x in parts]), dedup_tol=tol)


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
    if not len(sigma):
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
    cols = [*map(format_floats, sigma._x), map(str, sigma.mult.tolist())]
    header = "s,t,r,mult" if sigma.has_r else "s,t,mult"
    return "\n".join([header, *map(",".join, zip(*cols))]) + "\n"


def spectrum_from_csv(text: str, dedup_tol: float = DEDUP_TOL) -> JointSpectrum:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        return JointSpectrum((), dedup_tol)
    header = [h.strip() for h in lines[0].split(",")]
    if header not in (["s", "t", "mult"], ["s", "t", "r", "mult"]):
        raise ValueError(f"unrecognized spectrum CSV header: {lines[0]!r}")
    rows = []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"spectrum CSV row has {len(cells)} cells, expected {len(header)}")
        rows.append((*map(float, cells[:-1]), int(cells[-1])))
    cols = list(zip(*rows)) or [()] * len(header)
    return JointSpectrum.from_arrays(*cols[:-1], mult=cols[-1], dedup_tol=dedup_tol)
