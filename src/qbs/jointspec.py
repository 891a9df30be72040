"""Finite Taylor spectra of commuting positive pairs.

A spectrum is a finite multiset of points ``(s, t)`` in the closed positive
quadrant, optionally carrying a third coordinate ``r``.  Everything the
classifiers consume -- mapping under continuous functions, radii, unions,
coordinate projections -- lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def _coerce_point(p) -> SpectralPoint:
    if isinstance(p, SpectralPoint):
        return p
    vals = tuple(float(x) for x in p)
    if len(vals) == 2:
        return SpectralPoint(vals[0], vals[1])
    if len(vals) == 3:
        return SpectralPoint(vals[0], vals[1], vals[2])
    raise ValueError(f"cannot read a spectral point from {p!r}")


def _clamped(value: float, tol: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{what} = {value!r} is not finite")
    if value < -tol:
        raise NegativeCoordinate(f"{what} = {value!r} is negative beyond tolerance")
    return 0.0 if value < 0.0 else value


@dataclass(frozen=True)
class JointSpectrum:
    """Finite multiset of spectral points, deduplicated on construction.

    Points closer than ``dedup_tol`` in every coordinate are merged and their
    multiplicities added.  Coordinates in ``[-dedup_tol, 0)`` are clamped to 0;
    anything more negative raises :class:`NegativeCoordinate`, and NaN or an
    infinity raises ``ValueError``.  Either every point carries an ``r``
    coordinate or none does.
    """

    points: tuple[SpectralPoint, ...]
    dedup_tol: float = DEDUP_TOL

    def __post_init__(self) -> None:
        tol = float(self.dedup_tol)
        raw = [_coerce_point(p) for p in self.points]
        has_r = [p.r is not None for p in raw]
        if any(has_r) and not all(has_r):
            raise ValueError("either every point carries r or none does")
        cleaned: list[SpectralPoint] = []
        for p in raw:
            if p.mult < 1:
                raise ValueError("multiplicities must be positive")
            s = _clamped(float(p.s), tol, "s")
            t = _clamped(float(p.t), tol, "t")
            r = None if p.r is None else _clamped(float(p.r), tol, "r")
            cleaned.append(SpectralPoint(s, t, r, int(p.mult)))
        merged: list[SpectralPoint] = []
        for p in cleaned:
            for i, q in enumerate(merged):
                if max(abs(a - b) for a, b in zip(p.coords(), q.coords())) <= tol:
                    merged[i] = SpectralPoint(q.s, q.t, q.r, q.mult + p.mult)
                    break
            else:
                merged.append(p)
        merged.sort(key=lambda p: (p.s, p.t, -math.inf if p.r is None else p.r))
        object.__setattr__(self, "points", tuple(merged))
        object.__setattr__(self, "dedup_tol", tol)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def has_r(self) -> bool:
        return bool(self.points) and self.points[0].r is not None


def joint_spectrum(pair_or_embedding, dedup_tol: float = DEDUP_TOL,
                   eps: float = linalg.DEFAULT_EPS) -> JointSpectrum:
    """Taylor spectrum of a commuting positive pair, as a finite point set.

    Diagonal models yield their coordinate pairs directly; matrix models go
    through a joint diagonalization.  A shift embedding is accepted too and
    contributes the spectrum of its modulus pair (|Q|, |E|).
    """
    from .model import PairModel, ShiftEmbedding

    obj = pair_or_embedding
    if isinstance(obj, ShiftEmbedding):
        obj = obj.pair(eps)
    if not isinstance(obj, PairModel):
        raise TypeError(f"cannot read a commuting pair from {type(pair_or_embedding).__name__}")
    if obj.is_diagonal:
        pts = tuple(SpectralPoint(s, t) for s, t in zip(obj.a, obj.b))
    else:
        _, avals, bvals = linalg.simultaneous_diagonalize(obj.A, obj.B, eps)
        pts = tuple(SpectralPoint(float(s), float(t)) for s, t in zip(avals, bvals))
    return JointSpectrum(pts, dedup_tol)


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
    return max(math.hypot(p.s, p.t) for p in sigma.points)


def inner_radius(sigma: JointSpectrum) -> float:
    """Distance of the spectrum from the origin, ``min sqrt(s^2 + t^2)``."""
    if not sigma.points:
        raise EmptySpectrum("inner radius of an empty spectrum")
    return min(math.hypot(p.s, p.t) for p in sigma.points)


def union(first: JointSpectrum, second: JointSpectrum) -> JointSpectrum:
    """Multiset union; matching points add their multiplicities.

    The finer of the two dedup tolerances would split points the coarser one
    merged, so the union uses the larger tolerance.
    """
    tol = max(first.dedup_tol, second.dedup_tol)
    return JointSpectrum(first.points + second.points, tol)


def product_vanishes(sigma: JointSpectrum, eps: float = linalg.DEFAULT_EPS) -> bool:
    """True when ``s * t <= eps`` for every point (the pair has a vanishing product)."""
    return all(p.s * p.t <= eps for p in sigma.points)


def _dedup_values(values: Iterable[float], tol: float) -> tuple[float, ...]:
    out: list[float] = []
    for v in sorted(values):
        if not out or v - out[-1] > tol:
            out.append(v)
    return tuple(out)


def projections(sigma: JointSpectrum) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Coordinate projections: the spectra of the two single operators."""
    if not sigma.points:
        raise EmptySpectrum("projections of an empty spectrum")
    s_vals = _dedup_values((p.s for p in sigma.points), sigma.dedup_tol)
    t_vals = _dedup_values((p.t for p in sigma.points), sigma.dedup_tol)
    return s_vals, t_vals


def format_float(x: float) -> str:
    """17 significant digits: enough to read back the same double."""
    return format(float(x), ".17g")


def spectrum_to_csv(sigma: JointSpectrum) -> str:
    """CSV export, one point per line, 17 significant digits."""
    if sigma.has_r:
        lines = ["s,t,r,mult"]
        lines += [f"{format_float(p.s)},{format_float(p.t)},{format_float(p.r)},{p.mult}"
                  for p in sigma.points]
    else:
        lines = ["s,t,mult"]
        lines += [f"{format_float(p.s)},{format_float(p.t)},{p.mult}" for p in sigma.points]
    return "\n".join(lines) + "\n"


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
