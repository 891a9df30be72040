"""Deterministic SVG pictures of regions and finite spectra.

Everything is rendered by hand into a fixed 520x520 canvas showing the
quadrant window ``[0, extent] x [0, extent]``; the output is a pure function
of the inputs, so identical calls produce byte-identical files.
"""

from __future__ import annotations

import math
from itertools import count
from pathlib import Path
from typing import Iterable

from .errors import QbsError
from .jointspec import JointSpectrum
from .regions import DISK, OFF_DISK, S_GE_1, S_LE_1, RegionId, region_terms

SIZE = 520
PAD = 46

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_POINT_COLOR = "#111827"
_AXIS_COLOR = "#374151"
_FILL_OPACITY = "0.18"


def _fmt(v: float) -> str:
    return format(v, ".4f")


class _Frame:
    def __init__(self, extent: float):
        if not (math.isfinite(extent) and extent > 0.0):
            raise QbsError(f"extent = {extent!r} is not a finite positive window size")
        self.extent = extent
        self.span = SIZE - 2 * PAD

    def x(self, s: float) -> float:
        return PAD + (s / self.extent) * self.span

    def y(self, t: float) -> float:
        return SIZE - PAD - (t / self.extent) * self.span

    @property
    def unit(self) -> float:
        # pixel length of one world unit, also the unit-circle radius
        return self.span / self.extent


def _quarter_disk_subpath(f: _Frame) -> str:
    # unit quarter disk in the closed quadrant; arc runs (1,0) -> (0,1)
    return f"{_arc_path(f)} L {_fmt(f.x(0))} {_fmt(f.y(0))} Z"


def _rect_subpath(f: _Frame, s0: float, s1: float) -> str:
    return (f"M {_fmt(f.x(s0))} {_fmt(f.y(0))} L {_fmt(f.x(s1))} {_fmt(f.y(0))} "
            f"L {_fmt(f.x(s1))} {_fmt(f.y(f.extent))} L {_fmt(f.x(s0))} {_fmt(f.y(f.extent))} Z")


def _fill(path: str, color: str, evenodd: bool = False) -> str:
    rule = ' fill-rule="evenodd"' if evenodd else ""
    return f'<path d="{path}" fill="{color}" fill-opacity="{_FILL_OPACITY}"{rule} stroke="none"/>'


def _stroke(path: str, color: str, width: float = 2.5) -> str:
    return f'<path d="{path}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>'


def _arc_path(f: _Frame) -> str:
    r = _fmt(f.unit)
    return (f"M {_fmt(f.x(1))} {_fmt(f.y(0))} "
            f"A {r} {r} 0 0 0 {_fmt(f.x(0))} {_fmt(f.y(1))}")


def _line_path(f: _Frame, s0, t0, s1, t1) -> str:
    return f"M {_fmt(f.x(s0))} {_fmt(f.y(t0))} L {_fmt(f.x(s1))} {_fmt(f.y(t1))}"


def _region_layers(region: RegionId, f: _Frame, color: str) -> list[str]:
    """Fill every term of the region, then stroke the frontier of each primitive."""
    terms = region_terms(region)
    layers = []
    for term in terms:
        # a disk piece fills the quarter disk, a complement piece the window
        # around it; the half-planes s >= 1 and s <= 1 narrow the window
        rect = _rect_subpath(f, 1.0 if S_GE_1 in term else 0.0,
                             1.0 if S_LE_1 in term else f.extent)
        if DISK in term:
            layers.append(_fill(_quarter_disk_subpath(f), color))
        elif OFF_DISK in term:
            layers.append(_fill(f"{rect} {_quarter_disk_subpath(f)}", color, evenodd=True))
        elif S_GE_1 in term or S_LE_1 in term:
            layers.append(_fill(rect, color))
    strokes = {"circle": _stroke(_arc_path(f), color),
               "axis": _stroke(_line_path(f, 0, 0, f.extent, 0), color, 4.0),
               "line": _stroke(_line_path(f, 1, 0, 1, f.extent), color)}
    return layers + [strokes[p.frontier] for term in terms for p in term]


def _ticks(extent: float) -> range:
    """At most 11 integer ticks on [0, extent]: step 1 up to extent 10, then 2, 5, 10, 20, ..."""
    top = math.floor(extent + 1e-9)
    step = next(m * 10 ** k for k in count() for m in (1, 2, 5) if top <= 10 * m * 10 ** k)
    return range(0, top + 1, step)


def _axes(f: _Frame) -> list[str]:
    parts = [f'<rect x="{PAD}" y="{PAD}" width="{f.span}" height="{f.span}" '
             f'fill="none" stroke="{_AXIS_COLOR}" stroke-width="1"/>']
    for tick in _ticks(f.extent):
        px, py = f.x(tick), f.y(tick)
        parts.append(f'<line x1="{_fmt(px)}" y1="{SIZE - PAD}" x2="{_fmt(px)}" '
                     f'y2="{SIZE - PAD + 6}" stroke="{_AXIS_COLOR}" stroke-width="1"/>')
        parts.append(f'<line x1="{PAD - 6}" y1="{_fmt(py)}" x2="{PAD}" '
                     f'y2="{_fmt(py)}" stroke="{_AXIS_COLOR}" stroke-width="1"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{SIZE - PAD + 20}" font-size="12" '
                     f'text-anchor="middle" fill="{_AXIS_COLOR}">{tick}</text>')
        parts.append(f'<text x="{PAD - 10}" y="{_fmt(py + 4)}" font-size="12" '
                     f'text-anchor="end" fill="{_AXIS_COLOR}">{tick}</text>')
    parts.append(f'<text x="{SIZE - PAD + 14}" y="{SIZE - PAD + 4}" font-size="14" '
                 f'font-style="italic" fill="{_AXIS_COLOR}">s</text>')
    parts.append(f'<text x="{PAD - 4}" y="{PAD - 14}" font-size="14" '
                 f'font-style="italic" fill="{_AXIS_COLOR}">t</text>')
    return parts


def pick_extent(sigma: JointSpectrum) -> float:
    top = float(max(sigma.s.max(initial=0.0), sigma.t.max(initial=0.0)))
    scaled = 1.15 * top / 0.5
    # near the largest double the margin overflows; the window then ends at the point
    return top if math.isinf(scaled) else max(2.0, math.ceil(scaled) * 0.5)


def render_svg(regions: Iterable[RegionId] = (), points=None,
               extent: float | None = None) -> str:
    """Draw regions and spectrum points; returns the SVG document text.

    ``points`` is a :class:`JointSpectrum`, or points it can be built from.
    """
    if not isinstance(points, JointSpectrum):
        points = JointSpectrum(() if points is None else points)
    f = _Frame(float(extent) if extent is not None else pick_extent(points))
    regions = list(regions)
    body: list[str] = []
    body.append(f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="#ffffff"/>')
    for i, region in enumerate(regions):
        body.extend(_region_layers(region, f, _PALETTE[i % len(_PALETTE)]))
    body.extend(_axes(f))
    shown = (points.s <= f.extent) & (points.t <= f.extent)
    xs, ys = f.x(points.s[shown]).tolist(), f.y(points.t[shown]).tolist()
    for x, y, mult in zip(xs, ys, points.mult[shown].tolist()):
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="{_POINT_COLOR}"/>')
        if mult > 1:
            body.append(f'<text x="{_fmt(x + 7)}" y="{_fmt(y - 7)}" '
                        f'font-size="11" fill="{_POINT_COLOR}">x{mult}</text>')
    for i, region in enumerate(regions):
        color = _PALETTE[i % len(_PALETTE)]
        body.append(f'<text x="{PAD}" y="{18 + 14 * i}" font-size="12" '
                    f'fill="{color}">{region.token}</text>')
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
            f'viewBox="0 0 {SIZE} {SIZE}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def save_svg(path, regions: Iterable[RegionId] = (), points=None,
             extent: float | None = None) -> None:
    Path(path).write_text(render_svg(regions, points, extent))
