"""Spectral regions and the operator-class verdicts they decide.

Each operator class corresponds to a closed region of the positive quadrant;
the operator belongs to the class exactly when every joint spectral point
lies in the region.  With D+ the open unit disk quarter, T+ the unit circle
arc and L the vertical line s = 1, one table writes each region as a union of
intersections of seven primitives (disk, complement of D+, T+, axis t = 0, L,
s >= 1, s <= 1), and the m-indexed classes collapse by parity:

=================  ====================================================
Subnormal          disk or axis
Contraction        disk (also MContractive(1))
Expansion          complement of D+ (also MExpansive(m), m odd)
Isometry           T+ (also MIsometric(1))
TwoIsometry        T+ or L (also MIsometric(m), m >= 2)
MContractive(2)    disk or s >= 1 (all even m)
MContractive(3)    disk or L (all odd m >= 3)
MExpansive(2)      complement of D+ and s <= 1 (all even m)
DualSubnormal      complement of D+ or axis
=================  ====================================================

``che`` (complete hyperexpansivity), ``chc`` (complete hypercontractivity)
and ``delta-regular`` are aliases for MExpansive(2), Contraction and
Expansion; they are resolved at construction and the original token is kept
on the id.  Membership is tested with an ``eps`` band around each frontier,
and a point on the band classifies as ``boundary``, which still counts as
inside for the verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import BrownianCriteriaMismatch, EmptySpectrum, NotQuasiBrownian
from .jointspec import JointSpectrum, SpectralPoint, _row
from .linalg import DEFAULT_EPS
from .model import AtomKind, AtomModel, QAtom, atom_spectra


class RegionKind(Enum):
    SUBNORMAL = "subnormal"
    CONTRACTION = "contraction"
    EXPANSION = "expansion"
    ISOMETRY = "isometry"
    TWO_ISOMETRY = "two-isometry"
    M_CONTRACTIVE = "m-contractive"
    M_EXPANSIVE = "m-expansive"
    M_ISOMETRIC = "m-isometric"
    DUAL_SUBNORMAL = "dual-subnormal"


_PARAMETRIC = {RegionKind.M_CONTRACTIVE, RegionKind.M_EXPANSIVE, RegionKind.M_ISOMETRIC}

_ALIASES: dict[str, tuple[RegionKind, int | None]] = {
    "che": (RegionKind.M_EXPANSIVE, 2),
    "chc": (RegionKind.CONTRACTION, None),
    "delta-regular": (RegionKind.EXPANSION, None),
}


@dataclass(frozen=True)
class RegionId:
    kind: RegionKind
    m: int | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.kind in _PARAMETRIC:
            if self.m is None or self.m < 1:
                raise ValueError(f"{self.kind.value} needs an order m >= 1")
        elif self.m is not None:
            raise ValueError(f"{self.kind.value} takes no order")

    @property
    def token(self) -> str:
        if self.kind in _PARAMETRIC:
            return f"{self.kind.value}:{self.m}"
        return self.kind.value

    @classmethod
    def parse(cls, token: str) -> "RegionId":
        tok = token.strip().lower()
        if tok in _ALIASES:
            kind, m = _ALIASES[tok]
            return cls(kind, m, alias=tok)
        name, _, arg = tok.partition(":")
        for kind in RegionKind:
            if kind.value == name:
                if kind in _PARAMETRIC:
                    if not arg:
                        raise ValueError(f"region {name!r} needs an order, e.g. {name}:2")
                    try:
                        m = int(arg)
                    except ValueError:
                        raise ValueError(f"bad order {arg!r} for region {name!r}") from None
                    return cls(kind, m)
                if arg:
                    raise ValueError(f"region {name!r} takes no order")
                return cls(kind)
        raise ValueError(f"unknown region token {token!r}")


SUBNORMAL = RegionId(RegionKind.SUBNORMAL)
CONTRACTION = RegionId(RegionKind.CONTRACTION)
EXPANSION = RegionId(RegionKind.EXPANSION)
ISOMETRY = RegionId(RegionKind.ISOMETRY)
TWO_ISOMETRY = RegionId(RegionKind.TWO_ISOMETRY)
DUAL_SUBNORMAL = RegionId(RegionKind.DUAL_SUBNORMAL)


def m_contractive(m: int) -> RegionId:
    return RegionId(RegionKind.M_CONTRACTIVE, m)


def m_expansive(m: int) -> RegionId:
    return RegionId(RegionKind.M_EXPANSIVE, m)


def m_isometric(m: int) -> RegionId:
    return RegionId(RegionKind.M_ISOMETRIC, m)


def completely_hyperexpansive() -> RegionId:
    return RegionId(RegionKind.M_EXPANSIVE, 2, alias="che")


def completely_hypercontractive() -> RegionId:
    return RegionId(RegionKind.CONTRACTION, alias="chc")


def delta_regular() -> RegionId:
    return RegionId(RegionKind.EXPANSION, alias="delta-regular")


class Primitive(NamedTuple):
    """A closed piece of the quadrant and the curve that bounds it."""

    frontier: str  # "circle", "axis" or "line"
    test: Callable  # (s, t, slack) -> widened membership, on floats or numpy arrays


DISK = Primitive("circle", lambda s, t, slack: s * s + t * t <= 1.0 + slack)
OFF_DISK = Primitive("circle", lambda s, t, slack: s * s + t * t >= 1.0 - slack)
CIRCLE = Primitive("circle", lambda s, t, slack: abs(s * s + t * t - 1.0) <= slack)
AXIS = Primitive("axis", lambda s, t, slack: t <= slack)
LINE = Primitive("line", lambda s, t, slack: abs(s - 1.0) <= slack)
S_GE_1 = Primitive("line", lambda s, t, slack: s >= 1.0 - slack)
S_LE_1 = Primitive("line", lambda s, t, slack: s <= 1.0 + slack)

# each stable region as a union of intersections of primitives
_TABLE: dict[RegionId, tuple[tuple[Primitive, ...], ...]] = {
    SUBNORMAL: ((DISK,), (AXIS,)),
    CONTRACTION: ((DISK,),),
    EXPANSION: ((OFF_DISK,),),
    ISOMETRY: ((CIRCLE,),),
    TWO_ISOMETRY: ((CIRCLE,), (LINE,)),
    m_contractive(2): ((DISK,), (S_GE_1,)),
    m_contractive(3): ((DISK,), (LINE,)),
    m_expansive(2): ((OFF_DISK, S_LE_1),),
    DUAL_SUBNORMAL: ((OFF_DISK,), (AXIS,)),
}


def region_terms(region: RegionId) -> tuple[tuple[Primitive, ...], ...]:
    """The region as a union of intersections of primitives (Agler-Stankus collapse)."""
    k, m = region.kind, region.m
    if k is RegionKind.M_ISOMETRIC:
        return _TABLE[ISOMETRY if m == 1 else TWO_ISOMETRY]
    if k is RegionKind.M_EXPANSIVE:
        return _TABLE[EXPANSION if m % 2 else m_expansive(2)]
    if k is RegionKind.M_CONTRACTIVE:
        return _TABLE[CONTRACTION if m == 1 else m_contractive(3 if m % 2 else 2)]
    return _TABLE[RegionId(k)]


def in_region(s, t, region: RegionId, slack: float):
    """Whether ``(s, t)`` lies in the region widened by ``slack``; elementwise on arrays."""
    hit = False
    for term in region_terms(region):
        part = True
        for prim in term:
            part = part & prim.test(s, t, slack)
        hit = hit | part
    return hit


STATUSES = ("inside", "boundary", "outside")  # the names of the status codes 0, 1, 2


def _status(s, t, region: RegionId, eps: float):
    """Status codes of the points ``(s, t)``; elementwise on arrays."""
    return np.where(in_region(s, t, region, eps), np.where(in_region(s, t, region, 0.0), 0, 1), 2)


def region_membership(point, region: RegionId, eps: float = DEFAULT_EPS) -> str:
    """``inside`` / ``boundary`` / ``outside`` for one point.

    ``boundary`` means within the eps band of the region frontier; verdicts
    count it as inside.
    """
    s, t, _, _ = _row(point)
    return STATUSES[_status(s, t, region, eps)]


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """A region verdict and each point's status, an index into :data:`STATUSES`.

    ``per_point`` and ``violators`` (a spectrum) are views built on request.
    """

    region: RegionId
    verdict: bool
    spectrum: JointSpectrum
    status: np.ndarray

    @property
    def per_point(self) -> tuple[tuple[SpectralPoint, str], ...]:
        return tuple(zip(self.spectrum.points, map(STATUSES.__getitem__, self.status.tolist())))

    @property
    def violators(self) -> JointSpectrum:
        return self.spectrum.take(self.status == 2)


def classify(sigma: JointSpectrum, region: RegionId, eps: float = DEFAULT_EPS) -> ClassificationReport:
    """Verdict for one operator class: every spectral point inside the region."""
    if not len(sigma):
        raise EmptySpectrum("cannot classify an empty spectrum")
    status = _status(sigma.s, sigma.t, region, eps)
    return ClassificationReport(region, not (status == 2).any(), sigma, status)


@dataclass(frozen=True)
class BrownianReport:
    """Brownian verdicts; ``violators`` lists ``violators_2d`` then ``violators_3d`` as points."""

    quasi_brownian: bool
    brownian: bool
    violators_2d: JointSpectrum
    violators_3d: JointSpectrum
    decomposition: BrownianDecomposition | None = None

    @property
    def violators(self) -> tuple[SpectralPoint, ...]:
        return self.violators_2d.points + self.violators_3d.points


@dataclass(frozen=True)
class BrownianDecomposition:
    """Atom partition of H2: unitary part, shift part, spherical-isometry part.

    ``shift_flags`` lists the shift-part atoms carrying a nonzero |E| weight;
    the model is Brownian exactly when there are none.
    """

    h_u: tuple[QAtom, ...]
    h_s: tuple[QAtom, ...]
    h_si: tuple[QAtom, ...]
    unclassifiable: tuple[QAtom, ...]
    shift_flags: tuple[QAtom, ...]


def brownian_decomposition(m: AtomModel, eps: float = DEFAULT_EPS) -> BrownianDecomposition:
    """Structural split of a quasi-Brownian atom model.

    Unitary atoms with s = 1 feed the unitary part, shift atoms with s = 1
    the shift part (flagged when t > eps), atoms on the circle s^2 + t^2 = 1
    with s != 1 the spherical-isometry part; overlaps resolve in that order.
    Raises :class:`NotQuasiBrownian` when the 2-d spectrum fails the
    two-isometry region test.
    """
    two, _ = atom_spectra(m)
    if not classify(two, TWO_ISOMETRY, eps).verdict:
        raise NotQuasiBrownian("structural decomposition needs a quasi-Brownian model")
    return _split_atoms(m, eps)


def _split_atoms(m: AtomModel, eps: float) -> BrownianDecomposition:
    # the structural split of a model that already passed the quasi-Brownian test
    h_u: list[QAtom] = []
    h_s: list[QAtom] = []
    h_si: list[QAtom] = []
    other: list[QAtom] = []
    flags: list[QAtom] = []
    for at in m.atoms:
        on_line = LINE.test(at.s, at.t, eps)
        if at.kind is AtomKind.UNITARY and on_line:
            h_u.append(at)
        elif at.kind is AtomKind.SHIFT and on_line:
            h_s.append(at)
            if at.t > eps:
                flags.append(at)
        elif CIRCLE.test(at.s, at.t, eps):
            h_si.append(at)
        else:
            # an atom merged into a spectral point on the band: shift atoms at
            # s = 1 and 1 + 5e-9 (t = 0.5) are one point, the second off the band
            other.append(at)
    return BrownianDecomposition(tuple(h_u), tuple(h_s), tuple(h_si),
                                 tuple(other), tuple(flags))


def classify_brownian(m: AtomModel, eps: float = DEFAULT_EPS) -> BrownianReport:
    """Quasi-Brownian and Brownian verdicts for an atom model.

    Quasi-Brownian is the two-isometry region test on the 2-d spectrum.
    Brownian additionally needs every 3-d point (s, t, r) to satisfy
    s^2 + t^2 = 1 or r = 1 within eps.  The structural route (no shift atom
    carries |E| weight) is evaluated as well; the two must agree, otherwise
    the input sits on an ambiguous eps band and
    :class:`BrownianCriteriaMismatch` is raised.  The report carries the
    structural split of a quasi-Brownian model (None otherwise).

    A plain pair model cannot answer the Brownian question: it decides
    quasi-Brownian only, the |Q*| data lives in the atoms.
    """
    if not isinstance(m, AtomModel):
        raise TypeError(
            "Brownian classification needs an atom model; a commuting pair "
            "decides quasi-Brownian only (pass its spectrum to classify with "
            "the two-isometry region)"
        )
    two, three = atom_spectra(m)
    quasi_report = classify(two, TWO_ISOMETRY, eps)
    quasi = quasi_report.verdict
    # the 3-d points off both s^2 + t^2 = 1 and r = 1
    off = three.take(~(CIRCLE.test(three.s, three.t, eps) | LINE.test(three.r, three.t, eps)))
    spectral = quasi and not len(off)
    dec = _split_atoms(m, eps) if quasi else None
    if dec is not None and (not dec.shift_flags) != spectral:
        raise BrownianCriteriaMismatch(
            "spectral and structural Brownian tests disagree; the model "
            "sits on an eps-band overlap between the line s = 1 and the "
            "unit circle"
        )
    return BrownianReport(quasi, spectral, quasi_report.violators, off, dec)
