"""Subnormality intervals of the two entry pencils.

Scaling the E entry by alpha >= 0 scales the t coordinates of the joint
spectrum; scaling Q scales the s coordinates.  The set of alpha for which
the scaled model stays subnormal is an interval whose right endpoint has a
closed form over the relevant part of the spectrum:

* E pencil:  beta = min over points with t > eps of sqrt((1 - s^2) / t^2),
  defined when those points all have s <= 1;
* Q pencil:  beta = min over points with s, t > eps of sqrt((1 - t^2) / s^2),
  nonempty only when max t <= 1, and all of R+ when |Q||E| = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from . import jointspec, regions
from .errors import (
    EmptyFlatPart,
    EmptySharpPart,
    EmptySpectrum,
    ENormExceedsOne,
    PreconditionViolated,
)
from .jointspec import JointSpectrum
from .linalg import DEFAULT_EPS

_SCAN_CELLS = 2 ** 20  # alphas x points tested at once, which bounds a scan's memory


class IntervalKind(Enum):
    EMPTY = "empty"
    DEGENERATE_ZERO = "degenerate-zero"
    CLOSED = "closed"
    ALL_OF_R_PLUS = "all-of-r-plus"


@dataclass(frozen=True)
class SubnormalityInterval:
    """{alpha >= 0 : the scaled pencil member is subnormal}."""

    kind: IntervalKind
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.kind is IntervalKind.CLOSED:
            if self.beta is None or self.beta <= 0.0:
                raise ValueError("a closed interval needs a positive right endpoint")
        elif self.beta is not None:
            raise ValueError(f"{self.kind.value} carries no endpoint")

    def contains(self, alpha: float) -> bool:
        if alpha < 0.0:
            return False
        if self.kind is IntervalKind.EMPTY:
            return False
        if self.kind is IntervalKind.DEGENERATE_ZERO:
            return alpha == 0.0
        if self.kind is IntervalKind.ALL_OF_R_PLUS:
            return True
        return alpha <= self.beta


def sharp_part(sigma: JointSpectrum, eps: float = DEFAULT_EPS) -> JointSpectrum:
    """The points with t > eps (where the E entry acts), as a spectrum."""
    return sigma.take(sigma.t > eps)


def flat_part(sigma: JointSpectrum, eps: float = DEFAULT_EPS) -> JointSpectrum:
    """The points with both coordinates positive beyond eps, as a spectrum."""
    return sigma.take((sigma.s > eps) & (sigma.t > eps))


def beta_dagger(sigma: JointSpectrum, eps: float = DEFAULT_EPS) -> float:
    """Right endpoint of the E-pencil interval: min sqrt((1-s^2)/t^2) over t > eps."""
    sharp = sharp_part(sigma, eps)
    if not len(sharp):
        raise EmptySharpPart("the E entry vanishes; every scaling is subnormal")
    if (sharp.s > 1.0 + eps).any():
        raise PreconditionViolated("the endpoint formula needs s <= 1 wherever t > 0")
    return float((np.sqrt(np.maximum(1.0 - sharp.s * sharp.s, 0.0)) / sharp.t).min())


def sub_E(sigma: JointSpectrum, eps: float = DEFAULT_EPS) -> SubnormalityInterval:
    """Subnormality interval of alpha -> [[V, alpha E], [0, Q]].

    Always contains 0 (the alpha = 0 member is quasinormal).  All of R+ when
    the E entry vanishes on the spectrum; degenerate {0} when some point with
    t > 0 has s >= 1.
    """
    if not len(sigma):
        raise EmptySpectrum("the pencil needs a nonempty spectrum")
    try:
        return _closed(beta_dagger(sigma, eps))
    except EmptySharpPart:
        return SubnormalityInterval(IntervalKind.ALL_OF_R_PLUS)
    except PreconditionViolated:
        return SubnormalityInterval(IntervalKind.DEGENERATE_ZERO)


def beta_sub(sigma: JointSpectrum, eps: float = DEFAULT_EPS) -> float:
    """Right endpoint of the Q-pencil interval: min sqrt((1-t^2)/s^2) over s,t > eps."""
    if (sigma.t > 1.0 + eps).any():
        raise ENormExceedsOne("no Q scaling is subnormal once |E| exceeds 1")
    flat = flat_part(sigma, eps)
    if not len(flat):
        raise EmptyFlatPart("the product |Q||E| vanishes; every scaling is subnormal")
    return float((np.sqrt(np.maximum(1.0 - flat.t * flat.t, 0.0)) / flat.s).min())


def sub_Q(sigma: JointSpectrum, eps: float = DEFAULT_EPS) -> SubnormalityInterval:
    """Subnormality interval of alpha -> [[V, E], [0, alpha Q]].

    Empty when max t > 1; all of R+ when additionally no point has both
    coordinates positive (|Q||E| = 0, i.e. EQ = 0); a closed interval
    otherwise.
    """
    if not len(sigma):
        raise EmptySpectrum("the pencil needs a nonempty spectrum")
    try:
        return _closed(beta_sub(sigma, eps))
    except ENormExceedsOne:
        return SubnormalityInterval(IntervalKind.EMPTY)
    except EmptyFlatPart:
        return SubnormalityInterval(IntervalKind.ALL_OF_R_PLUS)


def _closed(beta: float) -> SubnormalityInterval:
    if beta <= 0.0:
        return SubnormalityInterval(IntervalKind.DEGENERATE_ZERO)
    return SubnormalityInterval(IntervalKind.CLOSED, beta)


def pencil_scan(emb, which: str, alphas: Iterable[float],
                eps: float = DEFAULT_EPS) -> list[tuple[float, bool]]:
    """Subnormality verdicts along a grid of scalings of one entry.

    ``which`` is ``"e"`` or ``"q"``.  The spectrum is computed once and each
    scaling acts on the t (respectively s) coordinate of every one of its points.
    """
    token = which.strip().lower()
    if token not in ("e", "q"):
        raise ValueError(f"which must be 'e' or 'q', got {which!r}")
    sigma = emb if isinstance(emb, JointSpectrum) else jointspec.joint_spectrum(emb, eps=eps)
    alist = [float(alpha) for alpha in alphas]
    if any(a < 0.0 for a in alist):
        raise ValueError("pencil parameters are nonnegative")
    if alist and not len(sigma):
        raise EmptySpectrum("cannot classify an empty spectrum")
    a = np.array(alist)[:, None]
    block = max(1, _SCAN_CELLS // max(len(sigma), 1))
    verdicts = []
    for lo in range(0, len(alist), block):
        part = a[lo:lo + block]
        scaled = (sigma.s, part * sigma.t) if token == "e" else (part * sigma.s, sigma.t)
        verdicts += regions.in_region(*scaled, regions.SUBNORMAL, eps).all(axis=1).tolist()
    return list(zip(alist, verdicts))
