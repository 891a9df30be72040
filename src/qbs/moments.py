"""Moment-sequence machinery: an oracle for pointwise subnormality that is
independent of the region calculus.

For a spectral point (s, t) the relevant sequence is

    phi_0 = 1,    phi_n = t^2 * (1 + s^2 + ... + s^(2(n-1))) + s^(2n),

which for s != 1 is represented by the two-atom measure

    mu = w * delta_1 + (1 - w) * delta_{s^2},      w = t^2 / (1 - s^2).

The sequence is a Stieltjes moment sequence exactly when both weights are
nonnegative, and the truncated Hankel test below detects that numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import InsufficientLength, SEqualsOne
from .linalg import DEFAULT_EPS

_ONE_TOL = 1e-12  # closer than this to s = 1 and the two-atom form degenerates


def phi(n: int, s: float, t: float) -> float:
    """The n-th moment datum of the point (s, t); 1 + n t^2 on the line s = 1."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if n == 0:
        return 1.0
    s, t = float(s), float(t)
    if s == 1.0:
        return 1.0 + n * t * t
    acc = 0.0
    p = 1.0
    for _ in range(n):  # termwise geometric sum, stable near s = 1
        acc += p
        p *= s * s
    return t * t * acc + p


@dataclass(frozen=True)
class AtomicMeasure:
    """Finitely atomic signed measure on the real line: (location, weight) pairs."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        locs = [x for x, _ in atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")
        object.__setattr__(self, "atoms", atoms)

    def moment(self, n: int) -> float:
        return math.fsum(w * x ** n for x, w in self.atoms)

    def moments(self, count: int) -> tuple[float, ...]:
        return tuple(self.moment(n) for n in range(count))

    def mass_at(self, location: float, tol: float = _ONE_TOL) -> float:
        return math.fsum(w for x, w in self.atoms if abs(x - location) <= tol)

    def is_positive(self, tol: float = 0.0) -> bool:
        return all(w >= -tol for _, w in self.atoms)

    def add_atom(self, location: float, weight: float, tol: float = _ONE_TOL) -> "AtomicMeasure":
        atoms = list(self.atoms)
        for i, (x, w) in enumerate(atoms):
            if abs(x - location) <= tol:
                atoms[i] = (x, w + weight)
                return AtomicMeasure(tuple(atoms))
        atoms.append((float(location), float(weight)))
        return AtomicMeasure(tuple(atoms))


def mu_weights(s: float, t: float) -> AtomicMeasure:
    """Two-atom representing measure of the point (s, t), valid off s = 1.

    Atoms at 1 and s^2 with weights w and 1 - w, w = t^2 / (1 - s^2).  The
    weights are both nonnegative exactly when the point is a subnormal one.
    Raises :class:`SEqualsOne` within 1e-12 of the line s = 1.
    """
    s, t = float(s), float(t)
    if abs(s - 1.0) <= _ONE_TOL:
        raise SEqualsOne("the representing measure degenerates on the line s = 1")
    w = t * t / (1.0 - s * s)
    return AtomicMeasure(((1.0, w), (s * s, 1.0 - w)))


@dataclass(frozen=True)
class MomentSequence:
    gamma: tuple[float, ...]

    def __post_init__(self) -> None:
        g = tuple(float(x) for x in self.gamma)
        if len(g) < 2:
            raise InsufficientLength("a moment sequence needs at least two entries")
        if not all(math.isfinite(x) for x in g):
            raise ValueError("moment entries must be finite")
        object.__setattr__(self, "gamma", g)


def _as_gamma(gamma) -> tuple[float, ...]:
    if isinstance(gamma, MomentSequence):
        return gamma.gamma
    return MomentSequence(tuple(gamma)).gamma


@dataclass(frozen=True, eq=False)
class HankelWitness:
    which: str  # "hankel" or "shifted"
    matrix: np.ndarray
    min_eigenvalue: float


@dataclass(frozen=True, eq=False)
class OracleResult:
    passed: bool
    order: int
    witness: HankelWitness | None = None

    def __bool__(self) -> bool:
        return self.passed


def _hankel(gamma: Sequence[float], k: int, shift: int) -> np.ndarray:
    return np.array([[gamma[i + j + shift] for j in range(k + 1)] for i in range(k + 1)],
                    dtype=float)


def stieltjes_oracle(gamma, k: int, eps: float = DEFAULT_EPS) -> OracleResult:
    """Truncated Stieltjes test at order k.

    PASS when the Hankel matrix [gamma_{i+j}] and its shift [gamma_{i+j+1}]
    (size (k+1) x (k+1)) are both PSD at relative tolerance eps * (1 + |H|).
    FAIL carries the offending matrix and its smallest eigenvalue.  Needs at
    least 2k + 2 entries.
    """
    g = _as_gamma(gamma)
    if k < 0:
        raise ValueError("Hankel order must be nonnegative")
    if len(g) < 2 * k + 2:
        raise InsufficientLength(f"order {k} needs {2 * k + 2} moments, got {len(g)}")
    for which, shift in (("hankel", 0), ("shifted", 1)):
        h = _hankel(g, k, shift)
        if not linalg.is_psd(h, eps):
            return OracleResult(False, k, HankelWitness(which, h, linalg.min_eigenvalue(h)))
    return OracleResult(True, k)


def point_subnormality_oracle(s: float, t: float, hankel_order: int = 3,
                              eps: float = DEFAULT_EPS) -> OracleResult:
    """Moment-based subnormality test for a single spectral point.

    Builds gamma_n = phi_n(s, t) for n = 0..2K+1 and runs the truncated
    Stieltjes test.  For finite atomic spectral data, running this at each
    spectral point is equivalent to running it against every state vector,
    so the classifiers and this oracle must agree away from the frontiers.
    """
    g = tuple(phi(n, s, t) for n in range(2 * hankel_order + 2))
    return stieltjes_oracle(g, hankel_order, eps)


def finite_difference(gamma, m: int) -> np.ndarray:
    """m-fold forward difference of a sequence; length shrinks by m.

    For a sequence sampled from a polynomial p of degree at most m the result
    is constantly p^(m)(0).
    """
    g = np.asarray(tuple(float(x) for x in (gamma.gamma if isinstance(gamma, MomentSequence) else gamma)),
                   dtype=float)
    if m < 0:
        raise ValueError("difference order must be nonnegative")
    if len(g) <= m:
        raise InsufficientLength(f"need more than {m} entries for the {m}-fold difference")
    return np.diff(g, m) if m else g.copy()


@dataclass(frozen=True)
class PerturbationResult:
    is_moment: bool
    measure: AtomicMeasure | None = None


def polynomial_perturbation_test(mu: AtomicMeasure, coeffs: Iterable[float],
                                 tol: float = DEFAULT_EPS) -> PerturbationResult:
    """Can gamma_n = mu-moments + p(n) still be a Stieltjes moment sequence?

    Only a constant perturbation survives, and only when the mass it adds at
    the point 1 stays nonnegative: deg p = 0 and mu({1}) + p(0) >= 0, in
    which case the representing measure is mu + p(0) * delta_1.
    """
    if not mu.is_positive(tol):
        raise ValueError("the base measure must be positive")
    c = [float(x) for x in coeffs]
    degree = -1
    for i, x in enumerate(c):
        if x != 0.0:
            degree = i
    if degree > 0:
        return PerturbationResult(False)
    c0 = c[0] if c else 0.0
    if mu.mass_at(1.0) + c0 < -tol:
        return PerturbationResult(False)
    return PerturbationResult(True, mu.add_atom(1.0, c0))
