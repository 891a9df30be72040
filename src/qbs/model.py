"""Concrete models of upper-triangular block operators T = [[V, E], [0, Q]].

Three model types feed the classifiers:

* :class:`PairModel` -- a commuting positive pair (A, B) standing for
  (|Q|, |E|), diagonal or dense.
* :class:`ShiftEmbedding` -- a finite matrix model of T itself.  H1 is a stack
  of ``levels + 1`` copies of a width-``width`` layer; V shifts layer i to
  layer i + 1 and annihilates the last layer, so it is an exact isometry on
  all interior layers.  E maps H2 into layer 0 (the kernel of V*), which makes
  V*E = 0 automatic for built models.  Powers of order up to ``levels`` are
  computed without truncation error (the headroom contract).  V is applied
  by row shifts; only ``v_matrix()`` and ``assemble()`` build it densely.
  Its joint spectrum is read from the Gram pair (Q*Q, E*E) by
  :func:`linalg.modulus_pair_spectrum`; no modulus pair is built.
* :class:`AtomModel` -- a symbolic direct sum of scaled unitary and scaled
  unilateral-shift atoms for Q with scalar |E| weight per atom; this is the
  only model carrying enough |Q*| information for the full Brownian test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable

import numpy as np

from . import jointspec, linalg
from .errors import (
    DimensionMismatch,
    EmptyGamma,
    HeadroomExceeded,
    HypothesisViolated,
    ModulusConstraintViolated,
    NegativeCoordinate,
    NotPositiveSemidefinite,
)
from .jointspec import DEDUP_TOL, JointSpectrum, SpectralPoint
from .linalg import DEFAULT_EPS, adjoint, as_matrix, opnorm

_COORD_FLOOR = 1e-10  # roundoff negatives this small are clamped to zero


def _clamp_coord(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise ValueError(f"{what} = {x!r} is not finite")
    if x < -_COORD_FLOOR:
        raise NegativeCoordinate(f"{what} = {x!r} must be nonnegative")
    return 0.0 if x < 0.0 else x


@dataclass(frozen=True, eq=False)
class PairModel:
    """Commuting positive pair (A, B); diagonal entries or dense matrices."""

    a: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None
    A: np.ndarray | None = None
    B: np.ndarray | None = None

    @property
    def is_diagonal(self) -> bool:
        return self.a is not None

    @property
    def dim(self) -> int:
        return len(self.a) if self.is_diagonal else int(self.A.shape[0])

    @classmethod
    def from_diagonal(cls, a: Iterable[float], b: Iterable[float]) -> "PairModel":
        av = tuple(_clamp_coord(float(x), "diagonal entry") for x in a)
        bv = tuple(_clamp_coord(float(x), "diagonal entry") for x in b)
        if len(av) != len(bv):
            raise DimensionMismatch(f"diagonals have lengths {len(av)} and {len(bv)}")
        if not av:
            raise ValueError("a commuting pair needs at least one dimension")
        return cls(a=av, b=bv)

    @classmethod
    def from_matrices(cls, a, b, eps: float = DEFAULT_EPS) -> "PairModel":
        A = as_matrix(a)
        B = as_matrix(b)
        if A.shape != B.shape or A.shape[0] != A.shape[1]:
            raise DimensionMismatch("expected square matrices of equal shape")
        norms = [linalg.psd_norm(m, eps) for m in (A, B)]
        for name, norm in zip("AB", norms):
            if norm is None:
                raise NotPositiveSemidefinite(f"{name} is not positive semidefinite")
        linalg.require_commuting(opnorm(A @ B - B @ A), *norms, eps)
        return cls(A=A, B=B)

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        if self.is_diagonal:
            return (np.diag(np.asarray(self.a, dtype=complex)),
                    np.diag(np.asarray(self.b, dtype=complex)))
        return self.A, self.B


@dataclass(frozen=True, eq=False)
class ShiftEmbedding:
    """Finite leveled-shift model of T = [[V, E], [0, Q]].

    ``E`` has shape ``((levels + 1) * width, d)`` and ``Q`` is ``d x d``.
    ``v_scale`` is a unimodular phase on the shift entry.  Operations of
    order ``n <= levels`` are exact; beyond that the truncation bites and
    :class:`HeadroomExceeded` is raised.
    """

    levels: int
    width: int
    E: np.ndarray
    Q: np.ndarray
    v_scale: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.levels < 1 or self.width < 1:
            raise ValueError("need at least one interior layer and positive width")
        e = as_matrix(self.E)
        q = as_matrix(self.Q)
        if q.shape[0] != q.shape[1]:
            raise DimensionMismatch("Q must be square")
        if e.shape != ((self.levels + 1) * self.width, q.shape[0]):
            raise DimensionMismatch(
                f"E has shape {e.shape}, expected {((self.levels + 1) * self.width, q.shape[0])}"
            )
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "v_scale", complex(self.v_scale))

    @property
    def d(self) -> int:
        return int(self.Q.shape[0])

    @property
    def h1_dim(self) -> int:
        return (self.levels + 1) * self.width

    @property
    def headroom(self) -> int:
        return self.levels

    def v_matrix(self) -> np.ndarray:
        """V as a dense matrix; the model operations apply V by row shifts instead."""
        return self.v_scale * np.eye(self.h1_dim, k=-self.width, dtype=complex)

    def _shift(self, x: np.ndarray) -> np.ndarray:
        # V @ x by rows: layer i moves to layer i + 1, the last layer drops
        out = np.zeros(x.shape, dtype=complex)
        out[self.width:] = self.v_scale * x[:-self.width]
        return out

    def e_gram(self) -> np.ndarray:
        return adjoint(self.E) @ self.E

    def assemble(self) -> np.ndarray:
        """The full truncated block matrix on H1 (+) H2."""
        n1, d = self.h1_dim, self.d
        t = np.zeros((n1 + d, n1 + d), dtype=complex)
        t[:n1, :n1] = self.v_matrix()
        t[:n1, n1:] = self.E
        t[n1:, n1:] = self.Q
        return t


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


@dataclass(frozen=True)
class ClassQReport:
    checks: tuple[AxiomCheck, ...]
    verdict: bool

    def check(self, name: str) -> AxiomCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _gram_norm(gram: np.ndarray) -> float:
    """Operator norm of X from its Gram matrix X*X."""
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)) if gram.size else 0.0


def validate_class_q(emb: ShiftEmbedding, eps: float = DEFAULT_EPS) -> ClassQReport:
    """Residuals of the four block-operator axioms.

    * ``v_isometry``      -- V*V = I on the interior layers;
    * ``ve_orthogonal``   -- V*E = 0 (E lands in ker V*);
    * ``q_gram_commute``  -- Q(E*E) = (E*E)Q;
    * ``q_quasinormal``   -- Q(Q*Q) = (Q*Q)Q.

    Each residual is compared against ``eps`` scaled by the norms entering the
    identity; the verdict is the conjunction.  The first two need no dense V:
    V*V is |v|^2 I on the interior layers, and V*E is conj(v) times layers
    1..levels of E.  The tall blocks' norms come from their small Gram
    matrices, ``|X| = sqrt(lambda_max(X*X))``.
    """
    v, e, q = emb.v_scale, emb.E, emb.Q
    rest = e[emb.width:]
    r_iso = abs((v.conjugate() * v).real - 1.0)
    # R*R from R itself: gram minus the layer-0 Gram block would cancel catastrophically
    r_orth = abs(v) * _gram_norm(adjoint(rest) @ rest)
    gram = adjoint(e) @ e
    r_gram = opnorm(q @ gram - gram @ q)
    qq = adjoint(q) @ q
    r_quasi = opnorm(q @ qq - qq @ q)
    ne, nq = _gram_norm(gram), opnorm(q)
    checks = (
        AxiomCheck("v_isometry", r_iso, eps),
        AxiomCheck("ve_orthogonal", r_orth, eps * (1.0 + ne)),
        AxiomCheck("q_gram_commute", r_gram, eps * (1.0 + nq * ne * ne)),
        AxiomCheck("q_quasinormal", r_quasi, eps * (1.0 + nq ** 3)),
    )
    return ClassQReport(checks, all(c.passed for c in checks))


def build_from_pair(pair: PairModel, levels: int, eps: float = DEFAULT_EPS) -> ShiftEmbedding:
    """Embed a commuting positive pair as a shift model with Q := A, |E| = B.

    E is U.B where U is a partial isometry carrying the range of B onto the
    matching basis vectors of layer 0; the layer width equals dim H2, so the
    built model always has ``width == d``.
    """
    if levels < 1:
        raise ValueError("need at least one interior layer")
    d = pair.dim
    if pair.is_diagonal:
        level0 = np.diag(np.asarray(pair.b, dtype=complex))
        q = np.diag(np.asarray(pair.a, dtype=complex))
    else:
        eig = linalg.hermitian_eig(pair.B, eps)
        vals = linalg.clamp_spectrum(eig.eigenvalues, scale=1.0 + opnorm(pair.B))
        kept = np.where(vals > 0.0, vals, 0.0)
        level0 = np.diag(kept.astype(complex)) @ adjoint(eig.eigenvectors)
        q = pair.A.astype(complex)
    e = np.vstack([level0, np.zeros((levels * d, d), dtype=complex)])
    return ShiftEmbedding(levels, d, e, q)


def realize_spectrum(gamma, levels: int) -> ShiftEmbedding:
    """Shift embedding whose modulus pair has joint spectrum ``gamma``.

    ``gamma`` may be a :class:`JointSpectrum` or an iterable of ``(s, t)``
    pairs / :class:`SpectralPoint`; multiplicities are realized by repetition.
    """
    if isinstance(gamma, JointSpectrum):
        pts = gamma.points
    else:
        pts = tuple(jointspec._coerce_point(p) for p in gamma)
    coords: list[tuple[float, float]] = []
    for p in pts:
        coords.extend([(p.s, p.t)] * p.mult)
    if not coords:
        raise EmptyGamma("cannot realize an empty spectrum")
    a = [_clamp_coord(s, "s") for s, _ in coords]
    b = [_clamp_coord(t, "t") for _, t in coords]
    return build_from_pair(PairModel.from_diagonal(a, b), levels)


@dataclass(frozen=True, eq=False)
class PowerBlocks:
    """Blocks of T^n: T^n = [[V^n, E_n], [0, Q^n]]."""

    n: int
    V: np.ndarray
    E: np.ndarray
    Q: np.ndarray


def power(emb: ShiftEmbedding, n: int) -> PowerBlocks:
    """Blocks of T^n via the recursion E_{k+1} = V E_k + E Q^k, E_0 = 0.

    Exact within the headroom: raises :class:`HeadroomExceeded` for
    ``n > levels``.
    """
    if n < 0:
        raise ValueError("power order must be nonnegative")
    if n > emb.headroom:
        raise HeadroomExceeded(f"order {n} exceeds the embedding headroom {emb.headroom}")
    qpow = np.eye(emb.d, dtype=complex)
    en = np.zeros_like(emb.E)
    for _ in range(n):
        en = emb._shift(en) + emb.E @ qpow
        qpow = qpow @ emb.Q
    vn = (emb.v_scale ** n) * np.eye(emb.h1_dim, k=-n * emb.width, dtype=complex)
    return PowerBlocks(n, vn, en, qpow)


def _grams(model) -> tuple[np.ndarray, np.ndarray]:
    # (E*E, Q*Q) on H2
    if isinstance(model, ShiftEmbedding):
        return model.e_gram(), adjoint(model.Q) @ model.Q
    if isinstance(model, PairModel):
        if model.is_diagonal:
            a = np.asarray(model.a, dtype=float)
            b = np.asarray(model.b, dtype=float)
            return np.diag((b * b).astype(complex)), np.diag((a * a).astype(complex))
        return model.B @ model.B, model.A @ model.A
    raise TypeError(f"cannot take grams of {type(model).__name__}")


def omega(model, n: int) -> np.ndarray:
    """H2 block of T*^n T^n: E*E sum_{j<n} (Q*Q)^j + (Q*Q)^n; identity for n = 0."""
    if n < 0:
        raise ValueError("order must be nonnegative")
    gram, qq = _grams(model)
    d = gram.shape[0]
    if n == 0:
        return np.eye(d, dtype=complex)
    geo = np.zeros((d, d), dtype=complex)
    qq_pow = np.eye(d, dtype=complex)
    for _ in range(n):
        geo = geo + qq_pow
        qq_pow = qq_pow @ qq
    out = gram @ geo + qq_pow
    return (out + adjoint(out)) / 2.0


def compose(t1: ShiftEmbedding, t2: ShiftEmbedding, eps: float = DEFAULT_EPS) -> ShiftEmbedding:
    """Blocks of the product T1 T2 as a shift embedding of doubled width.

    Both factors must share the level geometry and H2.  The product of the
    two layer shifts advances two old layers at a time, so the result is
    re-leveled: new layer j is the pair of old layers (2j, 2j + 1).  An odd
    trailing layer is dropped (headroom bookkeeping only).

    The commutation hypotheses Q_k(Q_l*Q_l) = (Q_l*Q_l)Q_k and
    Q_k(E_l*E_l) = (E_l*E_l)Q_k for k != l are checked first;
    :class:`HypothesisViolated` names the failing identity.
    """
    if (t1.levels, t1.width) != (t2.levels, t2.width) or t1.d != t2.d:
        raise DimensionMismatch("factors must share level geometry and H2 dimension")
    for k, qk, l, other in ((1, t1.Q, 2, t2), (2, t2.Q, 1, t1)):
        qq = adjoint(other.Q) @ other.Q
        if opnorm(qk @ qq - qq @ qk) > eps:
            raise HypothesisViolated(f"Q{k} does not commute with Q{l}*Q{l}")
        gram = other.e_gram()
        if opnorm(qk @ gram - gram @ qk) > eps:
            raise HypothesisViolated(f"Q{k} does not commute with E{l}*E{l}")
    new_levels = (t1.levels + 1) // 2 - 1
    if new_levels < 1:
        raise HeadroomExceeded("the product needs at least four layers to keep headroom 1")
    keep_rows = 2 * (new_levels + 1) * t1.width
    e_full = t1._shift(t2.E) + t1.E @ t2.Q
    return ShiftEmbedding(new_levels, 2 * t1.width, e_full[:keep_rows, :],
                          t1.Q @ t2.Q, t1.v_scale * t2.v_scale)


def scale_entries(emb: ShiftEmbedding, z1: complex, z2: complex, z3: complex) -> ShiftEmbedding:
    """Entrywise scaling (V, E, Q) -> (z1 V, z2 E, z3 Q).

    Needs |z1| = 1 and |z2|, |z3| <= 1, which keeps every axiom intact; the
    joint spectrum scales t by |z2| and s by |z3|.
    """
    z1, z2, z3 = complex(z1), complex(z2), complex(z3)
    if abs(abs(z1) - 1.0) > 1e-12:
        raise ModulusConstraintViolated(f"|z1| = {abs(z1)!r}, must equal 1")
    if abs(z2) > 1.0 + 1e-12 or abs(z3) > 1.0 + 1e-12:
        raise ModulusConstraintViolated("|z2| and |z3| must not exceed 1")
    return replace(emb, v_scale=emb.v_scale * z1, E=z2 * emb.E, Q=z3 * emb.Q)


def spectrum_norm(sigma: JointSpectrum) -> float:
    """``max(1, radius)``: the norm of T with joint spectrum ``sigma``, as T*T = I (+) Omega_1."""
    return max(1.0, jointspec.radius(sigma))


def operator_norm(emb: ShiftEmbedding, eps: float = DEFAULT_EPS) -> float:
    """:func:`spectrum_norm` of the embedding's joint spectrum."""
    return spectrum_norm(jointspec.joint_spectrum(emb, eps=eps))


class AtomKind(str, Enum):
    UNITARY = "unitary"
    SHIFT = "shift"


@dataclass(frozen=True)
class QAtom:
    """One atom: Q acts as s * (unitary or unilateral shift), |E| as t * I."""

    kind: AtomKind
    s: float
    t: float
    mult: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", AtomKind(self.kind))
        if not (math.isfinite(self.s) and math.isfinite(self.t)):
            raise ValueError("atom scales must be finite")
        if self.s < 0.0 or self.t < 0.0:
            raise NegativeCoordinate("atom scales must be nonnegative")
        if self.mult < 1:
            raise ValueError("atom multiplicity must be positive")


@dataclass(frozen=True)
class AtomModel:
    atoms: tuple[QAtom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.atoms:
            raise ValueError("an atom model needs at least one atom")


def atom_spectra(m: AtomModel, dedup_tol: float = DEDUP_TOL) -> tuple[JointSpectrum, JointSpectrum]:
    """The 2-d spectrum of (|Q|, |E|) and the 3-d spectrum of (|Q|, |E|, |Q*|).

    A unitary atom has |Q*| = s, so it contributes (s, t, s) only.  A shift
    atom has |Q*| with spectrum {0, s}, contributing (s, t, s) and (s, t, 0).
    """
    two = []
    three = []
    for at in m.atoms:
        two.append(SpectralPoint(at.s, at.t, None, at.mult))
        three.append(SpectralPoint(at.s, at.t, at.s, at.mult))
        if at.kind is AtomKind.SHIFT and at.s > dedup_tol:
            three.append(SpectralPoint(at.s, at.t, 0.0, at.mult))
    return JointSpectrum(tuple(two), dedup_tol), JointSpectrum(tuple(three), dedup_tol)
