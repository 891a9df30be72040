"""Concrete models of upper-triangular block operators T = [[V, E], [0, Q]].

Three model types feed the classifiers:

* :class:`PairModel` -- a commuting positive pair (A, B) standing for
  (|Q|, |E|), diagonal or dense, held with its joint eigenvalues.
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
from typing import Sequence

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
from .jointspec import DEDUP_TOL, JointSpectrum
from .linalg import DEFAULT_EPS, adjoint, as_matrix, opnorm

_COORD_FLOOR = 1e-10  # roundoff negatives this small are clamped to zero


@dataclass(frozen=True, eq=False)
class PairModel:
    """Commuting positive pair (A, B) with its joint eigenvalues ``a``, ``b`` (paired by index).

    ``a``, ``b`` are a diagonal pair's entries, or what the one joint
    diagonalization of :meth:`from_matrices` gives; ``A``, ``B`` hold a dense
    pair's matrices (None for a diagonal pair).
    """

    a: tuple[float, ...]
    b: tuple[float, ...]
    A: np.ndarray | None = None
    B: np.ndarray | None = None

    @property
    def is_diagonal(self) -> bool:
        return self.A is None

    @property
    def dim(self) -> int:
        return len(self.a)

    @classmethod
    def from_diagonal(cls, a: Sequence[float], b: Sequence[float]) -> "PairModel":
        """A diagonal pair; its entries pass the spectrum's coordinate rule at ``_COORD_FLOOR``."""
        if len(a) != len(b):
            raise DimensionMismatch(f"diagonals have lengths {len(a)} and {len(b)}")
        if not len(a):
            raise ValueError("a commuting pair needs at least one dimension")
        av, bv = jointspec.clamped_columns((a, b), _COORD_FLOOR, ("diagonal entry",) * 2).tolist()
        return cls(a=tuple(av), b=tuple(bv))

    @classmethod
    def from_matrices(cls, a, b, eps: float = DEFAULT_EPS) -> "PairModel":
        """A dense pair, tested (Hermitian, commuting, PSD) and diagonalized once at ``eps``."""
        A, B = as_matrix(a), as_matrix(b)
        _, avals, bvals = linalg.simultaneous_diagonalize(A, B, eps)
        for name, w in (("A", avals), ("B", bvals)):
            if not linalg.psd_spectrum(w, eps):
                raise NotPositiveSemidefinite(f"{name} is not PSD within {eps:g} * (1 + |{name}|)")
        return cls(tuple(np.maximum(avals, 0.0).tolist()), tuple(np.maximum(bvals, 0.0).tolist()),
                   A, B)

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
    1..levels of E.  The norms of Q and of the tall blocks come from their
    small Gram matrices, ``|X| = sqrt(lambda_max(X*X))``.
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
    ne, nq = _gram_norm(gram), _gram_norm(qq)
    checks = (
        AxiomCheck("v_isometry", r_iso, eps),
        AxiomCheck("ve_orthogonal", r_orth, eps * (1.0 + ne)),
        AxiomCheck("q_gram_commute", r_gram, eps * (1.0 + nq * ne * ne)),
        AxiomCheck("q_quasinormal", r_quasi, eps * (1.0 + nq ** 3)),
    )
    return ClassQReport(checks, all(c.passed for c in checks))


def build_from_pair(pair: PairModel, levels: int, eps: float = DEFAULT_EPS) -> ShiftEmbedding:
    """Embed a commuting positive pair as a shift model with Q := A, E := [B; 0].

    B fills layer 0, so ``|E| = B`` and no matrix is factored; the layer
    width equals dim H2, so the built model always has ``width == d``.  The
    pair was tested when it was made; ``eps`` is accepted and not used.
    """
    if levels < 1:
        raise ValueError("need at least one interior layer")
    d = pair.dim
    a, b = pair.matrices()
    e = np.vstack([b, np.zeros((levels * d, d), dtype=complex)])
    return ShiftEmbedding(levels, d, e, np.array(a, dtype=complex))


def realize_spectrum(gamma, levels: int) -> ShiftEmbedding:
    """Shift embedding whose modulus pair has joint spectrum ``gamma``.

    ``gamma`` may be a :class:`JointSpectrum` or an iterable of ``(s, t)``
    pairs / :class:`SpectralPoint`; multiplicities (whole numbers >= 1) are
    realized by repetition, in the input order.
    """
    rows = [jointspec._row(p) for p in gamma]
    s, t, _, mult = zip(*rows) if rows else ((),) * 4
    mult = jointspec._counts(mult)
    if not s:
        raise EmptyGamma("cannot realize an empty spectrum")
    return build_from_pair(PairModel.from_diagonal(np.repeat(s, mult), np.repeat(t, mult)), levels)


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
        a, b = model.matrices()
        return adjoint(b) @ b, adjoint(a) @ a
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
    s, t, mult = zip(*((at.s, at.t, at.mult) for at in m.atoms))
    kernel = [(at.s, at.t, 0.0, at.mult) for at in m.atoms  # the 0 in the spectrum of |Q*|
              if at.kind is AtomKind.SHIFT and at.s > dedup_tol]
    ks, kt, kr, km = zip(*kernel) if kernel else ((),) * 4
    return (JointSpectrum.from_arrays(s, t, None, mult, dedup_tol),
            JointSpectrum.from_arrays(s + ks, t + kt, s + kr, mult + km, dedup_tol))
