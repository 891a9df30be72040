"""Dense Hermitian kernels: moduli, PSD tests, joint diagonalization.

Matrices are numpy arrays with complex entries.  Tolerances default to
``DEFAULT_EPS`` and can be overridden per call.  A test on one matrix allows
``eps * (1 + |H|)``, a commutator test ``eps * (1 + |A||B|)``; the norms of
Hermitian matrices are read off eigenvalues the test already has.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import CommutatorTooLarge, NonHermitianInput

log = logging.getLogger(__name__)

DEFAULT_EPS = 1e-9

# Negative eigenvalues of nominally PSD matrices at least this small
# (relative to scale) are roundoff and are zeroed quietly; anything worse is
# zeroed too but logged loudly, since it means the input was not PSD.
_CLAMP_FLOOR = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite two-dimensional complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    return np.conjugate(np.asarray(m).T)


def opnorm(m) -> float:
    """Operator (largest singular value) norm."""
    a = np.asarray(m, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _sym(a: np.ndarray) -> np.ndarray:
    return (a + adjoint(a)) / 2.0


def hermitian_defect(m) -> float:
    a = as_matrix(m)
    return opnorm(a - adjoint(a))


def _hermitian_norm(a: np.ndarray, w: np.ndarray, eps: float, what: str) -> float:
    """``|a|`` read off its eigenvalues ``w``, once ``|a - a*| <= eps * (1 + |a|)`` holds."""
    norm = float(np.max(np.abs(w), initial=0.0))
    if hermitian_defect(a) > eps * (1.0 + norm):
        raise NonHermitianInput(f"{what} is not Hermitian within tolerance")
    return norm


def require_commuting(comm: float, norm_a: float, norm_b: float, eps: float) -> None:
    """Raise :class:`CommutatorTooLarge` when ``|ab - ba| = comm > eps * (1 + |a||b|)``."""
    if comm > eps * (1.0 + norm_a * norm_b):
        raise CommutatorTooLarge(f"commutator norm exceeds {eps:g} * (1 + |A||B|)")


def clamp_spectrum(values: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Zero negative eigenvalues; roundoff stays quiet, real violations are logged."""
    w = np.array(values, dtype=float)
    neg = w < 0.0
    if neg.any():
        worst = float(w.min())
        if worst < -_CLAMP_FLOOR * scale:
            log.warning("clamping negative eigenvalue %.3e to 0 (scale %.3e)", worst, scale)
        else:
            log.debug("clamping roundoff eigenvalue %.3e to 0", worst)
        w[neg] = 0.0
    return w


@dataclass(frozen=True, eq=False)
class HermitianEig:
    """Eigenvalues in ascending order with a matching unitary column basis."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h, eps: float = DEFAULT_EPS) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises :class:`NonHermitianInput` when the defect ``|H - H*|`` exceeds
    ``eps * (1 + |H|)``.  The matrix is symmetrized before factoring so the
    output is exactly Hermitian data.
    """
    a = as_matrix(h)
    w, u = np.linalg.eigh(_sym(a))
    _hermitian_norm(a, w, eps, "matrix")
    return HermitianEig(w, u)


def modulus(m, eps: float = DEFAULT_EPS) -> np.ndarray:
    """``|M| = (M*M)^(1/2)``, Hermitian PSD, for any rectangular ``M``."""
    a = as_matrix(m)
    eig = hermitian_eig(adjoint(a) @ a, eps)
    w = clamp_spectrum(eig.eigenvalues, scale=1.0 + np.max(np.abs(eig.eigenvalues), initial=0.0))
    u = eig.eigenvectors
    return _sym((u * np.sqrt(w)) @ adjoint(u))


def min_eigenvalue(h) -> float:
    a = as_matrix(h)
    return float(np.linalg.eigvalsh(_sym(a))[0])


def psd_norm(h, eps: float = DEFAULT_EPS) -> float | None:
    """``|H|`` when the smallest eigenvalue is at least ``-eps * (1 + |H|)``, else None."""
    a = as_matrix(h)
    w = np.linalg.eigvalsh(_sym(a))
    norm = _hermitian_norm(a, w, eps, "PSD test input")
    return norm if w[0] >= -eps * (1.0 + norm) else None


def is_psd(h, eps: float = DEFAULT_EPS) -> bool:
    """True when :func:`psd_norm` accepts ``h``: relative, ``eps * (1 + |H|)``."""
    return psd_norm(h, eps) is not None


def _refine(u: np.ndarray, values: np.ndarray, w: np.ndarray,
            gap: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Rotate a basis ``u`` (``a = u diag(values) u*``, ``w = u* b u``) to a joint eigenbasis.

    Returns the basis (or the image of it ``u`` was passed as), ``values``
    refined per cluster (gap ``gap``) as Rayleigh quotients, the eigenvalues
    of ``w``'s compressions and ``|ab - ba|``.
    """
    u = np.array(u, dtype=complex)
    first = np.array(values, dtype=float)
    comm = opnorm(first[:, None] * w - w * first)
    second = np.real(np.diagonal(w)).copy()
    cuts = np.flatnonzero(np.diff(first) > gap) + 1
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(first)]):
        if hi - lo > 1:
            second[lo:hi], v = np.linalg.eigh(_sym(w[lo:hi, lo:hi]))
            first[lo:hi] = (np.abs(v) ** 2).T @ first[lo:hi]
            u[:, lo:hi] = u[:, lo:hi] @ v
    return u, first, second, comm


def simultaneous_diagonalize(
    a, b, eps: float = DEFAULT_EPS
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint unitary diagonalization of a commuting Hermitian pair.

    Returns ``(u, avals, bvals)`` with ``u* a u = diag(avals)`` and
    ``u* b u = diag(bvals)``.  Eigenvalues of ``a`` at most
    ``1e-8 * (1 + |a|)`` apart form a cluster, resolved by the compression of
    ``b``.  Raises :class:`NonHermitianInput` or :class:`CommutatorTooLarge`
    when a test of the module docstring fails.
    """
    A = as_matrix(a)
    B = as_matrix(b)
    if A.shape != B.shape or A.shape[0] != A.shape[1]:
        raise ValueError("expected square matrices of equal shape")
    w, u = np.linalg.eigh(_sym(A))
    norm_a = _hermitian_norm(A, w, eps, "first matrix")
    u, avals, bvals, comm = _refine(u, w, adjoint(u) @ B @ u, 1e-8 * (1.0 + norm_a))
    require_commuting(comm, norm_a, _hermitian_norm(B, bvals, eps, "second matrix"), eps)
    return u, avals, bvals


def modulus_pair_spectrum(q, e, eps: float = DEFAULT_EPS) -> tuple[np.ndarray, np.ndarray]:
    """Joint spectrum ``(s, t)`` of ``(|Q|, |E|)``, read from the Gram pair ``(Q*Q, E*E)``.

    No modulus is formed.  The SVD ``Q = X diag(s) Y*`` gives ``s`` (roots of
    eigenvalues of ``Q*Q`` would lift a zero to about ``1e-8 |Q|``) and the
    basis ``Y``; clusters of ``s`` (gap ``1e-8 * (1 + |Q|)``) are resolved by
    compressions of ``E*E``, and ``t = |E u|`` on the joint basis ``u``.  The
    guard is ``[|Q|, E*E] = |E| C + C |E|`` with ``C = [|Q|, |E|]``, held to
    the modulus pair's bound times ``|E|``: :class:`CommutatorTooLarge` when
    it exceeds ``eps * (1 + |Q||E|) * |E|``.
    """
    _, sv, vh = np.linalg.svd(as_matrix(q))
    ey = as_matrix(e) @ adjoint(vh)[:, ::-1]
    eu, s, _, comm = _refine(ey, sv[::-1], as_matrix(adjoint(ey) @ ey), 1e-8 * (1.0 + sv[0]))
    t = np.linalg.norm(eu, axis=0)
    require_commuting(comm, sv[0], t.max(), eps * t.max())
    return s, t
