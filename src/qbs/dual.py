"""Cauchy dual of a left-invertible block model.

The dual T' = T(T*T)^(-1) of a shift embedding keeps V and replaces
(E, Q) by (E O^(-1), Q O^(-1)) with O = E*E + Q*Q, which stays in the same
operator class; on spectra the construction acts by the inversion

    psi(s, t) = (s, t) / (s^2 + t^2),

an involution on the punctured quadrant.
"""

from __future__ import annotations

import logging

import numpy as np

from . import jointspec, model
from .errors import NotLeftInvertible
from .jointspec import JointSpectrum
from .linalg import DEFAULT_EPS, adjoint

log = logging.getLogger(__name__)


def cauchy_dual(emb: model.ShiftEmbedding, eps: float = DEFAULT_EPS) -> model.ShiftEmbedding:
    """Dual embedding with E' = E O^(-1), Q' = Q O^(-1), O = E*E + Q*Q.

    Raises :class:`NotLeftInvertible` unless the margin |O^(-1)|^(-1/2)
    exceeds eps.
    """
    # omega() returns Omega_1 exactly Hermitian, so it is factored untested
    w, u = np.linalg.eigh(model.omega(emb, 1))
    lo = float(w[0])
    margin = np.sqrt(max(lo, 0.0))
    if margin <= eps:
        raise NotLeftInvertible(
            f"left-invertibility margin {margin:.3e} is not above {eps:g}"
        )
    log.debug("inverting Omega_1 with condition number %.3e", float(w[-1]) / lo)
    inv = (u / w) @ adjoint(u)
    return model.ShiftEmbedding(emb.levels, emb.width, emb.E @ inv, emb.Q @ inv,
                                emb.v_scale)


def dual_spectral_map(sigma: JointSpectrum) -> JointSpectrum:
    """Image of a spectrum under the dual inversion psi(s,t) = (s,t)/(s^2+t^2)."""
    if not len(sigma) or jointspec.inner_radius(sigma) <= 0.0:
        raise NotLeftInvertible("the dual map needs a spectrum away from the origin")

    def psi(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rr = s * s + t * t
        return s / rr, t / rr

    return jointspec.spectral_map(sigma, psi)
