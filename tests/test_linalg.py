"""Hermitian primitives: moduli, PSD tests, joint diagonalization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbs import linalg
from qbs.errors import CommutatorTooLarge, NonHermitianInput


def test_opnorm_matches_largest_singular_value():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 6))
    assert linalg.opnorm(m) == pytest.approx(np.linalg.svd(m, compute_uv=False)[0])


def test_modulus_of_nilpotent_block():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    np.testing.assert_allclose(linalg.modulus(m), np.diag([0.0, 2.0]), atol=1e-12)


def test_modulus_spectrum_is_singular_values():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mod = linalg.modulus(m)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(mod)),
                               np.sort(np.linalg.svd(m, compute_uv=False)),
                               atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10**6))
def test_modulus_is_psd_and_norm_preserving(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mod = linalg.modulus(m)
    assert linalg.hermitian_defect(mod) <= 1e-12
    assert linalg.min_eigenvalue(mod) >= -1e-10
    assert linalg.opnorm(mod) == pytest.approx(linalg.opnorm(m), abs=1e-9)


def test_hermitian_eig_rejects_skew_input():
    with pytest.raises(NonHermitianInput):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(11)
    h = rng.normal(size=(4, 4))
    h = h + h.T
    eig = linalg.hermitian_eig(h)
    u, vals = eig.eigenvectors, eig.eigenvalues
    np.testing.assert_allclose(u @ np.diag(vals) @ u.conj().T, h, atol=1e-12)


def test_is_psd_judgments():
    assert linalg.is_psd(np.eye(3))
    assert not linalg.is_psd(np.diag([1.0, -1.0]))
    # roundoff-scale negativity is tolerated
    assert linalg.is_psd(np.diag([1.0, -1e-12]), eps=1e-9)


def test_is_psd_tolerance_is_relative_to_the_norm():
    # at |H| = 1e6 the tolerance is eps * (1 + 1e6), about 1e-3
    assert linalg.is_psd(np.diag([1e6, -1e-4]))
    assert not linalg.is_psd(np.diag([1e6, -1e-2]))
    assert linalg.is_psd(np.array([[1e6, 1e-4], [0.0, 1.0]]))
    with pytest.raises(NonHermitianInput):
        linalg.is_psd(np.array([[1e6, 1e-2], [0.0, 1.0]]))


def test_clamp_spectrum_zeroes_roundoff_negatives():
    out = linalg.clamp_spectrum(np.array([-1e-12, 0.5]))
    assert out[0] == 0.0 and out[1] == 0.5
    # a genuinely negative value is still clamped, with a warning on the log
    assert linalg.clamp_spectrum(np.array([-0.3]))[0] == 0.0


def test_simultaneous_diagonalize_shared_eigenbasis():
    rng = np.random.default_rng(5)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    avals = np.array([0.2, 0.2, 0.7, 1.3])  # repeated block exercises clustering
    bvals = np.array([0.9, 0.1, 0.5, 0.4])
    a = u @ np.diag(avals) @ u.T
    b = u @ np.diag(bvals) @ u.T
    w, da, db = linalg.simultaneous_diagonalize(a, b)
    np.testing.assert_allclose(w.conj().T @ a @ w, np.diag(da), atol=1e-9)
    np.testing.assert_allclose(w.conj().T @ b @ w, np.diag(db), atol=1e-9)
    assert sorted(np.round(da, 8)) == sorted(avals)
    assert sorted(np.round(db, 8)) == sorted(bvals)


def test_simultaneous_diagonalize_pairs_values_correctly():
    # the (a, b) value pairs must stay attached to the same joint eigenvector
    rng = np.random.default_rng(6)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = u @ np.diag([0.3, 0.7, 1.4]) @ u.T
    b = u @ np.diag([0.5, 0.2, 0.9]) @ u.T
    _, da, db = linalg.simultaneous_diagonalize(a, b)
    got = sorted(zip(np.round(da, 8), np.round(db, 8)))
    assert got == [(0.3, 0.5), (0.7, 0.2), (1.4, 0.9)]


def test_simultaneous_diagonalize_rejects_noncommuting():
    a = np.diag([1.0, 2.0])
    b = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(CommutatorTooLarge):
        linalg.simultaneous_diagonalize(a, b)
