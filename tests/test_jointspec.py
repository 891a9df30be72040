"""Finite joint spectra: construction, maps, radii, projections, CSV."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbs
from qbs import jointspec
from qbs.errors import EmptySpectrum, ImageOutsideQuadrant, NegativeCoordinate


def test_points_are_deduplicated_and_sorted():
    sigma = qbs.JointSpectrum(((1.0, 0.5), (0.2, 0.1), (1.0, 0.5 + 1e-12)))
    assert [(p.s, p.t, p.mult) for p in sigma.points] == [(0.2, 0.1, 1), (1.0, 0.5, 2)]


def test_roundoff_negatives_are_clamped():
    sigma = qbs.JointSpectrum(((-1e-12, 0.3),))
    assert sigma.points[0].s == 0.0


def test_negative_coordinate_raises():
    with pytest.raises(NegativeCoordinate):
        qbs.JointSpectrum(((-0.5, 0.3),))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_coordinate_raises(bad):
    with pytest.raises(ValueError):
        qbs.JointSpectrum(((float(bad), 0.3),))
    with pytest.raises(ValueError):
        qbs.JointSpectrum((qbs.SpectralPoint(0.5, 0.3, float(bad)),))
    with pytest.raises(ValueError):
        qbs.spectrum_from_csv(f"s,t,mult\n0.5,{bad},1\n")


def test_mixed_r_presence_rejected():
    with pytest.raises(ValueError):
        qbs.JointSpectrum((qbs.SpectralPoint(1.0, 0.0, 1.0), qbs.SpectralPoint(0.5, 0.5)))


def test_nonpositive_multiplicity_rejected():
    with pytest.raises(ValueError):
        qbs.JointSpectrum((qbs.SpectralPoint(1.0, 0.0, None, 0),))


def test_joint_spectrum_of_diagonal_pair():
    pair = qbs.PairModel.from_diagonal([0.6, 2.0], [0.8, 0.0])
    sigma = qbs.joint_spectrum(pair)
    assert [(p.s, p.t) for p in sigma.points] == [(0.6, 0.8), (2.0, 0.0)]


def test_joint_spectrum_of_matrix_pair_and_embedding():
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = u @ np.diag([0.3, 0.7, 1.4]) @ u.T
    b = u @ np.diag([0.5, 0.2, 0.9]) @ u.T
    pair = qbs.PairModel.from_matrices(a, b)
    sigma = qbs.joint_spectrum(pair)
    got = sorted((round(p.s, 9), round(p.t, 9)) for p in sigma.points)
    assert got == [(0.3, 0.5), (0.7, 0.2), (1.4, 0.9)]
    emb = qbs.build_from_pair(pair, levels=2)
    sigma2 = qbs.joint_spectrum(emb)
    got2 = sorted((round(p.s, 9), round(p.t, 9)) for p in sigma2.points)
    assert got2 == got


def test_joint_spectrum_rejects_other_inputs():
    with pytest.raises(TypeError):
        qbs.joint_spectrum(object())


def test_spectral_map_squares_and_merges():
    sigma = qbs.JointSpectrum(((0.5, 0.3), (0.5, 0.3 + 5e-9), (1.0, 0.0)))
    image = qbs.spectral_map(sigma, lambda s, t: (s * s, 2 * t))
    assert [(p.s, p.t, p.mult) for p in image.points] == [(0.25, 0.6, 2), (1.0, 0.0, 1)]


def test_spectral_map_rejects_quadrant_escape():
    sigma = qbs.JointSpectrum(((0.5, 0.3),))
    with pytest.raises(ImageOutsideQuadrant):
        qbs.spectral_map(sigma, lambda s, t: (s - 1.0, t))


def test_spectral_map_drops_r():
    sigma = qbs.JointSpectrum((qbs.SpectralPoint(1.0, 1.0, 1.0),))
    image = qbs.spectral_map(sigma, lambda s, t: (s, t))
    assert not image.has_r


def test_radii():
    sigma = qbs.JointSpectrum(((0.6, 0.8), (2.0, 0.0)))
    assert qbs.radius(sigma) == pytest.approx(2.0)
    assert qbs.inner_radius(sigma) == pytest.approx(1.0)
    empty = qbs.JointSpectrum(())
    with pytest.raises(EmptySpectrum):
        qbs.radius(empty)
    with pytest.raises(EmptySpectrum):
        qbs.inner_radius(empty)


def test_union_adds_multiplicities_and_widens_tolerance():
    s1 = qbs.JointSpectrum(((1.0, 0.0),), dedup_tol=1e-8)
    s2 = qbs.JointSpectrum(((1.0, 0.0), (0.5, 0.5)), dedup_tol=1e-6)
    u = qbs.union(s1, s2)
    assert u.dedup_tol == 1e-6
    assert [(p.s, p.t, p.mult) for p in u.points] == [(0.5, 0.5, 1), (1.0, 0.0, 2)]


def test_product_vanishes():
    assert qbs.product_vanishes(qbs.JointSpectrum(((1.0, 0.0), (0.0, 0.7))))
    assert not qbs.product_vanishes(qbs.JointSpectrum(((0.5, 0.5),)))


def test_projections_deduplicate_coordinates():
    sigma = qbs.JointSpectrum(((0.5, 0.3), (0.5, 0.7), (1.0, 0.3)))
    s_vals, t_vals = qbs.projections(sigma)
    assert s_vals == (0.5, 1.0)
    assert t_vals == (0.3, 0.7)


def test_csv_round_trip_with_and_without_r():
    plain = qbs.JointSpectrum(((0.6, 0.8), (2.0, 0.0)))
    assert qbs.spectrum_from_csv(qbs.spectrum_to_csv(plain)).points == plain.points
    with_r = qbs.JointSpectrum((qbs.SpectralPoint(1.0, 1.0, 0.0, 2),
                                qbs.SpectralPoint(1.0, 1.0, 1.0)))
    back = qbs.spectrum_from_csv(qbs.spectrum_to_csv(with_r))
    assert back.points == with_r.points


def test_csv_rejects_unknown_header():
    with pytest.raises(ValueError):
        qbs.spectrum_from_csv("x,y\n1,2\n")


@settings(deadline=None, max_examples=50)
@given(st.lists(st.tuples(st.floats(0, 4), st.floats(0, 4)), min_size=1, max_size=8))
def test_construction_is_idempotent_and_radius_dominates(points):
    sigma = qbs.JointSpectrum(tuple(points))
    again = qbs.JointSpectrum(sigma.points, sigma.dedup_tol)
    assert again.points == sigma.points
    assert qbs.radius(sigma) >= qbs.inner_radius(sigma)
    assert qbs.radius(sigma) == pytest.approx(max(math.hypot(s, t) for s, t in points), abs=1e-7)
