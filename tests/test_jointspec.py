"""Finite joint spectra: construction, maps, radii, projections, CSV."""

import itertools
import math
import time

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


def test_multiplicities_beyond_int64_rejected():
    big = qbs.SpectralPoint(1.0, 0.0, None, 2 ** 62)
    with pytest.raises(ValueError):
        qbs.JointSpectrum((big, big))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-8])
def test_bad_dedup_tolerance_rejected(bad):
    with pytest.raises(ValueError):
        qbs.JointSpectrum(((0.5, 0.5),), dedup_tol=bad)


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
    # a chain of steps within dedup_tol is one value, kept at its smallest
    chain = qbs.JointSpectrum(((0.5, 0.1), (0.5 + 0.6e-8, 0.5), (0.5 + 1.2e-8, 0.9)))
    assert qbs.projections(chain) == ((0.5,), (0.1, 0.5, 0.9))


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


# -- the merge rule -------------------------------------------------------------

_UNIT = 2.0 ** -30
_TOL = 4 * _UNIT  # dyadic, so differences of the drawn coordinates are exact


@st.composite
def _points(draw):
    """Points in two clumps a few _TOL wide: chains, exact duplicates, pairs _TOL apart."""
    dims = draw(st.sampled_from([2, 3]))
    point = st.tuples(st.sampled_from([0.0, 0.5]), st.lists(st.integers(0, 10), min_size=dims,
                                                             max_size=dims), st.integers(1, 3))
    rows = draw(st.lists(point, max_size=14))
    rows += draw(st.sampled_from([[], rows[:2]]))  # exact duplicates
    out = []
    for base, ks, mult in rows:
        coords = [base + k * _UNIT for k in ks] + [None] * (3 - dims)
        out.append(qbs.SpectralPoint(*coords, mult))
    return out


def _single_linkage(points, tol):
    """Reference merge: pairwise Chebyshev links, then a search for connected points."""
    coords = [p.coords() for p in points]
    seen = [False] * len(points)
    out = []
    for start in range(len(points)):
        if seen[start]:
            continue
        seen[start] = True
        cluster, stack = [start], [start]
        while stack:
            i = stack.pop()
            for j in range(len(points)):
                if not seen[j] and max(abs(a - b) for a, b in zip(coords[i], coords[j])) <= tol:
                    seen[j] = True
                    cluster.append(j)
                    stack.append(j)
        out.append((min(coords[i] for i in cluster), sum(points[i].mult for i in cluster)))
    return sorted(out)


@settings(deadline=None, max_examples=300)
@given(_points())
def test_merge_is_single_linkage_keeping_the_lexicographic_minimum(points):
    sigma = qbs.JointSpectrum(tuple(points), _TOL)
    assert [(p.coords(), p.mult) for p in sigma.points] == _single_linkage(points, _TOL)
    assert sigma.s.tolist() == [p.s for p in sigma.points]
    assert sigma.t.tolist() == [p.t for p in sigma.points]
    assert sigma.mult.tolist() == [p.mult for p in sigma.points]
    assert (sigma.r is None) == (not points or points[0].r is None)
    if sigma.r is not None:
        assert sigma.r.tolist() == [p.r for p in sigma.points]


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_merge_does_not_depend_on_input_order(data):
    points = data.draw(_points())
    shuffled = data.draw(st.permutations(points))
    want = qbs.JointSpectrum(tuple(points), _TOL).points
    assert qbs.JointSpectrum(tuple(shuffled), _TOL).points == want


_edges = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=20), max_size=6)))


@settings(deadline=None, max_examples=200)
@given(_edges)
def test_join_maps_each_row_to_the_smallest_row_of_its_cluster(case):
    n, batches = case
    root = np.arange(n)
    label = list(range(n))  # reference: the smallest row of each cluster
    for batch in batches:
        a = np.array([i for i, _ in batch], dtype=np.intp)
        b = np.array([j for _, j in batch], dtype=np.intp)
        root = jointspec._join(root, a, b)
        for i, j in batch:
            old, new = max(label[i], label[j]), min(label[i], label[j])
            label = [new if k == old else k for k in label]
        assert root.tolist() == label


def test_merged_verdict_does_not_depend_on_input_order():
    first, second = (1.0, 0.0), (1.000000002, 1e-8)
    for pts in ((first, second), (second, first)):
        sigma = qbs.JointSpectrum(pts)
        assert [(p.s, p.t, p.mult) for p in sigma.points] == [(1.0, 0.0, 2)]
        assert qbs.classify(sigma, qbs.SUBNORMAL).verdict


def test_a_chain_merges_into_one_point_in_every_order():
    chain = ((0.5, 0.3), (0.5 + 0.6e-8, 0.3), (0.5 + 1.2e-8, 0.3))
    for order in itertools.permutations(chain):
        sigma = qbs.JointSpectrum(order)
        assert [(p.s, p.t, p.mult) for p in sigma.points] == [(0.5, 0.3, 3)]


@pytest.mark.parametrize("shape", ["identical", "one s", "random"])
def test_construction_of_4000_points_is_not_quadratic(shape):
    # an O(n^2) merge in pure Python takes 10-15 s on each shape; 2 s leaves room for a slow host
    rng = np.random.default_rng(11)
    n = 4000
    if shape == "identical":
        pts = [(0.5, 0.25)] * n
    elif shape == "one s":
        pts = [(0.5, t) for t in rng.uniform(0.0, 1.0, n).tolist()]
    else:
        pts = [tuple(p) for p in rng.uniform(0.0, 1.0, (n, 2)).tolist()]
    start = time.perf_counter()
    sigma = qbs.JointSpectrum(tuple(pts))
    assert time.perf_counter() - start < 2.0
    assert sum(p.mult for p in sigma.points) == n
