"""Finite joint spectra: construction, maps, radii, projections, CSV."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbs
from qbs import io as model_io
from qbs import jointspec, linalg
from qbs.errors import (CommutatorTooLarge, EmptySpectrum, ImageOutsideQuadrant,
                        NegativeCoordinate)
from test_regions import _EVERY_REGION


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


def test_multiplicities_must_be_whole_numbers():
    with pytest.raises(ValueError, match="whole"):
        qbs.JointSpectrum((qbs.SpectralPoint(0.5, 0.5, None, 2.5),
                           qbs.SpectralPoint(0.7, 0.1, None, 1.5)))
    with pytest.raises(ValueError, match="whole"):
        qbs.realize_spectrum([qbs.SpectralPoint(0.5, 0.5, None, 1.5)], 2)
    with pytest.raises(ValueError, match="whole"):
        qbs.JointSpectrum.from_arrays([0.5], [0.5], mult=[math.inf])
    with pytest.raises(ValueError, match="1 multiplicities for 2 points"):
        qbs.JointSpectrum.from_arrays([0.5, 0.6], [0.1, 0.2], mult=[1])
    # whole floats and numpy integers are multiplicities
    sigma = qbs.JointSpectrum((qbs.SpectralPoint(0.5, 0.5, None, 2.0),
                               qbs.SpectralPoint(0.7, 0.1, None, np.int64(3))))
    assert [(p.mult, type(p.mult)) for p in sigma] == [(2, int), (3, int)]
    assert qbs.realize_spectrum(sigma.points, 1).width == 5


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


# -- the Gram route ----------------------------------------------------------------

_GRID = 1e-3  # distinct drawn values lie this far apart, far outside the merge tolerance
_RUN = 1e-5  # the spacing of runs of tiny s: on s^2 these runs would share one cluster


def _modulus_route(emb):
    """Reference route: both moduli, then a joint diagonalization of the dense pair."""
    _, s, t = linalg.simultaneous_diagonalize(linalg.modulus(emb.Q), linalg.modulus(emb.E))
    return qbs.JointSpectrum(tuple(zip(s.tolist(), t.tolist())))


@st.composite
def _block_embeddings(draw):
    """Embeddings whose H2 is a sum of blocks, each mixed by its own random unitary.

    A block shares one t (possibly 0) and holds either one repeated s
    (possibly 0) or a run of tiny s spaced _RUN apart.  Q carries random
    phases, and so does v_scale.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grid = st.integers(0, 2000).map(lambda k: k * _GRID)
    s_vals, t_vals, sizes = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.integers(1, 3))
        if draw(st.booleans()):
            s_vals += [draw(grid)] * m
        else:
            first = draw(st.integers(0, 3))
            s_vals += [(first + k) * _RUN for k in range(m)]
        t_vals += [draw(grid)] * m
        sizes.append(m)
    d = len(s_vals)
    u = np.zeros((d, d), dtype=complex)
    at = 0
    for m in sizes:
        z = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        u[at:at + m, at:at + m] = np.linalg.qr(z)[0]
        at += m
    s, t = np.array(s_vals), np.array(t_vals)
    q = s * np.exp(2j * np.pi * rng.uniform(size=d))
    levels = draw(st.integers(1, 3))
    e = np.zeros(((levels + 1) * d, d), dtype=complex)
    e[:d] = t[:, None] * u.conj().T
    return qbs.ShiftEmbedding(levels, d, e, (u * q) @ u.conj().T,
                              complex(np.exp(2j * np.pi * rng.uniform())))


def _rows(sigma):
    """Points and multiplicities in an order that roundoff in the last bits cannot change."""
    order = np.lexsort((np.round(sigma.t, 9), np.round(sigma.s, 9)))
    return np.column_stack([sigma.s, sigma.t])[order], sigma.mult[order].tolist()


@settings(deadline=None, max_examples=200)
@given(_block_embeddings())
def test_gram_route_matches_the_modulus_route(emb):
    (got, got_mult), (want, want_mult) = _rows(qbs.joint_spectrum(emb)), _rows(_modulus_route(emb))
    assert got_mult == want_mult
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_zero_coordinates_in_a_mixed_basis_stay_at_roundoff():
    # square roots of Gram eigenvalues would put each 0 near 1e-8 and split its points
    s = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    t = np.array([0.0, 1.5, 0.0, 1.5, 0.0, 1.5])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
        e = np.zeros((12, 6), dtype=complex)
        e[:6] = t[:, None] * u.conj().T
        points, mult = _rows(qbs.joint_spectrum(qbs.ShiftEmbedding(1, 6, e, (u * s) @ u.conj().T)))
        assert mult == [1] * 6
        np.testing.assert_allclose(points, sorted(zip(s, t)), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e-3, 3e-4, 1e3])
def test_non_commuting_embedding_is_rejected(scale):
    # the modulus pair's test rejects every scale: the guard on [|Q|, E*E] scales as it does
    e = np.zeros((4, 2), dtype=complex)
    e[:2] = scale * np.array([[1.0, 1.0], [0.0, 0.0]])  # E*E is a multiple of the all-ones matrix
    emb = qbs.ShiftEmbedding(1, 2, e, scale * np.diag([1.0, 2.0]))
    a, b = linalg.modulus(emb.Q), linalg.modulus(emb.E)
    assert linalg.opnorm(a @ b - b @ a) > 1e-9 * (1.0 + linalg.opnorm(a) * linalg.opnorm(b))
    with pytest.raises(CommutatorTooLarge):
        qbs.joint_spectrum(emb)


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


def _grid_single_linkage(x, mult, tol):
    """Reference merge for thousands of points: union-find over Chebyshev links.

    Two points within ``tol`` lie in the same or in neighbouring cells of a
    grid 2 tol wide, so only those pairs are tested.
    """
    coords = list(zip(*x.tolist()))
    cells = {}
    for i, c in enumerate(coords):
        cells.setdefault(tuple(math.floor(v / (2 * tol)) for v in c), []).append(i)
    root = list(range(len(coords)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for cell, here in cells.items():
        for step in itertools.product((-1, 0, 1), repeat=len(cell)):
            for j in cells.get(tuple(c + d for c, d in zip(cell, step)), ()):
                for i in here:
                    if max(abs(a - b) for a, b in zip(coords[i], coords[j])) <= tol:
                        root[find(i)] = find(j)
    clusters = {}
    for i in range(len(coords)):
        clusters.setdefault(find(i), []).append(i)
    return sorted((min(coords[i] for i in c), sum(mult[i] for i in c)) for c in clusters.values())


@pytest.mark.parametrize("crowded", [0, 1])
def test_merge_of_thousands_of_points_is_single_linkage(crowded):
    # 1,000 chains of four points, each step within tol, all within a few tol
    # along the crowded coordinate, plus 500 exact duplicates
    rng = np.random.default_rng([17, crowded])
    tol = jointspec.DEDUP_TOL
    walk = np.empty((2, 1000))
    walk[crowded] = 0.5 + rng.integers(0, 4, 1000) * tol
    walk[1 - crowded] = rng.uniform(0.25, 0.25 + 1e-4, 1000)
    chains = [walk]
    for _ in range(3):
        walk = walk + rng.uniform(-0.9, 0.9, walk.shape) * tol
        chains.append(walk)
    x = np.concatenate(chains, axis=1)
    x = np.concatenate([x, x[:, rng.integers(0, x.shape[1], 500)]], axis=1)
    mult = rng.integers(1, 4, x.shape[1])
    sigma = qbs.JointSpectrum.from_arrays(x[0], x[1], mult=mult)
    want = _grid_single_linkage(x, mult.tolist(), tol)
    assert list(zip(zip(sigma.s.tolist(), sigma.t.tolist()), sigma.mult.tolist())) == want
    assert 1 < len(sigma) < 1000  # some chains joined, and no crowd collapsed into one point


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


# -- the array entry --------------------------------------------------------


@st.composite
def _columns(draw):
    """Columns with or without r: exact duplicates, and copies jittered by 1e-9."""
    dims = draw(st.sampled_from([2, 3]))
    point = st.tuples(st.lists(st.floats(0.0, 2.0), min_size=dims, max_size=dims),
                      st.integers(1, 3))
    rows = draw(st.lists(point, min_size=1, max_size=12))
    copies = draw(st.lists(st.tuples(st.sampled_from(rows), st.sampled_from([0.0, 1e-9, -1e-9])),
                           max_size=6))
    rows += [([c + d for c in coords], m) for (coords, m), d in copies]
    cols = [np.array(c) for c in zip(*(coords for coords, _ in rows))]
    return cols, np.array([m for _, m in rows])


def _point_json(p) -> dict:
    """The JSON of one point, encoded point by point."""
    doc = {"s": qbs.jointspec.format_float(p.s), "t": qbs.jointspec.format_float(p.t)}
    if p.r is not None:
        doc["r"] = qbs.jointspec.format_float(p.r)
    if p.mult != 1:
        doc["mult"] = p.mult
    return doc


@settings(deadline=None, max_examples=150)
@given(_columns(), st.sampled_from([1e-9, 1e-3]))
def test_the_array_entry_matches_the_point_path(columns, eps):
    cols, mult = columns
    r = cols[2] if len(cols) == 3 else None
    sigma = qbs.JointSpectrum.from_arrays(cols[0], cols[1], r, mult)
    rs = [None] * len(mult) if r is None else r.tolist()
    points = map(qbs.SpectralPoint, cols[0].tolist(), cols[1].tolist(), rs, mult.tolist())
    assert sigma.points == qbs.JointSpectrum(tuple(points)).points
    for region in _EVERY_REGION:
        report = qbs.classify(sigma, region, eps)
        want = [qbs.region_membership(p, region, eps) for p in sigma.points]
        assert [qbs.regions.STATUSES[k] for k in report.status.tolist()] == want, region
        assert [st for _, st in report.per_point] == want, region
        outside = tuple(p for p, st in zip(sigma.points, want) if st == "outside")
        assert report.violators.points == outside and report.verdict == (not outside), region
    # key order is part of the output, so the documents are compared as JSON text
    got = json.dumps(model_io.points_to_json(sigma))
    assert got == json.dumps([_point_json(p) for p in sigma.points])
