"""Region tokens, membership logic, classification, Brownian verdicts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbs
from qbs import regions
from qbs.errors import BrownianCriteriaMismatch, EmptySpectrum, NotQuasiBrownian


def _sig(*pts):
    return qbs.JointSpectrum(tuple(pts))


# ------------------------------------------------------------------- tokens

def test_token_parse_round_trip():
    for token in ("subnormal", "contraction", "expansion", "isometry",
                  "two-isometry", "dual-subnormal", "m-contractive:3",
                  "m-expansive:2", "m-isometric:4"):
        assert qbs.RegionId.parse(token).token == token


def test_alias_tokens_resolve_to_canonical_regions():
    che = qbs.RegionId.parse("che")
    assert (che.kind, che.m, che.alias) == (regions.RegionKind.M_EXPANSIVE, 2, "che")
    assert che.token == "m-expansive:2"
    assert qbs.RegionId.parse("chc").kind is regions.RegionKind.CONTRACTION
    assert qbs.RegionId.parse("delta-regular").kind is regions.RegionKind.EXPANSION
    assert qbs.completely_hyperexpansive() == che


def test_token_errors():
    for bad in ("bogus", "m-contractive", "m-contractive:0", "m-expansive:x",
                "subnormal:2"):
        with pytest.raises(ValueError):
            qbs.RegionId.parse(bad)


# --------------------------------------------------------------- membership

def test_membership_statuses_on_reference_points():
    assert qbs.region_membership((0.3, 0.4), qbs.SUBNORMAL) == "inside"
    assert qbs.region_membership((2.0, 0.0), qbs.SUBNORMAL) == "inside"  # axis ray
    assert qbs.region_membership((1.2, 0.3), qbs.SUBNORMAL) == "outside"
    # circle points sit on the frontier; both readings accept them
    assert qbs.region_membership((0.6, 0.8), qbs.CONTRACTION) in ("inside", "boundary")
    assert qbs.region_membership((1.0, 0.0), qbs.ISOMETRY) in ("inside", "boundary")
    assert qbs.region_membership((0.5, 0.5), qbs.ISOMETRY) == "outside"
    assert qbs.region_membership((1.0, 3.0), qbs.TWO_ISOMETRY) == "inside"
    assert qbs.region_membership((2.0, 0.0), qbs.DUAL_SUBNORMAL) == "inside"
    assert qbs.region_membership((0.3, 0.1), qbs.DUAL_SUBNORMAL) == "outside"


def _seed_member(s: float, t: float, region, slack: float) -> bool:
    # the membership rule as first written, one branch per kind and parity;
    # kept as the reference the region table must reproduce
    RegionKind = regions.RegionKind
    k = region.kind
    m = region.m
    rr = s * s + t * t
    disk = rr <= 1.0 + slack
    outside = rr >= 1.0 - slack
    circle = abs(rr - 1.0) <= slack
    axis = t <= slack
    line = abs(s - 1.0) <= slack
    if k is RegionKind.SUBNORMAL:
        return disk or axis
    if k is RegionKind.CONTRACTION:
        return disk
    if k is RegionKind.EXPANSION:
        return outside
    if k is RegionKind.ISOMETRY:
        return circle
    if k is RegionKind.TWO_ISOMETRY:
        return circle or line
    if k is RegionKind.M_CONTRACTIVE:
        if m == 1:
            return disk
        if m % 2 == 1:
            return disk or line
        return disk or s >= 1.0 - slack
    if k is RegionKind.M_EXPANSIVE:
        if m % 2 == 1:
            return outside
        return outside and s <= 1.0 + slack
    if k is RegionKind.M_ISOMETRIC:
        if m == 1:
            return circle
        return circle or line
    if k is RegionKind.DUAL_SUBNORMAL:
        return outside or axis
    raise AssertionError(f"unhandled region kind {k!r}")


_EVERY_REGION = ([qbs.RegionId(k) for k in regions.RegionKind if k not in regions._PARAMETRIC]
                 + [qbs.RegionId(k, m) for k in regions._PARAMETRIC for m in range(1, 9)]
                 + [qbs.RegionId.parse(a) for a in ("che", "chc", "delta-regular")])


def _frontier_points(eps):
    """A 0.05 grid on [0, 2.5]^2 plus points on and next to every frontier."""
    grid = np.arange(51) * 0.05
    pts = [(s, t) for s in grid for t in grid]
    offsets = (0.0, eps / 2, -eps / 2, 2 * eps, -2 * eps)
    for d in offsets:
        for theta in np.linspace(0.0, np.pi / 2, 13):
            r = np.sqrt(1.0 + d)
            pts.append((r * np.cos(theta), r * np.sin(theta)))  # circle
        for x in np.linspace(0.0, 2.5, 11):
            pts.append((1.0 + d, x))  # line s = 1 and both half-planes
            pts.append((x, d))  # axis t = 0
    return [(float(s), float(t)) for s, t in pts]


@pytest.mark.parametrize("eps", [1e-9, 1e-3])
def test_region_table_reproduces_the_seed_rule(eps):
    pts = _frontier_points(eps)
    s = np.array([p[0] for p in pts])
    t = np.array([p[1] for p in pts])
    for region in _EVERY_REGION:
        for slack in (0.0, eps):
            want = [_seed_member(a, b, region, slack) for a, b in pts]
            assert [regions.in_region(a, b, region, slack) for a, b in pts] == want, region
            assert regions.in_region(s, t, region, slack).tolist() == want, region


def test_membership_eps_band_is_boundary():
    just_out = (0.6, 0.8 + 1e-12)
    assert qbs.region_membership(just_out, qbs.CONTRACTION, eps=1e-9) == "boundary"
    assert qbs.region_membership(just_out, qbs.CONTRACTION, eps=1e-15) == "outside"


@pytest.mark.parametrize("m,inside,outside", [
    (1, [(0.3, 0.3), (0.6, 0.8)], [(1.0, 0.4), (1.3, 0.1)]),
    (3, [(0.3, 0.3), (1.0, 0.4), (1.0, 2.0)], [(1.3, 0.1), (0.9, 0.9)]),
    (2, [(0.3, 0.3), (1.0, 0.4), (1.3, 0.1), (1.7, 2.5)], [(0.9, 0.9)]),
])
def test_m_contractive_regions(m, inside, outside):
    region = qbs.m_contractive(m)
    for p in inside:
        assert qbs.region_membership(p, region) != "outside", p
    for p in outside:
        assert qbs.region_membership(p, region) == "outside", p


@pytest.mark.parametrize("m,inside,outside", [
    (1, [(1.3, 0.1), (0.9, 0.9), (1.7, 2.5)], [(0.3, 0.3)]),
    (3, [(1.3, 0.1), (0.9, 0.9)], [(0.3, 0.3), (0.5, 0.1)]),
    (2, [(0.9, 0.9), (1.0, 0.4), (0.2, 1.5)], [(0.3, 0.3), (1.3, 0.1), (1.7, 2.5)]),
])
def test_m_expansive_regions(m, inside, outside):
    region = qbs.m_expansive(m)
    for p in inside:
        assert qbs.region_membership(p, region) != "outside", p
    for p in outside:
        assert qbs.region_membership(p, region) == "outside", p


def test_m_isometric_regions():
    one = qbs.m_isometric(1)
    two = qbs.m_isometric(2)
    assert qbs.region_membership((1.0, 2.0), one) == "outside"
    assert qbs.region_membership((1.0, 2.0), two) == "inside"
    for region in (one, two):
        assert qbs.region_membership((0.6, 0.8), region) != "outside"
        assert qbs.region_membership((0.5, 0.5), region) == "outside"


# ------------------------------------------------------------ classification

def test_classify_reports_violators():
    sigma = _sig((0.3, 0.4), (1.2, 0.3))
    report = qbs.classify(sigma, qbs.CONTRACTION)
    assert not report.verdict
    assert [p.coords() for p in report.violators] == [(1.2, 0.3)]
    statuses = dict((p.coords(), st) for p, st in report.per_point)
    assert statuses[(0.3, 0.4)] == "inside"
    assert statuses[(1.2, 0.3)] == "outside"


def test_classify_empty_spectrum_raises():
    with pytest.raises(EmptySpectrum):
        qbs.classify(qbs.JointSpectrum(()), qbs.SUBNORMAL)


def test_boundary_counts_as_inside_for_the_verdict():
    sigma = _sig((0.6, 0.8))
    assert qbs.classify(sigma, qbs.CONTRACTION).verdict


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.floats(0, 2), st.floats(0, 2)), min_size=1, max_size=6))
def test_isometry_is_contraction_and_expansion(points):
    sigma = qbs.JointSpectrum(tuple(points))
    iso = qbs.classify(sigma, qbs.ISOMETRY).verdict
    both = (qbs.classify(sigma, qbs.CONTRACTION).verdict
            and qbs.classify(sigma, qbs.EXPANSION).verdict)
    assert iso == both


def test_collapse_of_high_orders_quick_check():
    for pts in [((0.3, 0.4),), ((1.0, 2.0),), ((1.5, 0.5),), ((0.3, 0.4), (1.0, 1.0))]:
        sigma = _sig(*pts)
        assert (qbs.classify(sigma, qbs.m_contractive(5)).verdict
                == qbs.classify(sigma, qbs.m_contractive(3)).verdict)
        assert (qbs.classify(sigma, qbs.m_expansive(3)).verdict
                == qbs.classify(sigma, qbs.EXPANSION).verdict)
        assert (qbs.classify(sigma, qbs.m_isometric(4)).verdict
                == qbs.classify(sigma, qbs.m_isometric(2)).verdict)
        assert (qbs.classify(sigma, qbs.RegionId.parse("chc")).verdict
                == qbs.classify(sigma, qbs.CONTRACTION).verdict)


# ----------------------------------------------------------------- Brownian

def _atoms(*specs):
    return qbs.AtomModel(tuple(qbs.QAtom(k, s, t) for k, s, t in specs))


def test_scaled_shift_with_weight_is_quasi_but_not_brownian():
    m = _atoms((qbs.AtomKind.SHIFT, 1.0, 1.0))
    report = qbs.classify_brownian(m)
    assert report.quasi_brownian and not report.brownian
    assert [p.coords() for p in report.violators] == [(1.0, 1.0, 0.0)]


def test_unitary_and_weightless_shift_are_brownian():
    for spec in ((qbs.AtomKind.UNITARY, 1.0, 1.0), (qbs.AtomKind.SHIFT, 1.0, 0.0)):
        report = qbs.classify_brownian(_atoms(spec))
        assert report.quasi_brownian and report.brownian


def test_off_region_atom_is_not_quasi_brownian():
    report = qbs.classify_brownian(_atoms((qbs.AtomKind.UNITARY, 0.5, 0.2)))
    assert not report.quasi_brownian and not report.brownian


def test_classify_brownian_rejects_pair_models():
    pair = qbs.PairModel.from_diagonal([1.0], [0.0])
    with pytest.raises(TypeError):
        qbs.classify_brownian(pair)


def test_brownian_decomposition_buckets():
    m = _atoms((qbs.AtomKind.UNITARY, 1.0, 0.7),
               (qbs.AtomKind.SHIFT, 1.0, 0.0),
               (qbs.AtomKind.SHIFT, 1.0, 0.5),
               (qbs.AtomKind.UNITARY, 0.6, 0.8))
    dec = qbs.brownian_decomposition(m)
    assert [a.t for a in dec.h_u] == [0.7]
    assert sorted(a.t for a in dec.h_s) == [0.0, 0.5]
    assert list(dec.unclassifiable) == []
    assert [(a.s, a.t) for a in dec.h_si] == [(0.6, 0.8)]
    assert [a.t for a in dec.shift_flags] == [0.5]


def test_atom_merged_into_a_band_point_is_unclassifiable():
    # 1 + 5e-9 is one spectral point with s = 1 (dedup_tol 1e-8) but off the eps band
    m = _atoms((qbs.AtomKind.SHIFT, 1.0, 0.5), (qbs.AtomKind.SHIFT, 1.0 + 5e-9, 0.5))
    report = qbs.classify_brownian(m)
    assert report.quasi_brownian and not report.brownian
    dec = report.decomposition
    assert [a.s for a in dec.h_s] == [1.0] and [a.s for a in dec.unclassifiable] == [1.0 + 5e-9]


def test_brownian_decomposition_needs_quasi():
    with pytest.raises(NotQuasiBrownian):
        qbs.brownian_decomposition(_atoms((qbs.AtomKind.UNITARY, 0.5, 0.2)))
