"""SVG rendering: determinism, region coverage, and layout rules."""

import hashlib
import math

import pytest

import qbs
from qbs import plots
from qbs.regions import RegionId

ALL_REGIONS = [
    qbs.SUBNORMAL,
    qbs.CONTRACTION,
    qbs.EXPANSION,
    qbs.ISOMETRY,
    qbs.TWO_ISOMETRY,
    qbs.DUAL_SUBNORMAL,
    qbs.m_contractive(1),
    qbs.m_contractive(3),
    qbs.m_contractive(4),
    qbs.m_expansive(1),
    qbs.m_expansive(3),
    qbs.m_expansive(4),
    qbs.m_isometric(1),
    qbs.m_isometric(5),
    RegionId.parse("che"),
    RegionId.parse("chc"),
    RegionId.parse("delta-regular"),
]


def spectrum():
    return qbs.JointSpectrum(((0.6, 0.8), (2.0, 0.0)))


def test_rendering_is_deterministic():
    first = plots.render_svg([qbs.SUBNORMAL], spectrum(), extent=2.0)
    second = plots.render_svg([qbs.SUBNORMAL], spectrum(), extent=2.0)
    assert first == second


@pytest.mark.parametrize("region", ALL_REGIONS, ids=lambda r: r.token)
def test_every_region_renders(region):
    svg = plots.render_svg([region], spectrum(), extent=2.0)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert region.token in svg


@pytest.mark.parametrize("extent,digest", [
    (2.0, "38a23720e61e30a9d6301cf8a3ebf5fa01abc00e46f478eb111cc6e62d997b22"),
    (3.5, "36fcea148c14852c129c166cd8bfa95601dd227df0c3df04977280a732ab5d5c"),
])
def test_every_region_renders_the_frozen_layers(extent, digest):
    svg = plots.render_svg(ALL_REGIONS, spectrum(), extent=extent)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_points_and_multiplicity_labels():
    sigma = qbs.JointSpectrum(((0.6, 0.8), (0.6, 0.8), (1.0, 0.5)))
    svg = plots.render_svg([], sigma, extent=2.0)
    assert svg.count("<circle") == 2
    assert ">x2</text>" in svg and ">x1</text>" not in svg


def test_legend_and_axis_labels_present():
    svg = plots.render_svg([qbs.CONTRACTION, qbs.EXPANSION], spectrum(), extent=2.0)
    assert "contraction" in svg and "expansion" in svg
    assert ">s<" in svg and ">t<" in svg


def test_pick_extent_rules():
    assert plots.pick_extent(qbs.JointSpectrum([])) == 2.0
    assert plots.pick_extent(qbs.JointSpectrum(((0.6, 0.8),))) == 2.0
    assert plots.pick_extent(spectrum()) == 2.5
    big = qbs.JointSpectrum([(3.3, 0.1)])
    assert plots.pick_extent(big) == math.ceil(1.15 * 3.3 / 0.5) * 0.5
    assert plots.pick_extent(big) >= 1.15 * 3.3


def test_save_svg_round_trip(tmp_path):
    path = tmp_path / "plot.svg"
    plots.save_svg(path, [qbs.SUBNORMAL], spectrum(), extent=2.0)
    text = path.read_text()
    assert text.endswith("</svg>\n")
    assert text == plots.render_svg([qbs.SUBNORMAL], spectrum(), extent=2.0)


def test_coordinates_are_fixed_precision():
    svg = plots.render_svg([qbs.SUBNORMAL], spectrum(), extent=2.0)
    for chunk in svg.split('cx="')[1:]:
        value = chunk.split('"', 1)[0]
        whole, dot, frac = value.partition(".")
        assert dot == "." and len(frac) == 4, value


def test_ticks_stay_few_however_large_the_window():
    # the tick helper runs first: an unbounded tick loop must never be reached here
    assert list(plots._ticks(0.5)) == [0]
    assert list(plots._ticks(2.5)) == [0, 1, 2]
    assert list(plots._ticks(10.0)) == list(range(11))
    assert list(plots._ticks(10.5)) == list(range(11))
    assert list(plots._ticks(11.0)) == list(range(0, 11, 2))
    assert list(plots._ticks(99.0)) == list(range(0, 91, 10))
    for extent in (11.0, 37.5, 1e6, 1e300, 1.7976931348623157e308):
        ticks = plots._ticks(extent)
        assert 6 <= len(ticks) <= 11 and ticks[-1] <= extent
    for s in (1e300, 1.7e308):  # far points pick a huge but finite window
        extent = plots.pick_extent(qbs.JointSpectrum([(s, 0.5)]))
        assert math.isfinite(extent) and extent >= s
        svg = plots.render_svg([qbs.SUBNORMAL], [(s, 0.5)])
        assert 6 <= svg.count('text-anchor="end"') <= 11


@pytest.mark.parametrize("extent", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_extent_must_be_finite_and_positive(extent):
    assert len(plots._ticks(1e300)) <= 11
    with pytest.raises(qbs.QbsError, match="extent"):
        plots.render_svg([qbs.SUBNORMAL], extent=extent)
