"""Pencil subnormality intervals and grid scans."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbs
from qbs import pencils, regions
from qbs.errors import (
    EmptyFlatPart,
    EmptySharpPart,
    EmptySpectrum,
    ENormExceedsOne,
    PreconditionViolated,
)


def _sig(*pts):
    return qbs.JointSpectrum(tuple(pts))


def test_sharp_and_flat_parts():
    sigma = _sig((0.5, 0.0), (0.0, 0.7), (0.6, 0.8))
    sharp = pencils.sharp_part(sigma)
    flat = pencils.flat_part(sigma)
    assert [(p.s, p.t) for p in sharp] == [(0.0, 0.7), (0.6, 0.8)]
    assert [(p.s, p.t) for p in flat] == [(0.6, 0.8)]


def test_beta_dagger_on_the_circle_point():
    sigma = _sig((0.6, 0.8))
    assert qbs.beta_dagger(sigma) == pytest.approx(1.0, abs=1e-12)
    assert qbs.beta_dagger(_sig((0.0, 2.0))) == pytest.approx(0.5)
    with pytest.raises(EmptySharpPart):
        qbs.beta_dagger(_sig((0.5, 0.0)))
    with pytest.raises(PreconditionViolated):
        qbs.beta_dagger(_sig((1.2, 0.5)))


def test_sub_e_interval_shapes():
    closed = qbs.sub_E(_sig((0.6, 0.8), (2.0, 0.0)))
    assert closed.kind is qbs.IntervalKind.CLOSED
    assert closed.beta == pytest.approx(1.0)
    assert closed.contains(0.5) and closed.contains(1.0) and not closed.contains(1.2)
    # no |E| weight anywhere: every scaling stays subnormal
    everything = qbs.sub_E(_sig((0.5, 0.0), (2.0, 0.0)))
    assert everything.kind is qbs.IntervalKind.ALL_OF_R_PLUS
    assert everything.contains(123.0)
    # a sharp point beyond the circle kills every positive scaling
    degenerate = qbs.sub_E(_sig((1.2, 0.5)))
    assert degenerate.kind is qbs.IntervalKind.DEGENERATE_ZERO
    assert degenerate.contains(0.0) and not degenerate.contains(1e-6)
    with pytest.raises(EmptySpectrum):
        qbs.sub_E(qbs.JointSpectrum(()))


def test_sub_q_interval_shapes():
    closed = qbs.sub_Q(_sig((0.6, 0.8)))
    assert closed.kind is qbs.IntervalKind.CLOSED
    assert closed.beta == pytest.approx(1.0, abs=1e-12)
    empty = qbs.sub_Q(_sig((0.5, 1.2)))
    assert empty.kind is qbs.IntervalKind.EMPTY
    assert not empty.contains(0.0)
    # vanishing product |Q||E| = 0: every scaling of Q is subnormal
    everything = qbs.sub_Q(_sig((0.5, 0.0), (0.0, 0.9)))
    assert everything.kind is qbs.IntervalKind.ALL_OF_R_PLUS


def test_beta_sub_values_and_guards():
    assert qbs.beta_sub(_sig((0.5, 0.8))) == pytest.approx(0.6 / 0.5)
    with pytest.raises(ENormExceedsOne):
        qbs.beta_sub(_sig((0.5, 1.5)))
    with pytest.raises(EmptyFlatPart):
        qbs.beta_sub(_sig((0.5, 0.0)))


def test_interval_invariants():
    with pytest.raises(ValueError):
        pencils.SubnormalityInterval(qbs.IntervalKind.CLOSED, 0.0)
    with pytest.raises(ValueError):
        pencils.SubnormalityInterval(qbs.IntervalKind.EMPTY, 1.0)


def test_pencil_scan_flips_at_the_endpoint():
    emb = qbs.realize_spectrum([(0.6, 0.8)], levels=3)
    alphas = [0.5, 0.9, 1.0, 1.1, 2.0]
    rows = qbs.pencil_scan(emb, "e", alphas)
    assert [ok for _, ok in rows] == [True, True, True, False, False]
    rows_q = qbs.pencil_scan(qbs.joint_spectrum(emb), "q", alphas)
    assert [ok for _, ok in rows_q] == [True, True, True, False, False]


def test_pencil_scan_argument_validation():
    sigma = _sig((0.6, 0.8))
    with pytest.raises(ValueError):
        qbs.pencil_scan(sigma, "x", [1.0])
    with pytest.raises(ValueError):
        qbs.pencil_scan(sigma, "e", [-0.5])


def test_a_large_scan_runs_in_bounded_memory_with_the_rows_of_one_broadcast():
    rng = np.random.default_rng(3)
    sigma = qbs.JointSpectrum.from_arrays(rng.uniform(0.0, 0.9, 600), rng.uniform(0.0, 0.5, 600))
    alphas = np.linspace(0.0, 4.0, 20_000).tolist()
    tracemalloc.start()
    try:
        rows = qbs.pencil_scan(sigma, "e", alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20  # the whole 20,000 x 600 grid at once peaks near 275 MB
    grid = np.array(alphas)[:, None] * sigma.t
    want = regions.in_region(sigma.s, grid, qbs.SUBNORMAL, 1e-9).all(axis=1).tolist()
    assert rows == list(zip(alphas, want))
    assert {ok for _, ok in rows} == {True, False}


@settings(deadline=None, max_examples=80)
@given(st.lists(st.tuples(st.floats(0, 2), st.floats(0, 2)), min_size=1, max_size=8),
       st.lists(st.one_of(st.floats(0, 3), st.sampled_from([0.0, 0.5, 1.0, 2.0])), max_size=12),
       st.sampled_from([1e-9, 1e-3]))
def test_pencil_scan_tests_every_scaled_point(points, alphas, eps):
    sigma = qbs.JointSpectrum(tuple(points))
    for which, scale in (("e", lambda a, s, t: (s, a * t)), ("q", lambda a, s, t: (a * s, t))):
        rows = qbs.pencil_scan(sigma, which, alphas, eps)
        want = [(float(a), all(qbs.region_membership(scale(a, p.s, p.t), qbs.SUBNORMAL, eps)
                               != "outside" for p in sigma.points)) for a in alphas]
        assert rows == want
        assert all(type(a) is float and type(ok) is bool for a, ok in rows)
