"""Block-operator models: axioms, powers, composition, scaling, atoms."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbs
from qbs.errors import (
    CommutatorTooLarge,
    DimensionMismatch,
    EmptyGamma,
    HeadroomExceeded,
    HypothesisViolated,
    ModulusConstraintViolated,
    NegativeCoordinate,
    NotPositiveSemidefinite,
)
from qbs.linalg import adjoint, opnorm


def _diag_embedding(a, b, levels=4):
    return qbs.build_from_pair(qbs.PairModel.from_diagonal(a, b), levels=levels)


# ---------------------------------------------------------------- pair models

def test_pair_diagonal_length_mismatch():
    with pytest.raises(DimensionMismatch):
        qbs.PairModel.from_diagonal([1.0], [1.0, 2.0])


def test_diagonal_entries_follow_the_coordinate_rule_at_the_model_floor():
    pair = qbs.PairModel.from_diagonal([-5e-11, -0.0, 0.5], [0.25, -1e-10, -0.0])
    assert pair.a == (0.0, 0.0, 0.5) and pair.b == (0.25, 0.0, 0.0)
    assert all(math.copysign(1.0, x) == 1.0 for x in pair.a + pair.b)  # no -0.0 left
    with pytest.raises(NegativeCoordinate, match=r"diagonal entry = -5e-10 "):
        qbs.PairModel.from_diagonal([0.5, 0.5], [0.5, -5e-10])
    with pytest.raises(ValueError, match=r"diagonal entry = nan "):
        qbs.PairModel.from_diagonal([0.5, float("nan")], [0.5, 0.5])
    # the lengths are compared before any entry is read
    with pytest.raises(DimensionMismatch):
        qbs.PairModel.from_diagonal([float("nan"), -1.0], [0.5])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(ValueError):
        qbs.PairModel.from_diagonal([bad], [0.5])
    with pytest.raises(ValueError):
        qbs.PairModel.from_diagonal([0.5], [bad])
    with pytest.raises(ValueError):
        qbs.realize_spectrum([(0.5, bad)], levels=2)
    with pytest.raises(ValueError):
        qbs.QAtom(qbs.AtomKind.SHIFT, bad, 0.5)
    with pytest.raises(ValueError):
        qbs.QAtom(qbs.AtomKind.UNITARY, 0.5, bad)


def test_pair_matrices_must_be_psd_and_commuting():
    with pytest.raises(NotPositiveSemidefinite):
        qbs.PairModel.from_matrices(np.diag([1.0, -0.5]), np.eye(2))
    a = np.diag([1.0, 2.0])
    b = np.array([[1.0, 0.4], [0.4, 1.0]])
    with pytest.raises(CommutatorTooLarge):
        qbs.PairModel.from_matrices(a, b)


# ----------------------------------------------------------- shift embeddings

def test_build_from_pair_satisfies_all_axioms():
    emb = _diag_embedding([0.6, 2.0], [0.8, 0.0])
    report = qbs.validate_class_q(emb)
    assert report.verdict
    assert {c.name for c in report.checks} == {
        "v_isometry", "ve_orthogonal", "q_gram_commute", "q_quasinormal"}
    assert all(c.residual == 0.0 for c in report.checks)


def test_build_from_matrix_pair_satisfies_axioms_and_spectrum():
    rng = np.random.default_rng(2)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = u @ np.diag([0.4, 0.9, 1.1]) @ u.T
    b = u @ np.diag([0.7, 0.0, 0.2]) @ u.T
    pair = qbs.PairModel.from_matrices(a, b)
    emb = qbs.build_from_pair(pair, levels=3)
    assert qbs.validate_class_q(emb).verdict
    got = sorted((round(p.s, 8), round(p.t, 8)) for p in qbs.joint_spectrum(emb).points)
    assert got == [(0.4, 0.7), (0.9, 0.0), (1.1, 0.2)]


# Eigenvalues drawn from a coarse pool repeat and include 0, and the pool's
# spacing keeps distinct points far outside the 1e-8 merge distance.
_POOL = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])


def _by_rounded_point(sigma):
    # sorted by coordinates rounded far above roundoff, which a roundoff-sized s cannot reorder
    keys = zip(np.round(sigma.s, 6).tolist(), np.round(sigma.t, 6).tolist(), sigma.mult.tolist())
    return sorted(zip(keys, zip(sigma.s.tolist(), sigma.t.tolist())))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_embedding_of_a_dense_pair_reads_back_the_pair_spectrum(data):
    n = data.draw(st.integers(1, 6))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    s, t = (np.array(data.draw(st.lists(_POOL, min_size=n, max_size=n))) for _ in range(2))
    pair = qbs.PairModel.from_matrices((u * s) @ u.conj().T, (u * t) @ u.conj().T)
    want = _by_rounded_point(qbs.joint_spectrum(pair))
    # E = [B; 0], read back through the Gram route (Q*Q, E*E)
    got = _by_rounded_point(qbs.joint_spectrum(qbs.build_from_pair(pair, levels=2)))
    assert [key for key, _ in got] == [key for key, _ in want]  # points and multiplicities
    # roundoff of unit-scale data: 1e-9 is about 1e7 units in the last place
    np.testing.assert_allclose([xy for _, xy in got], [xy for _, xy in want], rtol=0.0, atol=1e-9)
    t[0] = -1e-3
    with pytest.raises(NotPositiveSemidefinite):
        qbs.PairModel.from_matrices((u * s) @ u.conj().T, (u * t) @ u.conj().T)


def test_validate_detects_tampered_entries():
    emb = _diag_embedding([0.5, 0.8], [0.3, 0.4])
    bad_e = emb.E.copy()
    bad_e[emb.width:2 * emb.width, :] = 0.3  # E leaks outside ker V*
    bad = dataclasses.replace(emb, E=bad_e)
    report = qbs.validate_class_q(bad)
    assert not report.verdict
    assert not report.check("ve_orthogonal").passed
    nonquasi = dataclasses.replace(emb, Q=np.array([[1.0, 1.0], [0.0, 0.5]]))
    assert not qbs.validate_class_q(nonquasi).check("q_quasinormal").passed


def test_embedding_shape_validation():
    with pytest.raises(DimensionMismatch):
        qbs.ShiftEmbedding(2, 2, np.zeros((4, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        qbs.ShiftEmbedding(0, 1, np.zeros((1, 1)), np.zeros((1, 1)))


def test_operator_norm_equals_largest_singular_value():
    emb = _diag_embedding([0.6, 2.0], [0.8, 0.0])
    top = np.linalg.svd(emb.assemble(), compute_uv=False)[0]
    assert qbs.operator_norm(emb) == pytest.approx(top, abs=1e-12)
    # contractive data is dominated by the isometry part
    small = _diag_embedding([0.3], [0.2])
    assert qbs.operator_norm(small) == 1.0


# ---------------------------------------------------------------------- powers

def _assert_powers_match_matrix_power(emb):
    t = emb.assemble()
    h1 = emb.h1_dim
    for n in range(emb.levels + 1):
        blocks = qbs.power(emb, n)
        tn = np.linalg.matrix_power(t, n)
        for got, want in ((blocks.V, tn[:h1, :h1]), (blocks.E, tn[:h1, h1:]),
                          (blocks.Q, tn[h1:, h1:]), (0.0, tn[h1:, :h1])):
            np.testing.assert_allclose(got, want, atol=1e-12)


def test_power_matches_matrix_power():
    _assert_powers_match_matrix_power(_diag_embedding([0.5, 1.2], [0.7, 0.1], levels=5))


def _random_pair_of_embeddings(rng, levels, width, d):
    """Two embeddings with E nonzero in every layer and scaled, phased shifts.

    Both factors share an eigenbasis U, so each Q commutes with the other's
    Q*Q and E*E, as :func:`qbs.compose` requires.
    """
    h1 = (levels + 1) * width
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    out = []
    for _ in range(2):
        w, _ = np.linalg.qr(rng.normal(size=(h1, d)) + 1j * rng.normal(size=(h1, d)))
        e = w @ np.diag(rng.uniform(0.2, 1.0, size=d)) @ adjoint(u)
        q = u @ np.diag(rng.uniform(0.2, 1.0, size=d)
                        * np.exp(2j * np.pi * rng.uniform(size=d))) @ adjoint(u)
        v_scale = rng.choice([1.0, 0.9, 1.1]) * np.exp(2j * np.pi * rng.uniform())
        assert all(opnorm(e[i * width:(i + 1) * width]) > 0.0 for i in range(levels + 1))
        out.append(qbs.ShiftEmbedding(levels, width, e, q, v_scale))
    return out


def _assert_residuals_match_dense_v(emb):
    """Residuals against the dense V, thresholds against SVD norms (rel 1e-12)."""
    v = emb.v_matrix()
    interior = emb.levels * emb.width
    dense = {
        "v_isometry": opnorm((adjoint(v) @ v)[:interior, :interior] - np.eye(interior)),
        "ve_orthogonal": opnorm(adjoint(v) @ emb.E),
    }
    eps, ne, nq = qbs.DEFAULT_EPS, opnorm(emb.E), opnorm(emb.Q)
    thresholds = {"v_isometry": eps, "ve_orthogonal": eps * (1.0 + ne),
                  "q_gram_commute": eps * (1.0 + nq * ne * ne)}
    report = qbs.validate_class_q(emb)
    for name, want in dense.items():
        check = report.check(name)
        assert abs(check.residual - want) <= max(1e-15, 1e-12 * want), name
        assert check.passed == (want <= thresholds[name]), name
    for name, want in thresholds.items():
        assert report.check(name).threshold == pytest.approx(want, rel=1e-12, abs=0.0), name


def test_row_shift_route_matches_dense_v():
    rng = np.random.default_rng(33)
    for _ in range(40):
        levels, width = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        d = int(rng.integers(1, min(4, (levels + 1) * width) + 1))
        t1, t2 = _random_pair_of_embeddings(rng, levels, width, d)
        _assert_powers_match_matrix_power(t1)
        _assert_residuals_match_dense_v(t1)
        layer0 = t1.E.copy()
        layer0[width:] = 0.0
        _assert_residuals_match_dense_v(dataclasses.replace(t1, E=layer0))
        if levels >= 3:
            comp = qbs.compose(t1, t2)
            prod = t1.assemble() @ t2.assemble()
            np.testing.assert_allclose(comp.E, prod[:comp.h1_dim, t1.h1_dim:], atol=1e-12)


def test_power_recursion_is_bitwise_stable():
    emb = _diag_embedding([0.5, 1.2], [0.7, 0.1], levels=5)
    v = emb.v_matrix()
    for k in range(5):
        prev = qbs.power(emb, k)
        step = v @ prev.E + emb.E @ prev.Q
        assert np.array_equal(step, qbs.power(emb, k + 1).E)


def test_power_beyond_headroom_raises():
    emb = _diag_embedding([0.5], [0.7], levels=3)
    with pytest.raises(HeadroomExceeded):
        qbs.power(emb, 4)


def test_omega_is_the_h2_block_of_the_power_gram():
    emb = _diag_embedding([0.5, 1.2], [0.7, 0.1], levels=5)
    t = emb.assemble()
    h1 = emb.h1_dim
    for n in range(1, 6):
        tn = np.linalg.matrix_power(t, n)
        gram = adjoint(tn) @ tn
        np.testing.assert_allclose(gram[h1:, h1:], qbs.omega(emb, n), atol=1e-13)
    assert np.array_equal(qbs.omega(emb, 0), np.eye(emb.d))


def test_omega_accepts_pair_models():
    pair = qbs.PairModel.from_diagonal([0.5, 1.2], [0.7, 0.1])
    emb = qbs.build_from_pair(pair, levels=3)
    np.testing.assert_allclose(qbs.omega(pair, 3), qbs.omega(emb, 3), atol=1e-13)


# ----------------------------------------------------------------- composition

def test_compose_produces_a_valid_model_with_product_blocks():
    e1 = _diag_embedding([0.5, 0.8], [0.3, 0.4], levels=5)
    e2 = _diag_embedding([0.9, 0.6], [0.2, 0.1], levels=5)
    comp = qbs.compose(e1, e2)
    assert (comp.levels, comp.width) == (2, 4)
    assert qbs.validate_class_q(comp).verdict
    prod = e1.assemble() @ e2.assemble()
    h1 = e1.h1_dim
    assert np.array_equal(prod[h1:, h1:], comp.Q)
    # E block of the product survives the re-leveling truncation untouched
    keep = comp.h1_dim
    assert np.array_equal(prod[:keep, h1:], comp.E)


def test_compose_checks_geometry_and_hypotheses():
    e1 = _diag_embedding([0.5], [0.3], levels=5)
    e2 = _diag_embedding([0.5, 0.1], [0.3, 0.1], levels=5)
    with pytest.raises(DimensionMismatch):
        qbs.compose(e1, e2)
    shallow = _diag_embedding([0.5], [0.3], levels=2)
    with pytest.raises(HeadroomExceeded):
        qbs.compose(shallow, shallow)
    # a Q that fails to commute with the other factor's E*E
    q1 = np.array([[0.5, 0.2], [0.2, 0.3]])
    e_top = np.diag([0.3, 0.9]).astype(complex)
    e_mat = np.vstack([e_top, np.zeros((10, 2))])
    t1 = qbs.ShiftEmbedding(5, 2, e_mat, q1)
    t2 = _diag_embedding([0.9, 0.6], [0.2, 0.1], levels=5)
    with pytest.raises(HypothesisViolated):
        qbs.compose(t2, t1)


# --------------------------------------------------------------------- scaling

def test_scale_entries_scales_the_spectrum():
    emb = _diag_embedding([0.5, 0.8], [0.3, 0.4])
    scaled = qbs.scale_entries(emb, 1j, 0.5, 0.7)
    assert qbs.validate_class_q(scaled).verdict
    got = [(round(p.s, 12), round(p.t, 12)) for p in qbs.joint_spectrum(scaled).points]
    assert got == [(0.35, 0.15), (0.56, 0.2)]


def test_scale_entries_modulus_constraints():
    emb = _diag_embedding([0.5], [0.3])
    with pytest.raises(ModulusConstraintViolated):
        qbs.scale_entries(emb, 0.9, 1.0, 1.0)
    with pytest.raises(ModulusConstraintViolated):
        qbs.scale_entries(emb, 1.0, 1.1, 1.0)
    with pytest.raises(ModulusConstraintViolated):
        qbs.scale_entries(emb, 1.0, 1.0, -1.2)


# -------------------------------------------------------------- realization

def test_realize_spectrum_round_trips_points():
    emb = qbs.realize_spectrum([(0.5, 0.2), (0.5, 0.2), (1.0, 0.3)], levels=3)
    sigma = qbs.joint_spectrum(emb)
    assert [(p.s, p.t, p.mult) for p in sigma.points] == [(0.5, 0.2, 2), (1.0, 0.3, 1)]
    assert qbs.validate_class_q(emb).verdict


def test_realize_spectrum_accepts_joint_spectrum_and_rejects_empty():
    sigma = qbs.JointSpectrum(((0.6, 0.8),))
    emb = qbs.realize_spectrum(sigma, levels=2)
    assert qbs.joint_spectrum(emb).points == sigma.points
    with pytest.raises(EmptyGamma):
        qbs.realize_spectrum([], levels=2)


# -------------------------------------------------------------------- atoms

def test_atom_spectra_shapes():
    m = qbs.AtomModel((qbs.QAtom(qbs.AtomKind.SHIFT, 1.0, 1.0),
                       qbs.QAtom(qbs.AtomKind.UNITARY, 0.6, 0.8, 2)))
    two, three = qbs.atom_spectra(m)
    assert [(p.s, p.t, p.mult) for p in two.points] == [(0.6, 0.8, 2), (1.0, 1.0, 1)]
    assert [p.coords() for p in three.points] == [
        (0.6, 0.8, 0.6), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)]


def test_atom_spectra_zero_scale_shift_contributes_once():
    m = qbs.AtomModel((qbs.QAtom(qbs.AtomKind.SHIFT, 0.0, 0.5),))
    _, three = qbs.atom_spectra(m)
    assert [p.coords() for p in three.points] == [(0.0, 0.5, 0.0)]


def test_atom_validation():
    from qbs.errors import NegativeCoordinate

    with pytest.raises(NegativeCoordinate):
        qbs.QAtom(qbs.AtomKind.SHIFT, -0.1, 0.0)
    with pytest.raises(ValueError):
        qbs.AtomModel(())
