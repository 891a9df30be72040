"""JSON model files: serialization, parsing, and error reporting."""

import json

import numpy as np
import pytest

import qbs
from qbs import io as model_io
from qbs.errors import ModelFormatError


def test_diagonal_pair_round_trip(tmp_path):
    pair = qbs.PairModel.from_diagonal([0.6, 2.0], [0.8, 0.0])
    path = tmp_path / "pair.json"
    model_io.save_model(pair, path, eps=1e-9)
    back, eps = model_io.load_model(path)
    assert isinstance(back, qbs.PairModel) and back.is_diagonal
    assert back.a == pair.a and back.b == pair.b
    assert eps == 1e-9


def test_matrix_pair_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = u @ np.diag([0.2, 0.6, 1.1]) @ u.T
    b = u @ np.diag([0.4, 0.3, 0.0]) @ u.T
    pair = qbs.PairModel.from_matrices(a, b)
    path = tmp_path / "pair.json"
    model_io.save_model(pair, path)
    back, eps = model_io.load_model(path)
    assert eps is None
    assert np.array_equal(back.A, pair.A.astype(complex))
    assert np.array_equal(back.B, pair.B.astype(complex))


def test_embedding_round_trip_keeps_phase(tmp_path):
    emb = qbs.scale_entries(qbs.realize_spectrum([(0.6, 0.8)], levels=2), 1j, 1.0, 1.0)
    path = tmp_path / "emb.json"
    model_io.save_model(emb, path)
    back, _ = model_io.load_model(path)
    assert isinstance(back, qbs.ShiftEmbedding)
    assert (back.levels, back.width, back.v_scale) == (emb.levels, emb.width, emb.v_scale)
    assert np.array_equal(back.E, emb.E) and np.array_equal(back.Q, emb.Q)


def test_atom_model_round_trip(tmp_path):
    m = qbs.AtomModel((qbs.QAtom(qbs.AtomKind.SHIFT, 1.0, 0.5, 2),
                       qbs.QAtom(qbs.AtomKind.UNITARY, 0.6, 0.8)))
    path = tmp_path / "atoms.json"
    model_io.save_model(m, path)
    back, _ = model_io.load_model(path)
    assert back.atoms == m.atoms


def test_reader_accepts_numbers_and_decimal_strings():
    doc = {"type": "pair", "a": ["0.59999999999999998", 2], "b": [0.8, "0"]}
    model, _ = model_io.model_from_json(doc)
    assert model.a == (0.6, 2.0) and model.b == (0.8, 0.0)


def test_reader_accepts_complex_pairs():
    doc = {"type": "embedding", "levels": 1, "width": 1,
           "v_scale": [0, 1],
           "E": [[["0.5", "-0.25"]], [[0, 0]]],
           "Q": [[1]]}
    emb, _ = model_io.model_from_json(doc)
    assert emb.v_scale == 1j
    assert emb.E[0, 0] == 0.5 - 0.25j


def test_format_errors_are_specific():
    for doc in (
        [],                                          # not an object
        {"type": "nope"},                            # unknown type
        {"type": "pair"},                            # no payload
        {"type": "pair", "a": [1], "A": [[1]]},      # both payloads
        {"type": "pair", "a": [1]},                  # half a diagonal
        {"type": "pair", "A": [[1]]},                # half a matrix pair
        {"type": "pair", "a": [True], "b": [1]},     # boolean is not a number
        {"type": "pair", "a": ["x"], "b": [1]},      # unparseable string
        {"type": "pair", "A": [[1], [2, 3]], "B": [[1]]},  # ragged rows
        {"type": "atoms", "atoms": []},              # no atoms
        {"type": "atoms", "atoms": [{"kind": "spin", "s": 1, "t": 0}]},
        {"type": "embedding", "levels": 1, "width": 1},    # missing blocks
        {"type": "pair", "a": ["nan"], "b": [0.5]},  # non-finite strings
        {"type": "pair", "a": ["inf"], "b": [0]},
        {"type": "pair", "a": [0.5], "b": ["-Infinity"]},
        {"type": "pair", "a": [float("nan")], "b": [0.5]},  # non-finite numbers
        {"type": "pair", "a": [0.5], "b": [float("inf")]},
        {"type": "pair", "a": [10 ** 400], "b": [0.5]},    # beyond the double range
        {"type": "pair", "A": [[["nan", 0]]], "B": [[1]]},
        {"type": "pair", "a": [0.5], "b": [0.5], "eps": "nan"},
        {"type": "pair", "a": [0.5], "b": [0.5], "eps": -1e-12},  # negative tolerance
        {"type": "atoms", "atoms": [{"kind": "shift", "s": "nan", "t": 0.5}]},
        {"type": "atoms", "atoms": [{"kind": "unitary", "s": 0.5, "t": float("inf")}]},
    ):
        with pytest.raises(ModelFormatError):
            model_io.model_from_json(doc)
    atom = {"kind": "shift", "s": 1, "t": 0}
    emb = {"type": "embedding", "levels": 1, "width": 1, "E": [[1], [0]], "Q": [[1]]}
    for field, doc in (
        ("mult", {"type": "atoms", "atoms": [dict(atom, mult=1.7)]}),
        ("mult", {"type": "atoms", "atoms": [dict(atom, mult=2.0)]}),
        ("mult", {"type": "atoms", "atoms": [dict(atom, mult=True)]}),
        ("mult", {"type": "atoms", "atoms": [dict(atom, mult=0)]}),
        ("mult", {"type": "atoms", "atoms": [dict(atom, mult="2")]}),
        ("levels", dict(emb, levels=True)),
        ("levels", dict(emb, levels=1.5)),
        ("levels", dict(emb, levels=0)),
        ("width", dict(emb, width="1")),
        ("width", dict(emb, width=-1)),
    ):
        with pytest.raises(ModelFormatError, match=field):
            model_io.model_from_json(doc)
    model_io.model_from_json(emb)  # the base documents are valid
    model_io.model_from_json({"type": "atoms", "atoms": [dict(atom, mult=2)]})


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"type": "pair",\n  "a": [1,]\n}')
    with pytest.raises(ModelFormatError) as err:
        model_io.load_model(path)
    assert "broken.json:2" in str(err.value)


def test_load_missing_file(tmp_path):
    with pytest.raises(ModelFormatError):
        model_io.load_model(tmp_path / "absent.json")


def test_written_floats_are_17_digit_strings(tmp_path):
    path = tmp_path / "pair.json"
    model_io.save_model(qbs.PairModel.from_diagonal([1 / 3], [0.8]), path)
    doc = json.loads(path.read_text())
    assert doc["a"] == ["0.33333333333333331"]
    assert doc["b"] == ["0.80000000000000004"]
