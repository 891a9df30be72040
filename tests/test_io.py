"""JSON model files: serialization, parsing, and error reporting."""

import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


FINITE = st.floats(allow_nan=False, allow_infinity=False)
COORD = st.floats(min_value=0.0, max_value=1e300, allow_nan=False)


def _commuting_pair(data) -> qbs.PairModel:
    n = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    a, b = (u @ np.diag(data.draw(st.lists(COORD.map(lambda x: x % 5.0), min_size=n, max_size=n)))
            @ u.conj().T for _ in range(2))
    return qbs.PairModel.from_matrices(a, b, eps=1e-6)


def _model(data):
    kind = data.draw(st.sampled_from(["diagonal", "matrix", "atoms", "embedding"]))
    if kind == "diagonal":
        n = data.draw(st.integers(1, 6))
        return qbs.PairModel.from_diagonal(*(data.draw(st.lists(COORD, min_size=n, max_size=n))
                                             for _ in range(2)))
    if kind == "matrix":
        return _commuting_pair(data)
    if kind == "atoms":
        atom = st.builds(qbs.QAtom, st.sampled_from(qbs.AtomKind), COORD, COORD, st.integers(1, 9))
        return qbs.AtomModel(tuple(data.draw(st.lists(atom, min_size=1, max_size=5))))
    levels, width, d = (data.draw(st.integers(1, 3)) for _ in range(3))

    def block(rows, cols):
        parts = data.draw(st.lists(FINITE, min_size=2 * rows * cols, max_size=2 * rows * cols))
        return np.array(parts).view(complex).reshape(rows, cols)

    return qbs.ShiftEmbedding(levels, width, block((levels + 1) * width, d), block(d, d),
                              complex(*data.draw(st.tuples(FINITE, FINITE))))


def _bits(model):
    """Every stored number of a model, as exact bit patterns."""
    if isinstance(model, qbs.AtomModel):
        return [(at.kind, np.float64(at.s).tobytes(), np.float64(at.t).tobytes(), at.mult)
                for at in model.atoms]
    if isinstance(model, qbs.ShiftEmbedding):
        return [model.levels, model.width, model.E.tobytes(), model.Q.tobytes(),
                np.complex128(model.v_scale).tobytes()]
    if model.is_diagonal:
        return [np.array(model.a).tobytes(), np.array(model.b).tobytes()]
    return [np.asarray(model.A, dtype=complex).tobytes(), np.asarray(model.B, dtype=complex).tobytes()]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), eps=st.one_of(st.none(), COORD))
def test_save_load_round_trip_is_bit_exact_and_one_line(data, eps):
    model = _model(data)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model_io.save_model(model, path, eps=eps)
        text = path.read_text()
        back, back_eps = model_io.load_model(path)
    assert text.endswith("\n") and text.count("\n") == 1
    assert type(back) is type(model) and _bits(back) == _bits(model)
    assert back_eps is None if eps is None else np.float64(back_eps).tobytes() == np.float64(eps).tobytes()


def test_matrix_mixing_pairs_and_scalars_is_accepted():
    doc = {"type": "embedding", "levels": 1, "width": 1, "v_scale": 1,
           "E": [[["0.5", "-0.25"], 2], ["0.125", [0, 1]]], "Q": [[1, 0], [[0, 0], "0.5"]]}
    emb, _ = model_io.model_from_json(doc)
    assert emb.E.tolist() == [[0.5 - 0.25j, 2], [0.125, 1j]]
    assert emb.Q.tolist() == [[1, 0], [0, 0.5]]


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
        ("model.a", {"type": "pair", "a": "51", "b": "10"}),  # a string is no diagonal
        ("model.a", {"type": "pair", "a": 5, "b": [1]}),
        ("model.b", {"type": "pair", "a": [1], "b": {"0": 1}}),
    ):
        with pytest.raises(ModelFormatError, match=field):
            model_io.model_from_json(doc)
    for message, doc in (
        ("model.E[1][0]: expected a number, got a boolean", dict(emb, E=[[1], [True]])),
        ("model.E[1][0]: expected a number, got a boolean", dict(emb, E=[[1], [[0, False]]])),
        ("model.Q[0][0]: 'nan' is not a finite number", dict(emb, Q=[["nan"]])),
        ("model.Q[0][0]: 'nan' is not a finite number", dict(emb, Q=[[[0.5, "nan"]]])),
        (f"model.a[1]: {10 ** 400!r} is not a finite number",
         {"type": "pair", "a": [0.5, 10 ** 400], "b": [0.5, 0.5]}),
        ("model.A: rows must be nonempty and of equal length",
         {"type": "pair", "A": [[1, 0], [0]], "B": [[1, 0], [0, 1]]}),
        ("model.E[0][0]: a complex entry is a [re, im] pair", dict(emb, E=[[[1, 2, 3]], [0]])),
    ):
        with pytest.raises(ModelFormatError, match=f"^{re.escape(message)}$"):
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
