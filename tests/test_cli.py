"""Command line behavior: exit codes, JSON output, and tolerance resolution."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbs
from qbs import cli
from qbs import io as model_io
from qbs.cli import main
from qbs.errors import QbsError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_pair(tmp_path, a, b, name="model.json", eps=None):
    path = tmp_path / name
    model_io.save_model(qbs.PairModel.from_diagonal(a, b), path, eps=eps)
    return str(path)


def write_atoms(tmp_path, atoms, name="atoms.json"):
    path = tmp_path / name
    model_io.save_model(qbs.AtomModel(tuple(qbs.QAtom(k, s, t) for k, s, t in atoms)), path)
    return str(path)


# -- classify ---------------------------------------------------------------

def test_classify_accepting(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, out, _ = run(capsys, "classify", model, "--region", "subnormal")
    doc = json.loads(out)
    assert code == 0
    assert doc["region"] == "subnormal" and doc["verdict"] is True
    assert doc["points"][0]["status"] in ("inside", "boundary")
    assert doc["violators"] == []


def test_classify_rejecting_lists_violators(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6, 1.2], [0.8, 0.3])
    code, out, _ = run(capsys, "classify", model, "--region", "subnormal")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] is False
    assert [v["s"] for v in doc["violators"]] == ["1.2"]


def test_classify_alias_reported(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [1.0])
    code, out, _ = run(capsys, "classify", model, "--region", "che")
    doc = json.loads(out)
    assert code == 0
    assert doc["region"] == "m-expansive:2" and doc["alias"] == "che"


def test_classify_unknown_region(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, _, err = run(capsys, "classify", model, "--region", "bogus")
    assert code == 2 and err.startswith("error:")


def test_classify_needs_region_or_brownian(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, _, err = run(capsys, "classify", model)
    assert code == 2 and "region" in err


@pytest.mark.parametrize("text", [
    '{"type": "pair", "a": ["nan"], "b": [0.5]}',
    '{"type": "pair", "a": ["inf"], "b": [0]}',
    '{"type": "pair", "a": [NaN], "b": [0.5]}',
    '{"type": "atoms", "atoms": [{"kind": "shift", "s": 1, "t": 0.5, "mult": 1.7}]}',
])
def test_classify_rejects_non_finite_and_non_integer_data(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "classify", str(path), "--region", "subnormal")
    assert code == 2 and out == "" and err.startswith("error:")


def test_classify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "classify", str(tmp_path / "no.json"), "--region", "subnormal")
    assert code == 2 and err.startswith("error:")


# -- classify --brownian ----------------------------------------------------

def test_brownian_shift_at_corner(tmp_path, capsys):
    model = write_atoms(tmp_path, [(qbs.AtomKind.SHIFT, 1.0, 1.0)])
    code, out, _ = run(capsys, "classify", model, "--brownian")
    doc = json.loads(out)
    assert code == 1
    assert doc["quasi_brownian"] is True and doc["brownian"] is False
    assert doc["violators"] == [{"s": "1", "t": "1", "r": "0"}]
    assert [a["t"] for a in doc["decomposition"]["shift_flags"]] == ["1"]


def test_brownian_unitary_atom(tmp_path, capsys):
    model = write_atoms(tmp_path, [(qbs.AtomKind.UNITARY, 1.0, 1.0)])
    code, out, _ = run(capsys, "classify", model, "--brownian")
    doc = json.loads(out)
    assert code == 0 and doc["brownian"] is True
    assert doc["decomposition"]["h_u"] and not doc["decomposition"]["shift_flags"]


def test_brownian_needs_atom_model(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, _, err = run(capsys, "classify", model, "--brownian")
    assert code == 2 and "atom model" in err


# -- realize ----------------------------------------------------------------

def test_realize_writes_loadable_model(tmp_path, capsys):
    out = tmp_path / "emb.json"
    code, text, _ = run(capsys, "realize", "--points", "0.6,0.8;1,1,2", "--out", str(out))
    doc = json.loads(text)
    assert code == 0
    assert (doc["levels"], doc["width"]) == (4, 3)
    assert doc["norm"] == model_io.format_float(2 ** 0.5)
    model, eps = model_io.load_model(out)
    assert isinstance(model, qbs.ShiftEmbedding) and eps is None
    sigma = qbs.joint_spectrum(model)
    assert [(p.s, p.t, p.mult) for p in sigma] == [(0.6, 0.8, 1), (1.0, 1.0, 2)]


def test_realize_bad_points(tmp_path, capsys):
    code, _, err = run(capsys, "realize", "--points", "0.6", "--out", str(tmp_path / "x.json"))
    assert code == 2 and err.startswith("error:")


# -- dual -------------------------------------------------------------------

def test_dual_writes_model_and_csv(tmp_path, capsys):
    model = write_pair(tmp_path, [1.2, 1.0], [0.9, 0.4])
    out = tmp_path / "dual.json"
    code, text, _ = run(capsys, "dual", model, "--out", str(out))
    doc = json.loads(text)
    assert code == 0
    assert float(doc["norm"]) == pytest.approx(1.0, abs=1e-12)
    dual_model, _ = model_io.load_model(out)
    assert isinstance(dual_model, qbs.ShiftEmbedding)
    csv_text = (tmp_path / "dual.csv").read_text()
    assert csv_text.splitlines()[0] == "s,t,mult"
    assert doc["spectrum_csv"] == str(tmp_path / "dual.csv")


def test_dual_rejects_atom_models(tmp_path, capsys):
    model = write_atoms(tmp_path, [(qbs.AtomKind.UNITARY, 1.0, 1.0)])
    code, _, err = run(capsys, "dual", model, "--out", str(tmp_path / "d.json"))
    assert code == 2 and "pair or embedding" in err


def test_dual_rejects_non_invertible(tmp_path, capsys):
    model = write_pair(tmp_path, [0.0], [0.0])
    code, _, err = run(capsys, "dual", model, "--out", str(tmp_path / "d.json"))
    assert code == 2 and err.startswith("error:")


def _mixed_embedding(path, d=6, seed=3):
    """An embedding model whose Q and E are full matrices (a random unitary basis)."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    s, t = rng.uniform(0.5, 1.5, d), rng.uniform(0.1, 1.0, d)
    e = np.zeros((3 * d, d), dtype=complex)
    e[:d] = (u * t) @ u.conj().T
    model_io.save_model(qbs.ShiftEmbedding(2, d, e, (u * s) @ u.conj().T), path)
    return str(path)


def test_embedding_jobs_read_one_spectrum_with_few_svd_norms(tmp_path, capsys, monkeypatch):
    calls = {"spectrum": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qbs.jointspec, "joint_spectrum",
                        counted("spectrum", qbs.jointspec.joint_spectrum))
    svd_norm = counted("svd", qbs.linalg.opnorm)
    monkeypatch.setattr(qbs.linalg, "opnorm", svd_norm)
    monkeypatch.setattr(qbs.model, "opnorm", svd_norm)
    path = _mixed_embedding(tmp_path / "emb.json")
    # classify: one commutator norm; dual: the Hermitian test of Omega_1 and the dual's commutator
    for argv, most in ((("classify", path, "--region", "subnormal"), 1),
                       (("dual", path, "--out", str(tmp_path / "dual.json")), 3)):
        calls.update(spectrum=0, svd=0)
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)
        assert calls["spectrum"] == 1, argv[0]
        assert calls["svd"] <= most, argv[0]


# -- pencil -----------------------------------------------------------------

def test_pencil_interval_json(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, out, _ = run(capsys, "pencil", model, "--which", "e")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"which": "e", "kind": "closed", "beta": "1"}


def test_pencil_scan_table(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    out = tmp_path / "scan.csv"
    code, text, _ = run(capsys, "pencil", model, "--which", "e",
                        "--grid", "0.5:2:0.5", "--out", str(out))
    assert code == 0 and json.loads(text)["scan_csv"] == str(out)
    rows = out.read_text().splitlines()
    assert rows[0] == "alpha,subnormal"
    assert rows[1:] == ["0.5,true", "1,true", "1.5,false", "2,false"]


def test_pencil_grid_needs_out(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, _, err = run(capsys, "pencil", model, "--which", "q", "--grid", "0:1:0.5")
    assert code == 2 and "--out" in err


@pytest.mark.parametrize("grid", ["0:inf:1", "nan:1:0.5", "0:1:nan"])
def test_pencil_grid_must_be_finite(tmp_path, capsys, grid):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, _, err = run(capsys, "pencil", model, "--which", "e", "--grid", grid,
                       "--out", str(tmp_path / "scan.csv"))
    assert code == 2 and "finite" in err


def test_pencil_grid_size_is_capped(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    out = tmp_path / "scan.csv"
    code, text, err = run(capsys, "pencil", model, "--which", "e", "--grid", "0:1.5:1e-6",
                          "--out", str(out))
    assert (code, text) == (2, "") and "alphas" in err and not out.exists()
    assert len(cli._parse_grid("0:999999:1")) == cli.MAX_GRID_ALPHAS
    with pytest.raises(QbsError, match="alphas"):
        cli._parse_grid("0:1000000:1")


def _loop_grid(start, stop, step):
    """The grid as a step-by-step loop builds it: start + i * step up to stop."""
    alphas, i = [], 0
    while start + i * step <= stop + 1e-9 * step:
        alphas.append(start + i * step)
        i += 1
    return alphas


@settings(max_examples=300, deadline=None)
@given(start=st.floats(0.0, 1e9), step=st.floats(1e-3, 2.0), steps=st.floats(0.0, 2000.0),
       snap=st.booleans())
def test_grid_alphas_are_start_plus_i_step(start, step, steps, snap):
    stop = start + (round(steps) if snap else steps) * step
    text = f"{start!r}:{stop!r}:{step!r}"
    assert cli._parse_grid(text) == _loop_grid(start, stop, step)


def test_pencil_which_is_validated(tmp_path, capsys):
    model = write_pair(tmp_path, [0.6], [0.8])
    code, _, _ = run(capsys, "pencil", model, "--which", "z")
    assert code == 2


# -- oracle -----------------------------------------------------------------

def test_oracle_point_inside(capsys):
    code, out, _ = run(capsys, "oracle", "--point", "0.6,0.8")
    doc = json.loads(out)
    assert code == 0 and doc["passed"] is True and "witness" not in doc


def test_oracle_point_outside_gives_witness(capsys):
    code, out, _ = run(capsys, "oracle", "--point", "1.2,0.3")
    doc = json.loads(out)
    assert code == 1 and doc["passed"] is False
    assert doc["witness"]["which"] in ("hankel", "shifted")
    assert float(doc["witness"]["min_eigenvalue"]) < 0


def test_oracle_arithmetic_sequence_fails(capsys):
    code, out, _ = run(capsys, "oracle", "--sequence", "1,1.25,1.5,1.75",
                       "--hankel-order", "1")
    doc = json.loads(out)
    assert code == 1
    assert doc["order"] == 1 and doc["witness"]["which"] == "hankel"


def test_oracle_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "oracle")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "oracle", "--point", "1,0", "--sequence", "1,1")
    assert code == 2 and "exactly one" in err


def test_oracle_order_is_capped(capsys):
    over = str(cli.MAX_HANKEL_ORDER + 1)
    for argv in (("--point", "0.6,0.8"), ("--sequence", ",".join(["1"] * 300))):
        code, out, err = run(capsys, "oracle", *argv, "--hankel-order", over)
        assert (code, out) == (2, "") and "--hankel-order" in err
    code, out, _ = run(capsys, "oracle", "--point", "0.6,0.8",
                       "--hankel-order", str(cli.MAX_HANKEL_ORDER))
    assert code in (0, 1) and json.loads(out)["order"] == cli.MAX_HANKEL_ORDER


def test_levels_are_capped(tmp_path, capsys):
    out = tmp_path / "emb.json"
    for levels in (10 ** 15, cli.MAX_LEVELS + 1, 0):
        code, text, err = run(capsys, "realize", "--points", "0.6,0.8", "--levels", str(levels),
                              "--out", str(out))
        assert (code, text) == (2, "") and "--levels" in err and not out.exists()
    pair = write_pair(tmp_path, [1.2], [0.9])
    code, text, err = run(capsys, "dual", pair, "--levels", str(10 ** 15), "--out", str(out))
    assert (code, text) == (2, "") and "--levels" in err and not out.exists()


# -- plot -------------------------------------------------------------------

@pytest.mark.parametrize("extent", ["0", "nan", "-1"])
def test_plot_extent_must_be_finite_and_positive(tmp_path, capsys, extent):
    out = tmp_path / "p.svg"
    code, text, err = run(capsys, "plot", "--region", "subnormal", "--extent", extent,
                          "--out", str(out))
    assert (code, text) == (2, "") and "extent" in err and not out.exists()


def test_plot_is_deterministic(tmp_path, capsys):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    sigma = qbs.JointSpectrum([(0.6, 0.8), (1.5, 0.2)])
    csv = tmp_path / "sigma.csv"
    csv.write_text(qbs.spectrum_to_csv(sigma))
    for path in (first, second):
        code, _, _ = run(capsys, "plot", "--region", "subnormal", "--region", "che",
                         "--spectrum", str(csv), "--out", str(path))
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_plot_unknown_region(tmp_path, capsys):
    code, _, err = run(capsys, "plot", "--region", "nope", "--out", str(tmp_path / "p.svg"))
    assert code == 2 and err.startswith("error:")


def test_plot_missing_spectrum_file(tmp_path, capsys):
    code, _, err = run(capsys, "plot", "--spectrum", str(tmp_path / "no.csv"),
                       "--out", str(tmp_path / "p.svg"))
    assert code == 2 and err.startswith("error:")


# -- tolerance resolution ----------------------------------------------------

NEAR = [0.6], [0.8 + 1e-7]     # just outside the unit circle


def test_eps_default_rejects_near_circle_point(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QBS_EPS", raising=False)
    model = write_pair(tmp_path, *NEAR)
    code, _, _ = run(capsys, "classify", model, "--region", "subnormal")
    assert code == 1


def test_eps_env_widens_the_band(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QBS_EPS", "1e-3")
    model = write_pair(tmp_path, *NEAR)
    code, _, _ = run(capsys, "classify", model, "--region", "subnormal")
    assert code == 0


def test_eps_file_beats_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QBS_EPS", "1e-15")
    model = write_pair(tmp_path, *NEAR, eps=1e-3)
    code, _, _ = run(capsys, "classify", model, "--region", "subnormal")
    assert code == 0


def test_eps_flag_beats_file(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QBS_EPS", raising=False)
    model = write_pair(tmp_path, *NEAR, eps=1e-3)
    code, _, _ = run(capsys, "classify", model, "--region", "subnormal",
                     "--eps", "1e-9")
    assert code == 1


def test_bad_env_eps_is_an_error(tmp_path, capsys, monkeypatch):
    model = write_pair(tmp_path, [0.6], [0.8])
    bad_file = write_pair(tmp_path, [0.6], [0.8], name="bad.json", eps=-1.0)
    # (QBS_EPS, extra argv, model file, word the message must name)
    cases = [("soup", [], model, "QBS_EPS"), ("nan", [], model, "QBS_EPS"),
             ("-1", [], model, "QBS_EPS"), (None, ["--eps", "nan"], model, "--eps"),
             (None, ["--eps", "inf"], model, "--eps"), (None, ["--eps", "-1"], model, "--eps"),
             (None, [], bad_file, "model file")]
    for env, extra, path, named in cases:
        if env is None:
            monkeypatch.delenv("QBS_EPS", raising=False)
        else:
            monkeypatch.setenv("QBS_EPS", env)
        code, out, err = run(capsys, "classify", path, "--region", "subnormal", *extra)
        assert (code, out) == (2, ""), (env, extra, path)
        assert named in err
    code, out, _ = run(capsys, "oracle", "--point", "0.5,0.5", "--eps", "-inf")
    assert (code, out) == (2, "")


def test_dual_rejects_a_negative_file_eps(tmp_path, capsys):
    bad_file = write_pair(tmp_path, [0.6], [0.8], name="bad.json", eps=-1.0)
    out_path = tmp_path / "d.json"
    code, out, err = run(capsys, "dual", bad_file, "--eps", "1e-9", "--out", str(out_path))
    assert (code, out) == (2, "")
    assert "eps" in err
    assert not out_path.exists()


# -- one JSON line per call ---------------------------------------------------

def test_stdout_is_one_line_holding_the_documented_document(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    model_io.save_model(qbs.PairModel.from_diagonal([0.6, 1.2], [0.8, 0.3]), "m.json")
    model_io.save_model(qbs.PairModel.from_diagonal([1.2, 1.0], [0.9, 0.4]), "d.json")
    expected = [
        (("classify", "m.json", "--region", "subnormal"),
         {"region": "subnormal", "alias": None, "verdict": False,
          "points": [{"s": "0.59999999999999998", "t": "0.80000000000000004", "status": "inside"},
                     {"s": "1.2", "t": "0.29999999999999999", "status": "outside"}],
          "violators": [{"s": "1.2", "t": "0.29999999999999999"}]}),
        (("dual", "d.json", "--out", "dual.json"),
         {"out": "dual.json", "spectrum_csv": "dual.csv", "norm": "1",
          "radius": "0.9284766908852593"}),
        (("pencil", "m.json", "--which", "e", "--grid", "0.5:2:0.5", "--out", "scan.csv"),
         {"which": "e", "kind": "degenerate-zero", "beta": None, "scan_csv": "scan.csv"}),
    ]
    for argv, doc in expected:
        _, out, _ = run(capsys, *argv)
        assert out.endswith("\n") and out.count("\n") == 1, argv
        assert json.loads(out) == doc
    for name in ("m.json", "d.json", "dual.json"):
        assert (tmp_path / name).read_text().count("\n") == 1


# -- argparse plumbing --------------------------------------------------------

def test_one_parser_serves_every_call_without_leaking_values(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("QBS_EPS", raising=False)
    assert cli._build_parser() is cli._build_parser()
    model = write_pair(tmp_path, *NEAR)
    assert run(capsys, "classify", model, "--region", "subnormal", "--eps", "1e-3")[0] == 0
    assert run(capsys, "classify", model, "--region", "subnormal")[0] == 1  # default eps again
    code, out, _ = run(capsys, "pencil", model, "--which", "e", "--grid", "0:1:0.5",
                       "--out", str(tmp_path / "scan.csv"))
    assert code == 0 and "scan_csv" in json.loads(out)
    code, out, _ = run(capsys, "pencil", model, "--which", "q")
    assert code == 0 and "scan_csv" not in json.loads(out)
    svg = str(tmp_path / "p.svg")
    assert json.loads(run(capsys, "plot", "--region", "subnormal", "--region", "che",
                          "--out", svg)[1])["regions"] == ["subnormal", "m-expansive:2"]
    assert json.loads(run(capsys, "plot", "--out", svg)[1])["regions"] == []
    assert run(capsys, "oracle", "--point", "1.2,0.3")[0] == 1
    code, out, _ = run(capsys, "oracle", "--sequence", "1,1,1,1", "--hankel-order", "1")
    assert code == 0 and json.loads(out)["order"] == 1
    code, out, _ = run(capsys, "oracle", "--sequence", "1,1,1,1,1,1,1,1")
    assert code == 0 and json.loads(out)["order"] == 3  # the default order again
    assert run(capsys, "realize", "--points", "1,0")[0] == 2



def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_required_argument(capsys):
    assert main(["realize", "--points", "1,0"]) == 2
    capsys.readouterr()


def test_no_command(capsys):
    assert main([]) == 2
    capsys.readouterr()


# -- fuzzing the model boundary ----------------------------------------------------
# Every document and every argument list ends in exit 0, 1 or 2 and never in a
# traceback; a document holding non-finite or mistyped data never gets a verdict.

_GOOD = st.one_of(st.floats(0.0, 4.0), st.integers(0, 4), st.floats(0.0, 4.0).map(repr),
                  st.sampled_from([1e-300, 1e154, 1e200, "1.7e308"]))  # squares under- or overflow
_BAD = st.sampled_from([math.nan, math.inf, -math.inf, "nan", "inf", "-Infinity", "x", "",
                        True, False, None, 10 ** 400, {}, [0.5, 0.5, 0.5]])
_BAD_COUNT = _BAD.filter(lambda v: type(v) is not int)  # a huge integer is still a count


@st.composite
def _leaf(draw, good=_GOOD, bad=_BAD):
    """A value and whether it is non-finite or mistyped."""
    if draw(st.integers(0, 9)) < 2:
        return draw(bad), True
    return draw(good), False


@st.composite
def _entry(draw):
    # a matrix entry: a scalar or an [re, im] pair
    if draw(st.booleans()):
        return draw(_leaf())
    (re, bad_re), (im, bad_im) = draw(_leaf()), draw(_leaf())
    return [re, im], bad_re or bad_im


@st.composite
def _array(draw, n):
    """A diagonal of n entries, or in its place a scalar, a string or an object."""
    if draw(st.integers(0, 9)) < 1:
        return draw(st.sampled_from([5, 0.5, "51", "0.5", {"0": 1}, None])), True
    leaves = [draw(_leaf()) for _ in range(n)]
    return [v for v, _ in leaves], any(bad for _, bad in leaves)


def _matrix(draw, rows, cols):
    entries = [[draw(_entry()) for _ in range(cols)] for _ in range(rows)]
    return [[v for v, _ in row] for row in entries], any(b for row in entries for _, b in row)


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(["diagonal", "matrices", "atoms", "embedding"]))
    bad = []
    if kind == "diagonal":
        n = draw(st.integers(1, 3))
        (a, bad_a), (b, bad_b) = draw(_array(n)), draw(_array(n))
        doc, bad = {"type": "pair", "a": a, "b": b}, [bad_a, bad_b]
    elif kind == "matrices":
        n = draw(st.integers(1, 2))
        (a, bad_a), (b, bad_b) = _matrix(draw, n, n), _matrix(draw, n, n)
        doc, bad = {"type": "pair", "A": a, "B": b}, [bad_a, bad_b]
    elif kind == "atoms":
        atoms = []
        for _ in range(draw(st.integers(1, 2))):
            (s, bad_s), (t, bad_t) = draw(_leaf()), draw(_leaf())
            mult, bad_mult = draw(_leaf(st.integers(1, 3), _BAD_COUNT))
            atoms.append({"kind": draw(st.sampled_from(["shift", "unitary"])),
                          "s": s, "t": t, "mult": mult})
            bad += [bad_s, bad_t, bad_mult]
        doc = {"type": "atoms", "atoms": atoms}
    else:
        levels, width = draw(st.integers(1, 2)), 1
        (e, bad_e), (q, bad_q) = _matrix(draw, levels + 1, 1), _matrix(draw, 1, 1)
        (lv, bad_lv), (v, bad_v) = draw(_leaf(st.just(levels), _BAD_COUNT)), draw(_entry())
        doc = {"type": "embedding", "levels": lv, "width": width, "E": e, "Q": q, "v_scale": v}
        bad = [bad_e, bad_q, bad_lv, bad_v]
    if draw(st.booleans()):
        doc["eps"], bad_eps = draw(_leaf(st.floats(0.0, 1e-3)))
        bad.append(bad_eps)
    return doc, any(bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # products of the huge draws overflow
@settings(max_examples=300, deadline=None)
@given(_documents())
def test_no_document_gets_a_traceback_or_a_verdict_on_bad_data(case):
    doc, bad = case
    try:
        model_io.model_from_json(doc)
    except (QbsError, ValueError):
        pass
    else:
        assert not bad, doc
    with tempfile.TemporaryDirectory() as wd:
        path = Path(wd) / "m.json"
        path.write_text(json.dumps(doc))
        for argv in (["classify", str(path), "--region", "subnormal"],
                     ["dual", str(path), "--out", str(Path(wd) / "d.json")]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            if bad:
                assert (code, out.getvalue()) == (2, ""), (argv, doc)


# "101" and "1001" pass the caps on --hankel-order and --levels by one
_TOKENS = st.sampled_from([
    "0", "1", "-1", "0.5", "2", "101", "1001", "nan", "inf", "-inf", "1e400", "x", "",
    "0.6,0.8", "1.2,0.3", "1,1,2", "0.6,0.8;2,0", "nan,0.5", "0.5,inf", "0.5",
    "0:1:0.5", "0:1:0", "1:0:1", "0:nan:1", "a:b:c", "1,1.25,1.5,1.75", "1,nan,1,1",
    "subnormal", "che", "m-expansive:2", "contraction", "bogus", "e", "q"])
_FLAGS = {
    "classify": ["--region", "--eps", "--brownian"],
    "realize": ["--points", "--levels", "--eps"],
    "dual": ["--levels", "--eps"],
    "pencil": ["--which", "--grid", "--eps"],
    "oracle": ["--point", "--sequence", "--hankel-order", "--eps"],
    "plot": ["--region", "--extent", "--spectrum"],
}


@st.composite
def _argument_lists(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    if command in ("classify", "dual", "pencil"):
        argv.append(draw(st.sampled_from(["{pair}", "{embedding}", "{missing}"])))
    for flag in draw(st.lists(st.sampled_from(_FLAGS[command]), max_size=4, unique=True)):
        argv += [flag] if flag == "--brownian" else [flag, draw(_TOKENS)]
    if command in ("realize", "dual", "plot") or "--grid" in argv:
        argv += ["--out", "{out}"]
    return argv


@settings(max_examples=300, deadline=None)
@given(_argument_lists())
def test_no_argument_list_gets_a_traceback_or_a_verdict_on_non_finite_data(argv):
    non_finite = any(word in arg for arg in argv for word in ("nan", "inf", "1e400"))
    with tempfile.TemporaryDirectory() as wd:
        pair, embedding = Path(wd) / "pair.json", Path(wd) / "emb.json"
        model_io.save_model(qbs.PairModel.from_diagonal([0.6, 1.2], [0.8, 0.3]), pair)
        model_io.save_model(qbs.realize_spectrum([(0.6, 0.8), (1.2, 0.3)], 2), embedding)
        files = {"pair": pair, "embedding": embedding, "missing": Path(wd) / "none.json",
                 "out": Path(wd) / "out"}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([arg.format(**files) for arg in argv])
    assert code in (0, 1, 2)
    if non_finite:
        assert (code, out.getvalue()) == (2, "")
