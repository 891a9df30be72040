"""Each job factors each matrix once: counts of numpy.linalg calls per job.

A repeated Hermitian test, SVD norm or eigendecomposition shows up here as a
count above its pin.  ``norm`` counts the operator norm (``ord=2``, one SVD)
only; the column norms of a spectrum route are no factorization.
"""

from collections import Counter

import numpy as np
import pytest

import qbs
from qbs import io as model_io
from qbs.cli import main

_WRAPPED = ("norm", "svd", "eigh", "eigvalsh")


@pytest.fixture
def factorizations(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if name != "norm" or args[1:2] == (2,) or kwargs.get("ord") == 2:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _WRAPPED:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    return counts


def _dense_pair(d=6, seed=4):
    """A commuting PSD pair in a random complex basis, with distinct eigenvalues."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    s, t = rng.permutation(np.linspace(0.3, 1.4, d)), rng.uniform(0.2, 1.2, d)
    return (u * s) @ u.conj().T, (u * t) @ u.conj().T


def _rotated_embedding(d=60, levels=6, seed=5):
    rng = np.random.default_rng(seed)
    emb = qbs.realize_spectrum([(0.1 + 0.02 * i, 0.2 + 0.01 * i) for i in range(d)], levels)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    return qbs.ShiftEmbedding(levels, d, emb.E @ u, u.conj().T @ emb.Q @ u)


def _counts(counts, job):
    """``job()`` and the numpy.linalg calls it made."""
    counts.clear()
    result = job()
    return result, {name: counts[name] for name in _WRAPPED}


def test_cli_jobs_on_a_dense_pair_and_the_oracle(tmp_path, capsys, factorizations):
    path = tmp_path / "pair.json"
    model_io.save_model(qbs.PairModel.from_matrices(*_dense_pair()), path)
    jobs = {
        # load: one eigh of A, then the Hermitian defects of A and B and the commutator
        "classify": (["classify", str(path), "--region", "expansion"],
                     (1, {"norm": 3, "svd": 0, "eigh": 1, "eigvalsh": 0})),
        # plus eigh of Omega_1, and the dual's spectrum: one SVD of Q' and its commutator
        "dual": (["dual", str(path), "--out", str(tmp_path / "d.json")],
                 (0, {"norm": 4, "svd": 1, "eigh": 2, "eigvalsh": 0})),
        # a passing oracle: one eigvalsh per Hankel matrix
        "oracle": (["oracle", "--point", "0.6,0.3"],
                   (0, {"norm": 0, "svd": 0, "eigh": 0, "eigvalsh": 2})),
    }
    for name, (argv, expected) in jobs.items():
        assert _counts(factorizations, lambda: main(argv)) == expected, name
    capsys.readouterr()


def test_library_calls_on_an_embedding(factorizations):
    emb = _rotated_embedding()
    # two residual norms; |Q|, |E| and the norm of E's layers 1.. from their Gram matrices
    report, counts = _counts(factorizations, lambda: qbs.validate_class_q(emb))
    assert report.verdict and counts == {"norm": 2, "svd": 0, "eigh": 0, "eigvalsh": 3}
    _, counts = _counts(factorizations, lambda: qbs.cauchy_dual(emb))
    assert counts == {"norm": 0, "svd": 0, "eigh": 1, "eigvalsh": 0}


def test_cli_jobs_build_no_spectral_point_objects(tmp_path, capsys, monkeypatch):
    # the spectrum is held as arrays; point objects are built only when asked for
    made = []
    init = qbs.SpectralPoint.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    rng = np.random.default_rng(6)
    pair, emb = tmp_path / "pair.json", tmp_path / "emb.json"
    model_io.save_model(qbs.PairModel.from_diagonal(*rng.uniform(0.0, 1.2, (2, 600))), pair)
    model_io.save_model(_rotated_embedding(d=6), emb)
    monkeypatch.setattr(qbs.SpectralPoint, "__init__", counted)
    for path in (pair, emb):
        for argv in (["classify", str(path), "--region", "subnormal"],
                     ["pencil", str(path), "--which", "e", "--grid", "0:2:0.05",
                      "--out", str(tmp_path / "scan.csv")],
                     ["dual", str(path), "--levels", "1", "--out", str(tmp_path / "dual.json")]):
            assert main(argv) in (0, 1) and not made, (argv, len(made))
    capsys.readouterr()
