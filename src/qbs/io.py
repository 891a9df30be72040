"""Model files: JSON in, JSON out.

One document describes exactly one model:

* ``{"type": "pair", "a": [...], "b": [...]}`` or
  ``{"type": "pair", "A": [[...]], "B": [[...]]}``
* ``{"type": "atoms", "atoms": [{"kind": "shift", "s": 1.0, "t": 1.0, "mult": 1}]}``
* ``{"type": "embedding", "levels": L, "width": w, "v_scale": [re, im],
  "E": [[...]], "Q": [[...]]}``

Scalars may be numbers or decimal strings and must be finite; complex
entries are ``[re, im]`` pairs.  The diagonals ``a`` and ``b`` are JSON
arrays.  The counts ``levels``, ``width`` and ``mult`` are JSON integers
>= 1.  Writers emit one compact JSON line (the C encoder) whose numbers are
17-significant-digit decimal strings, so a file round-trips the in-memory
values exactly.  Arrays are read in one C-level pass; only a
rejected one is walked entry by entry, to name the bad entry.  An optional
top-level ``eps`` records the tolerance the model was prepared with; it must
not be negative.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ModelFormatError
from .jointspec import SpectralPoint, format_float, format_floats
from .model import AtomKind, AtomModel, PairModel, QAtom, ShiftEmbedding

_MODEL_TYPES = ("pair", "atoms", "embedding")
_SCALAR_TYPES = {int, float, str}  # exact types, so bool (an int subclass) is no number


def _real(value, where: str) -> float:
    if isinstance(value, bool):
        raise ModelFormatError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, (int, float, str)):
        raise ModelFormatError(f"{where}: expected a number or decimal string")
    try:
        x = float(value)
    except OverflowError:  # an integer beyond the double range
        x = math.inf
    except ValueError:
        raise ModelFormatError(f"{where}: cannot parse {value!r} as a number") from None
    if not math.isfinite(x):
        raise ModelFormatError(f"{where}: {value!r} is not a finite number")
    return x


def _count(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ModelFormatError(f"{where}: expected an integer >= 1, got {value!r}")
    return value


def _complex(value, where: str) -> complex:
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ModelFormatError(f"{where}: a complex entry is a [re, im] pair")
        return complex(_real(value[0], where), _real(value[1], where))
    return complex(_real(value, where))


def _floats(values: list) -> np.ndarray | None:
    """``float()`` of every entry in one pass, or None if :func:`_real` rejects one."""
    if not set(map(type, values)) <= _SCALAR_TYPES:
        return None
    try:
        x = np.fromiter(map(float, values), dtype=float, count=len(values))
    except (ValueError, OverflowError):
        return None
    return x if np.isfinite(x).all() else None


def _reals(values, where: str) -> list[float]:
    """A JSON array of real scalars; the entry walk only runs to name a bad entry."""
    if not isinstance(values, list):
        raise ModelFormatError(f"{where}: expected a list of numbers, got {type(values).__name__}")
    x = _floats(values)
    return [_real(v, f"{where}[{i}]") for i, v in enumerate(values)] if x is None else x.tolist()


def _matrix(rows, where: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ModelFormatError(f"{where}: expected a list of rows")
    width = len(rows[0])
    if width == 0 or any(len(r) != width for r in rows):
        raise ModelFormatError(f"{where}: rows must be nonempty and of equal length")
    # complex entries are [re, im] pairs; a bare scalar is the pair (value, 0)
    pairs = [v if type(v) is list else (v, 0) for v in chain.from_iterable(rows)]
    x = _floats(list(chain.from_iterable(pairs))) if set(map(len, pairs)) == {2} else None
    if x is None:
        return np.array([[_complex(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)]
                         for i, row in enumerate(rows)], dtype=complex)
    return x.view(complex).reshape(len(rows), width)


def _matrix_json(a: np.ndarray) -> list[list[list[str]]]:
    a = np.ascontiguousarray(a, dtype=complex)
    parts = iter(format_floats(a.view(float)))  # re, im, re, im, ...
    pairs = list(map(list, zip(parts, parts)))
    width = a.shape[1]
    return [pairs[i * width:(i + 1) * width] for i in range(a.shape[0])]


def points_to_json(points: Iterable[SpectralPoint]) -> list[dict]:
    """JSON objects of spectral points: ``s``, ``t``, ``r`` if present, ``mult`` if not 1."""
    points = tuple(points)
    docs = [{"s": s, "t": t} for s, t in zip(format_floats([p.s for p in points]),
                                             format_floats([p.t for p in points]))]
    for doc, p in zip(docs, points):
        if p.r is not None:
            doc["r"] = format_float(p.r)
        if p.mult != 1:
            doc["mult"] = p.mult
    return docs


def atom_to_json(at: QAtom) -> dict:
    return {"kind": at.kind.value, "s": format_float(at.s),
            "t": format_float(at.t), "mult": at.mult}


def model_from_json(doc, where: str = "model"):
    """Parse one model document; returns ``(model, eps_or_None)``."""
    if not isinstance(doc, dict):
        raise ModelFormatError(f"{where}: expected a JSON object")
    kind = doc.get("type")
    if kind not in _MODEL_TYPES:
        raise ModelFormatError(f"{where}: 'type' must be one of {_MODEL_TYPES}, got {kind!r}")
    eps = _real(doc["eps"], f"{where}.eps") if "eps" in doc else None
    if eps is not None and eps < 0.0:
        raise ModelFormatError(f"{where}.eps: the model file's eps = {eps!r} is negative")
    if kind == "pair":
        has_diag = "a" in doc or "b" in doc
        has_mat = "A" in doc or "B" in doc
        if has_diag == has_mat:
            raise ModelFormatError(f"{where}: a pair carries either a/b or A/B")
        if has_diag:
            if "a" not in doc or "b" not in doc:
                raise ModelFormatError(f"{where}: diagonal pair needs both 'a' and 'b'")
            return (PairModel.from_diagonal(_reals(doc["a"], f"{where}.a"),
                                            _reals(doc["b"], f"{where}.b")), eps)
        if "A" not in doc or "B" not in doc:
            raise ModelFormatError(f"{where}: matrix pair needs both 'A' and 'B'")
        return (PairModel.from_matrices(_matrix(doc["A"], f"{where}.A"),
                                        _matrix(doc["B"], f"{where}.B")), eps)
    if kind == "atoms":
        entries = doc.get("atoms")
        if not isinstance(entries, list) or not entries:
            raise ModelFormatError(f"{where}: 'atoms' must be a nonempty list")
        atoms = []
        for i, at in enumerate(entries):
            ctx = f"{where}.atoms[{i}]"
            if not isinstance(at, dict):
                raise ModelFormatError(f"{ctx}: expected an object")
            try:
                k = AtomKind(at.get("kind"))
            except ValueError:
                raise ModelFormatError(f"{ctx}: 'kind' must be 'unitary' or 'shift'") from None
            atoms.append(QAtom(k, _real(at.get("s", None), f"{ctx}.s"),
                               _real(at.get("t", None), f"{ctx}.t"),
                               _count(at.get("mult", 1), f"{ctx}.mult")))
        return AtomModel(tuple(atoms)), eps
    for key in ("levels", "width", "E", "Q"):
        if key not in doc:
            raise ModelFormatError(f"{where}: embedding needs '{key}'")
    v_scale = _complex(doc["v_scale"], f"{where}.v_scale") if "v_scale" in doc else 1.0 + 0.0j
    return (ShiftEmbedding(_count(doc["levels"], f"{where}.levels"),
                           _count(doc["width"], f"{where}.width"),
                           _matrix(doc["E"], f"{where}.E"),
                           _matrix(doc["Q"], f"{where}.Q"), v_scale), eps)


def model_to_json(model, eps: float | None = None) -> dict:
    if isinstance(model, PairModel):
        if model.is_diagonal:
            doc = {"type": "pair", "a": format_floats(model.a), "b": format_floats(model.b)}
        else:
            doc = {"type": "pair", "A": _matrix_json(model.A), "B": _matrix_json(model.B)}
    elif isinstance(model, AtomModel):
        doc = {"type": "atoms", "atoms": [atom_to_json(at) for at in model.atoms]}
    elif isinstance(model, ShiftEmbedding):
        doc = {"type": "embedding", "levels": model.levels, "width": model.width,
               "v_scale": format_floats([model.v_scale.real, model.v_scale.imag]),
               "E": _matrix_json(model.E), "Q": _matrix_json(model.Q)}
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    if eps is not None:
        doc["eps"] = format_float(eps)
    return doc


def load_model(path):
    """Read a model file; returns ``(model, eps_or_None)``."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ModelFormatError(f"{p}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{p}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return model_from_json(doc, where=str(p))


def save_model(model, path, eps: float | None = None) -> None:
    """Write ``model`` as one compact JSON line (the C encoder; no indentation)."""
    Path(path).write_text(json.dumps(model_to_json(model, eps)) + "\n")
