"""Independent references and the per-job output check.

Every expectation here is computed from the data the generator drew (base
points, atoms, unitaries, measures), never from ``qbs`` itself:

* region membership from the closed-form region table of the paper;
* norms as ``max(1, radius)`` of the generating points;
* pencil intervals from the endpoint formulas
  ``beta_E = min sqrt(1 - s^2) / t`` and ``beta_Q = min sqrt(1 - t^2) / s``;
* powers and gram blocks of an embedding from its diagonal form;
* exit code 2 for malformed input.

Generators place every base point at least ``MARGIN`` from every region
frontier, so the ``EPS`` band of the classifier never makes a reference
ambiguous.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = 1e-9  # the CLI's default tolerance; no model file or flag overrides it
MARGIN = 1e-5  # minimum distance of a base point from any region frontier
DEDUP_TOL = 1e-8  # documented merge distance of a joint spectrum

_ALIASES = {"che": "m-expansive:2", "chc": "contraction", "delta-regular": "expansion"}

PASS, FAIL, KNOWN_DEFECT = "pass", "fail", "known-defect"


def canonical(token: str) -> str:
    return _ALIASES.get(token, token)


def member(s: float, t: float, token: str) -> bool:
    """Closed-form membership of a point clear of every frontier (or exactly on the axis)."""
    name, _, order = canonical(token).partition(":")
    m = int(order) if order else None
    s, t = float(s), float(t)
    rr = s * s + t * t
    disk, outside, axis, line = rr <= 1.0, rr >= 1.0, t == 0.0, s == 1.0
    circle = rr == 1.0
    if name == "subnormal":
        return disk or axis
    if name == "contraction":
        return disk
    if name == "expansion":
        return outside
    if name == "isometry":
        return circle
    if name == "two-isometry":
        return circle or line
    if name == "m-contractive":
        if m == 1:
            return disk
        return disk or line if m % 2 else disk or s >= 1.0
    if name == "m-expansive":
        return outside if m % 2 else outside and s <= 1.0
    if name == "m-isometric":
        return circle if m == 1 else circle or line
    if name == "dual-subnormal":
        return outside or axis
    raise ValueError(f"no closed form for region {token!r}")


def clear_of_frontiers(s: float, t: float, margin: float = MARGIN) -> bool:
    """At least ``margin`` from the unit circle and the line s = 1; on or well off the axis."""
    return ((t == 0.0 or t >= margin) and abs(s - 1.0) >= margin
            and abs(s * s + t * t - 1.0) >= margin)


def grid(start: float, stop: float, step: float) -> list[float]:
    """The alphas of ``--grid START:STOP:STEP``: start + i * step up to stop inclusive."""
    out, i = [], 0
    while start + i * step <= stop + 1e-9 * step:
        out.append(start + i * step)
        i += 1
    return out


def pencil_interval(points, which: str) -> tuple[str, float | None]:
    """Subnormality interval of the E (``which='e'``) or Q pencil: ``(kind, beta)``."""
    if which == "e":
        sharp = [(s, t) for s, t in points if t > EPS]
        if not sharp:
            return "all-of-r-plus", None
        if any(s > 1.0 + EPS for s, _ in sharp):
            return "degenerate-zero", None
        beta = min(math.sqrt(max(1.0 - s * s, 0.0)) / t for s, t in sharp)
    else:
        if any(t > 1.0 + EPS for _, t in points):
            return "empty", None
        flat = [(s, t) for s, t in points if s > EPS and t > EPS]
        if not flat:
            return "all-of-r-plus", None
        beta = min(math.sqrt(max(1.0 - t * t, 0.0)) / s for s, t in flat)
    return ("closed", beta) if beta > 0.0 else ("degenerate-zero", None)


def scaled(points, which: str, alpha: float):
    """The spectrum of the pencil member: alpha scales t (E pencil) or s (Q pencil)."""
    if which == "e":
        return [(s, alpha * t) for s, t in points]
    return [(alpha * s, t) for s, t in points]


def scan_is_clear(points, which: str, alphas) -> bool:
    """True when no scaled point comes within MARGIN of the disk frontier (off the axis)."""
    return all(t == 0.0 or abs(s * s + t * t - 1.0) >= MARGIN
               for a in alphas for s, t in scaled(points, which, a))


# -- expectations, one class per job kind --------------------------------------


@dataclass
class Classify:
    """Per-point statuses of ``classify --region`` against the generating points."""

    token: str
    points: np.ndarray  # distinct base points, shape (n, 2)
    mult: np.ndarray  # multiplicity of each base point
    match_tol: float = DEDUP_TOL  # how far a reported point may sit from its base

    def statuses(self) -> list[bool]:
        return [member(s, t, self.token) for s, t in self.points]


@dataclass
class Brownian:
    quasi: bool
    brownian: bool
    violators: int
    parts: dict[str, int] | None  # sizes of h_u, h_s, h_si, shift_flags when quasi


@dataclass
class Realize:
    levels: int
    width: int
    norm: float


@dataclass
class Dual:
    """Cauchy dual: the spectrum is psi(p) = p / |p|^2 of every base point."""

    points: np.ndarray
    mult: np.ndarray
    csv: Path

    @property
    def radius(self) -> float:
        return float(1.0 / np.min(np.hypot(self.points[:, 0], self.points[:, 1])))


@dataclass
class Pencil:
    which: str
    points: list[tuple[float, float]]
    alphas: list[float] | None = None
    csv: Path | None = None


@dataclass
class Oracle:
    passed: bool
    order: int


@dataclass
class Plot:
    tokens: tuple[str, ...]
    points: int
    svg: Path


@dataclass
class Malformed:
    """Expected exit 2 with an error line and no verdict."""

    nonfinite: bool = False  # documented defect: verdicts on NaN/inf data (ROADMAP item 4)


@dataclass
class Embedding:
    """Diagonal form of a generated embedding: Q = U diag(q) U*, E0 = W diag(t) U*."""

    levels: int
    u: np.ndarray
    w: np.ndarray
    q: np.ndarray  # complex eigenvalues of Q, |q| = s
    t: np.ndarray
    v_scale: complex

    def power_blocks(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(Q^n, E_n) with E_n's layer k equal to v^k W diag(t q^(n-1-k)) U*."""
        d = len(self.q)
        uh = self.u.conj().T
        qn = (self.u * self.q ** n) @ uh
        en = np.zeros(((self.levels + 1) * d, d), dtype=complex)
        for k in range(n):
            en[k * d:(k + 1) * d] = self.v_scale ** k * (self.w * (self.t * self.q ** (n - 1 - k))) @ uh
        return qn, en

    def omega(self, n: int) -> np.ndarray:
        """U diag(phi_n(s, t)) U*, phi_n = t^2 sum_{j<n} s^(2j) + s^(2n)."""
        s2 = np.abs(self.q) ** 2
        phi = self.t ** 2 * sum(s2 ** j for j in range(n)) + s2 ** n
        return (self.u * phi) @ self.u.conj().T


@dataclass
class Library:
    name: str  # validate_class_q, power, omega
    emb: Embedding
    n: int = 0


# -- the check ------------------------------------------------------------------


@dataclass
class Outcome:
    status: str
    reason: str = ""


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _match(reported: np.ndarray, base: np.ndarray, tol: float) -> np.ndarray | None:
    """Index of the base point each reported point sits on, or None if any is off or shared."""
    if reported.shape != base.shape:
        return None
    dist = np.max(np.abs(reported[:, None, :] - base[None, :, :]), axis=2)
    idx = np.argmin(dist, axis=1)
    if np.any(dist[np.arange(len(idx)), idx] > tol) or len(set(idx.tolist())) != len(idx):
        return None
    return idx


def _doc(out: str) -> dict | None:
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def _rows(path: Path) -> list[list[str]] | None:
    try:
        lines = path.read_text().strip().splitlines()
    except OSError:
        return None
    return [ln.split(",") for ln in lines]


def check(ref, rc: int | None, out: str, result=None) -> Outcome:
    """Compare one job's exit code and output (or library result) with its reference."""
    if isinstance(ref, Malformed):
        if rc == 2 and not out.strip():
            return Outcome(PASS)
        doc = _doc(out)
        if ref.nonfinite and rc in (0, 1) and doc is not None:
            return Outcome(KNOWN_DEFECT, f"non-finite input got a verdict (exit {rc})")
        return Outcome(FAIL, f"malformed input: exit {rc}, expected 2")
    if isinstance(ref, Library):
        return _check_library(ref, result)
    if rc is None:
        return Outcome(FAIL, "raised")
    doc = _doc(out)
    if doc is None:
        return Outcome(FAIL, f"exit {rc} without a JSON document")
    try:
        reason = _CHECKS[type(ref)](ref, rc, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        reason = f"malformed output: {exc!r}"
    return Outcome(FAIL, reason) if reason else Outcome(PASS)


def _check_classify(ref: Classify, rc, doc) -> str:
    inside = ref.statuses()
    verdict = all(inside)
    if doc["region"] != canonical(ref.token) or doc["verdict"] is not verdict:
        return f"verdict {doc['verdict']} for {ref.token}, expected {verdict}"
    if rc != (0 if verdict else 1):
        return f"exit {rc} for verdict {verdict}"
    pts = doc["points"]
    reported = np.array([[float(p["s"]), float(p["t"])] for p in pts]).reshape(-1, 2)
    idx = _match(reported, ref.points, ref.match_tol)
    if idx is None:
        return f"{len(pts)} reported points do not match the {len(ref.points)} base points"
    for p, i in zip(pts, idx):
        if p.get("mult", 1) != ref.mult[i]:
            return f"multiplicity {p.get('mult', 1)} at base {ref.points[i]}, expected {ref.mult[i]}"
        if p["status"] != ("inside" if inside[i] else "outside"):
            return f"status {p['status']} at base {ref.points[i]}"
    if len(doc["violators"]) != inside.count(False):
        return "violator count"
    return ""


def _check_brownian(ref: Brownian, rc, doc) -> str:
    if doc["quasi_brownian"] is not ref.quasi or doc["brownian"] is not ref.brownian:
        return f"quasi/brownian {doc['quasi_brownian']}/{doc['brownian']}, expected {ref.quasi}/{ref.brownian}"
    if rc != (0 if ref.brownian else 1):
        return f"exit {rc}"
    if len(doc["violators"]) != ref.violators:
        return f"{len(doc['violators'])} violators, expected {ref.violators}"
    parts = doc.get("decomposition")
    got = None if parts is None else {k: len(v) for k, v in parts.items()}
    if got != ref.parts:
        return f"decomposition {got}, expected {ref.parts}"
    return ""


def _check_realize(ref: Realize, rc, doc) -> str:
    if rc != 0 or doc["levels"] != ref.levels or doc["width"] != ref.width:
        return f"exit {rc}, levels {doc['levels']}, width {doc['width']}"
    if not Path(doc["out"]).is_file():
        return "no model file"
    return "" if _close(float(doc["norm"]), ref.norm, 1e-9) else f"norm {doc['norm']}, expected {ref.norm}"


def _check_dual(ref: Dual, rc, doc) -> str:
    if rc != 0 or not Path(doc["out"]).is_file():
        return f"exit {rc} or no model file"
    if not _close(float(doc["radius"]), ref.radius, 1e-8):
        return f"radius {doc['radius']}, expected {ref.radius}"
    if not _close(float(doc["norm"]), max(1.0, ref.radius), 1e-8):
        return f"norm {doc['norm']}"
    rows = _rows(ref.csv)
    if rows is None or rows[0] != ["s", "t", "mult"]:
        return "no spectrum CSV"
    got = np.array([[float(r[0]), float(r[1])] for r in rows[1:]]).reshape(-1, 2)
    rr = np.sum(ref.points ** 2, axis=1)[:, None]
    want = ref.points / rr
    idx = _match(got, want, 1e-7 * max(1.0, float(np.max(want))))
    if idx is None:
        return "dual spectrum does not match psi of the base points"
    if [int(r[2]) for r in rows[1:]] != [int(ref.mult[i]) for i in idx]:
        return "dual multiplicities"
    return ""


def _check_pencil(ref: Pencil, rc, doc) -> str:
    kind, beta = pencil_interval(ref.points, ref.which)
    if rc != 0 or doc["which"] != ref.which or doc["kind"] != kind:
        return f"exit {rc}, kind {doc['kind']}, expected {kind}"
    if (doc["beta"] is None) != (beta is None):
        return "beta presence"
    if beta is not None and not _close(float(doc["beta"]), beta, 1e-12):
        return f"beta {doc['beta']}, expected {beta}"
    if ref.alphas is None:
        return ""
    rows = _rows(ref.csv)
    if rows is None or rows[0] != ["alpha", "subnormal"] or len(rows) != len(ref.alphas) + 1:
        return "scan CSV shape"
    for (a_txt, ok), a in zip(rows[1:], ref.alphas):
        want = all(member(s, t, "subnormal") for s, t in scaled(ref.points, ref.which, a))
        if float(a_txt) != a or ok != ("true" if want else "false"):
            return f"scan row {a_txt},{ok}; expected {a!r},{want}"
    return ""


def _check_oracle(ref: Oracle, rc, doc) -> str:
    if doc["passed"] is not ref.passed or doc["order"] != ref.order:
        return f"passed {doc['passed']}, expected {ref.passed}"
    return "" if rc == (0 if ref.passed else 1) else f"exit {rc}"


_CIRCLE = re.compile(r"<circle ")


def _check_plot(ref: Plot, rc, doc) -> str:
    if rc != 0 or doc["regions"] != [canonical(t) for t in ref.tokens] or doc["points"] != ref.points:
        return f"exit {rc}, regions {doc['regions']}, points {doc['points']}"
    try:
        svg = ref.svg.read_text()
    except OSError:
        return "no SVG"
    if not svg.startswith("<svg") or len(_CIRCLE.findall(svg)) != ref.points:
        return "SVG does not draw one circle per point"
    return ""


def _check_library(ref: Library, result) -> Outcome:
    emb = ref.emb
    if ref.name == "validate_class_q":
        ok = result is not None and result.verdict and all(c.passed for c in result.checks)
        return Outcome(PASS) if ok else Outcome(FAIL, "generated embedding failed an axiom")
    if ref.name == "power":
        qn, en = emb.power_blocks(ref.n)
        got = (result.Q, result.E) if result is not None else None
        pairs = zip(got, (qn, en)) if got is not None else ()
        ok = got is not None and all(
            np.max(np.abs(g - w)) <= 1e-9 * (1.0 + np.max(np.abs(w))) for g, w in pairs)
        return Outcome(PASS) if ok else Outcome(FAIL, "T^n blocks differ from the diagonal form")
    want = emb.omega(ref.n)
    ok = result is not None and np.max(np.abs(result - want)) <= 1e-9 * (1.0 + np.max(np.abs(want)))
    return Outcome(PASS) if ok else Outcome(FAIL, "Omega_n differs from U diag(phi_n) U*")


_CHECKS = {Classify: _check_classify, Brownian: _check_brownian, Realize: _check_realize,
           Dual: _check_dual, Pencil: _check_pencil, Oracle: _check_oracle, Plot: _check_plot}
