"""Seeded inputs and job schedules of the four workloads.

``build(name, seed, workdir)`` draws every input from ``seed``, writes the
model files through ``qbs.io.save_model`` (malformed ones and spectrum CSVs
are written directly), and returns the schedule: the jobs of one pass, which
a run repeats.

Near-duplicate points come only in pairs: a base point and one copy
jittered by at most 3e-9, which the dedup merges into a point of
multiplicity 2 whichever comes first.  Jitter *chains* (three or more points
a few 1e-9 apart) are left out on purpose: today the merge result of a chain
depends on the input order (ROADMAP item 2), so no reference exists for it.
That defect is not covered by this benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qbs import AtomModel, PairModel, QAtom, ShiftEmbedding, model
from qbs.io import load_model, save_model

from . import reference as ref

WORKLOADS = ("spectrum-large", "embedding-dense", "pencil-scan", "cli-small")

LARGE_TOKENS = ("subnormal", "che", "m-contractive:3", "two-isometry", "dual-subnormal")
ALL_TOKENS = ("subnormal", "contraction", "expansion", "isometry", "two-isometry",
              "m-contractive:1", "m-contractive:2", "m-contractive:3", "m-expansive:1",
              "m-expansive:2", "m-expansive:3", "m-isometric:1", "m-isometric:2",
              "dual-subnormal", "che", "chc", "delta-regular")
LEVELS = 6  # embedding-dense truncation depth; power and omega run at this order
PENCIL_GRID = "0:2:0.05"  # 41 alphas
PENCIL_POINTS = 60
LARGE_BASES, LARGE_TWINS = 400, 200  # spectrum-large: 600 points in the file
SMALL_GRID = "0:2:0.1"


@dataclass
class Job:
    """One closed-loop job: a ``qbs`` command line, or a library call on a loaded model."""

    kind: str
    expect: object  # a reference.* expectation
    argv: tuple[str, ...] = ()
    call: tuple[str, Path, int] | None = None  # (function, model file, order)
    verdicts: int = 0  # point verdicts the job delivers when it succeeds


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    models: dict[Path, object] = field(default_factory=dict)  # files loaded for library jobs


def library_call(job: Job, models: dict):
    """The ``qbs.model`` function and arguments of a library job."""
    name, path, order = job.call
    args = (models[path],) if name == "validate_class_q" else (models[path], order)
    return getattr(model, name), args


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate the inputs of one workload into ``workdir`` and return its schedule."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    maker = {"spectrum-large": _spectrum_large, "embedding-dense": _embedding_dense,
             "pencil-scan": _pencil_scan, "cli-small": _cli_small}[name]
    wl = Workload(name, seed, maker(rng, workdir))
    for job in wl.jobs:
        if job.call is not None and job.call[1] not in wl.models:
            wl.models[job.call[1]] = load_model(job.call[1])[0]
    return wl


# -- point sets ------------------------------------------------------------------


def _scatter(rng, n: int, lo=(0.0, 0.0), hi=(1.6, 1.6), *, disk=False, axis=0.0,
             away=0.0, sep=1e-6, keep=lambda s, t: True) -> np.ndarray:
    """``n`` points clear of every frontier, pairwise at least ``sep`` apart in s.

    ``disk`` keeps only points inside the unit disk, ``axis`` is the share of
    points put exactly on the axis t = 0, ``away`` a minimum distance from the
    origin and ``keep`` any further condition.
    """
    out: list[tuple[float, float]] = []
    taken: list[float] = []
    while len(out) < n:
        s, t = rng.uniform(lo[0], hi[0]), rng.uniform(lo[1], hi[1])
        if rng.random() < axis:
            t = 0.0
        if not ref.clear_of_frontiers(s, t) or (disk and s * s + t * t > 1.0):
            continue
        if np.hypot(s, t) < away or not keep(s, t):
            continue
        if taken and np.min(np.abs(np.asarray(taken) - s)) < sep:
            continue
        taken.append(s)
        out.append((s, t))
    return np.array(out)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, points: np.ndarray, mult: np.ndarray) -> None:
    lines = ["s,t,mult"] + [f"{_fmt(s)},{_fmt(t)},{int(m)}" for (s, t), m in zip(points, mult)]
    path.write_text("\n".join(lines) + "\n")


def _save_pair(path: Path, points: np.ndarray) -> None:
    save_model(PairModel.from_diagonal(points[:, 0], points[:, 1]), path)


def _unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_repeats(rng, points: np.ndarray, p: float = 0.2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maybe repeat one point exactly; returns (file rows, distinct points, multiplicities)."""
    mult = np.ones(len(points), dtype=int)
    rows = points
    if rng.random() < p:
        i = int(rng.integers(len(points)))
        mult[i] += 1
        rows = np.vstack([points, points[i:i + 1]])[rng.permutation(len(points) + 1)]
    return rows, points, mult


# -- spectrum-large --------------------------------------------------------------


def _spectrum_large(rng, wd: Path) -> list[Job]:
    """A 600-point diagonal pair in the unit disk: 400 base points, 200 with a jittered twin."""
    bases = _scatter(rng, LARGE_BASES, disk=True)
    mult = np.ones(LARGE_BASES, dtype=int)
    twins = rng.choice(LARGE_BASES, LARGE_TWINS, replace=False)
    mult[twins] = 2
    rows = np.vstack([bases, bases[twins] + rng.uniform(-3e-9, 3e-9, size=(LARGE_TWINS, 2))])
    model, csv, svg = wd / "large.json", wd / "large.csv", wd / "large.svg"
    _save_pair(model, rows[rng.permutation(len(rows))])
    _write_csv(csv, bases, mult)
    jobs = [Job("classify", ref.Classify(tok, bases, mult), ("classify", str(model), "--region", tok),
                verdicts=len(bases)) for tok in LARGE_TOKENS]
    jobs.append(Job("plot", ref.Plot(("subnormal",), len(bases), svg),
                    ("plot", "--spectrum", str(csv), "--region", "subnormal", "--out", str(svg))))
    return jobs


# -- embedding-dense -------------------------------------------------------------


def _embedding_points(rng, d: int) -> tuple[np.ndarray, np.ndarray]:
    """d points on 8 repeated s values; t distinct within each s cluster."""
    values = [s for s in rng.uniform(0.1, 1.5, size=64) if abs(s - 1.0) >= 0.02][:8]
    s = np.array(values)[rng.integers(0, len(values), size=d)]
    t = np.empty(d)
    for i in range(d):
        while True:
            ti = rng.uniform(0.05, 1.5)
            same = t[:i][s[:i] == s[i]]
            if ref.clear_of_frontiers(s[i], ti) and np.all(np.abs(same - ti) >= 1e-4):
                t[i] = ti
                break
    return s, t


def _embedding_dense(rng, wd: Path) -> list[Job]:
    """Embeddings with d = 60 and 70, levels 6, conjugated by seeded random unitaries."""
    jobs = []
    for k, d in enumerate((60, 70)):
        s, t = _embedding_points(rng, d)
        u, w = _unitary(rng, d), _unitary(rng, d)
        q = s * np.exp(1j * rng.uniform(0, 2 * np.pi, size=d))
        v_scale = complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))
        e = np.zeros(((LEVELS + 1) * d, d), dtype=complex)
        e[:d] = (w * t) @ u.conj().T
        model = wd / f"emb-{k}.json"
        save_model(ShiftEmbedding(LEVELS, d, e, (u * q) @ u.conj().T, v_scale), model)
        emb = ref.Embedding(LEVELS, u, w, q, t, v_scale)
        pts = np.column_stack([s, t])
        ones = np.ones(d, dtype=int)
        token = LARGE_TOKENS[k]
        dual_out = wd / f"emb-{k}-dual.json"
        realize_pts = ";".join(f"{_fmt(a)},{_fmt(b)}" for a, b in pts)
        jobs.extend([
            Job("classify", ref.Classify(token, pts, ones, match_tol=1e-7),
                ("classify", str(model), "--region", token), verdicts=d),
            Job("dual", ref.Dual(pts, ones, dual_out.with_suffix(".csv")),
                ("dual", str(model), "--out", str(dual_out))),
            Job("realize", ref.Realize(LEVELS, d, max(1.0, float(np.max(np.hypot(s, t))))),
                ("realize", "--points", realize_pts, "--levels", str(LEVELS),
                 "--out", str(wd / f"emb-{k}-real.json"))),
            Job("validate_class_q", ref.Library("validate_class_q", emb), call=("validate_class_q", model, 0)),
            Job("power", ref.Library("power", emb, LEVELS), call=("power", model, LEVELS)),
            Job("omega", ref.Library("omega", emb, LEVELS), call=("omega", model, LEVELS)),
        ])
    return jobs


# -- pencil-scan -----------------------------------------------------------------


def _pencil_scan(rng, wd: Path) -> list[Job]:
    """A 60-point diagonal pair scanned along both pencils over 41 alphas."""
    alphas = ref.grid(*(float(x) for x in PENCIL_GRID.split(":")))

    def clear(s, t):
        return all(ref.scan_is_clear([(s, t)], which, alphas) for which in "eq")

    pts = _scatter(rng, PENCIL_POINTS, (0.01, 0.02), (0.97, 0.98), keep=clear)
    model = wd / "pencil.json"
    _save_pair(model, pts)
    return [Job("pencil", ref.Pencil(which, [tuple(p) for p in pts], alphas, wd / f"pencil-{which}.csv"),
                ("pencil", str(model), "--which", which, "--grid", PENCIL_GRID,
                 "--out", str(wd / f"pencil-{which}.csv")),
                verdicts=len(pts) * len(alphas))
            for which in "eq"]


# -- cli-small -------------------------------------------------------------------

_MALFORMED_FILES = (
    '{"type": "pair", "a": ["0.5", "abc"], "b": ["0.1", "0.2"]}',
    '{"type": "pair", "a": [true], "b": [0.5]}',
    '{"type": "pair", "a": [[0.5]], "b": [0.5]}',
    '{"type": "atoms", "atoms": "shift"}',
    '[0.5, 0.25]',
    '{"type": "triple", "a": [0.5]}',
    '{"type": "pair", "a": [0.5',
    '{"type": "atoms", "atoms": [{"kind": "shift", "s": "x", "t": 0.5}]}',
    '{"type": "embedding", "levels": 2, "width": 1}',
)
_NONFINITE_FILES = (
    '{"type": "pair", "a": ["nan", "0.3"], "b": ["0.5", "0.2"]}',
    '{"type": "pair", "a": ["0.4"], "b": ["inf"]}',
    '{"type": "pair", "a": [NaN], "b": [0.5]}',
    '{"type": "pair", "a": [0.2, Infinity], "b": [0.5, 0.1]}',
    '{"type": "atoms", "atoms": [{"kind": "shift", "s": "nan", "t": 0.5}]}',
    '{"type": "atoms", "atoms": [{"kind": "unitary", "s": 0.5, "t": "inf"}]}',
)


def _brownian_atoms(rng, n: int, variant: int) -> tuple[list[QAtom], ref.Brownian]:
    """``n`` atoms on the line s = 1 or the unit circle, alternating unitary and shift.

    Variant 0 keeps every line shift atom weightless (Brownian), variant 1 adds
    a weighted line shift atom (quasi-Brownian only), variant 2 an atom off
    both frontiers (not quasi-Brownian).  Line atoms have t = 0 or t >= 0.1, so
    the eps bands of the line and the circle never overlap, and all (s, t) are
    distinct, so neither spectrum merges points.
    """
    atoms: dict[tuple[float, float], tuple[QAtom, str]] = {}
    while len(atoms) < n:
        kind = ("unitary", "shift")[len(atoms) % 2]
        if rng.random() < 0.5:
            weightless = kind == "shift" and (variant == 0 or rng.random() < 0.5)
            at, cat = QAtom(kind, 1.0, 0.0 if weightless else rng.uniform(0.1, 1.5)), "line"
        else:
            theta = rng.uniform(0.1, 1.47)
            at, cat = QAtom(kind, float(np.cos(theta)), float(np.sin(theta))), "circle"
        atoms.setdefault((at.s, at.t), (at, cat))
    uniq = list(atoms.values())
    if variant == 1:
        uniq.append((QAtom("shift", 1.0, rng.uniform(0.1, 1.5)), "line"))
    if variant == 2:
        s, t = _scatter(rng, 1)[0]
        uniq.append((QAtom("shift", float(s), float(t)), "off"))
    quasi = all(cat != "off" for _, cat in uniq)
    flags = [at for at, cat in uniq if cat == "line" and at.kind == "shift" and at.t > 0.0]
    violators = 0
    for at, cat in uniq:
        if cat == "off":
            violators += 1 + 1 + (at.kind == "shift" and at.s > ref.DEDUP_TOL)
        elif at in flags:
            violators += 1
    parts = None
    if quasi:
        parts = {"h_u": sum(c == "line" and a.kind == "unitary" for a, c in uniq),
                 "h_s": sum(c == "line" and a.kind == "shift" for a, c in uniq),
                 "h_si": sum(c == "circle" for _, c in uniq),
                 "shift_flags": len(flags)}
    return [a for a, _ in uniq], ref.Brownian(quasi, quasi and not flags, violators, parts)


def _cluster(rng, n: int) -> np.ndarray:
    """``n`` points sharing one s value, clear of every frontier, t at least 1e-4 apart."""
    s = rng.uniform(0.05, 1.5)
    while not ref.clear_of_frontiers(s, 0.5, 0.02):
        s = rng.uniform(0.05, 1.5)
    t: list[float] = []
    while len(t) < n:
        ti = rng.uniform(0.05, 1.5)
        if ref.clear_of_frontiers(s, ti) and all(abs(ti - u) >= 1e-4 for u in t):
            t.append(ti)
    return np.column_stack([np.full(n, s), t])


def _cli_small(rng, wd: Path) -> list[Job]:
    """200 mixed jobs on models of 1-8 points, 10% of them malformed."""
    jobs: list[Job] = []
    counter = iter(range(10 ** 6))

    def path(suffix: str) -> Path:
        return wd / f"small-{next(counter):03d}{suffix}"

    def small(n: int, **kw) -> np.ndarray:
        return _scatter(rng, n, sep=1e-4, **kw)

    def sizes(count: int, top: int) -> list[int]:
        # the same multiset of model sizes for every seed, so each pass does the same amount of work
        return [int(n) for n in rng.permutation(np.resize(np.arange(1, top + 1), count))]

    def token() -> str:
        return ALL_TOKENS[int(rng.integers(len(ALL_TOKENS)))]

    def classify(model: Path, pts, mult, tol=ref.DEDUP_TOL):
        tok = token()
        return Job("classify", ref.Classify(tok, pts, mult, tol), ("classify", str(model), "--region", tok),
                   verdicts=len(pts))

    for i, n in enumerate(sizes(60, 8)):
        rows, pts, mult = _with_repeats(rng, small(n, disk=i % 3 == 0, axis=0.15))
        model = path(".json")
        _save_pair(model, rows)
        jobs.append(classify(model, pts, mult))
    for i, n in enumerate(sizes(12, 8)):
        # a repeated |Q| eigenvalue exercises the cluster path of the joint diagonalization
        pts = _cluster(rng, n) if i % 2 else small(n)
        u = _unitary(rng, len(pts))
        model = path(".json")
        save_model(PairModel.from_matrices((u * pts[:, 0]) @ u.conj().T, (u * pts[:, 1]) @ u.conj().T), model)
        jobs.append(classify(model, pts, np.ones(len(pts), dtype=int), tol=1e-9))
    for n in sizes(8, 8):
        pts = small(n)
        kinds = rng.integers(0, 2, size=len(pts))
        model = path(".json")
        save_model(AtomModel(tuple(QAtom(("unitary", "shift")[k], float(s), float(t))
                                   for k, (s, t) in zip(kinds, pts))), model)
        jobs.append(classify(model, pts, np.ones(len(pts), dtype=int)))
    for i, n in enumerate(sizes(16, 4)):
        atoms, expect = _brownian_atoms(rng, n, i % 3)
        model = path(".json")
        save_model(AtomModel(tuple(atoms)), model)
        three = sum(1 + (a.kind == "shift" and a.s > ref.DEDUP_TOL) for a in atoms)
        jobs.append(Job("classify-brownian", expect, ("classify", str(model), "--brownian"),
                        verdicts=len(atoms) + three))
    for n in sizes(12, 6):
        pts = small(n)
        mult = rng.integers(1, 3, size=len(pts))
        levels = int(rng.integers(2, 6))
        text = ";".join(f"{_fmt(s)},{_fmt(t)}" + (f",{m}" if m > 1 else "") for (s, t), m in zip(pts, mult))
        jobs.append(Job("realize", ref.Realize(levels, int(mult.sum()), max(1.0, float(np.max(np.hypot(*pts.T))))),
                        ("realize", "--points", text, "--levels", str(levels), "--out", str(path(".json")))))
    for n in sizes(12, 8):
        rows, pts, mult = _with_repeats(rng, small(n, away=0.3, axis=0.15))
        model, out = path(".json"), path("-dual.json")
        _save_pair(model, rows)
        jobs.append(Job("dual", ref.Dual(pts, mult, out.with_suffix(".csv")),
                        ("dual", str(model), "--out", str(out))))
    alphas = ref.grid(0.0, 2.0, 0.1)
    for i, n in enumerate(sizes(12, 8) + sizes(10, 8)):
        which = "eq"[i % 2]
        gridded = i >= 12
        pts = small(n, axis=0.2, keep=(lambda s, t: ref.scan_is_clear([(s, t)], which, alphas)) if gridded
                    else (lambda s, t: True))
        model = path(".json")
        _save_pair(model, pts)
        argv = ("pencil", str(model), "--which", which)
        if gridded:
            out = path(".csv")
            jobs.append(Job("pencil", ref.Pencil(which, [tuple(p) for p in pts], alphas, out),
                            argv + ("--grid", SMALL_GRID, "--out", str(out)),
                            verdicts=len(pts) * len(alphas)))
        else:
            jobs.append(Job("pencil", ref.Pencil(which, [tuple(p) for p in pts]), argv))
    for i in range(16):
        order = (2, 3, 4)[i % 3]
        s, t = _scatter(rng, 1, (0.0, 0.0), (1.6, 1.6), axis=0.2,
                        keep=lambda s, t: ref.clear_of_frontiers(s, t, 0.05)
                        and not (1.0 < s < 1.1) and not (0.9 < s < 1.0))[0]
        jobs.append(Job("oracle-point", ref.Oracle(ref.member(s, t, "subnormal"), order),
                        ("oracle", "--point", f"{_fmt(s)},{_fmt(t)}", "--hankel-order", str(order)),
                        verdicts=1))
    for i in range(10):
        passed = i % 2 == 0
        n_atoms = int(rng.integers(1, 4)) if passed else int(rng.integers(2, 5))
        x = rng.permutation(np.arange(0.2, 1.05, 0.1))[:n_atoms]
        w = rng.uniform(0.2, 1.0, size=n_atoms)
        if not passed:
            w[0] = -rng.uniform(0.3, 1.0)
        gamma = [float(np.sum(w * x ** n)) for n in range(8)]
        jobs.append(Job("oracle-sequence", ref.Oracle(passed, 3),
                        ("oracle", "--sequence=" + ",".join(_fmt(g) for g in gamma))))
    spectra = iter(sizes(6, 6))
    for i in range(12):
        tokens = tuple(token() for _ in range(1 + i % 3))
        svg = path(".svg")
        argv = ("plot", "--out", str(svg)) + tuple(a for tok in tokens for a in ("--region", tok))
        n = 0
        if i % 2:
            pts = small(next(spectra))
            csv = path(".csv")
            _write_csv(csv, pts, rng.integers(1, 3, size=len(pts)))
            argv += ("--spectrum", str(csv))
            n = len(pts)
        jobs.append(Job("plot", ref.Plot(tokens, n, svg), argv))
    good = path(".json")
    _save_pair(good, small(3))
    for i in range(14):
        if i < len(_MALFORMED_FILES):
            bad = path(".json")
            bad.write_text(_MALFORMED_FILES[i])
            argv = ("classify", str(bad), "--region", token())
        else:
            argv = (("classify", str(path("-missing.json")), "--region", "subnormal"),
                    ("realize", "--points", "0.5,abc", "--out", str(path(".json"))),
                    ("oracle", "--sequence", "1,abc,0.5,0.25"),
                    ("pencil", str(good), "--which", "e", "--grid", "0:x:0.1", "--out", str(path(".csv"))),
                    ("classify", str(good), "--region", "m-contractive:x"))[i - len(_MALFORMED_FILES)]
        jobs.append(Job("malformed", ref.Malformed(), argv))
    for i, text in enumerate(_NONFINITE_FILES):
        bad = path(".json")
        bad.write_text(text)
        argv = ("classify", str(bad), "--brownian") if i == 4 else ("classify", str(bad), "--region", token())
        jobs.append(Job("nonfinite", ref.Malformed(nonfinite=True), argv))
    return [jobs[i] for i in rng.permutation(len(jobs))]
