"""Traced replay: the public calls each ``qbs`` subcommand makes, one span per call.

``replay(job, tracer, models)`` re-runs a job as the sequence of public
library calls that ``qbs.cli`` makes for it, e.g. for ``classify`` on an
embedding::

    io.load_model -> linalg.modulus (|Q|, |E|) -> PairModel.from_matrices
    -> linalg.simultaneous_diagonalize -> JointSpectrum(...) -> regions.classify
    -> JSON emit

Each call is wrapped in a span (layer, name, start, end, parent, job id)
recorded by :class:`Tracer`; the job itself is the root span of layer
``cli``, so argument parsing, JSON emit and glue are its self time.  Counts
(points in and out, cells, bytes) are read from the arguments and return
values at the same call sites.  Nothing inside ``qbs`` is patched; the replay
mirrors ``qbs/cli.py`` as of this benchmark's commit and writes the same
stdout and files, which the reference check verifies like any other output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from qbs import cli, dual, jointspec, linalg, model, moments, pencils, plots, regions
from qbs import io as model_io
from qbs.errors import NotQuasiBrownian, QbsError

from .workloads import library_call

LAYERS = ("io", "model", "linalg", "jointspec", "regions", "moments", "pencils", "dual", "cli", "plots")


@dataclass
class Span:
    id: int
    layer: str
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``model`` spans also record their tracemalloc peak."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1

    def call(self, layer: str, name: str, fn, *args, count=None, **kwargs):
        span = Span(len(self.spans), layer, name, self.job,
                    self._stack[-1] if self._stack else None, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        trace_alloc = layer == "model" and not tracemalloc.is_tracing()
        if trace_alloc:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.counts["errors"] = 1
            raise
        finally:
            span.end = time.perf_counter()
            if trace_alloc:
                span.counts["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()
        if count is not None:
            span.counts.update(count(result))
        return result

    def add(self, **counts) -> None:
        """Add counts to the innermost open span."""
        self.spans[self._stack[-1]].counts.update(counts)

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "layer": s.layer, "name": s.name, "job": s.job,
                                     "parent": s.parent, "start": s.start, "end": s.end,
                                     **s.counts}) + "\n")


def per_layer(spans: list[Span], jobs: int) -> dict[str, float]:
    """Self time and counts per layer, per replayed job."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total: dict[str, float] = {}
    inclusive = {"validate_class_q": 0.0, "power": 0.0, "omega": 0.0}
    peak = 0
    for s, c in zip(spans, child):
        self_s[s.layer] += s.end - s.start - c
        if s.parent is not None:
            calls[s.layer] += 1
        for key, value in s.counts.items():
            if key == "peak_alloc":
                peak = max(peak, value)
            else:
                total[f"{s.layer}.{key}"] = total.get(f"{s.layer}.{key}", 0) + value
        if s.name in inclusive:
            inclusive[s.name] += s.end - s.start
    n = max(jobs, 1)
    out = {f"{layer}.self_s": self_s[layer] / n for layer in LAYERS}
    for layer in ("jointspec", "linalg", "dual", "io", "moments"):
        out[f"{layer}.calls"] = calls[layer] / n
    for key in ("jointspec.points_in", "jointspec.points_out", "pencils.cells", "io.bytes_read",
                "io.bytes_written", "io.errors", "regions.point_tests", "plots.bytes_written",
                "cli.emit_bytes"):
        out[key] = total.get(key, 0) / n
    pin = total.get("jointspec.points_in", 0)
    out["jointspec.kept_ratio"] = total.get("jointspec.points_out", 0) / pin if pin else 0.0
    for name, value in inclusive.items():
        out[f"model.{name.removesuffix('_class_q')}_s"] = value / n
    out["model.peak_alloc_mb"] = peak / 2 ** 20
    return out


# -- counts read at the call sites ---------------------------------------------


def _file_bytes(path) -> dict:
    return {"bytes_written": os.path.getsize(path)}


def _spectrum_counts(points_in: int):
    return lambda sigma: {"points_in": points_in, "points_out": len(sigma)}


# -- the replay of each subcommand ----------------------------------------------


def _pair_of(tr: Tracer, emb, eps):
    """ShiftEmbedding.pair: the commuting pair (|Q|, |E|)."""
    q = tr.call("linalg", "modulus", linalg.modulus, emb.Q, eps)
    e = tr.call("linalg", "modulus", linalg.modulus, emb.E, eps)
    return tr.call("model", "PairModel.from_matrices", model.PairModel.from_matrices, q, e, eps)


def _spectrum(tr: Tracer, m, eps) -> jointspec.JointSpectrum:
    """cli._spectrum_of and jointspec.joint_spectrum, one layer call at a time."""
    if isinstance(m, model.AtomModel):
        return tr.call("model", "atom_spectra", model.atom_spectra, m)[0]
    if isinstance(m, model.ShiftEmbedding):
        m = _pair_of(tr, m, eps)
    if m.is_diagonal:
        return tr.call("jointspec", "joint_spectrum", jointspec.joint_spectrum, m, eps=eps,
                       count=_spectrum_counts(m.dim))
    _, avals, bvals = tr.call("linalg", "simultaneous_diagonalize", linalg.simultaneous_diagonalize,
                              m.A, m.B, eps)
    pts = tuple(jointspec.SpectralPoint(float(s), float(t)) for s, t in zip(avals, bvals))
    return tr.call("jointspec", "JointSpectrum", jointspec.JointSpectrum, pts,
                   count=_spectrum_counts(len(pts)))


def _norm(tr: Tracer, emb, eps) -> float:
    """model.operator_norm: max(1, radius of the joint spectrum)."""
    sigma = _spectrum(tr, emb, eps)
    return max(1.0, tr.call("jointspec", "radius", jointspec.radius, sigma))


def _load(tr: Tracer, path, eps_flag):
    m, file_eps = tr.call("io", "load_model", model_io.load_model, path,
                          count=lambda _: {"bytes_read": os.path.getsize(path)})
    return m, file_eps, eps_flag if eps_flag is not None else (
        file_eps if file_eps is not None else linalg.DEFAULT_EPS)


def _point_json(p) -> dict:
    doc = {"s": model_io.format_float(p.s), "t": model_io.format_float(p.t)}
    if p.r is not None:
        doc["r"] = model_io.format_float(p.r)
    if p.mult != 1:
        doc["mult"] = p.mult
    return doc


def _atom_json(at) -> dict:
    return {"kind": at.kind.value, "s": model_io.format_float(at.s),
            "t": model_io.format_float(at.t), "mult": at.mult}


def _classify(tr: Tracer, args) -> tuple[dict, int]:
    m, _, eps = _load(tr, args.model, args.eps)
    if args.brownian:
        if not isinstance(m, model.AtomModel):
            raise QbsError("--brownian needs an atom model")
        # the 2-d and 3-d tests see one point per atom, the 3-d test one more per shift atom with s > 0
        tests = {"point_tests": sum(2 + (a.kind is model.AtomKind.SHIFT and a.s > jointspec.DEDUP_TOL)
                                    for a in m.atoms)}
        report = tr.call("regions", "classify_brownian", regions.classify_brownian, m, eps,
                         count=lambda _: tests)
        doc = {"quasi_brownian": report.quasi_brownian, "brownian": report.brownian,
               "violators": [_point_json(p) for p in report.violators]}
        try:
            dec = tr.call("regions", "brownian_decomposition", regions.brownian_decomposition, m, eps,
                          count=lambda _: {"point_tests": len(m.atoms)})
        except NotQuasiBrownian:
            dec = None
        if dec is not None:
            doc["decomposition"] = {key: [_atom_json(a) for a in getattr(dec, key)]
                                    for key in ("h_u", "h_s", "h_si", "shift_flags")}
        return doc, 0 if report.brownian else 1
    if args.region is None:
        raise QbsError("classify needs --region (or --brownian)")
    region = tr.call("regions", "RegionId.parse", regions.RegionId.parse, args.region)
    sigma = _spectrum(tr, m, eps)
    report = tr.call("regions", "classify", regions.classify, sigma, region, eps,
                     count=lambda r: {"point_tests": len(r.per_point)})
    doc = {"region": region.token, "alias": region.alias, "verdict": report.verdict,
           "points": [dict(_point_json(p), status=st) for p, st in report.per_point],
           "violators": [_point_json(p) for p in report.violators]}
    return doc, 0 if report.verdict else 1


def _parse_points(text: str) -> list[tuple[float, float, int]]:
    points = []
    for chunk in filter(None, (c.strip() for c in text.split(";"))):
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) not in (2, 3):
            raise QbsError(f"point {chunk!r} is not 's,t' or 's,t,mult'")
        try:
            points.append((float(fields[0]), float(fields[1]), int(fields[2]) if len(fields) == 3 else 1))
        except ValueError:
            raise QbsError(f"cannot parse point {chunk!r}") from None
    if not points:
        raise QbsError("no points given")
    return points


def _realize(tr: Tracer, args) -> tuple[dict, int]:
    points = [(s, t) for s, t, mult in _parse_points(args.points) for _ in range(mult)]
    emb = tr.call("model", "realize_spectrum", model.realize_spectrum, points, levels=args.levels)
    eps = args.eps if args.eps is not None else linalg.DEFAULT_EPS
    tr.call("io", "save_model", model_io.save_model, emb, args.out, eps=args.eps,
            count=lambda _: _file_bytes(args.out))
    return {"out": str(args.out), "levels": emb.levels, "width": emb.width,
            "norm": model_io.format_float(_norm(tr, emb, eps))}, 0


def _dual(tr: Tracer, args) -> tuple[dict, int]:
    m, file_eps, eps = _load(tr, args.model, args.eps)
    if isinstance(m, model.PairModel):
        emb = tr.call("model", "build_from_pair", model.build_from_pair, m, levels=args.levels, eps=eps)
    elif isinstance(m, model.ShiftEmbedding):
        emb = m
    else:
        raise QbsError("the dual needs a pair or embedding model")
    dual_emb = tr.call("dual", "cauchy_dual", dual.cauchy_dual, emb, eps)
    tr.call("io", "save_model", model_io.save_model, dual_emb, args.out, eps=file_eps,
            count=lambda _: _file_bytes(args.out))
    sigma = _spectrum(tr, dual_emb, eps)
    csv_path = Path(args.out).with_suffix(".csv")
    csv_path.write_text(tr.call("jointspec", "spectrum_to_csv", jointspec.spectrum_to_csv, sigma))
    norm = _norm(tr, dual_emb, eps)
    return {"out": str(args.out), "spectrum_csv": str(csv_path), "norm": model_io.format_float(norm),
            "radius": model_io.format_float(tr.call("jointspec", "radius", jointspec.radius, sigma))}, 0


def _parse_grid(text: str) -> list[float]:
    fields = text.split(":")
    if len(fields) != 3:
        raise QbsError(f"grid {text!r} is not START:STOP:STEP")
    try:
        start, stop, step = (float(f) for f in fields)
    except ValueError:
        raise QbsError(f"cannot parse grid {text!r}") from None
    if step <= 0 or stop < start:
        raise QbsError("grid needs step > 0 and stop >= start")
    alphas, i = [], 0
    while start + i * step <= stop + 1e-9 * step:
        alphas.append(start + i * step)
        i += 1
    return alphas


def _pencil(tr: Tracer, args) -> tuple[dict, int]:
    m, _, eps = _load(tr, args.model, args.eps)
    if isinstance(m, model.AtomModel):
        raise QbsError("pencil intervals need a pair or embedding model")
    sigma = _spectrum(tr, m, eps)
    which = args.which.lower()
    interval = tr.call("pencils", f"sub_{which.upper()}", pencils.sub_E if which == "e" else pencils.sub_Q,
                       sigma, eps)
    doc = {"which": which, "kind": interval.kind.value,
           "beta": None if interval.beta is None else model_io.format_float(interval.beta)}
    if args.grid is not None:
        if args.out is None:
            raise QbsError("--grid needs --out for the scan table")
        alphas = _parse_grid(args.grid)
        rows = tr.call("pencils", "pencil_scan", pencils.pencil_scan, sigma, which, alphas, eps,
                       count=lambda r: {"cells": len(sigma) * len(r)})
        lines = ["alpha,subnormal"]
        lines += [f"{model_io.format_float(a)},{'true' if ok else 'false'}" for a, ok in rows]
        Path(args.out).write_text("\n".join(lines) + "\n")
        doc["scan_csv"] = str(args.out)
    return doc, 0


def _oracle(tr: Tracer, args) -> tuple[dict, int]:
    eps = args.eps if args.eps is not None else linalg.DEFAULT_EPS
    if (args.point is None) == (args.sequence is None):
        raise QbsError("oracle needs exactly one of --point or --sequence")
    if args.point is not None:
        pts = _parse_points(args.point)
        if len(pts) != 1:
            raise QbsError("--point takes a single 's,t'")
        s, t, _ = pts[0]
        result = tr.call("moments", "point_subnormality_oracle", moments.point_subnormality_oracle,
                         s, t, hankel_order=args.hankel_order, eps=eps)
    else:
        try:
            gamma = [float(f) for f in args.sequence.split(",") if f.strip()]
        except ValueError:
            raise QbsError(f"cannot parse sequence {args.sequence!r}") from None
        result = tr.call("moments", "stieltjes_oracle", moments.stieltjes_oracle, gamma, args.hankel_order,
                         eps=eps)
    doc = {"passed": result.passed, "order": result.order}
    if result.witness is not None:
        doc["witness"] = {"which": result.witness.which,
                          "min_eigenvalue": model_io.format_float(result.witness.min_eigenvalue)}
    return doc, 0 if result.passed else 1


def _plot(tr: Tracer, args) -> tuple[dict, int]:
    ids = [tr.call("regions", "RegionId.parse", regions.RegionId.parse, tok) for tok in (args.region or [])]
    sigma = None
    if args.spectrum is not None:
        try:
            text = Path(args.spectrum).read_text()
        except OSError as exc:
            raise QbsError(f"{args.spectrum}: {exc.strerror or exc}") from exc
        rows = max(len(text.strip().splitlines()) - 1, 0)
        sigma = tr.call("jointspec", "spectrum_from_csv", jointspec.spectrum_from_csv, text,
                        count=_spectrum_counts(rows))
    tr.call("plots", "save_svg", plots.save_svg, args.out, ids, sigma, extent=args.extent,
            count=lambda _: _file_bytes(args.out))
    return {"out": str(args.out), "regions": [r.token for r in ids],
            "points": 0 if sigma is None else len(sigma)}, 0


_COMMANDS = {"classify": _classify, "realize": _realize, "dual": _dual, "pencil": _pencil,
             "oracle": _oracle, "plot": _plot}


def _cli_job(tr: Tracer, argv) -> tuple[int, str, str]:
    """cli.main: parse, run the subcommand's calls, emit; same exit codes and streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli._build_parser().parse_args(list(argv))
        except SystemExit as exc:
            return (0 if exc.code in (0, None) else 2), out.getvalue(), err.getvalue()
        try:
            doc, rc = _COMMANDS[args.command](tr, args)
        except (QbsError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2, out.getvalue(), err.getvalue()
        text = json.dumps(doc, indent=2)
        print(text)
    tr.add(emit_bytes=len(text) + 1)
    return rc, out.getvalue(), err.getvalue()


def _library(tr: Tracer, job, models):
    fn, args = library_call(job, models)
    return tr.call("model", job.call[0], fn, *args)


def replay(job, tr: Tracer, models) -> tuple[int | None, str, str, object]:
    """Replay one job under a root ``cli`` span; returns (exit code, stdout, stderr, result)."""
    if job.call is not None:
        return 0, "", "", tr.call("cli", "job", _library, tr, job, models)
    rc, out, err = tr.call("cli", "job", _cli_job, tr, job.argv)
    return rc, out, err, None
