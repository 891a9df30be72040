"""Command line front end.

Subcommands::

    qbs classify MODEL --region TOKEN [--brownian]
    qbs realize --points "s,t;s,t" [--levels N] --out MODEL
    qbs dual MODEL --out MODEL
    qbs pencil MODEL --which e|q [--grid START:STOP:STEP --out CSV]
    qbs oracle (--point "s,t" | --sequence "g0,g1,...") [--hankel-order K]
    qbs plot --out SVG [--region TOKEN]... [--spectrum CSV] [--extent X]

Exit codes: 0 for success (classify: verdict holds; oracle: PASS), 1 for a
negative verdict (classify: some point outside; oracle: FAIL), 2 for usage,
parse, or model errors.

Tolerance resolution, most specific wins: ``--eps`` flag, then the model
file's ``eps`` field, then the ``QBS_EPS`` environment variable, then the
library default.  A resolved tolerance that is NaN, infinite or negative is
an error (exit 2).  A matrix pair file is tested as it is read, at the
resolved tolerance.

Every subcommand prints one compact JSON line on stdout, as the C JSON encoder
writes it.  The argparse parser is built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import dual as dual_mod
from . import io as model_io
from . import jointspec, pencils, regions
from .errors import QbsError
from .linalg import DEFAULT_EPS
from .model import (AtomModel, PairModel, ShiftEmbedding, atom_spectra, build_from_pair,
                    operator_norm, realize_spectrum, spectrum_norm)
from .moments import point_subnormality_oracle, stieltjes_oracle

_ENV_EPS = "QBS_EPS"
MAX_GRID_ALPHAS = 10 ** 6  # the most alphas one --grid scan may hold
MAX_LEVELS = 1000  # the deepest --levels an embedding may be built with
MAX_HANKEL_ORDER = 100  # the largest --hankel-order the oracle runs
MAX_EMBEDDING_ENTRIES = 2 ** 23  # the most (levels + 1) d^2 entries of E a built embedding holds


def _resolve_eps(flag_eps, file_eps) -> float:
    if flag_eps is not None:
        eps, source = float(flag_eps), "--eps"
    elif file_eps is not None:
        eps, source = float(file_eps), "the model file's eps"
    else:
        env = os.environ.get(_ENV_EPS)
        if env is None:
            return DEFAULT_EPS
        try:
            eps, source = float(env), _ENV_EPS
        except ValueError:
            raise QbsError(f"cannot parse {_ENV_EPS}={env!r} as a tolerance") from None
    # eps = NaN reads every point as outside and eps = inf every point as inside
    if not (math.isfinite(eps) and eps >= 0.0):
        raise QbsError(f"{source} = {eps!r} is not a finite nonnegative tolerance")
    return eps


def _load(args):
    # a matrix pair is tested as it is read, at the resolved eps
    resolve = functools.partial(_resolve_eps, args.eps)
    model, file_eps = model_io.load_model(args.model, resolve)
    return model, file_eps, resolve(file_eps)


def _spectrum_of(model, eps: float) -> jointspec.JointSpectrum:
    if isinstance(model, AtomModel):
        two, _ = atom_spectra(model)
        return two
    return jointspec.joint_spectrum(model, eps=eps)


def _parse_points(text: str) -> list[tuple[float, float, int]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = [f.strip() for f in chunk.split(",")]
        if len(fields) not in (2, 3):
            raise QbsError(f"point {chunk!r} is not 's,t' or 's,t,mult'")
        try:
            s, t = float(fields[0]), float(fields[1])
            mult = int(fields[2]) if len(fields) == 3 else 1
        except ValueError:
            raise QbsError(f"cannot parse point {chunk!r}") from None
        if mult < 1:
            raise QbsError(f"point {chunk!r} has multiplicity {mult}; it must be at least 1")
        points.append((s, t, mult))
    if not points:
        raise QbsError("no points given")
    return points


def _bounded(value: int, flag: str, low: int, high: int) -> int:
    # checked before anything is allocated: the cost grows with the value
    if not low <= value <= high:
        raise QbsError(f"{flag} {value} is outside {low}..{high}")
    return value


def _embedding_levels(levels: int, d: int) -> int:
    """``--levels`` once it and the ``(levels + 1) d^2`` entries of E are in bounds."""
    levels = _bounded(levels, "--levels", 1, MAX_LEVELS)
    if (levels + 1) * d * d > MAX_EMBEDDING_ENTRIES:
        raise QbsError(f"an embedding of dimension {d} at --levels {levels} holds "
                       f"(levels + 1) d^2 > {MAX_EMBEDDING_ENTRIES} entries")
    return levels


def _emit(doc: dict) -> None:
    print(json.dumps(doc))


def _cmd_classify(args) -> int:
    model, _, eps = _load(args)
    if args.brownian:
        if not isinstance(model, AtomModel):
            raise QbsError("--brownian needs an atom model")
        report = regions.classify_brownian(model, eps)
        doc = {"quasi_brownian": report.quasi_brownian,
               "brownian": report.brownian,
               "violators": (model_io.points_to_json(report.violators_2d)
                             + model_io.points_to_json(report.violators_3d))}
        if report.decomposition is not None:
            doc["decomposition"] = {key: list(map(model_io.atom_to_json,
                                                  getattr(report.decomposition, key)))
                                    for key in ("h_u", "h_s", "h_si", "shift_flags")}
        _emit(doc)
        return 0 if report.brownian else 1
    if args.region is None:
        raise QbsError("classify needs --region (or --brownian)")
    region = regions.RegionId.parse(args.region)
    sigma = _spectrum_of(model, eps)
    report = regions.classify(sigma, region, eps)
    doc = {"region": region.token,
           "alias": region.alias,
           "verdict": report.verdict,
           "points": model_io.points_to_json(sigma),
           "violators": model_io.points_to_json(report.violators)}
    for point, status in zip(doc["points"], report.status.tolist()):
        point["status"] = regions.STATUSES[status]
    _emit(doc)
    return 0 if report.verdict else 1


def _cmd_realize(args) -> int:
    points = [jointspec.SpectralPoint(s, t, mult=m) for s, t, m in _parse_points(args.points)]
    levels = _embedding_levels(args.levels, sum(p.mult for p in points))
    eps = _resolve_eps(args.eps, None)
    emb = realize_spectrum(points, levels=levels)
    model_io.save_model(emb, args.out, eps=args.eps)
    _emit({"out": str(args.out), "levels": emb.levels, "width": emb.width,
           "norm": model_io.format_float(operator_norm(emb, eps))})
    return 0


def _cmd_dual(args) -> int:
    model, file_eps, eps = _load(args)
    if isinstance(model, PairModel):
        emb = build_from_pair(model, levels=_embedding_levels(args.levels, model.dim))
    elif isinstance(model, ShiftEmbedding):
        emb = model
    else:
        raise QbsError("the dual needs a pair or embedding model")
    dual_emb = dual_mod.cauchy_dual(emb, eps)
    model_io.save_model(dual_emb, args.out, eps=file_eps)
    sigma = jointspec.joint_spectrum(dual_emb, eps=eps)
    csv_path = Path(args.out).with_suffix(".csv")
    csv_path.write_text(jointspec.spectrum_to_csv(sigma))
    _emit({"out": str(args.out), "spectrum_csv": str(csv_path),
           "norm": model_io.format_float(spectrum_norm(sigma)),
           "radius": model_io.format_float(jointspec.radius(sigma))})
    return 0


def _parse_grid(text: str) -> list[float]:
    fields = text.split(":")
    if len(fields) != 3:
        raise QbsError(f"grid {text!r} is not START:STOP:STEP")
    try:
        start, stop, step = (float(f) for f in fields)
    except ValueError:
        raise QbsError(f"cannot parse grid {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise QbsError(f"grid {text!r} is not finite")
    if step <= 0 or stop < start:
        raise QbsError("grid needs step > 0 and stop >= start")
    # every start + i * step <= stop + 1e-9 * step: i <= last, plus one spare i for rounding
    last = (stop - start) / step + 1e-9
    if not last < MAX_GRID_ALPHAS:
        raise QbsError(f"grid {text!r} holds more than {MAX_GRID_ALPHAS} alphas")
    alphas = (start + i * step for i in range(math.floor(last) + 2))
    return [a for a in alphas if a <= stop + 1e-9 * step]


def _cmd_pencil(args) -> int:
    model, _, eps = _load(args)
    if isinstance(model, AtomModel):
        raise QbsError("pencil intervals need a pair or embedding model")
    sigma = _spectrum_of(model, eps)
    which = args.which.lower()
    interval = pencils.sub_E(sigma, eps) if which == "e" else pencils.sub_Q(sigma, eps)
    doc = {"which": which, "kind": interval.kind.value,
           "beta": None if interval.beta is None else model_io.format_float(interval.beta)}
    if args.grid is not None:
        if args.out is None:
            raise QbsError("--grid needs --out for the scan table")
        rows = pencils.pencil_scan(sigma, which, _parse_grid(args.grid), eps)
        lines = ["alpha,subnormal"]
        lines += [f"{model_io.format_float(a)},{'true' if ok else 'false'}" for a, ok in rows]
        Path(args.out).write_text("\n".join(lines) + "\n")
        doc["scan_csv"] = str(args.out)
    _emit(doc)
    return 0


def _cmd_oracle(args) -> int:
    eps = _resolve_eps(args.eps, None)
    if (args.point is None) == (args.sequence is None):
        raise QbsError("oracle needs exactly one of --point or --sequence")
    order = _bounded(args.hankel_order, "--hankel-order", 0, MAX_HANKEL_ORDER)
    if args.point is not None:
        pts = _parse_points(args.point)
        if len(pts) != 1:
            raise QbsError("--point takes a single 's,t'")
        s, t, _ = pts[0]
        result = point_subnormality_oracle(s, t, hankel_order=order, eps=eps)
    else:
        try:
            gamma = [float(f) for f in args.sequence.split(",") if f.strip()]
        except ValueError:
            raise QbsError(f"cannot parse sequence {args.sequence!r}") from None
        result = stieltjes_oracle(gamma, order, eps=eps)
    doc = {"passed": result.passed, "order": result.order}
    if result.witness is not None:
        doc["witness"] = {"which": result.witness.which,
                          "min_eigenvalue": model_io.format_float(result.witness.min_eigenvalue)}
    _emit(doc)
    return 0 if result.passed else 1


def _cmd_plot(args) -> int:
    from . import plots

    region_ids = [regions.RegionId.parse(tok) for tok in (args.region or [])]
    sigma = None
    if args.spectrum is not None:
        try:
            text = Path(args.spectrum).read_text()
        except OSError as exc:
            raise QbsError(f"{args.spectrum}: {exc.strerror or exc}") from exc
        sigma = jointspec.spectrum_from_csv(text)
    plots.save_svg(args.out, region_ids, sigma, extent=args.extent)
    _emit({"out": str(args.out),
           "regions": [r.token for r in region_ids],
           "points": 0 if sigma is None else len(sigma)})
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qbs",
                                     description="Brownian-type block operators: "
                                                 "spectra, regions, duals, pencils.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_eps(p):
        p.add_argument("--eps", type=float, default=None,
                       help="tolerance override (default: model eps, then "
                            f"{_ENV_EPS}, then {DEFAULT_EPS})")

    p = sub.add_parser("classify", help="test a model against an operator-class region")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--region", default=None,
                   help="region token, e.g. subnormal, contraction, m-expansive:2, che")
    p.add_argument("--brownian", action="store_true",
                   help="Brownian / quasi-Brownian verdict for an atom model")
    add_eps(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("realize", help="build an embedding whose spectrum is a given point set")
    p.add_argument("--points", required=True, help="semicolon-separated s,t[,mult] list")
    p.add_argument("--levels", type=int, default=4,
                   help=f"truncation depth, 1 to {MAX_LEVELS} (default 4); (levels + 1) d^2 <= "
                        f"{MAX_EMBEDDING_ENTRIES} for d points counted with multiplicity")
    p.add_argument("--out", required=True, help="output model JSON path")
    add_eps(p)
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("dual", help="Cauchy dual of a left-invertible model")
    p.add_argument("model", help="pair or embedding model JSON file")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--levels", type=int, default=4,
                   help=f"truncation depth for a pair of dimension d, 1 to {MAX_LEVELS} "
                        f"(default 4); (levels + 1) d^2 <= {MAX_EMBEDDING_ENTRIES}")
    add_eps(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("pencil", help="subnormality interval of the E- or Q-pencil")
    p.add_argument("model", help="pair or embedding model JSON file")
    p.add_argument("--which", required=True, choices=["e", "q"], help="scaled entry")
    p.add_argument("--grid", default=None,
                   help=f"scan grid START:STOP:STEP, at most {MAX_GRID_ALPHAS} alphas")
    p.add_argument("--out", default=None, help="scan CSV path (with --grid)")
    add_eps(p)
    p.set_defaults(func=_cmd_pencil)

    p = sub.add_parser("oracle", help="moment-based subnormality test")
    p.add_argument("--point", default=None, help="single 's,t'")
    p.add_argument("--sequence", default=None, help="comma-separated moments g0,g1,...")
    p.add_argument("--hankel-order", type=int, default=3,
                   help=f"Hankel order K, 0 to {MAX_HANKEL_ORDER} (default 3)")
    add_eps(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("plot", help="render regions and a spectrum to SVG")
    p.add_argument("--region", action="append", default=None, help="region token (repeatable)")
    p.add_argument("--spectrum", default=None, help="spectrum CSV file")
    p.add_argument("--extent", type=float, default=None,
                   help="window size (world units), finite and > 0")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (QbsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
