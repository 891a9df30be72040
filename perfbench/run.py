"""Benchmark of the ``qbs`` command line front end, end to end and per layer.

One workload::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 10 --trace 0

All four workloads, end-to-end and traced, with a results record::

    python3 perfbench/run.py --all --seed 1 [--record perfbench/trajectory/NAME.json]

One process, one client, closed loop: each job is a ``qbs.cli.main`` call
(stdout and stderr captured) or a ``qbs.model`` call where the CLI has no
subcommand, and the next job starts when the previous one returns.  A run
repeats whole passes over the workload's jobs until ``--seconds`` of job and
calibration time is spent, and every output is checked against references computed from the
generating data (``reference.py``).  With ``--trace 0`` the end-to-end
metrics are measured with no tracing; ``--trace 1`` replays the same jobs
through ``replay.py`` and reports per-layer self times and counts, per job.

The host may share its cores with other tenants, which slows every
instruction by up to ~1.8x, in a mix that changes over seconds to minutes; a
slow phase can outlast a whole run.  So every time is reported at a fixed
reference speed: each pass interleaves the workload's fixed calibration unit
(``CAL_KIND``) with its jobs (about ``CAL_SHARE`` of the pass), and each job time of the pass
is scaled by ``CAL_REF_S`` over the pass's mean unit time.  Set-up times are
scaled the same way by units run right after set-up.  A job's time is the
median of its scaled times over the passes (at least ``MIN_PASSES``); the
throughput and median metrics are computed from those, and the 99th
percentile from every scaled execution.  The unscaled figures are in the
report line.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the full report, including
the environment record.  BLAS and OpenMP are pinned to one thread.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 3  # this process plus fresh processes that only set up
MIN_PASSES = 3
CAL_SHARE = 0.2  # calibration time in a pass, as a share of the pass's job time
CAL_SETUP_S = 0.25  # calibration time after each set-up
# Time of one calibration unit at the reference speed: the fast state of a
# 2-core x86_64 host under Python 3.11 and OpenBLAS, where the units take
# 0.85-1.0 ms and 0.55-0.65 ms.  A workload is calibrated with the unit whose
# slowdown tracks its own: the interpreter unit for the pure-Python
# workloads, the LAPACK unit for embedding-dense, whose time is mostly in
# numpy and LAPACK and slows less than the interpreter when the host does.
CAL_REF_S = {"python": 1.0e-3, "lapack": 0.6e-3}
CAL_KIND = {"spectrum-large": "python", "embedding-dense": "lapack", "pencil-scan": "python",
            "cli-small": "python"}
_CAL_POINTS = tuple((i * 0.001, (i * 7 % 13) * 0.01) for i in range(48))
_CAL_MATRIX = []  # the LAPACK unit's Hermitian matrix, made on first use
UNITS = {"jobs_per_s": "1/s", "point_verdicts_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p99_ms": "ms", "failed_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def _pin_environment() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ.pop("QBS_EPS", None)  # the tolerance is the CLI default everywhere


def _import_program():
    """Import ``qbs`` from this checkout's ``src``; exit with an error when it is not there."""
    if not (SRC / "qbs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qbs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import qbs

    if not Path(qbs.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported qbs from {qbs.__file__}, not from {SRC}")


# -- host speed ------------------------------------------------------------------


def _python_unit() -> float:
    """Run the interpreter calibration work once: a pairwise scan of 48 distinct points; returns seconds."""
    t0 = time.perf_counter()
    merged: list[tuple[float, float]] = []
    for p in _CAL_POINTS:
        for q in merged:
            if max(abs(a - b) for a, b in zip(p, q)) <= 1e-9:
                break
        else:
            merged.append(p)
    return time.perf_counter() - t0


def _lapack_unit() -> float:
    """Run the LAPACK calibration work once: eigh and a product of a fixed 64x64 matrix; returns seconds."""
    import numpy as np

    if not _CAL_MATRIX:
        z = np.arange(64 * 64).reshape(64, 64) % 17 * (1 + 0.5j) / 17
        _CAL_MATRIX.append(z + z.conj().T)
    h = _CAL_MATRIX[0]
    t0 = time.perf_counter()
    np.linalg.eigh(h)
    h @ h
    return time.perf_counter() - t0


_UNITS = {"python": _python_unit, "lapack": _lapack_unit}


class _Calibration:
    """Calibration units interleaved with jobs; ``scale()`` turns host seconds into reference seconds."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.unit = _UNITS[kind]
        self.units = 0
        self.seconds = 0.0

    def top_up(self, job_seconds: float) -> None:
        """Run units until they are ``CAL_SHARE`` of ``job_seconds``, and at least one."""
        while self.units == 0 or self.seconds < CAL_SHARE * job_seconds:
            self.seconds += self.unit()
            self.units += 1

    def scale(self) -> float:
        return CAL_REF_S[self.kind] * self.units / self.seconds


def _host_scale(kind: str) -> float:
    """Scale factor of the host's current speed, from ``CAL_SETUP_S`` of calibration units."""
    cal = _Calibration(kind)
    cal.unit()  # first use: lazy set-up
    while cal.seconds < CAL_SETUP_S:
        cal.seconds += cal.unit()
        cal.units += 1
    return cal.scale()


# -- one workload ----------------------------------------------------------------


def _run_job(job, models):
    """Run one job untraced; returns (exit code or None, stdout, stderr, result, seconds)."""
    import contextlib
    import io

    from qbs import cli

    from perfbench.workloads import library_call

    if job.call is not None:
        fn, args = library_call(job, models)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a raising job is a failed job, not a failed benchmark
            result = None
        return 0, "", "", result, time.perf_counter() - t0
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(job.argv))
    except Exception:
        rc = None
    return rc, out.getvalue(), err.getvalue(), None, time.perf_counter() - t0


def _setup(name: str, seed: int, workdir: Path):
    """Write the seeded inputs and run one untimed warm-up job; returns (workload, ok)."""
    from perfbench import reference
    from perfbench.workloads import build

    wl = build(name, seed, workdir)
    job = wl.jobs[0]
    rc, out, _, result, _ = _run_job(job, wl.models)
    return wl, reference.check(job.expect, rc, out, result).status != reference.FAIL


class _Tally:
    """Outcome counts of the checked jobs, with the first few failure reasons."""

    def __init__(self) -> None:
        self.counts = {"pass": 0, "fail": 0, "known-defect": 0}
        self.reasons: list[str] = []

    def add(self, job, outcome) -> None:
        self.counts[outcome.status] += 1
        if outcome.status != "pass" and len(self.reasons) < 5:
            argv = " ".join(job.argv).replace(f"{WORK}/", "")
            self.reasons.append(f"{outcome.status}: {job.kind} {argv[:120]}: {outcome.reason}")


def _timed_loop(wl, seconds: float, tally: _Tally):
    """Whole passes, calibration units included, until ``seconds``.

    Returns every scaled execution time, each job's median scaled time,
    whether each job passed every check, each pass's scale factor, and the
    unscaled job times.
    """
    from perfbench.reference import PASS, check

    raw: list[list[float]] = [[] for _ in wl.jobs]
    scales: list[float] = []
    good = [True] * len(wl.jobs)
    spent = 0.0
    while len(scales) < MIN_PASSES or spent < seconds:
        cal, job_s = _Calibration(CAL_KIND[wl.name]), 0.0
        for i, job in enumerate(wl.jobs):
            cal.top_up(job_s)
            rc, out, _, result, dt = _run_job(job, wl.models)
            outcome = check(job.expect, rc, out, result)
            tally.add(job, outcome)
            raw[i].append(dt)
            job_s += dt
            good[i] = good[i] and outcome.status == PASS
        cal.top_up(job_s)
        scales.append(cal.scale())
        spent += job_s + cal.seconds
    scaled = [[dt * k for dt, k in zip(ts, scales)] for ts in raw]
    times = [dt for ts in scaled for dt in ts]
    return times, [statistics.median(ts) for ts in scaled], good, scales, raw


def _traced_loop(wl, seconds: float, tally: _Tally, spans_path: Path) -> tuple[dict, int]:
    """Each job untraced, then replayed under the tracer; per-layer metrics per job."""
    from perfbench.reference import FAIL, Outcome, check
    from perfbench.replay import Tracer, per_layer, replay

    tracer = Tracer()
    cal = _Calibration(CAL_KIND[wl.name])
    real = traced = 0.0
    jobs = 0
    while real + traced + cal.seconds < seconds:
        for job in wl.jobs:
            cal.top_up(real + traced)
            rc, out, _, result, dt = _run_job(job, wl.models)
            first = check(job.expect, rc, out, result)
            real += dt
            tracer.job = jobs
            t0 = time.perf_counter()
            try:
                rc, out, _, result = replay(job, tracer, wl.models)
            except Exception as exc:
                rc, out, result = None, "", None
                first = Outcome(FAIL, f"replay raised {exc!r}")
            traced += time.perf_counter() - t0
            second = check(job.expect, rc, out, result)
            tally.add(job, first if first.status == FAIL else second)
            jobs += 1
    tracer.dump(spans_path)
    metrics = per_layer(tracer.spans, jobs)
    for name in metrics:
        if name.endswith("_s"):  # self times and model.*_s, at the reference speed
            metrics[name] *= cal.scale()
    metrics["trace.overhead_ratio"] = traced / real
    return metrics, jobs


def _setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process and of fresh processes doing only the set-up."""
    samples = [first]  # each scaled to the reference speed
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                               "--seed", str(args.seed), "--setup-only"],
                              capture_output=True, text=True, timeout=170, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def environment(seed: int) -> dict:
    import hashlib
    import platform

    import numpy as np

    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "qbs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": THREADS, "platform": platform.platform()}


def _single(args) -> int:
    workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        wl, warm_ok = _setup(args.workload, args.seed, workdir)
        setup_raw = time.perf_counter() - _T0
        setup_first = setup_raw * _host_scale(CAL_KIND[args.workload])
        if args.setup_only:
            print(json.dumps({"setup_s": setup_first}))
            return 0
        tally = _Tally()
        report = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds}
        if args.trace:
            metrics, jobs = _traced_loop(wl, args.seconds, tally, WORK / f"spans-{args.workload}-s{args.seed}.jsonl")
            report["samples"] = {"jobs": jobs}
        else:
            import resource

            times, per_job, good, scales, raw = _timed_loop(wl, args.seconds, tally)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            setups = _setup_samples(args, setup_first)
            verdicts = sum(job.verdicts for job, ok in zip(wl.jobs, good) if ok)
            metrics = _end_to_end(times, per_job, verdicts, tally, rss, setups)
            raw_per_job = [statistics.median(ts) for ts in raw]
            report["samples"] = {"jobs": len(times), "distinct_jobs": len(per_job), "passes": len(scales),
                                 "job_s": sum(map(sum, raw)), "setups": len(setups)}
            kind = CAL_KIND[args.workload]
            report["host"] = {"unit": kind, "cal_ref_ms": CAL_REF_S[kind] * 1e3, "scale_median": statistics.median(scales),
                              "scale_min": min(scales), "scale_max": max(scales),
                              "unscaled": {"latency_p50_ms": statistics.median(raw_per_job) * 1e3,
                                           "jobs_per_s": len(raw_per_job) / sum(raw_per_job),
                                           "setup_s": setup_raw}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(tally.counts.values())
    report.update(outcomes=tally.counts, failures=tally.reasons, warm_up_ok=warm_ok,
                  environment=environment(args.seed), metrics=metrics)
    names = _declared_metrics("per_layer" if args.trace else "end_to_end")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    for name in names:
        print(f"  {name:28s} {metrics[name]:>14.6g} {names[name]}")
    for name in ("latency_p99_ms", "failed_ratio") if not args.trace else ():
        value = metrics[name]
        print(f"  {name:28s} {'undefined' if value is None else format(value, '>14.6g')} {UNITS[name]}")
    print(f"  jobs: {tally.counts}")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": warm_ok and tally.counts["fail"] == 0, "attempted": attempted,
                      "failed": tally.counts["fail"],
                      "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()}}))
    return 0


def _end_to_end(times, per_job, verdicts: int, tally: _Tally, rss_mb: float, setups: list[float]) -> dict:
    busy = sum(per_job)
    n = len(times)
    return {
        "jobs_per_s": len(per_job) / busy,
        # a job with a wrong answer delivers no verdicts
        "point_verdicts_per_s": verdicts / busy,
        "latency_p50_ms": statistics.median(per_job) * 1e3,
        # the highest percentile with at least ten samples beyond it, over every execution
        "latency_p99_ms": statistics.quantiles(times, n=100)[98] * 1e3 if n >= 1000 else None,
        "failed_ratio": (tally.counts["fail"] + tally.counts["known-defect"]) / n,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }


def _declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# -- all workloads ---------------------------------------------------------------


def _all(args) -> int:
    from perfbench.workloads import WORKLOADS

    record = {"environment": environment(args.seed), "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = record["workloads"][name] = {}
        for trace in (0, 1) if args.trace is None else (args.trace,):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                return 1
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            ok = ok and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = report["metrics"]
            entry["outcomes" if not trace else "traced_outcomes"] = report["outcomes"]
            entry.setdefault("samples", {})["traced" if trace else "timed"] = report["samples"]
            if report["failures"]:
                entry.setdefault("failures", []).extend(report["failures"])
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=2) + "\n")
    _print_tables(record)
    return 0 if ok else 1


def _print_tables(record: dict) -> None:
    print(json.dumps(record["environment"]))
    wls = list(record["workloads"])
    print(f"{'metric':30s}{'unit':>8s}" + "".join(f"{w:>17s}" for w in wls))

    def row(name, unit, section):
        cells = []
        for w in wls:
            value = record["workloads"][w].get(section, {}).get(name)
            cells.append(f"{'-' if value is None else format(value, '.5g'):>17s}")
        print(f"{name:30s}{unit:>8s}" + "".join(cells))

    for name, unit in UNITS.items():
        row(name, unit, "end_to_end")
    print("samples (timed jobs):" + "".join(
        f"{record['workloads'][w].get('samples', {}).get('timed', {}).get('jobs', '-'):>17}" for w in wls))
    for name, unit in _declared_metrics("per_layer").items():
        row(name, unit, "per_layer")
    shares = {}
    for w in wls:
        layer = record["workloads"][w].get("per_layer", {})
        total = sum(v for k, v in layer.items() if k.endswith(".self_s") and k.count(".") == 1)
        if total:
            shares[w] = {k.split(".")[0]: v / total for k, v in layer.items() if k.endswith(".self_s")}
    for w, share in shares.items():
        top = sorted(share.items(), key=lambda kv: -kv[1])[:4]
        print(f"self-time share {w}: " + ", ".join(f"{k} {v:.1%}" for k, v in top))
    for w in wls:
        for reason in record["workloads"][w].get("failures", []):
            print(f"{w}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one of the workloads in BENCHMARK.json")
    parser.add_argument("--all", action="store_true", help="run every workload, end to end and traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None, help="job time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--record", help="with --all: write the results record to this file")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _pin_environment()
    _import_program()
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.all:
        return _all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    args.trace = args.trace or 0
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
