"""Tests of the benchmark itself: seeded inputs, job coverage, and the reference check.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from perfbench import reference as ref
from perfbench import run
from perfbench.replay import Tracer, per_layer, replay
from perfbench.run import _run_job
from perfbench.workloads import WORKLOADS, build

# job kinds and subcommands each workload must schedule
EXPECTED_KINDS = {
    "spectrum-large": {"classify", "plot"},
    "embedding-dense": {"classify", "dual", "realize", "validate_class_q", "power", "omega"},
    "pencil-scan": {"pencil"},
    "cli-small": {"classify", "classify-brownian", "realize", "dual", "pencil", "oracle-point",
                  "oracle-sequence", "plot", "malformed", "nonfinite"},
}


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return build("cli-small", 7, tmp_path_factory.mktemp("cli-small"))


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_regenerates_identical_inputs(name, tmp_path):
    build(name, 3, tmp_path / "a")
    build(name, 3, tmp_path / "b")
    build(name, 4, tmp_path / "c")
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_job_kind_is_scheduled(name, tmp_path):
    jobs = build(name, 5, tmp_path).jobs
    assert {job.kind for job in jobs} == EXPECTED_KINDS[name]
    if name == "spectrum-large":
        assert {job.argv[3] for job in jobs if job.kind == "classify"} == {
            "subnormal", "che", "m-contractive:3", "two-isometry", "dual-subnormal"}
    if name == "pencil-scan":
        assert {job.argv[3] for job in jobs} == {"e", "q"} and all("--grid" in job.argv for job in jobs)
    if name == "cli-small":
        subcommands = {job.argv[0] for job in jobs}
        assert subcommands == {"classify", "realize", "dual", "pencil", "oracle", "plot"}
        oracle_args = {job.argv[1].split("=")[0] for job in jobs if job.argv[0] == "oracle"}
        assert oracle_args == {"--point", "--sequence"}
        malformed = sum(job.kind in ("malformed", "nonfinite") for job in jobs)
        assert len(jobs) == 200 and malformed == 20


def test_cli_small_jobs_pass_their_check_and_replay(small):
    tracer = Tracer()
    for i, job in enumerate(small.jobs):
        rc, out, _, result, _ = _run_job(job, small.models)
        outcome = ref.check(job.expect, rc, out, result)
        # non-finite inputs get a verdict today (ROADMAP item 4); everything else must pass
        assert outcome.status == (ref.KNOWN_DEFECT if job.kind == "nonfinite" else ref.PASS), outcome.reason
        tracer.job = i
        rc, out, _, result = replay(job, tracer, small.models)
        assert ref.check(job.expect, rc, out, result).status == outcome.status
    layers = per_layer(tracer.spans, len(small.jobs))
    assert layers["io.errors"] > 0 and layers["moments.calls"] > 0 and layers["cli.self_s"] > 0


def _first(wl, kind, pred=lambda job: True):
    return next(job for job in wl.jobs if job.kind == kind and pred(job))


def _outcome(job, wl, expect):
    rc, out, _, result, _ = _run_job(job, wl.models)
    assert ref.check(job.expect, rc, out, result).status == ref.PASS
    return ref.check(expect, rc, out, result)


def test_check_flags_a_wrong_expected_verdict(small):
    job = _first(small, "classify")
    expect = job.expect
    # a token whose verdict on these points differs from the scheduled one
    other = next(tok for tok in ("subnormal", "expansion", "isometry", "dual-subnormal")
                 if all(map(lambda s_t: ref.member(*s_t, tok), expect.points))
                 != all(expect.statuses()))
    wrong = dataclasses.replace(expect, token=other)
    assert _outcome(job, small, wrong).status == ref.FAIL


def test_check_flags_wrong_oracle_brownian_and_pencil_expectations(small):
    oracle = _first(small, "oracle-point")
    assert _outcome(oracle, small, dataclasses.replace(oracle.expect, passed=not oracle.expect.passed)).status == ref.FAIL
    brown = _first(small, "classify-brownian")
    wrong = dataclasses.replace(brown.expect, brownian=not brown.expect.brownian)
    assert _outcome(brown, small, wrong).status == ref.FAIL
    pencil = _first(small, "pencil", lambda job: ref.pencil_interval(job.expect.points, job.expect.which)[0]
                    == "closed")
    halved = [(s / 2, t / 2) for s, t in pencil.expect.points]  # moves the endpoint beta
    assert _outcome(pencil, small, dataclasses.replace(pencil.expect, points=halved)).status == ref.FAIL
    valid = _first(small, "dual")
    assert _outcome(valid, small, ref.Malformed()).status == ref.FAIL


def test_check_flags_wrong_library_results(tmp_path):
    wl = build("embedding-dense", 2, tmp_path)
    job = _first(wl, "power")
    emb = job.expect.emb
    wrong = dataclasses.replace(job.expect, emb=dataclasses.replace(emb, t=emb.t * (1 + 1e-6)))
    assert _outcome(job, wl, wrong).status == ref.FAIL


def test_region_table_closed_forms():
    assert ref.member(0.5, 0.5, "subnormal") and ref.member(2.0, 0.0, "subnormal")
    assert not ref.member(2.0, 0.1, "subnormal")
    assert ref.member(1.5, 0.1, "m-contractive:2") and not ref.member(1.5, 0.1, "m-contractive:3")
    assert ref.member(0.9, 0.9, "che") and not ref.member(1.2, 0.1, "che")
    assert ref.pencil_interval([(0.6, 0.8)], "e") == ("closed", pytest.approx(1.0))
    assert ref.pencil_interval([(0.5, 1.5)], "q") == ("empty", None)
    assert ref.grid(0.0, 2.0, 0.1)[-1] == pytest.approx(2.0) and len(ref.grid(0.0, 2.0, 0.01)) == 201
    assert np.isclose(ref.Dual(np.array([[0.5, 0.0], [3.0, 4.0]]), np.ones(2), None).radius, 2.0)


@pytest.mark.parametrize("kind", ["python", "lapack"])
def test_calibration_scales_host_seconds_to_reference_seconds(kind):
    assert set(run.CAL_KIND) == set(WORKLOADS) and set(run.CAL_KIND.values()) <= set(run.CAL_REF_S)
    cal = run._Calibration(kind)
    cal.top_up(0.0)
    assert cal.units == 1
    cal.top_up(0.05)  # units until they are CAL_SHARE of 50 ms of job time
    assert cal.seconds >= run.CAL_SHARE * 0.05
    assert cal.scale() == pytest.approx(run.CAL_REF_S[kind] * cal.units / cal.seconds)
