"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.use_checkout_library()
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def small_round(workdir):
    """A few cheap jobs of every kind."""
    grid = workloads.build_round("tstar_grid", 0, run.CHECKOUT, workdir)
    deep = workloads.build_round("tstar_deep", 0, run.CHECKOUT, workdir)
    checks = workloads.build_round("module_checks", 0, run.CHECKOUT, workdir)
    batch = workloads.build_round("cli_batch", 0, run.CHECKOUT, workdir)
    return ([j for j in grid if j.module.params.p == 2][:6]
            + [j for j in deep if j.module.params.p == 2 and j.module.params.f == 1][:3]
            + [j for j in checks if j.module.rank <= 2][:3]
            + [j for j in batch if j.args[0] != "verify"][:6])


def test_percentile_matches_inclusive_quantiles():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 8.0, 4.0, 9.0, 5.0, 6.0, 11.5]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert run.percentile(values, 90) == pytest.approx(deciles[-1])
    assert run.percentile(values, 50) == statistics.median(values)
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile(list(range(1, 11)), 90) == pytest.approx(9.1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def test_negative_control_trips_on_every_job_kind(workdir):
    jobs = small_round(workdir)
    kinds = set()
    for job in jobs:
        answer = workloads.read(job, workloads.run(job))
        assert workloads.check(job, answer) == (True, ""), job.describe()
        ok, _ = workloads.check(job, workloads.corrupt(job, answer))
        assert not ok, job.describe()
        kinds.add(job.kind)
    assert kinds == {"tstar", "module", "cli"}


def test_known_defect_shows_outside_the_rounds(workdir):
    assert workloads.known_defect() == {
        "StructureViolation": len(workloads.KNOWN_DEFECT_SEEDS)}
    jobs = workloads.build_round("tstar_grid", 0, run.CHECKOUT, workdir)
    outcomes = run.Outcomes(jobs)
    run.run_round(jobs, outcomes, run.plain_run, [])
    assert outcomes.attempted == len(jobs)
    assert outcomes.failed == 0, (dict(outcomes.raised), dict(outcomes.wrong))


def test_inputs_are_fixed_by_the_seed(workdir):
    for workload in workloads.WORKLOADS:
        first = workloads.inputs_digest(workloads.build_round(workload, 3, run.CHECKOUT, workdir))
        again = workloads.inputs_digest(workloads.build_round(workload, 3, run.CHECKOUT, workdir))
        other = workloads.inputs_digest(workloads.build_round(workload, 4, run.CHECKOUT, workdir))
        assert first == again
        assert first != other


def traced_counts(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        run.run_round(jobs, run.Outcomes(jobs), tracer.run_job, [])
    finally:
        tracer.uninstall()
    return dict(tracer.counts), dict(tracer.raised), len(tracer.spans)


def test_traced_counters_are_deterministic_and_patches_are_undone(workdir):
    jobs = small_round(workdir)
    originals = (workloads.frobsolve.compute_tstar, workloads.wach.mat_det,
                 workloads.tiltring.ValuedTrunc.__mul__, workloads.cli.main)
    first = traced_counts(jobs)
    second = traced_counts(jobs)
    assert first == second
    counts = first[0]
    assert counts["frobsolve.grid_points"] > 0
    assert counts["wach.mat_det.calls"] > counts["wach.verify_height.calls"] > 0
    assert counts["cli.main.calls"] == sum(1 for j in jobs if j.kind == "cli")
    assert originals == (workloads.frobsolve.compute_tstar, workloads.wach.mat_det,
                         workloads.tiltring.ValuedTrunc.__mul__, workloads.cli.main)


def test_benchmark_json_names_the_runner_metrics():
    doc = json.loads((run.CHECKOUT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["per_layer"]] == [name for name, _ in run.PER_LAYER]
    assert [m["unit"] for m in doc["per_layer"]] == [unit for _, unit in run.PER_LAYER]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert tuple(run.WORKLOADS) == tuple(workloads.WORKLOADS)
