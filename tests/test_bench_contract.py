"""The library calls of the benchmark's worker path run and check out.

bench/workloads.py builds, warms up, runs and reads every job outside any
try: a library name it calls that is gone (SolverParams.for_tilt,
compute_tstar_untilted, ...) or a result attribute it reads that changed
kills a benchmark worker and fails the whole run.  This test runs the
seed-0 round of every workload through the same functions, so such a
break fails the suite instead, and pins what each round returns.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"


def load_workloads():
    # bench/ goes on sys.path only while loading, for its "import oracle"
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_workloads",
                                                      BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


workloads = load_workloads()


def canonical(job, output):
    """A job's output in a form that names every value it returns."""
    if job.kind == "tstar":
        return [output.rank, [x.to_text() for x in output.solutions],
                [[str(v) for v in lift.transcript] for lift in output.lifts]]
    if job.kind == "module":
        witness, report, containment = output
        return [[[e.to_text() for e in row] for row in witness.V], witness.slack,
                report.trivial_mod_q1, report.commutes_with_phi, containment]
    return workloads.read(job, output)


# What the seed-0 round of every workload returns: the solutions and
# transcripts of the solver jobs, the witness and flags of the module
# jobs, the exit code and stdout of the CLI jobs.  A change that keeps
# the results keeps these.
OUTPUT_DIGESTS = {
    "tstar_grid": "ddde6aa1a62d5059b9a153688fe6ac0b8624220f3404467dd008b309101d4a57",
    "tstar_deep": "4eb2c7136db443be75cf23c90dcfaec1238b951f639b81cc62c2c81b65227ad5",
    "module_checks": "10a1977dd8336483e15a28ea19010b968c1cb0b191f426d1438d1f2ae6b57fed",
    "cli_batch": "986734d34113d742952c6dcd5021bf8704ce7af3dc77cc816a177c0e842e9654",
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed0_round_runs_and_checks(workload, tmp_path):
    workloads.warm_up(workload)
    jobs = workloads.build_round(workload, 0, ROOT, tmp_path)
    assert jobs and len(workloads.inputs_digest(jobs)) == 64
    outputs = []
    for job in jobs:
        output = workloads.run(job)
        answer = workloads.read(job, output)
        assert workloads.check(job, answer) == (True, ""), job.describe()
        outputs.append(canonical(job, output))
    text = json.dumps(outputs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == OUTPUT_DIGESTS[workload]


def test_known_defect_returns():
    # its counts are not asserted: fixing the solver's defect changes them
    workloads.known_defect()


# The inputs of every workload at two seeds.  random_module draws the
# modules of three workloads, so a library edit that shifts its rng stream
# would hand the parent and the change of a benchmark pair different inputs.
INPUT_DIGESTS = {
    ("tstar_grid", 0): "509da3873e930849b9b6b656f0c0d41c7a060db8743d9121ad0428c7b636ff60",
    ("tstar_grid", 7919): "fd1a06ee79b3026c22a55e36c964cc6fba2801abc5eea819237eb3d52434ede4",
    ("tstar_deep", 0): "3eb49e0a9a813cee5a2684d1c541a6c5c4d0a034f24d490c531922c53017f22c",
    ("tstar_deep", 7919): "f98c37eeb6ac64c208c8daf3ab3a38a83065fa432001437597e09fb0da74a204",
    ("module_checks", 0): "a921eb797f8c71b8e46b0c01bece51b0079227aae5fd9fe294b3275ca3825ce5",
    ("module_checks", 7919): "ec4741409d0b72df6b8785b64070f61ab21534fc7b837a1c151cc914f6820426",
    ("cli_batch", 0): "04f7dbad974728ce8d5397978a004f95fd5357ab93b08a4ffcf8e05ca4d03273",
    ("cli_batch", 7919): "c2cb5b1da24ea7930d3563d467511f01dc79b6f478cade60e9e81781c7adcee0",
}


@pytest.mark.parametrize("workload,seed", INPUT_DIGESTS)
def test_round_inputs_are_pinned(workload, seed, tmp_path):
    jobs = workloads.build_round(workload, seed, ROOT, tmp_path)
    assert workloads.inputs_digest(jobs) == INPUT_DIGESTS[workload, seed]


def negative_control(workload, seed, workdir):
    """The benchmark runner's negative control, through workloads: the first
    job in round order whose answer checks out, corrupted, must fail check."""
    for job in workloads.build_round(workload, seed, ROOT, workdir):
        try:
            answer = workloads.read(job, workloads.run(job))
        except Exception:  # a job that raises has no answer to corrupt
            continue
        if workloads.check(job, answer)[0]:
            return workloads.check(job, workloads.corrupt(job, answer))[0]
    raise AssertionError(f"no correct answer in the {workload} round at seed {seed}")


# check_module tests F V = x^h Id only mod x^slack, where V is not unique:
# corrupt bumps V[0][0] at its least index k, which reaches F V only through
# column 0 of F, and vanishes below slack when every F[i][0] has valuation
# >= slack - k (seed 20: p = 5, d = 3, slack 4, k = 0, valuations 4, 6, 5;
# seed 54: rank 1, F = x^4 unit, h = slack = 8).  A module control that the
# check can see removes these marks.
UNDETECTED = pytest.mark.xfail(strict=True, reason="the bumped V[0][0] vanishes below slack")


@pytest.mark.parametrize("workload,seed", [
    *((workload, seed) for seed in (0, 7919) for workload in workloads.WORKLOADS),
    pytest.param("module_checks", 20, marks=UNDETECTED),
    pytest.param("module_checks", 54, marks=UNDETECTED),
])
def test_negative_control_trips(workload, seed, tmp_path):
    assert negative_control(workload, seed, tmp_path) is False
