"""The library calls of the benchmark's worker path run and check out.

bench/workloads.py builds, warms up, runs and reads every job outside any
try: a library name it calls that is gone (SolverParams.for_tilt,
compute_tstar_untilted, ...) or a result attribute it reads that changed
kills a benchmark worker and fails the whole run.  This test runs the
seed-0 round of every workload through the same functions, so such a
break fails the suite instead.
"""

import importlib.util
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


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed0_round_runs_and_checks(workload, tmp_path):
    workloads.warm_up(workload)
    jobs = workloads.build_round(workload, 0, ROOT, tmp_path)
    assert jobs and len(workloads.inputs_digest(jobs)) == 64
    for job in jobs:
        answer = workloads.read(job, workloads.run(job))
        assert workloads.check(job, answer) == (True, ""), job.describe()


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
