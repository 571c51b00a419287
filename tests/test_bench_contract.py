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
