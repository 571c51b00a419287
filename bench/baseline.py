"""Re-measure the baseline table of ROADMAP item 1 (outside the gated workloads).

    python3 bench/baseline.py

Prints one markdown row per measurement: the median wall time of three
runs and the same at reference speed (see run.machine_speed).  The
(7,7) row (364 s) is left out because of its length.
"""

import contextlib
import io
import random
import statistics
import sys
import time
from fractions import Fraction

import run

run.use_checkout_library()
from padic_ramlab import cli, frobsolve, tiltring, wach  # noqa: E402

ROADMAP = {
    "compute_tstar (5,5), tilt depth 1": "1.1-1.3 s",
    "compute_tstar (7,3), tilt depth 1": "0.2 s",
    "ramlab solve rank1_p3_i1.json --depth 1": "4 ms",
    "ramlab solve rank1_p3_i1.json --depth 2": "10 ms",
    "ramlab solve rank1_p3_i1.json --depth 3": "3.2 s",
    "verify_height, rank 2": "1 ms",
    "verify_height, rank 3": "2 ms",
    "verify_height, rank 4": "10 ms",
    "verify_height, rank 5": "48 ms",
    "verify_height, rank 6": "288 ms",
    "criterion-07 workload (200 random modules)": "3.8 s",
}


def tstar(p, i):
    module = wach.make_rank1_module(p, i)
    probe = tiltring.RingSpec(module.params, tiltring.TILT, 1, Fraction(1))
    params = frobsolve.SolverParams.for_tilt(p, i, probe)
    spec = tiltring.RingSpec(module.params, tiltring.TILT, 1, params.c_work)
    return lambda: frobsolve.compute_tstar(module, spec, 10**7, params=params)


def solve(depth):
    path = str(run.CHECKOUT / "demos" / "modules" / "rank1_p3_i1.json")

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["solve", path, "--depth", str(depth)]) == 0
    return call


def height(rank):
    # p = 3, height 1, N = 16: the module_checks shape at rank d
    module = wach.random_module(random.Random(rank), 3, rank, 1, 16)
    return lambda: wach.verify_height(module)


def criterion_07():
    rng = random.Random(77)
    for _ in range(200):
        p = rng.choice([2, 3])
        module = wach.random_module(rng, p, rng.choice([1, 2]), rng.choice([0, 1, 2]), 16)
        s = 0
        while p**s + module.height_exponent < 16:
            assert wach.gamma_power_containment(module, s)
            s += 1


def measure(fn):
    walls, scaled = [], []
    for _ in range(3):
        before = run.machine_speed()
        started = time.perf_counter()
        fn()
        wall = time.perf_counter() - started
        walls.append(wall)
        scaled.append(wall / ((before + run.machine_speed()) / 2))
    return statistics.median(walls), statistics.median(scaled)


def fmt(seconds):
    return f"{seconds * 1000:.1f} ms" if seconds < 1 else f"{seconds:.2f} s"


def main():
    cases = [tstar(5, 5), tstar(7, 3), solve(1), solve(2), solve(3)]
    cases += [height(d) for d in range(2, 7)] + [criterion_07]
    print("| What | ROADMAP | Measured (wall) | At reference speed |")
    print("| --- | --- | --- | --- |")
    for (name, roadmap), fn in zip(ROADMAP.items(), cases):
        wall, scaled = measure(fn)
        print(f"| {name} | {roadmap} | {fmt(wall)} | {fmt(scaled)} |", flush=True)
    print("| compute_tstar (7,7), budget 10^7 | 364 s | not re-measured (length) | |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
