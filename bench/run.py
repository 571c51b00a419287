"""Outside-in benchmark of padic-ramlab.

    python3 bench/run.py --workload tstar_grid --seed 0 --seconds 20 --trace 0

The library is driven as a closed loop with one client: each job starts
when the previous one ends.  A workload is one round of seeded jobs (see
workloads.py).  With --trace 0 the timed phase is split over WORKERS
fresh processes, run one after another; each runs the whole number of
rounds that comes nearest to its share of --seconds (at least one), and
the samples are pooled.  Every output is checked by oracles that share no
code with the library (oracle.py), and a corrupted copy of one correct
output must fail the same check (negative control).

--trace 0 prints the end-to-end metrics.  --trace 1 runs one round
untraced, then the same round under the tracer (tracer.py), and prints
the per-layer metrics with the tracing overhead; it writes the spans to
.bench_trace/ in the checkout.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it describes the run:
the digest of the generated inputs, the rounds, the exceptions by type,
and the known solver defect, run untimed on the draws that show it.
The exit code is 1 when a check fails, 2 when the library is missing.
"""

import argparse
import collections
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
WORKLOADS = ("tstar_grid", "tstar_deep", "module_checks", "cli_batch")
# The timed phase is split over this many fresh processes, run one after
# another: a process's memory layout alone moved job times by about 6%,
# and the split averages that out.  Their set-ups give setup_s.
WORKERS = 4
# Seconds that machine_speed's reference work took on the 2-core x86-64
# host (CPython 3.11) where the benchmark was defined; every timing is
# reported at this reference speed.
REFERENCE_S = 0.0006

PER_LAYER = (
    ("frobsolve.grid_points", "count"), ("frobsolve.candidates", "count"),
    ("frobsolve.enumerate_jc.s", "s"), ("frobsolve.lifts", "count"),
    ("frobsolve.lift_iterations", "count"), ("frobsolve.contraction_lift.s", "s"),
    ("frobsolve.lift_yield", "ratio"), ("frobsolve.known_defect_raised", "count"),
    ("frobsolve.self_s", "s"),
    ("tiltring.elements_built", "count"), ("tiltring.self_s", "s"),
    ("tiltring.mul.calls", "count"), ("tiltring.mul.term_pairs", "count"),
    ("tiltring.frobenius.calls", "count"), ("tiltring.galois_act.calls", "count"),
    ("tiltring.embed_q.calls", "count"),
    ("wach.specialize.calls", "count"), ("wach.specialize.s", "s"),
    ("wach.verify_height.calls", "count"), ("wach.verify_height.s", "s"),
    ("wach.mat_det.calls", "count"), ("wach.verify_gamma.s", "s"),
    ("wach.gamma_power_containment.s", "s"), ("wach.self_s", "s"),
    ("qring.mul.calls", "count"), ("qring.mul.term_pairs", "count"),
    ("qring.gamma_q.calls", "count"), ("qring.invert_unit.calls", "count"),
    ("qring.self_s", "s"),
    ("gf.mul.calls", "count"), ("gf.self_s", "s"),
    ("ramify.calls", "count"), ("ramify.self_s", "s"),
    ("bounds.calls", "count"), ("bounds.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)


def percentile(values, q):
    """The q-th percentile (0..100) of values, linear between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def _reference_work():
    """Sparse dict polynomial products mod 7: the library's inner loop in miniature."""
    a = {i: (3 * i + 1) % 7 for i in range(0, 40, 2)}
    b = {i: (5 * i + 2) % 7 for i in range(1, 40, 3)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if e < 60:
                s = (out.get(e, 0) + c1 * c2) % 7
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
    return out


def machine_speed():
    """Seconds of the reference work now, relative to REFERENCE_S.

    The host is shared: the same round measured minutes apart differed
    by up to 60% in wall and in CPU time alike.  Dividing each timing by
    the slowdown measured next to it removes most of that drift (the
    per-round p50 of module_checks went from 19% to 6% coefficient of
    variation over ten rounds).
    """
    started = time.perf_counter()
    for _ in range(8):
        _reference_work()
    return (time.perf_counter() - started) / REFERENCE_S


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def use_checkout_library():
    """Import padic_ramlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "padic_ramlab" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'padic_ramlab'}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def setup(workload, seed, workdir):
    """Imports, seeded input generation and warm-up.

    Returns (jobs, digest, seconds at reference speed).
    """
    machine_speed()  # warm the reference work itself
    before = machine_speed()
    started = time.perf_counter()
    import workloads  # imports padic_ramlab
    jobs = workloads.build_round(workload, seed, CHECKOUT, workdir)
    digest = workloads.inputs_digest(jobs)
    workloads.warm_up(workload)
    elapsed = time.perf_counter() - started
    return jobs, digest, elapsed / ((before + machine_speed()) / 2)


class Outcomes:
    """Checks each job's first answer; later rounds must repeat it exactly."""

    def __init__(self, jobs):
        import workloads
        self.workloads = workloads
        self.jobs = jobs
        self.first = {}  # job index -> (answer, ok, reason)
        self.raised = collections.Counter()
        self.first_error = {}
        self.wrong = collections.Counter()
        self.attempted = 0
        self.passed = 0

    def record(self, index, output, exc):
        self.attempted += 1
        if exc is not None:
            name = type(exc).__name__
            self.raised[name] += 1
            self.first_error.setdefault(name, str(exc)[:160])
            return
        job = self.jobs[index]
        answer = self.workloads.read(job, output)
        if index not in self.first:
            ok, reason = self.workloads.check(job, answer)
            self.first[index] = (answer, ok, reason)
        seen, ok, reason = self.first[index]
        if ok and answer == seen:
            self.passed += 1
        else:
            self.wrong[reason or "answer changed between rounds"] += 1

    @property
    def failed(self):
        return self.attempted - self.passed

    def negative_control(self):
        """Corrupt one correct answer; the check must reject it."""
        for index, (answer, ok, _) in sorted(self.first.items()):
            if ok:
                job = self.jobs[index]
                bad_ok, _ = self.workloads.check(job, self.workloads.corrupt(job, answer))
                return "tripped" if not bad_ok else "MISSED"
        return "not run: no correct answer"


def run_round(jobs, outcomes, run_job, samples):
    """One pass over the jobs, each timed at reference speed.

    Appends (reference-speed seconds, wall seconds) per job to samples and
    returns the sums of both.  The clock stops while outputs are checked.
    """
    import workloads
    busy = wall = 0.0
    clock = time.perf_counter
    for index, job in enumerate(jobs):
        output = exc = None
        before = machine_speed()
        t0 = clock()
        try:
            output = run_job(index, workloads.run, job)
        except Exception as error:  # counted as a failed job, never retried
            exc = error
        elapsed = clock() - t0
        scaled = elapsed / ((before + machine_speed()) / 2)
        busy += scaled
        wall += elapsed
        samples.append((scaled, elapsed))
        outcomes.record(index, output, exc)
    return busy, wall


def plain_run(index, fn, job):
    return fn(job)


def timed(jobs, seconds):
    """The whole number of rounds (at least one) whose library wall time
    comes nearest to `seconds`, judged by the length of the last round."""
    outcomes = Outcomes(jobs)
    samples, busy, wall, rounds = [], 0.0, 0.0, 0
    while True:
        spent, spent_wall = run_round(jobs, outcomes, plain_run, samples)
        busy += spent
        wall += spent_wall
        rounds += 1
        if wall + spent_wall / 2 >= seconds:
            return outcomes, samples, busy, wall, rounds


def traced(jobs, workload, seed):
    """One untraced round, then the same round traced.

    Returns (outcomes, tracer, untraced seconds, traced seconds).
    """
    from tracer import Tracer
    outcomes = Outcomes(jobs)
    untraced_s, _ = run_round(jobs, outcomes, plain_run, [])
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, _ = run_round(jobs, outcomes, tracer.run_job, [])
    finally:
        tracer.uninstall()
    out_dir = CHECKOUT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{workload}-seed{seed}.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(["name", "start", "end", "parent", "job"]) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return outcomes, tracer, untraced_s, traced_s


def layer_metrics(tracer, untraced_s, traced_s, defect):
    c, total, self_s = tracer.counts, tracer.total_s, tracer.self_s
    grid = c["frobsolve.grid_points"]
    values = {
        "frobsolve.grid_points": grid,
        "frobsolve.candidates": c["frobsolve.candidates"],
        "frobsolve.enumerate_jc.s": total["frobsolve.enumerate_jc"],
        "frobsolve.lifts": c["frobsolve.lifts"],
        "frobsolve.lift_iterations": c["frobsolve.lift_iterations"],
        "frobsolve.contraction_lift.s": total["frobsolve.contraction_lift"],
        "frobsolve.lift_yield": c["frobsolve.lifts"] / grid if grid else 0.0,
        "frobsolve.known_defect_raised": sum(defect.values()),
        "tiltring.elements_built": c["tiltring.init.calls"],
        "wach.mat_det.calls": c["wach.mat_det.calls"],
        "ramify.calls": c["ramify.calls"],
        "bounds.calls": c["bounds.calls"],
        "trace.overhead": traced_s / untraced_s,
    }
    for name, unit in PER_LAYER:
        if name in values:
            continue
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            values[name] = self_s[layer]
        elif name.endswith(".s"):
            values[name] = total[name[:-2]]
        else:
            values[name] = c[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def worker(args):
    """One fresh process of the timed phase; prints one JSON line."""
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=CHECKOUT) as tmp:
        jobs, digest, setup_s = setup(args.workload, args.seed, Path(tmp))
        outcomes, samples, busy, wall, rounds = timed(jobs, args.seconds)
        control = outcomes.negative_control()
    print(json.dumps({
        "setup_s": setup_s, "inputs_sha256": digest, "jobs_per_round": len(jobs),
        "rounds": rounds, "samples": samples, "busy": busy, "wall": wall,
        "attempted": outcomes.attempted, "passed": outcomes.passed,
        "raised": outcomes.raised, "first_error": outcomes.first_error,
        "wrong": outcomes.wrong, "negative_control": control,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }))
    return 0


def run_workers(args):
    """WORKERS fresh processes, one after another, each with an equal share of --seconds."""
    share = args.seconds / WORKERS
    results = []
    for _ in range(WORKERS):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(share), "--worker"],
            capture_output=True, text=True, timeout=share + 60, cwd=CHECKOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: worker exited with code {done.returncode}")
        results.append(json.loads(done.stdout.splitlines()[-1]))
    return results


def known_defect():
    """The known solver defect, measured untimed on the draws that show it."""
    import workloads
    return dict(workloads.known_defect())


def end_to_end(args):
    """Pooled metrics of the workers; returns (info, attempted, failed, correct, metrics)."""
    results = run_workers(args)
    samples = [sample for r in results for sample in r["samples"]]
    scaled = [s for s, _ in samples]
    raw = [w for _, w in samples]
    attempted = sum(r["attempted"] for r in results)
    passed = sum(r["passed"] for r in results)
    busy = sum(r["busy"] for r in results)
    raised, wrong = collections.Counter(), collections.Counter()
    for r in results:
        raised.update(r["raised"])
        wrong.update(r["wrong"])
    digests = {r["inputs_sha256"] for r in results}
    if len(digests) > 1:
        wrong["workers generated different inputs"] += 1
    controls = [r["negative_control"] for r in results]
    setups = [r["setup_s"] for r in results]
    metrics = {
        "job_ms_p50": {"value": 1000 * statistics.median(scaled), "unit": "ms"},
        "job_ms_p90": {"value": 1000 * percentile(scaled, 90), "unit": "ms"},
        "jobs_per_s": {"value": passed / busy, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in results), "unit": "MB"},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "inputs_sha256": sorted(digests),
        "jobs_per_round": results[0]["jobs_per_round"],
        "rounds": [r["rounds"] for r in results], "samples": len(samples),
        "timed_s": busy, "wall_s": sum(r["wall"] for r in results),
        "wall_ms_p50": 1000 * statistics.median(raw),
        "wall_ms_p90": 1000 * percentile(raw, 90),
        "setup_s_samples": setups, "failed_frac": (attempted - passed) / attempted,
        "raised_by_type": dict(raised), "first_error": results[0]["first_error"],
        "wrong": dict(wrong), "negative_control": controls,
        "known_defect": known_defect(),
    }
    correct = not wrong and all(c == "tripped" for c in controls)
    return info, attempted, attempted - passed, correct, metrics


def per_layer(args):
    """One traced round in this process; returns (info, attempted, failed, correct, metrics)."""
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=CHECKOUT) as tmp:
        jobs, digest, _ = setup(args.workload, args.seed, Path(tmp))
        outcomes, tracer, untraced_s, traced_s = traced(jobs, args.workload, args.seed)
        control = outcomes.negative_control()
        defect = known_defect()
    metrics = layer_metrics(tracer, untraced_s, traced_s, defect)
    info = {
        "workload": args.workload, "seed": args.seed, "inputs_sha256": [digest],
        "jobs_per_round": len(jobs), "spans_recorded": len(tracer.spans),
        "failed_frac": outcomes.failed / outcomes.attempted,
        "raised_by_type": dict(outcomes.raised), "first_error": outcomes.first_error,
        "wrong": dict(outcomes.wrong), "negative_control": control,
        "known_defect": defect,
    }
    correct = not outcomes.wrong and control == "tripped"
    return info, outcomes.attempted, outcomes.failed, correct, metrics


def main(argv=None):
    args = parse_args(argv)
    use_checkout_library()
    if args.worker:
        return worker(args)
    info, attempted, failed, correct, metrics = (per_layer if args.trace else end_to_end)(args)
    print(json.dumps(info, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
