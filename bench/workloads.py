"""Seeded workloads: the jobs of one round, how to run them, how to check them.

A round is a fixed list of jobs made from the workload seed alone.  The
structural parameters of every job (prime, rank, height, truncation,
ring) come from fixed strata, so the cost profile of a round is the same
for every seed; the seed draws the module coefficients, the Galois
exponents, the CLI parameters and the order of the jobs.  The heaviest
strata are "anchored": drawn from a stream that does not depend on the
seed, so the 90th percentile, which they set, compares across seeds.  No
draw is ever replaced: a draw on which the library raises stays in the
round and counts as a failure.

Every random rank-2 module that a solver job uses has height 0.  Random
rank-2 draws of height 1 hit a known defect of the solver (one draw in
three to one in eight raises StructureViolation, at every truncation
tried), so a round
built from them would fail a varying share of its jobs.  The defect is
measured instead by known_defect(), on the draws that show it.

Jobs call the library through module attributes (``frobsolve.compute_tstar``
and so on), so that the tracer's in-memory patches see every call.
"""

import collections
import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

from padic_ramlab import cli, frobsolve, tiltring, wach
from padic_ramlab.gf import FiniteFieldParams

import oracle

BUDGET = 10**6

# (p, i, tilt depth) of the rank-1 standard jobs in tstar_grid: the grid
# of p^(m_b + 1) points dominates each of them.
GRID_RANK1 = ((3, 3, 1), (5, 2, 1), (5, 3, 1), (5, 4, 1), (7, 2, 1), (7, 3, 1),
              (3, 1, 2), (3, 2, 2), (2, 1, 3), (2, 1, 4), (2, 2, 3), (2, 3, 2),
              (3, 4, 1), (3, 5, 1), (11, 1, 1), (11, 2, 1), (13, 1, 1), (13, 2, 1))
# (p, i, level s) of the untilted rank-1 share; each has p^s > a.
GRID_UNTILTED = ((2, 1, 2), (3, 1, 1), (3, 2, 2), (5, 1, 1))
# (p, truncation, draws, anchored) of the rank-2 height-0 draws at the
# working cut.
GRID_RANK2 = ((2, 10, 96, False), (3, 12, 12, True))

# (p, f, draws, anchored) of the deep rank-2 height-0 draws at tilt depth
# 1; cuts run over c_work + 20..40.
DEEP_TILT = ((2, 1, 144, False), (2, 2, 12, True), (3, 1, 20, True))
DEEP_EXTRA = (20, 24, 28, 32, 36, 40)
# (p, f, level s, truncation, draws, anchored) of the untilted rank-2
# height-0 deep draws.
DEEP_UNTILTED = ((2, 1, 2, 16, 8, False), (2, 2, 2, 16, 6, True),
                 (2, 2, 1, 16, 6, True), (3, 1, 2, 12, 4, False))

# The known contraction-rate defect: compute_tstar raises
# StructureViolation("contraction rate violated: defect went 5 -> 5") on
# random_module(random.Random(s), 2, 2, 1, 10) at tilt depth 1, cut 4.
KNOWN_DEFECT_SEEDS = (4, 7, 10)

# (rank, p, truncation, height, draws, anchored) of module_checks; every
# stratum has rank (p-1) height < N so that a height witness exists.  The
# counts put the median inside the rank-3 block and the 90th percentile
# inside the rank-5 block.
MODULE_STRATA = (
    (1, 3, 16, 0, 3, False), (1, 5, 16, 2, 3, False), (1, 2, 32, 2, 3, False),
    (2, 5, 16, 1, 4, False), (2, 3, 16, 2, 4, False), (2, 5, 24, 1, 3, False),
    (3, 5, 16, 1, 14, False),
    (4, 5, 16, 0, 5, False), (4, 2, 16, 1, 5, False),
    (5, 5, 16, 0, 8, True),
    (6, 3, 16, 0, 2, True), (6, 2, 16, 0, 1, True),
)

DEMO_SOLVES = (
    ("rank1_p3_i1.json", ["--depth", "1"]),
    ("rank1_p3_i1.json", ["--depth", "2", "--trace"]),
    ("rank1_p3_i1.json", ["--mode", "untilted", "--level", "1"]),
    ("rank1_p2_i2.json", ["--depth", "1"]),
    ("rank1_p2_i2.json", ["--depth", "2"]),
    ("rank2_p2_i1.json", ["--depth", "1"]),
    ("rank2_p2_i1.json", ["--depth", "2"]),
)

WORKLOADS = ("tstar_grid", "tstar_deep", "module_checks", "cli_batch")


class Job:
    """One user-level request: what to call and what its check needs."""

    __slots__ = ("kind", "module", "args", "facts")

    def __init__(self, kind, module=None, args=None, facts=None):
        self.kind = kind  # "tstar" | "module" | "cli"
        self.module = module
        self.args = args
        self.facts = facts or {}

    def describe(self):
        """JSON-able description of the job's inputs, for the digest."""
        doc = {"kind": self.kind, "args": self.args}
        if self.module is not None:
            doc["module"] = wach.module_to_dict(self.module)
        doc.update(self.facts.get("digest", {}))
        return doc


def inputs_digest(jobs):
    text = json.dumps([job.describe() for job in jobs], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


# -- job construction ----------------------------------------------------------

def _tstar_job(module, mode, level, extra=0, closed_i=None):
    return Job("tstar", module=module, args=(mode, level, extra),
               facts={"closed_i": closed_i})


def _deep_truncation(p, extra):
    """Smallest truncation of a height-0 module whose image covers the
    inflated lift cut, so that no job fails for lack of precision."""
    c_work = Fraction(2, p - 1)  # height 0, tilt depth 1
    return math.floor((c_work + extra) * (p - 1)) + 2


def build_round(workload, seed, checkout, workdir):
    """The jobs of one round, in the seeded order.

    checkout is the repository root (for the demo module files); workdir
    is a scratch directory inside it for generated input files.
    """
    rng = random.Random(f"{workload}:{seed}")
    anchor = random.Random(f"{workload}:anchor")
    jobs = []
    if workload == "tstar_grid":
        for p, i, depth in GRID_RANK1:
            jobs.append(_tstar_job(wach.make_rank1_module(p, i), "tilt", depth, closed_i=i))
        for p, i, s in GRID_UNTILTED:
            jobs.append(_tstar_job(wach.make_rank1_module(p, i), "untilted", s, closed_i=i))
        for p, trunc, draws, anchored in GRID_RANK2:
            source = anchor if anchored else rng
            for _ in range(draws):
                jobs.append(_tstar_job(wach.random_module(source, p, 2, 0, trunc), "tilt", 1))
    elif workload == "tstar_deep":
        for p, f, draws, anchored in DEEP_TILT:
            source = anchor if anchored else rng
            for n in range(draws):
                extra = DEEP_EXTRA[n % len(DEEP_EXTRA)]
                module = wach.random_module(source, p, 2, 0, _deep_truncation(p, extra), f=f)
                jobs.append(_tstar_job(module, "tilt", 1, extra))
        for p, f, s, trunc, draws, anchored in DEEP_UNTILTED:
            source = anchor if anchored else rng
            for _ in range(draws):
                module = wach.random_module(source, p, 2, 0, trunc, f=f)
                jobs.append(_tstar_job(module, "untilted", s))
    elif workload == "module_checks":
        for rank, p, trunc, height, draws, anchored in MODULE_STRATA:
            source = anchor if anchored else rng
            for _ in range(draws):
                module = wach.random_module(source, p, rank, height, trunc)
                jobs.append(Job("module", module=module))
    elif workload == "cli_batch":
        jobs = _cli_jobs(rng, checkout, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


def _break_data(rng):
    """A valid filtration: decreasing divisors of the order at increasing breaks."""
    total = rng.choice([4, 6, 8, 12, 16, 24, 48, 60])
    chain = [d for d in range(total - 1, 1, -1) if total % d == 0 and rng.random() < 0.4]
    lam, breaks = Fraction(0), []
    for order in chain + [1]:
        lam += Fraction(rng.randint(1, 24), rng.randint(1, 6))
        breaks.append((lam, order))
    return total, breaks


def _cli_jobs(rng, checkout, workdir):
    def job(argv, shown=None, **facts):
        # shown: argv as recorded in the digest, free of scratch paths
        return Job("cli", args=shown or argv, facts={"argv": argv, **facts})

    jobs = [job(["bound", "-p", "3", "-i", "1", "--compare"])]
    for _ in range(7):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        jobs.append(job(["bound", "-p", str(p), "-i", str(rng.randint(1, 30)), "--compare"]))
    for imax in (20, 40):
        jobs.append(job(["grid", "--plist", "2,3,5,7,11,13", "--imax", str(imax)]))
    jobs.append(job(["herbrand", "cyclotomic", "-p", "2", "-n", "1", "--mu"]))
    for _ in range(5):
        p, n = rng.choice([2, 3, 5, 7]), rng.randint(1, 4)
        jobs.append(job(["herbrand", "cyclotomic", "-p", str(p), "-n", str(n), "--mu"]))
    for p in (2, 3, 5, 7):
        jobs.append(job(["herbrand", "kummer-tate", "-p", str(p), "--mu"]))
    for n in range(2):
        total, breaks = _break_data(rng)
        text = "; ".join([f"order={total}"] + [
            f"(lambda={lam.numerator}/{lam.denominator}, size={size})" for lam, size in breaks])
        path = workdir / f"breaks_{n}.txt"
        path.write_text(text, encoding="utf-8")
        t = Fraction(rng.randint(1, 60), rng.randint(1, 4))
        tail = ["--mu", "--eval", str(t)]
        jobs.append(job(["herbrand", "file", "--path", str(path), *tail],
                        shown=["herbrand", "file", "--path", path.name, *tail],
                        breaks=(total, breaks), eval=t, digest={"breaks": text}))
    for p in (3, 5, 7):
        jobs.append(job(["verify", "tate-exclusion", "-p", str(p)]))
    for p, i in ((2, 1), (2, 2), (3, 1)):
        jobs.append(job(["verify", "approx1", "-p", str(p), "-i", str(i)]))
    jobs.append(job(["verify", "gamma-power", "-p", "3", "--count", "4",
                     "--seed", str(rng.randint(0, 10**6))]))
    jobs.append(job(["verify", "bounds-grid", "--pmax", "13", "--imax", "50"]))
    for name, tail in DEMO_SOLVES:
        path = checkout / "demos" / "modules" / name
        text = path.read_text(encoding="utf-8")
        jobs.append(job(["solve", str(path), *tail], shown=["solve", name, *tail],
                        module=json.loads(text), digest={"module_file": text}))
    return jobs


# -- running, reading and checking a job -------------------------------------------

def run(job):
    """The library calls of one job; this is what the benchmark times."""
    if job.kind == "tstar":
        module = job.module
        mode, level, extra = job.args
        p, i = module.params.p, module.height
        if mode == "tilt":
            probe = tiltring.RingSpec(module.params, tiltring.TILT, level, Fraction(1))
            params = frobsolve.SolverParams.for_tilt(p, i, probe)
            spec = tiltring.RingSpec(module.params, tiltring.TILT, level, params.c_work + extra)
            return frobsolve.compute_tstar(module, spec, BUDGET, params=params)
        params = frobsolve.SolverParams.for_untilted(p, i, level)
        spec = tiltring.RingSpec(module.params, tiltring.UNTILTED, level,
                                 params.c_work * params.ring_scale)
        return frobsolve.compute_tstar_untilted(module, spec, BUDGET, params=params)
    if job.kind == "module":
        module = job.module
        witness = wach.verify_height(module)
        report = wach.verify_gamma(module)
        p, s, containment = module.params.p, 0, []
        while p**s + module.height_exponent < module.trunc:
            containment.append(wach.gamma_power_containment(module, s))
            s += 1
        return witness, report, containment
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job.facts["argv"])
    return code, out.getvalue()


def known_defect():
    """Exception type -> count over the draws that show the known defect.

    Run outside the timed phase; a fix of the defect shows as an empty
    counter (the answers are then checked like any other).
    """
    raised = collections.Counter()
    for seed in KNOWN_DEFECT_SEEDS:
        job = _tstar_job(wach.random_module(random.Random(seed), 2, 2, 1, 10), "tilt", 1)
        try:
            answer = read(job, run(job))
        except Exception as error:
            raised[type(error).__name__] += 1
            continue
        ok, reason = check(job, answer)
        if not ok:
            raised["wrong: " + reason] += 1
    return raised


def warm_up(workload):
    """Fill the library's lazy caches and run one small fixed job untimed."""
    for p, f in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)):
        FiniteFieldParams(p, f).modulus
    if workload == "module_checks":
        small = Job("module", module=wach.random_module(random.Random(0), 2, 1, 1, 16))
    elif workload == "cli_batch":
        small = Job("cli", facts={"argv": ["bound", "-p", "3", "-i", "1"]})
    else:
        small = _tstar_job(wach.make_rank1_module(2, 1), "tilt", 1, closed_i=1)
    run(small)


def _matrix(M):
    return [[dict(a.coeffs) for a in row] for row in M]


def read(job, output):
    """The job's output as plain data, read off the returned objects."""
    if job.kind == "tstar":
        return {
            "rank": output.rank,
            "cut": output.spec.cut,
            "solutions": [[dict(e.coeffs) for e in x.entries] for x in output.solutions],
        }
    if job.kind == "module":
        witness, report, containment = output
        return {"V": _matrix(witness.V), "slack": witness.slack,
                "trivial": report.trivial_mod_q1, "commutes": report.commutes_with_phi,
                "containment": containment}
    code, stdout = output
    if code == 0:  # drop the one field that differs between runs
        doc = json.loads(stdout)
        doc.pop("timing_ms", None)
        stdout = json.dumps(doc)
    return code, stdout


def working_cut(p, i, mode, level, extra):
    """The ring cut a job asks for: one grid step (two at tilt) above a."""
    a = Fraction(p * i, p - 1)
    if mode == "tilt":
        return a + Fraction(2, p ** (level - 1) * (p - 1)) + extra
    return (a + Fraction(1, p - 1)) / p**level


def check(job, answer):
    """(ok, reason) from the independent oracles."""
    if job.kind == "cli":
        return oracle.check_cli(job.facts, *answer)
    module = job.module
    problem = {"p": module.params.p, "f": module.params.f, "d": module.rank,
               "F": _matrix(module.F)}
    if job.kind == "tstar":
        mode, level, extra = job.args
        cut = working_cut(module.params.p, module.height, mode, level, extra)
        if answer["cut"] != cut:
            return False, f"ring cut {answer['cut']} != {cut}"
        problem.update(mode=mode, level=level, cut=cut, closed_i=job.facts["closed_i"])
        return oracle.check_tstar(problem, answer)
    problem.update(N=module.trunc, h=(module.params.p - 1) * module.height,
                   G=_matrix(module.G), u=module.u_g)
    return oracle.check_module(problem, answer)


def _bump(series, order):
    """Change one coefficient of a {index: coefficient} series in place."""
    if not series:
        series[0] = 1
        return
    k = min(series)
    bumped = series[k] + 1
    if bumped < order:
        series[k] = bumped
    elif order > 2:
        series[k] = 1
    else:
        del series[k]


def corrupt(job, answer):
    """A copy of an answer with one coefficient changed (negative control)."""
    if job.kind == "cli":
        code, stdout = answer
        doc = json.loads(stdout)
        res = doc["results"]
        if "solutions" in res:
            cells = res["solutions"][0].split(" | ")
            cells[0] = "1*u^0" if cells[0] == "0" else cells[0] + " + 1*u^0"
            res["solutions"][0] = " | ".join(cells)
        elif "rows" in res or "crystalline" in res or "mu" in res:
            target = res["rows"][0] if "rows" in res else res
            target["mu" if "mu" in target else "crystalline"]["num"] += 1
        else:
            doc["ok"] = False
        return code, json.dumps(doc)
    order = job.module.params.order
    if job.kind == "tstar":
        solutions = [[dict(e) for e in x] for x in answer["solutions"]]
        entries = [e for x in solutions for e in x if e] or [solutions[0][0]]
        _bump(entries[0], order)
        return dict(answer, solutions=solutions)
    V = [[dict(e) for e in row] for row in answer["V"]]
    _bump(V[0][0], order)
    return dict(answer, V=V)
