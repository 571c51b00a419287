"""Batch command-line front end.

Subcommands: bound | grid | herbrand | solve | verify.  Results go to
stdout (JSON by default; text and csv where meaningful), diagnostics to
stderr.  Exit codes: 0 success, 1 verification failure, 2 usage, input
or regime error.  Rationals are emitted as {"num": .., "den": ..}; output
is byte-identical across runs except for the timing field.

The budget comes from --budget or PADIC_RAMLAB_BUDGET (default 10^6)
and must be a positive integer (a float such as 1e6 is truncated).  For
solve it bounds the p^r solutions that are formed, as F_p-combinations
of the r basis rows, which alone are lifted; the full coefficient grid
(p^f)^(d(m+1)) is bounded only where the enumerate_jc oracle scans it
(verify approx1).

The argparse parser is built once per process, the first time main needs
it, and shared by every later call; parsing keeps no state in it.
"""

import argparse
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import bounds, frobsolve, ramify, tiltring, wach
from .errors import RamlabError
from .gf import is_prime

DEFAULT_BUDGET = 10**6


def rat(x):
    fr = Fraction(x)
    return {"num": fr.numerator, "den": fr.denominator}


def emit(doc, started):
    doc["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    print(json.dumps(doc))


def _parse_budget(text, source):
    """A budget written as an integer or a float (1e6), truncated to int >= 1."""
    try:
        budget = int(float(text))
    except (ValueError, OverflowError):
        raise RamlabError(f"{source} {text!r} is not a finite number") from None
    if budget < 1:
        raise RamlabError(f"{source} {text!r} is not a positive budget (at least 1)")
    return budget


def _parse_rational(text, source):
    """An exact rational written as an integer, a decimal or n/d."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise RamlabError(f"{source} {text!r} is not a rational number") from None


def _non_negative(text):
    """An int option that is a count or an upper bound: 0 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative; it must be at least 0")
    return value


def get_budget(args):
    if getattr(args, "budget", None) is not None:
        return _parse_budget(args.budget, "--budget")
    env = os.environ.get("PADIC_RAMLAB_BUDGET")
    return _parse_budget(env, "PADIC_RAMLAB_BUDGET") if env else DEFAULT_BUDGET


def primitive_root(p):
    if p == 2:
        return 1
    for u in range(2, p):
        seen = set()
        acc = 1
        for _ in range(p - 1):
            acc = acc * u % p
            seen.add(acc)
        if len(seen) == p - 1:
            return u
    raise AssertionError("no primitive root found")  # unreachable for prime p


# -- bound / grid -------------------------------------------------------------

def cmd_bound(args):
    started = time.perf_counter()
    a = bounds.alpha(args.p, args.i)
    b, crys, semi = bounds._formula(args.p, args.i, a)
    results = {"p": args.p, "i": args.i, "alpha": a, "beta": rat(b),
               "crystalline": rat(crys)}
    if args.compare:
        results["semistable"] = rat(semi)
        results["difference"] = rat(semi - crys)
    if args.format == "text":
        line = f"p={args.p} i={args.i} alpha={a} beta={b} crystalline={crys}"
        if args.compare:
            line += f" semistable={semi}"
        print(line)
    else:
        emit({"command": "bound", "ok": True, "results": results}, started)
    return 0


def cmd_grid(args):
    started = time.perf_counter()
    p_list = [int(tok) for tok in args.plist.split(",") if tok]
    for p in p_list:
        if not is_prime(p):
            raise RamlabError(f"{p} in --plist is not prime")
    rows = bounds.bound_grid(p_list, args.imax)
    if args.format == "csv":
        sys.stdout.write(bounds.grid_csv(rows))
    elif args.format == "text":
        for r in rows:
            print(f"p={r['p']} i={r['i']} alpha={r['alpha']} "
                  f"crystalline={r['crystalline']} semistable={r['semistable']}")
    else:
        doc_rows = [
            {"p": r["p"], "i": r["i"], "alpha": r["alpha"],
             "crystalline": rat(r["crystalline"]),
             "semistable": rat(r["semistable"]),
             "difference": rat(r["difference"])}
            for r in rows
        ]
        emit({"command": "grid", "ok": True, "results": {"rows": doc_rows}}, started)
    return 0


# -- herbrand -----------------------------------------------------------------

def _load_breaks(args):
    if args.family == "cyclotomic":
        if args.p is None or args.n is None:
            raise RamlabError("cyclotomic needs -p and -n")
        return ramify.cyclotomic_breaks(args.p, args.n)
    if args.family == "kummer-tate":
        if args.p is None:
            raise RamlabError("kummer-tate needs -p")
        return ramify.kummer_tate_breaks(args.p)
    if args.family == "file":
        if not args.path:
            raise RamlabError("family 'file' needs --path")
        with open(args.path, "r", encoding="utf-8") as fh:
            return ramify.BreakData.parse(fh.read())
    raise RamlabError(f"unknown family {args.family!r}")


def cmd_herbrand(args):
    started = time.perf_counter()
    data = _load_breaks(args)
    phi = ramify.phi_fn(data)
    results = {
        "breaks": data.to_text(),
        "phi_breakpoints": [[rat(t), rat(v)] for t, v in phi.breakpoints],
        "phi_final_slope": rat(phi.final_slope),
    }
    if args.mu:
        results["mu"] = rat(ramify.mu(data))
    if args.eval is not None:
        t = _parse_rational(args.eval, "--eval")
        results["eval"] = {"t": rat(t), "phi": rat(phi.evaluate(t))}
    if args.format == "text":
        print(data.to_text())
        print(f"phi: {phi.to_text()}")
        if args.mu:
            print(f"mu = {ramify.mu(data)}")
        if args.eval is not None:
            print(f"phi({t}) = {phi.evaluate(t)}")
    else:
        emit({"command": "herbrand", "ok": True, "results": results}, started)
    return 0


# -- solve --------------------------------------------------------------------

def cmd_solve(args):
    started = time.perf_counter()
    module = wach.load_module_file(args.module)
    warnings = []
    if not args.skip_verify and module.G is not None:
        report = wach.verify_gamma(module)
        if not report.trivial_mod_q1:
            raise RamlabError(
                "module rejected: Galois matrix is not trivial mod (q-1)",
                precondition="G = Id mod (q-1)",
            )
        if not report.commutes_with_phi:
            warnings.append("gamma/phi commutation fails at this truncation")
    p = module.params.p
    budget = get_budget(args)
    cut = _parse_rational(args.cut, "--cut") if args.cut is not None else None
    if args.mode == "tilt":
        probe = tiltring.RingSpec(module.params, tiltring.TILT, args.depth, Fraction(1))
    elif args.level is None:
        raise RamlabError("untilted mode needs --level")
    else:
        probe = tiltring.RingSpec(module.params, tiltring.UNTILTED, args.level,
                                  Fraction(1, 2))
    params = frobsolve.SolverParams.for_spec(p, module.height, probe)
    spec = probe.with_cut(cut if cut is not None else params.working_floor)
    tstar = frobsolve.compute_tstar(module, spec, budget, params=params)
    results = {
        "mode": args.mode,
        "ring": spec.describe(),
        "cardinality": len(tstar),
        "rank": tstar.rank,
        "solutions": [v.to_text() for v in tstar.solutions],
    }
    if tstar.rank == 1:
        u = primitive_root(p) if args.character_base is None else args.character_base
        results["character_base"] = u
        results["character_exponent"] = frobsolve.character_of(tstar, u)
    if args.trace:
        results["transcripts"] = [
            [("inf" if v == float("inf") else f"{Fraction(v).numerator}/{Fraction(v).denominator}")
             for v in lift.transcript]
            for lift in tstar.lifts
        ]
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    if args.format == "text":
        print(f"|T*| = {len(tstar)} (rank {tstar.rank}) over {spec.describe()}")
        for v in tstar.solutions:
            print(f"  {v.to_text()}")
        if "character_exponent" in results:
            print(f"character exponent = {results['character_exponent']}")
        if args.trace:
            for idx, transcript in enumerate(results["transcripts"]):
                print(f"trace[{idx}] defect valuations:")
                for v in transcript:
                    print(f"  {v}")
    else:
        emit({"command": "solve", "ok": True, "results": results}, started)
    return 0


# -- verify -------------------------------------------------------------------

def _suite_tate_exclusion(args):
    p = 3 if args.p is None else args.p
    report = bounds.tate_exclusion(p)
    data = ramify.kummer_tate_breaks(p)
    mu_val = ramify.mu(data)
    items = [
        {"check": "mu equals 2 + 1/(p-1)", "pass": mu_val == report.tate_mu,
         "value": rat(mu_val)},
        {"check": "crystalline bound is 2", "pass": report.crystalline == 2,
         "value": rat(report.crystalline)},
        {"check": "excluded", "pass": bool(report.excluded)},
    ]
    return items


def _suite_approx1(args):
    p = 2 if args.p is None else args.p
    i = 1 if args.i is None else args.i
    bounds._check_args(p, i)
    budget = get_budget(args)
    module = wach.make_rank1_module(p, i)
    probe = tiltring.RingSpec(module.params, tiltring.TILT, 1, Fraction(1))
    params = frobsolve.SolverParams.for_spec(p, i, probe)
    spec = probe.with_cut(params.c_work)
    oracle = frobsolve.enumerate_jc(module, spec.with_cut(params.a), budget)
    tstar = frobsolve.compute_tstar(module, spec, budget, params=params)
    cut_b = frobsolve._candidate_cut(spec, params)
    oracle_reduced = {v.reduce_to(cut_b) for v in oracle.elements}
    tstar_reduced = {v.reduce_to(cut_b) for v in tstar.solutions}
    injective = len(tstar_reduced) == len(tstar.solutions)
    items = [
        {"check": "oracle image at b equals lifted image at b",
         "pass": oracle_reduced == tstar_reduced,
         "oracle_size": len(oracle), "tstar_size": len(tstar)},
        {"check": "cardinality p^r", "pass": len(tstar) == p**tstar.rank},
        {"check": "reduction to b injective on solutions", "pass": injective},
    ]
    return items


def _suite_gamma_power(args):
    p = 2 if args.p is None else args.p
    count = 25 if args.count is None else args.count
    rng = random.Random(args.seed or 0)
    trunc = 16
    failures = 0
    checks = 0
    for _ in range(count):
        rank = rng.choice([1, 2])
        height = rng.choice([0, 1, 2])
        module = wach.random_module(rng, p, rank, height, trunc)
        s = 0
        while p**s + module.height_exponent < trunc:
            checks += 1
            if not wach.gamma_power_containment(module, s):
                failures += 1
            s += 1
    return [{"check": f"containment on {count} random modules ({checks} cases)",
             "pass": failures == 0, "failures": failures}]


def _suite_bounds_grid(args):
    pmax = 13 if args.pmax is None else args.pmax
    imax = 50 if args.imax is None else args.imax
    p_list = [p for p in range(2, pmax + 1) if is_prime(p)]
    rows = bounds.bound_grid(p_list, imax)
    bad = [r for r in rows if r["crystalline"] > r["semistable"]]
    return [{"check": f"crystalline <= semistable on {len(rows)} rows",
             "pass": not bad}]


_SUITES = {
    "tate-exclusion": _suite_tate_exclusion,
    "approx1": _suite_approx1,
    "gamma-power": _suite_gamma_power,
    "bounds-grid": _suite_bounds_grid,
}


def cmd_verify(args):
    started = time.perf_counter()
    items = _SUITES[args.suite](args)
    ok = all(item["pass"] for item in items)
    if args.format == "text":
        for item in items:
            print(f"[{'PASS' if item['pass'] else 'FAIL'}] {item['check']}")
    else:
        emit({"command": f"verify {args.suite}", "ok": ok,
              "results": {"items": items}}, started)
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="ramlab",
        description="Exact Wach-module solvers, Herbrand calculus, and "
                    "crystalline ramification bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bound", help="crystalline (and semistable) bound for (p, i)")
    b.add_argument("-p", type=int, required=True)
    b.add_argument("-i", type=int, required=True)
    b.add_argument("--compare", action="store_true")
    b.add_argument("--format", choices=["json", "text"], default="json")
    b.set_defaults(func=cmd_bound)

    g = sub.add_parser("grid", help="bound table over primes and weights")
    g.add_argument("--plist", default="2,3,5,7,11,13")
    g.add_argument("--imax", type=_non_negative, default=10)
    g.add_argument("--format", choices=["json", "csv", "text"], default="json")
    g.set_defaults(func=cmd_grid)

    h = sub.add_parser("herbrand", help="break data, transition function, mu")
    h.add_argument("family", choices=["cyclotomic", "kummer-tate", "file"])
    h.add_argument("-p", type=int)
    h.add_argument("-n", type=int)
    h.add_argument("--path")
    h.add_argument("--mu", action="store_true")
    h.add_argument("--eval", metavar="T")
    h.add_argument("--format", choices=["json", "text"], default="json")
    h.set_defaults(func=cmd_herbrand)

    s = sub.add_parser("solve", help="solve phi(x) = x F for a module file")
    s.add_argument("module", help="path to a module JSON file")
    s.add_argument("--mode", choices=["tilt", "untilted"], default="tilt")
    s.add_argument("--depth", type=int, default=2, help="tilt depth N (default 2)")
    s.add_argument("--level", type=int, help="untilted level s")
    s.add_argument("--cut", help="ring cut as a rational, e.g. 7/2")
    s.add_argument("--budget")
    s.add_argument("--trace", action="store_true")
    s.add_argument("--skip-verify", action="store_true")
    s.add_argument("--character-base", type=int)
    s.add_argument("--format", choices=["json", "text"], default="json")
    s.set_defaults(func=cmd_solve)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(_SUITES))
    v.add_argument("-p", type=int)
    v.add_argument("-i", type=int)
    v.add_argument("--budget")
    v.add_argument("--count", type=_non_negative)
    v.add_argument("--seed", type=int)
    v.add_argument("--pmax", type=_non_negative)
    v.add_argument("--imax", type=_non_negative)
    v.add_argument("--format", choices=["json", "text"], default="json")
    v.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser():
    """The process's one parser, built on first use."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except RamlabError as exc:
        msg = str(exc)
        if exc.precondition:
            msg += f" [requires: {exc.precondition}]"
        print(f"error: {msg}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
