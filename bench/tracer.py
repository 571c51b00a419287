"""In-memory spans and counters around the library's public functions.

The benchmark wraps the library from outside, without editing it:
methods are patched on their class, and module-level functions are
patched in every ``padic_ramlab`` namespace that holds them (so
``_tstar_pipeline`` reaches the wrapped ``enumerate_jc`` and ``mat_det``
recurses through its wrapped global name).  ``Tracer.uninstall`` puts
every original back.

Each call opens a span with its name, layer, start, end and parent.  A
layer's self time is the sum over its spans of the span's duration minus
the time covered by its child spans.  Spans of the coarse layers
(frobsolve, wach, ramify, bounds, cli) are kept as records; spans of the
ring layers (gf, qring, tiltring) run millions of times per round, so
they are only folded into the totals.  F_p arithmetic (gf with f = 1) is
counted but not timed: a span costs more than the operation itself, so
its time stays in the caller's self time.
"""

import collections
import functools
import sys
import time

from padic_ramlab import bounds, cli, frobsolve, gf, qring, ramify, tiltring, wach

RECORDED = frozenset({"frobsolve", "wach", "ramify", "bounds", "cli", "job"})

# (owner, attribute names, layer); the span name is "<layer>.<short name>".
CLASS_METHODS = (
    (qring.QPoly, ("__init__", "__add__", "__neg__", "__sub__", "__mul__", "scale",
                   "__pow__", "shift", "retrunc", "__eq__", "__hash__"), "qring"),
    (tiltring.ValuedTrunc, ("__init__", "__add__", "__neg__", "__sub__", "__mul__",
                            "scale", "__pow__", "shift_down", "with_cut", "__eq__",
                            "__hash__"), "tiltring"),
    (tiltring.RingSpec, ("with_cut",), "tiltring"),
    (ramify.BreakData, ("order_at", "to_text"), "ramify"),
    (ramify.HerbrandFn, ("evaluate", "inverse", "compose"), "ramify"),
)
FUNCTIONS = (
    (qring, ("frobenius_q", "gamma_q", "try_divide", "invert_unit", "one_plus_x_pow",
             "parse_terms"), "qring"),
    (tiltring, ("val", "frobenius", "galois_act", "embed_q", "reduce_to",
                "formality_threshold"), "tiltring"),
    (wach, ("verify_height", "verify_gamma", "gamma_power_containment", "specialize",
            "mat_det", "mat_adjugate", "mat_mul", "mat_inverse_unit", "module_from_dict",
            "load_module_file"), "wach"),
    (frobsolve, ("enumerate_jc", "contraction_lift", "contraction_lift_untilted",
                 "compute_tstar", "compute_tstar_untilted", "character_of",
                 "galois_act_jc"), "frobsolve"),
    (ramify, ("phi_fn", "psi_fn", "mu", "tower_mu", "cyclotomic_breaks",
              "cyclotomic_relative_breaks", "kummer_tate_breaks"), "ramify"),
    (bounds, ("alpha", "beta", "crystalline_bound", "semistable_bound", "tate_exclusion",
              "bound_grid", "grid_csv"), "bounds"),
    (cli, ("main",), "cli"),
)
GF_OPS = ("mul", "add", "sub", "neg", "pow", "inv", "frobenius", "frobenius_pow")
# the two lift entry points share one name, so their time and count add up
RENAME = {"frobsolve.contraction_lift_untilted": "frobsolve.contraction_lift"}


def _short(attr):
    return attr.strip("_")


def _grid_points(args, kwargs):
    """(p^f)^(d (m_max + 1)) for an enumerate_jc call, from its arguments."""
    module, spec = args[0], args[1]
    cut = kwargs.get("cut", args[3] if len(args) > 3 else None)
    cut = spec.cut if cut is None else cut
    p = spec.params.p
    denominator = p ** (spec.level - 1) * (p - 1) if spec.mode == tiltring.TILT \
        else p**spec.level * (p - 1)
    m_max = (cut.numerator * denominator) // cut.denominator
    return module.params.order ** (module.rank * (m_max + 1))


def _count_grid(tracer, args, kwargs):
    tracer.counts["frobsolve.grid_points"] += _grid_points(args, kwargs)


def _count_candidates(tracer, result):
    tracer.counts["frobsolve.candidates"] += len(result.elements)


def _count_lift(tracer, result):
    tracer.counts["frobsolve.lifts"] += 1
    tracer.counts["frobsolve.lift_iterations"] += result.iterations


def _term_pairs(name):
    def count(tracer, args, kwargs):
        tracer.counts[name] += len(args[0].coeffs) * len(args[1].coeffs)
    return count


class Tracer:
    """Spans and counters of one traced pass; install, run, uninstall."""

    def __init__(self):
        self.counts = collections.Counter()
        self.self_s = collections.defaultdict(float)   # layer -> seconds
        self.total_s = collections.defaultdict(float)  # span name -> outermost seconds
        self.raised = collections.Counter()            # exception type -> jobs
        self.spans = []  # [name, start, end, parent index, job index]
        self.job = None
        self._stack = []     # open frames: [child seconds]
        self._open = collections.Counter()  # span name / layer -> open depth
        self._records = []   # indices of open recorded spans
        self._patches = []

    # -- spans ------------------------------------------------------------------

    def wrap(self, fn, name, layer, before=None, after=None):
        counts, self_s, total_s = self.counts, self.self_s, self.total_s
        stack, open_, records, spans = self._stack, self._open, self._records, self.spans
        clock = time.perf_counter
        recorded = layer in RECORDED
        calls, layer_calls = name + ".calls", layer + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[calls] += 1
            counts[layer_calls] += 1
            if before is not None:
                before(self, args, kwargs)
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            open_[layer] += 1
            if recorded:
                records.append(len(spans))
                spans.append([name, 0.0, 0.0, records[-2] if len(records) > 1 else None,
                              self.job])
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if layer == "frobsolve" and open_[layer] == 1:
                    self.raised[type(exc).__name__] += 1
                raise
            else:
                if after is not None:
                    after(self, result)
                return result
            finally:
                t1 = clock()
                stack.pop()
                span = t1 - t0
                self_s[layer] += span - frame[0]
                if stack:
                    stack[-1][0] += span
                open_[name] -= 1
                open_[layer] -= 1
                if not open_[name]:
                    total_s[name] += span
                if recorded:
                    spans[records.pop()][1:3] = (t0, t1)

        return traced

    def wrap_gf(self, fn, name):
        """Field operations: always counted, timed only for f > 1."""
        counts = self.counts
        calls = name + ".calls"
        timed = self.wrap(fn, name, "gf")

        @functools.wraps(fn)
        def counted(field, *args):
            if field.f > 1:
                return timed(field, *args)
            counts[calls] += 1
            return fn(field, *args)

        return counted

    # -- patching -----------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = {
            "frobsolve.enumerate_jc": (_count_grid, _count_candidates),
            "frobsolve.contraction_lift": (None, _count_lift),
            "tiltring.mul": (_term_pairs("tiltring.mul.term_pairs"), None),
            "qring.mul": (_term_pairs("qring.mul.term_pairs"), None),
        }
        namespaces = [m for n, m in sys.modules.items()
                      if n == "padic_ramlab" or n.startswith("padic_ramlab.")]
        for owner, attrs, layer in CLASS_METHODS:
            for attr in attrs:
                name = RENAME.get(f"{owner.__name__}.{attr}", f"{layer}.{_short(attr)}")
                self._set(owner, attr, self.wrap(owner.__dict__[attr], name, layer,
                                                 *hooks.get(name, (None, None))))
        parse = ramify.BreakData.__dict__["parse"].__func__
        self._set(ramify.BreakData, "parse",
                  classmethod(self.wrap(parse, "ramify.parse", "ramify")))
        for attr in GF_OPS:
            self._set(gf.FiniteFieldParams, attr,
                      self.wrap_gf(gf.FiniteFieldParams.__dict__[attr], f"gf.{attr}"))
        for module, attrs, layer in FUNCTIONS:
            for attr in attrs:
                original = getattr(module, attr)
                name = RENAME.get(f"{layer}.{attr}", f"{layer}.{attr}")
                wrapped = self.wrap(original, name, layer, *hooks.get(name, (None, None)))
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            self._set(namespace, key, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- jobs -----------------------------------------------------------------------

    def run_job(self, index, fn, *args):
        """Run one job under a root span of the "job" layer."""
        self.job = index
        return self.wrap(fn, "job.run", "job")(*args)
