"""The names the benchmark tracer patches exist, and its patches are undone.

bench/tracer.py wraps library functions and methods by name.  Deleting
or renaming one of them (wach.mat_det, FiniteFieldParams.sub,
ValuedTrunc.shift_down, ...) breaks only a traced benchmark run; this
test makes it fail the suite instead.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(owner, attr):
    # a class attribute as stored (classmethods unbound), like the tracer
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_existing_names_and_restores_them():
    tracer = load_tracer().Tracer()
    namespaces = {name: dict(vars(module)) for name, module in sys.modules.items()
                  if name == "padic_ramlab" or name.startswith("padic_ramlab.")}
    try:
        tracer.install()  # raises on a patched name that is gone
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        originals = [original for _, _, original in tracer._patches]
        assert all(lookup(owner, attr) is not original
                   for (owner, attr), original in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert len(patched) >= 100
    for (owner, attr), original in zip(patched, originals):
        assert lookup(owner, attr) is original, (owner, attr)
        if not isinstance(owner, type):
            assert namespaces[owner.__name__][attr] is original, (owner, attr)
