"""Property test of the ramlab front end on generated input.

Whatever module file or suite arguments it is given, cli.main returns
0, 1 or 2 and never lets an exception (a traceback) escape.
"""

import contextlib
import io
import json
import os
import random
import tempfile

import pytest

from padic_ramlab import wach
from padic_ramlab.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = dict(deadline=None, derandomize=True, database=None,
                suppress_health_check=list(hypothesis.HealthCheck))

coefficient = st.one_of(st.integers(-3, 9).map(str),
                        st.lists(st.integers(0, 4), min_size=1, max_size=3).map(
                            lambda ds: "(" + ",".join(map(str, ds)) + ")"))
term = st.one_of(
    coefficient,
    st.just("x"),
    st.integers(0, 12).map(lambda e: f"x^{e}"),
    st.tuples(coefficient, st.integers(0, 12)).map(lambda ce: f"{ce[0]}*x^{ce[1]}"),
    st.text("x^*+-()0123,", max_size=6),
)
term_string = st.builds(
    lambda lead, first, rest: lead + first + "".join(sign + t for sign, t in rest),
    st.sampled_from(["", "-"]), term,
    st.lists(st.tuples(st.sampled_from([" + ", " - "]), term), max_size=2))
scalar = st.one_of(st.integers(-1, 9), st.just("3"), st.none(), st.just(2.0))


@st.composite
def module_doc(draw):
    """A random module's file, then up to three edits: a cell replaced by a
    generated term string, a scalar replaced, a key deleted."""
    p = draw(st.sampled_from([2, 3, 5]))
    i = draw(st.integers(0, 1))
    module = wach.random_module(random.Random(draw(st.integers(0, 2**16))), p,
                                draw(st.integers(1, 2)), i,
                                (p - 1) * i + draw(st.integers(1, 10)),
                                f=draw(st.sampled_from([1, 1, 2])))
    doc = wach.module_to_dict(module)
    for kind in draw(st.lists(st.sampled_from(["cell", "scalar", "delete"]), max_size=3)):
        key = draw(st.sampled_from(sorted(doc)))
        if kind == "delete":
            del doc[key]
        elif kind == "scalar" or not isinstance(doc[key], list):
            doc[key] = draw(scalar)
        else:
            row = draw(st.sampled_from(doc[key]))
            row[draw(st.integers(0, len(row) - 1))] = draw(term_string)
    return doc


solve_options = st.one_of(
    st.tuples(st.just("--depth"), st.sampled_from(["1", "0"])),
    st.tuples(st.just("--mode"), st.just("untilted"), st.just("--level"),
              st.sampled_from(["1", "2", "0"])),
).map(list)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@hypothesis.settings(max_examples=30, **SETTINGS)
@hypothesis.given(doc=module_doc(), options=solve_options,
                  flags=st.lists(st.sampled_from(["--skip-verify", "--trace"]), unique=True),
                  fmt=st.sampled_from(["json", "text"]))
def test_solve_on_generated_module_files(doc, options, flags, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "module.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code, err = run(["solve", path, *options, *flags, "--budget", "200",
                         "--format", fmt])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@hypothesis.settings(max_examples=15, **SETTINGS)
@hypothesis.given(suite=st.sampled_from(["tate-exclusion", "approx1", "gamma-power",
                                         "bounds-grid"]),
                  p=st.sampled_from(["2", "3", "5", "4", "1", "0", "-3"]),
                  i=st.sampled_from(["0", "1", "2", "-1"]),
                  count=st.sampled_from(["1", "2", "0"]),
                  bounds=st.sampled_from(["1", "5", "0", "-2"]))
def test_verify_on_generated_arguments(suite, p, i, count, bounds):
    code, err = run(["verify", suite, "-p", p, "-i", i, "--count", count, "--seed", "1",
                     "--pmax", bounds, "--imax", bounds, "--budget", "200"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
