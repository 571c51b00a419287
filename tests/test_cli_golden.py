"""Golden test of the ramlab front end on the demo modules.

Each case runs cli.main in-process and compares the exit code, stdout
(with the timing_ms field removed) and stderr with a recorded fixture,
so the demo output stays byte-identical across refactors.  To record
the fixture again after an intended change of output, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

from padic_ramlab.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "cli_golden.json"
TIMING = re.compile(r', "timing_ms": [-+.0-9eE]+')


def cases():
    out = []
    for module in sorted((ROOT / "demos" / "modules").glob("*.json")):
        path = module.relative_to(ROOT).as_posix()
        for fmt in ("json", "text"):
            for depth in ("1", "2", "3"):
                out.append(["solve", path, "--depth", depth, "--trace", "--format", fmt])
            for level in ("1", "2", "3"):
                out.append(["solve", path, "--mode", "untilted", "--level", level,
                            "--format", fmt])
    for suite in ("approx1", "bounds-grid", "gamma-power", "tate-exclusion"):
        out.append(["verify", suite])
    return out


def run_case(argv):
    """(exit code, stdout without timing_ms, stderr) of one in-process run;
    module paths are read relative to the repository root."""
    argv = [str(ROOT / a) if a.startswith("demos/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": TIMING.sub("", out.getvalue()), "stderr": err.getvalue()}


def load_fixture():
    return {tuple(case["argv"]): case for case in json.loads(FIXTURE.read_text())}


@pytest.mark.parametrize("argv", cases(), ids=lambda argv: " ".join(argv))
def test_cli_output_matches_fixture(argv):
    want = load_fixture()[tuple(argv)]
    got = run_case(argv)
    assert (got["code"], got["stdout"], got["stderr"]) == \
        (want["code"], want["stdout"], want["stderr"])


def test_fixture_covers_exactly_the_cases():
    assert sorted(load_fixture()) == sorted(map(tuple, cases()))


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    doc = [dict(argv=argv, **run_case(argv)) for argv in cases()]
    FIXTURE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc)} cases to {FIXTURE}", file=sys.stderr)
