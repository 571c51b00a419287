"""Golden test of the four demo tours (demos/*_tour.py).

Each tour runs in-process as __main__ with stdout captured, and its
output is compared with a recorded fixture; the tours print no timing,
so their output is deterministic.  To record the fixture again after an
intended change of output, run

    PYTHONPATH=src python tests/test_demo_golden.py
"""

import contextlib
import io
import json
import pathlib
import runpy
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "demo_tours.json"
TOURS = sorted(path.name for path in (ROOT / "demos").glob("*_tour.py"))


def run_tour(name):
    """Everything the tour prints to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    return out.getvalue()


def load_fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", TOURS)
def test_tour_output_matches_fixture(name):
    assert run_tour(name) == load_fixture()[name]


def test_fixture_covers_exactly_the_tours():
    assert sorted(load_fixture()) == TOURS


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    doc = {name: run_tour(name) for name in TOURS}
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc)} tours to {FIXTURE}", file=sys.stderr)
