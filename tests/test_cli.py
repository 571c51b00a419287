import json

import pytest

from padic_ramlab import wach
from padic_ramlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    doc = json.loads(out)
    doc.pop("timing_ms", None)
    return doc


def test_bound_json(capsys):
    code, out, _ = run(capsys, "bound", "-p", "3", "-i", "1", "--compare")
    assert code == 0
    doc = parse(out)
    assert doc["results"]["crystalline"] == {"num": 2, "den": 1}
    assert doc["results"]["semistable"] == {"num": 5, "den": 2}


def test_bound_degenerate_exit_2(capsys):
    code, _, err = run(capsys, "bound", "-p", "3", "-i", "0")
    assert code == 2
    assert "i >= 1" in err


def test_usage_error_exit_2(capsys):
    assert main(["bogus-subcommand"]) == 2


def test_grid_csv(capsys):
    code, out, _ = run(capsys, "grid", "--plist", "3", "--imax", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("p,i,alpha,")
    assert out.splitlines()[1] == "3,1,1,2,1,5,2"


def test_herbrand_cyclotomic_mu(capsys):
    code, out, _ = run(capsys, "herbrand", "cyclotomic", "-p", "3", "-n", "2", "--mu")
    assert code == 0
    doc = parse(out)
    assert doc["results"]["mu"] == {"num": 2, "den": 1}
    assert doc["results"]["phi_final_slope"] == {"num": 1, "den": 6}


def test_herbrand_kummer_tate(capsys):
    code, out, _ = run(capsys, "herbrand", "kummer-tate", "-p", "3", "--mu")
    assert parse(out)["results"]["mu"] == {"num": 5, "den": 2}
    code, _, err = run(capsys, "herbrand", "kummer-tate", "-p", "11", "--mu")
    assert code == 2 and "tabled" in err


def test_herbrand_trivial(capsys):
    code, out, _ = run(capsys, "herbrand", "cyclotomic", "-p", "2", "-n", "1", "--mu")
    assert parse(out)["results"]["mu"] == {"num": 0, "den": 1}


def test_herbrand_eval_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "herbrand", "cyclotomic", "-p", "3", "-n", "2",
                       "--eval", "9")
    assert parse(out)["results"]["eval"]["phi"] == {"num": 3, "den": 1}
    path = tmp_path / "breaks.txt"
    path.write_text("order=6; (lambda=1/1, size=3); (lambda=4/1, size=1)")
    code, out, _ = run(capsys, "herbrand", "file", "--path", str(path), "--mu")
    assert parse(out)["results"]["mu"] == {"num": 5, "den": 2}


@pytest.fixture
def rank1_file(tmp_path):
    module = wach.make_rank1_module(3, 1, with_gamma=True)
    path = tmp_path / "rank1_p3_i1.json"
    path.write_text(json.dumps(wach.module_to_dict(module, name="rank1")))
    return str(path)


def test_solve_tilt(rank1_file, capsys):
    code, out, _ = run(capsys, "solve", rank1_file, "--depth", "1", "--trace")
    assert code == 0
    doc = parse(out)
    assert doc["results"]["cardinality"] == 3
    assert doc["results"]["rank"] == 1
    assert doc["results"]["character_exponent"] == 1
    assert sorted(doc["results"]["solutions"]) == ["0", "1*u^1", "2*u^1"]
    assert "transcripts" in doc["results"]


def test_solve_untilted(rank1_file, capsys):
    code, out, _ = run(capsys, "solve", rank1_file, "--mode", "untilted",
                       "--level", "1")
    assert code == 0
    doc = parse(out)
    assert doc["results"]["cardinality"] == 3
    assert sorted(doc["results"]["solutions"]) == ["0", "1*u^1", "2*u^1"]


def test_solve_untilted_regime_error(rank1_file, capsys):
    code, _, err = run(capsys, "solve", rank1_file, "--mode", "untilted",
                       "--level", "0")
    assert code == 2
    assert "p^s > a" in err


def test_solve_deterministic_output(rank1_file, capsys):
    _, out1, _ = run(capsys, "solve", rank1_file, "--depth", "1")
    _, out2, _ = run(capsys, "solve", rank1_file, "--depth", "1")
    assert parse(out1) == parse(out2)


def test_solve_etale_file(tmp_path, capsys):
    module = wach.make_rank1_module(2, 0)
    path = tmp_path / "etale.json"
    path.write_text(json.dumps(wach.module_to_dict(module)))
    code, out, _ = run(capsys, "solve", str(path), "--depth", "1")
    doc = parse(out)
    assert doc["results"]["cardinality"] == 2
    assert doc["results"]["character_exponent"] == 0


def test_verify_suites_pass(capsys):
    assert run(capsys, "verify", "tate-exclusion", "-p", "3")[0] == 0
    assert run(capsys, "verify", "tate-exclusion", "-p", "5")[0] == 0
    assert run(capsys, "verify", "approx1", "-p", "2", "-i", "1")[0] == 0
    assert run(capsys, "verify", "bounds-grid", "--pmax", "7", "--imax", "12")[0] == 0
    code, out, _ = run(capsys, "verify", "gamma-power", "-p", "3", "--count", "6",
                       "--seed", "1")
    assert code == 0


def test_verify_emits_items(capsys):
    code, out, _ = run(capsys, "verify", "tate-exclusion", "-p", "7")
    doc = parse(out)
    assert doc["ok"] is True
    assert all(item["pass"] for item in doc["results"]["items"])


def test_budget_env_var(rank1_file, capsys, monkeypatch):
    monkeypatch.setenv("PADIC_RAMLAB_BUDGET", "2")
    code, _, err = run(capsys, "solve", rank1_file, "--depth", "1")
    assert code == 2
    assert "budget" in err
    monkeypatch.setenv("PADIC_RAMLAB_BUDGET", "1e6")
    assert run(capsys, "solve", rank1_file, "--depth", "1")[0] == 0


def test_verify_failure_exits_1(capsys, monkeypatch):
    from padic_ramlab import cli

    monkeypatch.setitem(cli._SUITES, "tate-exclusion",
                        lambda args: [{"check": "forced", "pass": False}])
    code, out, _ = run(capsys, "verify", "tate-exclusion")
    assert code == 1
    assert parse(out)["ok"] is False


@pytest.mark.parametrize("doc,precondition", [
    ({"p": 3, "N": 8, "d": 1, "i": 1}, "keys p, N, d, i, F present"),
    ({"p": 3, "N": 8, "d": 1, "i": 1, "F": [["x^2"]], "G": [["1"]]},
     "uG present when G is"),
    ({"p": 3, "N": 8, "d": 2, "i": 1, "F": [["x^2"]]}, "d x d matrix"),
    ({"p": 3, "N": 0, "d": 1, "i": 1, "F": [["x^2"]]}, "N >= 1"),
    ({"p": 3, "N": None, "d": 1, "i": 1, "F": [["x^2"]]}, "N is an integer"),
    ({"p": 3, "N": 8, "d": 1, "i": 1, "F": [["x^2"]], "G": [["1"]], "uG": 6},
     "gcd(uG, p) = 1"),
])
def test_solve_module_file_contract(tmp_path, capsys, doc, precondition):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--skip-verify"]):
        code, out, err = run(capsys, "solve", str(path), "--depth", "1", *extra)
        assert code == 2 and not out
        assert precondition in err and "Traceback" not in err
