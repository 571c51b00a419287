import json

import pytest

from padic_ramlab import bounds, cli, frobsolve, wach
from padic_ramlab.cli import main

from .test_cli_golden import ROOT, cases, load_fixture, run_case


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


def test_solve_negative_level_exit_2(rank1_file, capsys):
    code, _, err = run(capsys, "solve", rank1_file, "--mode", "untilted",
                       "--level", "-1")
    assert code == 2
    assert err == "error: level must be >= 0\n"


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


def test_verify_text_format_prints_one_line_per_check(capsys):
    code, out, _ = run(capsys, "verify", "tate-exclusion", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and all(line.startswith("[PASS] ") for line in lines)


@pytest.mark.parametrize("argv,message", [
    (("solve", str(ROOT / "demos/modules/rank1_p3_i1.json"), "--mode", "untilted"),
     "untilted mode needs --level"),
    (("grid", "--plist", "2,4"), "4 in --plist is not prime"),
    (("herbrand", "cyclotomic", "-p", "3"), "cyclotomic needs -p and -n"),
    (("herbrand", "kummer-tate"), "kummer-tate needs -p"),
    (("herbrand", "file"), "family 'file' needs --path"),
])
def test_missing_or_bad_argument_exits_2_with_its_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("budget", ["-3", "0", "0.5", "-1e6"])
def test_budget_below_one_is_rejected_by_name(rank1_file, capsys, monkeypatch, budget):
    code, _, err = run(capsys, "solve", rank1_file, "--depth", "1", f"--budget={budget}")
    assert code == 2
    assert f"--budget {budget!r}" in err and "solution space" not in err
    monkeypatch.setenv("PADIC_RAMLAB_BUDGET", budget)
    code, _, err = run(capsys, "verify", "approx1", "-p", "2", "-i", "1")
    assert code == 2
    assert f"PADIC_RAMLAB_BUDGET {budget!r}" in err


@pytest.mark.parametrize("option,message", [
    ("--budget", "--budget '' is not a finite number"),
    ("--cut", "--cut '' is not a rational number"),
])
def test_explicit_empty_option_is_read_as_a_value(rank1_file, capsys, monkeypatch, option,
                                                  message):
    code, out, err = run(capsys, "solve", rank1_file, "--depth", "1", option, "")
    assert code == 2 and not out and message in err
    # an empty variable is unset: the default budget applies
    monkeypatch.setenv("PADIC_RAMLAB_BUDGET", "")
    assert run(capsys, "solve", rank1_file, "--depth", "1")[0] == 0


def test_solve_refuses_a_candidate_kernel_too_large_to_build(capsys):
    # depth 12: 177148 unknowns x 531442 equations, about 10^11 cells
    code, out, err = run(capsys, "solve", str(ROOT / "demos/modules/rank1_p3_i1.json"),
                         "--depth", "12")
    assert code == 2 and not out
    assert "177148 unknowns x 531442 equations" in err
    assert f"bound of {frobsolve.KERNEL_CELLS} cells" in err


def test_budget_one_is_accepted(rank1_file, capsys):
    # p^r = 2 solutions exceed a budget of 1: the budget itself is valid
    code, _, err = run(capsys, "solve", rank1_file, "--depth", "1", "--budget", "1")
    assert code == 2 and "solution space" in err


def test_main_builds_the_parser_once_per_process(capsys, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        for n in range(20):
            argv = ["bound", "-p", "3", "-i", str(n)] if n % 2 else ["bogus-subcommand"]
            assert main(argv) == (0 if n % 2 else 2)
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(built) == 1


@pytest.mark.parametrize("argv", [
    ["bound", "-p", "7", "-i", "5", "--compare"],
    ["bound", "-p", "7", "-i", "5", "--compare", "--format", "text"],
    ["verify", "tate-exclusion", "-p", "5"],
])
def test_one_bound_call_computes_alpha_once(capsys, monkeypatch, argv):
    calls = []

    def counting_alpha(p, i):
        calls.append((p, i))
        return alpha(p, i)

    alpha = bounds.alpha
    monkeypatch.setattr(bounds, "alpha", counting_alpha)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_shared_parser_carries_no_state_between_calls():
    want = {tuple(argv): (case["code"], case["stdout"])
            for argv, case in load_fixture().items()}
    for order in (cases(), cases()[::-1]):
        got = {tuple(argv): run_case(argv) for argv in order}
        assert {argv: (case["code"], case["stdout"]) for argv, case in got.items()} == want


def test_verify_failure_exits_1(capsys, monkeypatch):
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
    ({"p": 3, "N": 8, "d": 2, "i": 1, "F": [["x^2", "2*x^a"], ["0", "x^2"]]},
     "F[0][1]: bad term '2*x^a'"),
])
def test_solve_module_file_contract(tmp_path, capsys, doc, precondition):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for extra in ([], ["--skip-verify"]):
        code, out, err = run(capsys, "solve", str(path), "--depth", "1", *extra)
        assert code == 2 and not out
        assert precondition in err and "Traceback" not in err


def test_solve_eliminates_F_once(capsys, monkeypatch):
    calls = []
    eliminate = wach._eliminate

    def counted(A):
        calls.append(A)
        return eliminate(A)
    monkeypatch.setattr(wach, "_eliminate", counted)
    code, _, _ = run(capsys, "solve", str(ROOT / "demos/modules/rank1_p3_i1.json"),
                     "--depth", "1")
    assert code == 0 and len(calls) == 1


def test_solve_height_failure_is_reported_with_and_without_skip_verify(tmp_path, capsys):
    # F = x^3 at p = 3, i = 1: the elementary divisor x^3 is above x^((p-1)i) = x^2
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({"p": 3, "N": 12, "d": 1, "i": 1, "F": [["x^3"]]}))
    errors = set()
    for extra in ([], ["--skip-verify"]):
        code, out, err = run(capsys, "solve", str(path), "--depth", "1", *extra)
        assert code == 2 and not out
        errors.add(err)
    (err,) = errors
    assert err == "error: height > 1: elementary divisor x^3 does not divide x^2\n"


def test_solve_rank0_prints_the_transcript_of_its_one_solution(tmp_path, capsys):
    path = tmp_path / "rank0.json"
    path.write_text(json.dumps({"p": 3, "N": 8, "d": 0, "i": 1, "F": []}))
    code, out, _ = run(capsys, "solve", str(path), "--depth", "1", "--trace")
    assert code == 0
    results = parse(out)["results"]
    assert (results["cardinality"], results["rank"], results["solutions"]) == (1, 0, ["()"])
    assert results["transcripts"] == [["inf"]]


def test_capacity_error_names_the_module_and_the_witness_truncation(tmp_path, capsys):
    # F = x^2 at p = 3, i = 1, N = 9 embeds at the working cut 4 (depth 1),
    # but V is certified only to N - max(sum h_j, (p-1)i) = 9 - 2 = 7
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"p": 3, "f": 1, "N": 9, "d": 1, "i": 1, "F": [["1*x^2"]]}))
    code, out, err = run(capsys, "solve", str(path), "--depth", "1", "--cut", "3")
    assert code == 2 and not out
    assert "N=9" in err and "truncation 7 " in err and "target cut 4" in err


@pytest.mark.parametrize("argv,code,message", [
    (("solve", str(ROOT / "demos/modules/rank1_p3_i1.json"), "--depth", "0"), 2,
     "tilt depth must be >= 1"),
    (("solve", str(ROOT / "demos/modules/rank1_p3_i1.json"), "--character-base", "0"), 2,
     "gcd(u, p) = 1"),
    (("verify", "tate-exclusion", "-p", "0"), 2, "need an odd prime, got 0"),
    (("verify", "approx1", "-p", "0"), 2, "p = 0 is not prime"),
    (("verify", "approx1", "-i", "0"), 2, "i >= 1"),
    (("verify", "gamma-power", "--count", "0"), 0, "on 0 random modules (0 cases)"),
    (("verify", "bounds-grid", "--pmax", "0"), 0, "on 0 rows"),
])
def test_explicit_zero_is_read_as_a_value(capsys, argv, code, message):
    got, out, err = run(capsys, *argv, "--format", "text")
    assert got == code
    assert message in (out if code == 0 else err)


@pytest.mark.parametrize("argv,option", [
    (("verify", "gamma-power", "--count", "-3"), "--count"),
    (("verify", "bounds-grid", "--imax", "-5"), "--imax"),
    (("verify", "bounds-grid", "--pmax", "-1"), "--pmax"),
    (("grid", "--imax", "-5"), "--imax"),
])
def test_negative_count_or_bound_is_rejected(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert f"argument {option}: " in err and "is negative" in err
