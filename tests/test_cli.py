import os
import subprocess
import sys
from pathlib import Path

import pytest

import eicomb
from eicomb.channel import bec, parse_channel
from eicomb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_inline_erasure(capsys):
    code, out, _ = run(capsys, "eval", "bec:0.3", "--all")
    assert code == 0
    assert "E(a) = 0.15" in out
    assert "H(a) = 0.3" in out
    assert "B(a) = 0.3" in out


def test_eval_perfect_channel(capsys):
    code, out, _ = run(capsys, "eval", "bsc:0", "--all")
    assert code == 0
    assert out.count("= 0\n") == 3


def test_eval_single_functional_from_file(tmp_path, capsys):
    path = tmp_path / "chan.ch"
    path.write_text("0.0 0.7\n0.5 0.3\n")
    code, out, _ = run(capsys, "eval", str(path), "--functional", "H")
    assert code == 0
    assert out.strip() == "H(a) = 0.3"


def test_eval_series_power(capsys):
    code, out, _ = run(capsys, "eval", "bec:0.3", "--functional", "H", "--power", "4")
    assert code == 0
    assert "0.7599" in out


def test_eval_bad_channel_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "bsc:0.7")
    assert code == 2
    assert "error:" in err


def test_convolve_two_bscs(capsys):
    code, out, _ = run(capsys, "convolve", "bsc:0.1", "bsc:0.2")
    assert code == 0
    assert parse_channel(out).approx_eq(parse_channel("0.26 1\n"), tol=1e-15)


def test_convolve_power(capsys):
    code, out, _ = run(capsys, "convolve", "bec:0.3", "--power", "4")
    assert code == 0
    assert parse_channel(out).approx_eq(bec(1 - 0.7**4), tol=1e-12)


def test_convolve_identity_file(tmp_path, capsys):
    path = tmp_path / "chan.ch"
    path.write_text("0.1 0.25\n0.3 0.75\n")
    code, out, _ = run(capsys, "convolve", "bsc:0", str(path))
    assert code == 0
    assert parse_channel(out).approx_eq(parse_channel(path.read_text()), tol=1e-15)


def test_convolve_cap_exceeded_hints_series(tmp_path, capsys):
    path = tmp_path / "chan.ch"
    path.write_text("0.05 0.2\n0.1 0.2\n0.2 0.2\n0.3 0.2\n0.4 0.2\n")
    code, _, err = run(capsys, "convolve", str(path), "--power", "200")
    assert code == 2
    assert "series" in err


def test_parse_error_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.ch"
    path.write_text("0.1 0.4\noops\n")
    code, _, err = run(capsys, "eval", str(path))
    assert code == 2
    assert "line 2" in err


def test_coeffs_bracket(tmp_path, capsys):
    out_path = tmp_path / "coeffs.csv"
    code, out, _ = run(capsys, "coeffs", "--functional", "B", "--count", "50",
                       "--out", str(out_path))
    assert code == 0
    assert "brackets_one=True" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,coefficient,partial_sum,tail_bound"
    assert len(lines) == 51
    assert lines[1].startswith("1,0.5,")


def test_suite_ineq_passes_and_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out1, _ = run(capsys, "suite", "ineq", "--seed", "42", "--trials", "40",
                         "--out", str(a))
    code2, out2, _ = run(capsys, "suite", "ineq", "--seed", "42", "--trials", "40",
                         "--out", str(b))
    assert code1 == code2 == 0
    assert "violations=0" in out1
    assert a.read_bytes() == b.read_bytes()
    other = main(["suite", "ineq", "--seed", "43", "--trials", "40", "--out", str(b)])
    capsys.readouterr()
    assert other == 0
    assert a.read_bytes() != b.read_bytes()


def test_suite_upper_small(tmp_path, capsys):
    code, out, _ = run(capsys, "suite", "upper", "--seed", "1", "--trials", "20",
                       "--rho", "x^3", "--functional", "H",
                       "--out", str(tmp_path / "u.csv"))
    assert code == 0
    assert "violations=0" in out


def test_suite_area_small(tmp_path, capsys):
    code, out, _ = run(capsys, "suite", "area", "--ensemble", "50,100", "--seed", "2",
                       "--trials", "20", "--grid-points", "12",
                       "--out", str(tmp_path / "area.csv"))
    assert code == 0
    assert "violations=0" in out
    assert "interval" in out


def test_suite_claim_tiny(tmp_path, capsys):
    code, out, _ = run(capsys, "suite", "claim", "--ensemble", "3,6", "--seed", "0",
                       "--restarts", "2", "--out", str(tmp_path / "claim.csv"))
    # the h=0.1 maximization cell is a genuine miss (see the area notes in
    # the README); every other cell must hit
    lines = [l for l in out.splitlines() if l.startswith("claim")]
    assert len(lines) == 18
    misses = [l for l in lines if "MISS" in l]
    assert misses == ["claim max h=0.1: 0/2 BEC verdicts  [MISS]"]
    assert code == 1


def test_unknown_functional_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "bec:0.3", "--functional", "Q")
    assert code == 2
    assert "unknown functional" in err


def _fresh_run(*argv):
    """The CLI run as `python -m eicomb` in a new process."""
    src = str(Path(eicomb.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-m", "eicomb", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_python_dash_m_runs_the_cli():
    proc = _fresh_run("eval", "bec:0.3", "--all")
    assert proc.returncode == 0, proc.stderr
    assert "H(a) = 0.3" in proc.stdout


def test_in_process_calls_share_the_parser_without_leaking_options(tmp_path, capsys):
    # the second call has no --rho or --functional, so it must run the
    # default polynomials on both tags
    calls = (
        ("suite", "upper", "--seed", "5", "--trials", "4", "--rho", "x^3",
         "--functional", "H"),
        ("suite", "upper", "--seed", "5", "--trials", "3"),
    )
    in_process = []
    for i, argv in enumerate(calls):
        path = tmp_path / f"in{i}.csv"
        in_process.append((*run(capsys, *argv, "--out", str(path)), path.read_bytes()))
    for i, (argv, (code, out, err, csv)) in enumerate(zip(calls, in_process)):
        path = tmp_path / f"fresh{i}.csv"
        proc = _fresh_run(*argv, "--out", str(path))
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        assert csv == path.read_bytes(), argv
    assert b"rho=x^6" in in_process[1][3] and b"tag=B" in in_process[1][3]


@pytest.mark.parametrize("name", ["ineq", "upper", "lower", "extremes", "area", "claim"])
def test_negative_seed_is_a_usage_error_on_every_suite(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", name, "--seed", "-1", "--trials", "2"])
    assert exc.value.code == 2
    assert "argument --seed: expected non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("suite", "claim", "--restarts", "0"), "argument --restarts: expected positive integer"),
        (("suite", "area", "--trials", "-1"), "argument --trials: expected non-negative integer"),
        (("suite", "area", "--grid-points", "0"), "argument --grid-points: expected positive integer"),
        (("eval", "bec:0.3", "--all", "--power", "0"), "argument --power: expected positive integer"),
        (("convolve", "bec:0.3", "--power", "-2"), "argument --power: expected positive integer"),
        (("coeffs", "--functional", "B", "--count", "0"), "argument --count: expected positive integer"),
        (("coeffs", "--functional", "B", "--count", "ten"), "argument --count: invalid int value: 'ten'"),
        (("eval", "bec:0.3", "--all", "--power", "2", "--tol", "0"),
         "argument --tol: expected finite positive number"),
        (("suite", "upper", "--trials", "2", "--tol", "nan"), "argument --tol: expected finite number"),
        (("suite", "area", "--margin", "nan"), "argument --margin: expected finite positive number"),
        (("suite", "area", "--k-const", "nan"),
         "argument --k-const: expected finite non-negative number"),
        (("convolve", "bsc:0.1", "--cap", "-5"), "argument --cap: expected positive integer"),
        (("convolve", "bsc:0.1", "--cap", "0"), "argument --cap: expected positive integer"),
    ],
)
def test_bad_counts_are_usage_errors_before_any_output(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_rejected_interval_constant_writes_nothing(tmp_path, capsys):
    path = tmp_path / "p"
    code, out, err = run(capsys, "suite", "area", "--ensemble", "3,6", "--trials", "1",
                         "--k-const", "10", "--out", str(path))
    assert code == 2
    assert out == ""
    assert "must stay below 1/2" in err
    assert not path.exists()


def test_suite_without_trials_runs(tmp_path, capsys):
    code, out, _ = run(capsys, "suite", "area", "--ensemble", "50,100", "--seed", "2",
                       "--trials", "0", "--grid-points", "12",
                       "--out", str(tmp_path / "area.csv"))
    assert code == 0
    assert "certified_points=0 violations=0" in out


def test_rho_with_signed_exponents(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for rho, path in zip(("x^5 - 0.75*x^6", "x^5-7.5e-1*x^6"), paths):
        code, _, _ = run(capsys, "suite", "upper", "--seed", "1", "--trials", "3",
                         "--rho", rho, "--functional", "H", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    code, _, _ = run(capsys, "suite", "lower", "--seed", "1", "--trials", "3",
                     "--rho", "1e-7*x^2 + x^3", "--functional", "B", "--out", str(paths[0]))
    assert code == 0
    assert "rho=1e-07*x^2 + x^3;tag=B;" in paths[0].read_text()


@pytest.mark.parametrize(
    "argv, unread",
    [
        (("suite", "ineq", "--trials", "1", "--functional", "H", "--rho", "x^3",
          "--ensemble", "9,9"), "--ensemble, --functional, --rho"),
        (("suite", "upper", "--trials", "1", "--ensemble", "1,1", "--margin", "5",
          "--restarts", "3"), "--ensemble, --margin, --restarts"),
        (("suite", "claim", "--restarts", "1", "--trials", "7", "--tol", "0.5",
          "--rho", "x^2"), "--rho, --tol, --trials"),
        (("suite", "area", "--trials", "1", "--search-grid", "256"), "--search-grid"),
        (("suite", "lower", "--trials", "1", "--k-const", "1.0", "--grid-points", "50"),
         "--grid-points, --k-const"),
    ],
)
def test_options_a_suite_does_not_read_are_usage_errors(argv, unread, tmp_path, capsys):
    # given at their defaults or not, they fail before any output
    path = tmp_path / "out.csv"
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert f"does not read {unread}" in err
    assert not path.exists()
