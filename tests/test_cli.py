import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conifoldrh.cli import (EXIT_CHECK, EXIT_NUMERICAL, EXIT_OK,
                            EXIT_PRECONDITION, EXIT_USAGE, main, parse_complex)


@pytest.mark.parametrize("text,value", [
    ("1.5", 1.5 + 0j),
    ("2i", 2j),
    ("1.5-2i", 1.5 - 2j),
    ("0.3+0.4i", 0.3 + 0.4j),
    ("-i", complex(0.0, -1.0)),
    ("i", 1j),
    ("-2.5", -2.5 + 0j),
    ("1e-3+2e-2i", 0.001 + 0.02j),
    ("5.i", 5j),
    (".5i", 0.5j),
    ("+i", 1j),
    ("1e+5-2e-3i", complex(1e5, -2e-3)),
    ("\u0661", 1 + 0j),
    ("-0.0", complex(-0.0, 0.0)),
])
def test_parse_complex(text, value):
    """Each part, by repr, so the sign of a zero counts."""
    z = parse_complex(text)
    assert (repr(z.real), repr(z.imag)) == (repr(value.real), repr(value.imag))


@pytest.mark.parametrize("bad", ["", "abc", "1+2", "i5", "1.5 2i", "(1+2i)", "1_0",
                                 "1J", "inf", "Inf", "nan", "infj", "1e+i"])
def test_parse_complex_rejects(bad):
    from conifoldrh.cli import UsageError
    with pytest.raises(UsageError, match="cannot parse complex value"):
        parse_complex(bad)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    data = json.loads(out.read_text()) if out.exists() else None
    return code, data


def test_eval_qdilog_trivial(tmp_path):
    code, data = run_cli(tmp_path, "eval", "--target", "qdilog",
                         "--param", "x=0", "--param", "q=0.5")
    assert code == EXIT_OK
    assert data["schema"] == 1
    assert data["value"] == [1.0, 0.0]


def test_eval_bn_inadmissible_names_predicate(tmp_path, capsys):
    code = main(["eval", "--target", "Bn", "--param", "t=0.9+0.2i"])
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "Im((v+0w)/(-t)) > 0" in err


_W2 = "w2=0.4-0.9i"


@pytest.mark.parametrize("argv,message", [
    (["--target", "Fstar", "--param", "z=0.3-0.4i", "--param", "w1bar=1+0.05i",
      "--param", _W2], "F* undefined; region violation: Im(z/w1bar) > 0"),
    (["--target", "Gstar", "--param", "z=0.3+0.4i", "--param", "w1=0.95-0.07i",
      "--param", "w1t=1+0.1i", "--param", _W2],
     "G* undefined; outside tau-neighborhood: Im(dw/w1) > 0, Im(dw/w1t) > 0"),
    (["--target", "Dn", "--param", "t=0.2+0.7i", "--param", "tau=0.1i",
      "--param", "n=1"],
     "D_1 undefined; outside tau-neighborhood: Im((-t*tau/2)/(w-t*tau/2)) > 0, "
     "Im((-t*tau/2)/(w+t*tau/2)) > 0"),
], ids=["Fstar", "Gstar", "Dn"])
def test_eval_value_target_refuses_with_its_checklist(argv, message, capsys):
    """F*, G* and D_n check their own checklists before exponentiating:
    each eval target exits 2 with the message of that value's checklist."""
    assert main(["eval", *argv]) == EXIT_PRECONDITION
    assert capsys.readouterr().err == f"precondition violated: {message}\n"


def test_eval_fstar_admissible(tmp_path):
    from conifoldrh import multisine

    z, w1bar, w2 = 0.3 + 0.4j, 1 + 0.05j, 0.4 - 0.9j
    code, data = run_cli(tmp_path, "eval", "--target", "Fstar", "--param", "z=0.3+0.4i",
                         "--param", "w1bar=1+0.05i", "--param", _W2)
    assert code == EXIT_OK
    assert complex(*data["value"]) == multisine.F_star(z, w1bar, w2)
    assert [(q["name"], q["ok"]) for q in data["predicates"]] == [("Im(z/w1bar) > 0", True)]


def test_eval_zcs_beta_one(tmp_path):
    code, data = run_cli(tmp_path, "eval", "--target", "Z_cs",
                         "--param", "delta=1.2+0.4i", "--param", "mu=0.8+0.3i",
                         "--param", "beta=1")
    assert code == EXIT_OK
    v = complex(*data["value"])
    assert v == v and abs(v) < 1e6   # finite


def test_eval_bernoulli(tmp_path):
    code, data = run_cli(tmp_path, "eval", "--target", "bernoulli",
                         "--param", "n=2")
    assert code == EXIT_OK
    assert abs(complex(*data["value"]) - 1 / 6) < 1e-15


def test_eval_f_moment_past_the_closed_forms(tmp_path):
    """An f moment of order 5, past the five closed forms `polylog` once
    had, takes the residue series with the Eulerian Li_(-5): exit 0 with
    the 30-digit value to 1e-12."""
    code, data = run_cli(tmp_path, "eval", "--target", "moments",
                         "--param", "order=5", "--param", "z=0.3+0.4i",
                         "--param", "w1bar=1+0.05i")
    assert code == EXIT_OK
    want = 5283.513655975045 + 5231.7508576876935j
    assert abs(complex(*data["value"]) - want) <= 1e-12 * abs(want)


def test_eval_f_moment_near_unit_x1(tmp_path):
    """|x1| = 1 - 6.3e-7: Li_2 by its series in log x1; exit 0 with the
    30-digit value to 1e-12."""
    import mpmath

    code, data = run_cli(tmp_path, "eval", "--target", "moments",
                         "--param", "order=-2", "--param", "z=1e-7i",
                         "--param", "w1bar=1")
    assert code == EXIT_OK
    with mpmath.workdps(30):
        x1 = mpmath.exp(-2 * mpmath.pi * mpmath.mpf("1e-7"))
        want = complex(mpmath.polylog(2, x1) / (2j * mpmath.pi))
    assert abs(complex(*data["value"]) - want) <= 1e-12 * abs(want)


def test_verify_algebra_passes(tmp_path):
    code, data = run_cli(tmp_path, "verify", "--suite", "algebra",
                         "--order-N", "3", "--order-K", "12")
    assert code == EXIT_OK
    assert data["passed"] is True
    assert data["n_failed"] == 0
    # exact checks report residual identically zero
    assert all(c["rel_err"] == 0.0 for c in data["checks"]
               if "conjugation" in c["name"])


def test_ell0_row_checks_euler_expansion(monkeypatch):
    """The ell_0 ray row compares dt_ray with Euler's expansion of
    E_q(-q^(1/2) u)^(-1) and fails when the two disagree."""
    import conifoldrh.cli as cli
    from conifoldrh.laurent import LaurentPoly

    name = "DT(ell_0) ray series == Euler expansion"
    # u^2 coefficient q (1 + q + 2q^2 + ...): partitions into parts <= 2
    assert cli._euler_ell0(2, 8)[2] == LaurentPoly({2: 1, 4: 1, 6: 2, 8: 2})
    row = next(r for r in cli._suite_algebra(3, 12) if r.name == name)
    assert row.passed and row.meta["series"]
    good = cli._euler_ell0

    def off_by_one(order, qcut):
        out = good(order, qcut)
        out[2] = out[2] + LaurentPoly.monomial(qcut)
        return out

    monkeypatch.setattr(cli, "_euler_ell0", off_by_one)
    row = next(r for r in cli._suite_algebra(3, 12) if r.name == name)
    assert not row.passed


@pytest.mark.parametrize("suite", ["algebra", "dilog", "bernoulli", "difference",
                                   "reflection", "wallcrossing", "cs-match"])
def test_suite_options_name_what_each_suite_reads(suite):
    """A suite's parameters are the options that SUITES lists for it, in
    order; it runs with exactly those, and fails with any of them set to
    None.  (asymptotics and qrh-limits list none; the CLI runs them with
    none in every test.)"""
    import inspect

    import conifoldrh.cli as cli
    func, reads = cli.SUITES[suite]
    values = {"--order-N": 4, "--order-K": 16, "--tol": 1e-8}
    params = {"--order-N": "order_n", "--order-K": "qcut", "--tol": "tol"}

    def run(unset=None):
        return func(*(None if flag == unset else values[flag] for flag in reads))

    assert list(inspect.signature(func).parameters) == [params[f] for f in reads]
    assert all(r.passed for r in run())
    for flag in reads:
        with pytest.raises(TypeError):
            run(flag)


@pytest.mark.parametrize("suite,flag", [("bernoulli", "--tol"), ("algebra", "--tol"),
                                        ("asymptotics", "--order-N"),
                                        ("cs-match", "--order-K")])
def test_verify_option_not_read_is_usage(suite, flag, capsys):
    assert main(["verify", "--suite", suite, flag, "3"]) == EXIT_USAGE
    assert f"{flag} is not honoured by verify --suite {suite}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--order-N", "-1"), ("--order-K", "-4")])
def test_verify_negative_cutoff_is_usage(flag, value, capsys):
    assert main(["verify", "--suite", "algebra", flag, value]) == EXIT_USAGE
    assert f"{flag} must not be negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--order-N", "--order-K"])
def test_verify_algebra_passes_at_zero_cutoff(tmp_path, flag):
    """At --order-N 0 the q cutoff is 0, where the sector closed form used
    to lose terms that a factor with a negative q-power pulls back down."""
    code, data = run_cli(tmp_path, "verify", "--suite", "algebra", flag, "0")
    assert code == EXIT_OK and data["n_failed"] == 0


@pytest.mark.parametrize("suite,rows", [("wallcrossing", 10), ("all", 104)])
def test_verify_passes_at_zero_order_n(tmp_path, suite, rows):
    """At --order-N 0 the inversion row's ell_inf ray has no charges; its
    primitive charge is still delta, so the row holds (it once raised
    IndexError, exit 3)."""
    code, data = run_cli(tmp_path, "verify", "--suite", suite, "--order-N", "0")
    assert code == EXIT_OK and data["n_failed"] == 0 and len(data["checks"]) == rows


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_wallcrossing_passes_below_order_n(tmp_path, k):
    """--order-K below --order-N (4): the inversion row forms R(-gm) R(gm)
    at its enlarged cutoff and truncates once, so it holds at every cutoff."""
    code, data = run_cli(tmp_path, "verify", "--suite", "wallcrossing",
                         "--order-K", str(k))
    assert code == EXIT_OK and data["n_failed"] == 0


def test_verify_record_writes_unread_options_as_null(tmp_path):
    _, data = run_cli(tmp_path, "verify", "--suite", "bernoulli")
    assert (data["tolerance"], data["order_N"], data["order_K"]) == (None, None, None)
    _, data = run_cli(tmp_path, "verify", "--suite", "dilog", "--tol", "1e-9")
    assert (data["tolerance"], data["order_N"], data["order_K"]) == (1e-9, 4, 16)


def test_exact_rows_record_null(tmp_path):
    """An exact row records no value (its sides are exact objects, compared
    for equality), so its lhs and rhs are null; a compared row writes each
    side as [re, im]."""
    _, data = run_cli(tmp_path, "verify", "--suite", "bernoulli")
    rows = {c["name"]: c for c in data["checks"]}
    exact = rows["B_{3,3} closed form"]
    assert exact["passed"] and (exact["lhs"], exact["rhs"]) == (None, None)
    compared = rows["homogeneity B_{n,r}(cz|cw) = c^(n-r) B_{n,r}"]
    assert compared["passed"]
    for side in (compared["lhs"], compared["rhs"]):
        assert len(side) == 2 and all(isinstance(x, float) for x in side)


def test_bernoulli_suite_fails_on_wrong_rank_three_value(tmp_path, monkeypatch):
    """`multiple_bernoulli` off by 1e-3 at r = 3 enters both sides of the cs
    rows and of the homogeneity row, and cancels there; the exact B_{3,3}
    row fails on it."""
    from conifoldrh import bernoulli, cli, multisine, rhsolver

    good = bernoulli.multiple_bernoulli

    def off(n, r, z, omegas):
        value = good(n, r, z, omegas)
        return value * 1001 / 1000 if r == 3 else value

    for module in (bernoulli, cli, multisine, rhsolver):
        monkeypatch.setattr(module, "multiple_bernoulli", off)
    code, data = run_cli(tmp_path, "verify", "--suite", "bernoulli")
    assert code == EXIT_CHECK
    assert [c["name"] for c in data["checks"] if not c["passed"]] == [
        "B_{3,3} closed form"]


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    import conifoldrh.cli as cli

    def broken():
        from conifoldrh.checks import Residual
        return [Residual.compare("forced failure", 1.0, 2.0, 1e-8)]

    monkeypatch.setitem(cli.SUITES, "bernoulli", (broken, ()))
    code = main(["verify", "--suite", "bernoulli", "--out",
                 str(tmp_path / "x.json")])
    assert code == EXIT_CHECK


def test_sweep_qrh_limit_monotone(tmp_path):
    code, data = run_cli(tmp_path, "sweep", "--target", "qrh-limit-B",
                         "--sweep", "t:0.6:0.5:6",
                         "--param", "t=-0.755+0.655i",
                         "--param", "tau=0.05+0.14i")
    assert code == EXIT_OK
    metrics = [row["metric"] for row in data["rows"]]
    assert all(b < a for a, b in zip(metrics, metrics[1:]))


def test_sweep_csv_output(tmp_path):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--target", "qrh-limit-B",
                 "--sweep", "t:0.6:0.5:3", "--param", "t=-0.755+0.655i",
                 "--param", "tau=0.05+0.14i", "--format", "csv",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "t"
    assert len(lines) == 4


def test_sweep_empty_schedule_usage(capsys):
    assert main(["sweep", "--target", "qrh-limit-B",
                 "--sweep", "t:0.8:0.5:0"]) == EXIT_USAGE


_G_POINT = ["--param", "z=0.3+0.4i", "--param", "w1=1+0.1i", "--param", "w1t=0.95-0.07i"]


@pytest.mark.parametrize("argv,named", [
    (["sweep", "--target", "qrh-limit-B", "--sweep", "t:0.8:0.5:3:log"], "'log'"),
    (["sweep", "--target", "qrh-limit-B", "--sweep", "t:0.8:0.5:3:"], "got ''"),
    (["sweep", "--target", "growth-B", "--sweep", "t:4:-2:3"], "t = -8.0"),
    (["sweep", "--target", "growth-B", "--sweep", "t:0:0.5:3"], "t = 0.0"),
    (["sweep", "--target", "growth-B", "--sweep", "t:nan:0.5:2"], "t = nan"),
    (["sweep", "--target", "growth-B", "--sweep", "t:inf:0.5:2"], "t = inf"),
    (["region", "--param", "t=1e400"], "'1e400'"),
    (["eval", "--target", "G", *_G_POINT, "--param", "w2=1e400i"], "'1e400i'"),
    (["eval", "--target", "bernoulli", "--param", "n=2", "--param", "z=1e400"], "'1e400'"),
])
def test_bad_number_is_usage(argv, named, capsys):
    """A sweep schedule has at most the fifth field `lin`, and each of its
    values is a modulus, finite and positive; a complex parameter is finite.
    Anything else exits 64 naming the bad value, before any computation."""
    assert main(argv) == EXIT_USAGE
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["eval", "--target", "Fstar", "--param", "x"], "NAME=VALUE, got 'x'"),
    (["eval", "--target", "moments", "--param", "order=-1", "--param", "z=0.3+0.4i",
      "--param", "w1bar=1", "--param", "w1=1"], "not both"),
    (["sweep", "--target", "qrh-limit-B", "--sweep", "t:0.8:0.5"],
     "NAME:START:RATIO:COUNT"),
    (["sweep", "--target", "qrh-limit-B", "--sweep", "t:a:0.5:3"], "'a'"),
    (["sweep", "--target", "qrh-limit-B", "--sweep", "w2:0.8:0.5:3"],
     "varies |t|, not 'w2'"),
])
def test_malformed_input_is_usage(argv, named, capsys):
    """A parameter without `=`, a moment given both parameter sets, a
    schedule of three fields or with a non-number, and a sweep over a
    variable the target does not vary each exit 64 naming the fault."""
    assert main(argv) == EXIT_USAGE
    assert named in capsys.readouterr().err


def test_unknown_target_rejected_before_compute(capsys):
    assert main(["eval", "--target", "nosuch"]) == EXIT_USAGE


def test_missing_parameter_is_usage(capsys):
    assert main(["eval", "--target", "qdilog"]) == EXIT_USAGE


COMMANDS = ("eval", "verify", "sweep", "region")
FLAGS = ("--target", "--suite", "--sweep", "--param", "--tol", "--order-N",
         "--order-K", "--format", "--out")


@pytest.mark.parametrize("argv,shown", [
    (["--help"], COMMANDS),
    (["eval", "--help"], ("--target", "--param", "--tol", "--out")),
    (["verify", "--help"], ("--suite", "--tol", "--order-N", "--order-K", "--out")),
    (["sweep", "--help"], ("--target", "--sweep", "--param", "--format", "--out")),
    (["region", "--help"], ("--param", "--out")),
])
def test_help_lists_each_commands_own_options(argv, shown, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(name in out for name in shown)
    if argv[0] in COMMANDS:
        assert not [flag for flag in FLAGS if flag not in shown and flag in out]


@pytest.mark.parametrize("argv,named", [([], ("command",)), (["bogus"], COMMANDS)])
def test_no_or_unknown_command_is_usage(argv, named, capsys):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert all(name in err for name in named)


@pytest.mark.parametrize("argv,parsers", [
    (["eval", "--target", "bernoulli", "--param", "n=2"], 1),
    (["bogus"], 5),
])
def test_parser_builds_only_the_invoked_command(argv, parsers, monkeypatch, capsys):
    """A call that names a command builds that command's parser alone;
    without a known name it builds the top-level parser and all four
    subcommands, for the help and the error."""
    from conifoldrh import cli
    built = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    main(argv)
    assert len(built) == parsers, built


def _parse_outcome(parser, argv, capsys):
    """The namespace, the usage message, or the exit code and help text."""
    from conifoldrh.cli import UsageError
    try:
        return vars(parser.parse_args(argv))
    except UsageError as exc:
        return str(exc)
    except SystemExit as exc:
        return exc.code, capsys.readouterr().out


@pytest.mark.parametrize("name,argv", [
    *[(name, ["--help"]) for name in COMMANDS],
    ("eval", ["--target", "bernoulli", "--param", "n=3", "--tol", "1e-8", "--out", "o"]),
    ("verify", ["--suite", "all", "--order-N", "2", "--order-K", "3", "--out", "o"]),
    ("sweep", ["--target", "growth-B", "--sweep", "t:4:2:7", "--format", "csv",
               "--out", "o"]),
    ("region", ["--param", "n=0", "--out", "o"]),
    ("eval", ["--param", "n=3"]),
    ("eval", ["--target", "nosuch"]),
    ("eval", ["--target", "F", "--tol", "-1"]),
    ("verify", ["--suite", "all", "--bogus", "1"]),
    ("sweep", ["--target", "growth-B", "--sweep", "t:4:2:7", "stray"]),
    ("eval", ["--tar", "F"]),
])
def test_one_command_parser_matches_the_full_parser(name, argv, capsys):
    """A call that names a command is parsed by that command's parser alone,
    and every other call by the parser of all four; both shapes give the
    same namespace, usage message or help for the same arguments."""
    from conifoldrh import cli
    one = _parse_outcome(cli.build_parser(name), argv, capsys)
    full = _parse_outcome(cli.build_parser(None), [name, *argv], capsys)
    assert one == full


def test_numerical_failure_exit_code(monkeypatch):
    import conifoldrh.cli as cli
    from conifoldrh.contour import QuadratureError

    def boom(*a, **k):
        raise QuadratureError("tail bound not met")

    monkeypatch.setattr(cli.multisine, "qdilog_numeric", boom)
    assert main(["eval", "--target", "qdilog", "--param", "x=0.5",
                 "--param", "q=0.5"]) == 3


def test_region_command(tmp_path):
    code, data = run_cli(tmp_path, "region", "--param", "t=0.2+0.7i")
    assert code == EXIT_OK
    assert data["n_admissible"] > 0
    assert data["n_total"] == len(data["grid"])


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [_strip_timing(x) for x in obj]
    return obj


def test_verify_deterministic(tmp_path):
    from conifoldrh.multisine import clear_caches
    clear_caches()
    _, a = run_cli(tmp_path, "verify", "--suite", "dilog")
    clear_caches()
    _, b = run_cli(tmp_path, "verify", "--suite", "dilog")
    assert _strip_timing(a) == _strip_timing(b)


@pytest.mark.parametrize("argv", [
    ["eval", "--target", "qdilog", "--param", "x=0", "--format", "csv"],
    ["verify", "--suite", "bernoulli", "--param", "v=1"],
    ["sweep", "--target", "qrh-limit-B", "--sweep", "t:0.8:0.5:2",
     "--tol", "1e-3"],
    ["region", "--order-N", "3"],
])
def test_option_not_honoured_is_usage(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input errors and honoured options


def test_unknown_param_is_usage(capsys):
    code = main(["eval", "--target", "Dn", "--param", "tua=0.1i"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "tua" in err and "accepted: v, w, t, tau, n" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--target", "qrh-limit-B", "--sweep", "t:0.8:0.5:2",
     "--param", "w2=1"],
    ["region", "--param", "tau=0.1i"],
    ["eval", "--target", "multiple_bernoulli", "--param", "n=1",
     "--param", "r=1", "--param", "w1=1", "--param", "w2=1"],
])
def test_unread_param_is_usage(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "unknown --param" in capsys.readouterr().err


def test_weight_names_read_by_pattern(capsys):
    """multiple_bernoulli accepts w<i> for 1 <= i <= r by its pattern, so a
    large r costs nothing before the weights are read."""
    code = main(["eval", "--target", "multiple_bernoulli", "--param", "n=1",
                 "--param", "r=100000", "--param", "w0=1"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "unknown --param w0" in err and "w1..w100000" in err
    assert len(err.encode()) < 1024


def test_invalid_input_is_usage(capsys):
    code = main(["eval", "--target", "bernoulli", "--param", "n=-1"])
    assert code == EXIT_USAGE
    assert "n must be >= 0" in capsys.readouterr().err


def test_non_integer_index_is_usage(capsys):
    assert main(["eval", "--target", "bernoulli", "--param", "n=1.5"]) == EXIT_USAGE
    assert "must be an integer" in capsys.readouterr().err


def test_unexpected_exception_is_numerical(monkeypatch, capsys):
    import conifoldrh.cli as cli

    def boom(*a, **k):
        raise TypeError("internal")

    monkeypatch.setattr(cli.multisine, "qdilog_numeric", boom)
    assert main(["eval", "--target", "qdilog", "--param", "x=0.5",
                 "--param", "q=0.5"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "TypeError" in err


@pytest.mark.parametrize("target", ["Fstar", "Gstar", "Bn", "Dn", "Z_cs",
                                    "bernoulli", "multiple_bernoulli", "moments"])
def test_tol_rejected_where_not_honoured(target, capsys):
    assert main(["eval", "--target", target, "--tol", "1e-3"]) == EXIT_USAGE
    assert f"--tol is not honoured by eval --target {target}" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["eval", "--target", "F", "--param", "z=0.3+0.4i", "--param", "w1bar=1",
     "--param", "w2=-0.2-0.7i"],
    ["eval", "--target", "qdilog", "--param", "x=0.3", "--param", "q=0.5"],
    ["verify", "--suite", "difference"],
    ["verify", "--suite", "dilog"]])
@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tol_not_finite_positive_is_usage(argv, tol, capsys):
    assert main(argv + ["--tol", tol]) == EXIT_USAGE
    assert f"argument --tol: must be a finite positive number, got {tol}" in \
        capsys.readouterr().err


def test_tol_honoured_by_F(tmp_path, monkeypatch):
    import conifoldrh.cli as cli
    seen = []
    real = cli.multisine.F_value

    def spy(*a, tol):
        seen.append(tol)
        return real(*a, tol=tol)

    monkeypatch.setattr(cli.multisine, "F_value", spy)
    code, data = run_cli(tmp_path, "eval", "--target", "F", "--tol", "1e-6",
                         "--param", "z=0.3+0.4i", "--param", "w1bar=1+0.5i",
                         "--param", "w2=0.8-0.1i")
    assert code == EXIT_OK
    assert data["tolerance"] == 1e-6 and seen == [1e-8]


def test_eval_F_near_unit_p(tmp_path):
    code, data = run_cli(tmp_path, "eval", "--target", "F",
                         "--param", "z=0.3+0.4i", "--param", "w1bar=1",
                         "--param", "w2=1-0.000001i")
    assert code == EXIT_OK
    assert abs(complex(*data["value"]) - (0.97519 - 0.06613j)) < 1e-5


def test_eval_F_equal_periods(tmp_path):
    """w1bar = w2 = 1: every contour direction is real.  The shift identity
    F(z + w2)/F(z) = 1/(1 - x1) holds with x1 = exp(2 pi i z/w1bar) = -1 at
    z = 0.5, so the right side is exactly 1/2."""
    values = []
    for z in ("0.5", "1.5"):
        code, data = run_cli(tmp_path, "eval", "--target", "F", "--param", f"z={z}",
                             "--param", "w1bar=1", "--param", "w2=1")
        assert code == EXIT_OK
        values.append(complex(*data["value"]))
    assert abs(values[1] / values[0] - 0.5) < 1e-12


def _no_constants(name):
    raise ValueError(f"non-strict JSON constant {name}")


@pytest.mark.parametrize("target", ["growth-B", "growth-D"])
def test_sweep_output_is_strict_json(target, tmp_path):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--target", target, "--sweep", "t:4:2:7",
                 "--param", "t=-0.755+0.655i", "--param", "tau=0.054+0.140i",
                 "--out", str(out)])
    assert code == EXIT_OK
    data = json.loads(out.read_text(), parse_constant=_no_constants)
    fit = data["rows"][-1]
    assert fit["t"] is None and math.isfinite(fit["value"][0])


def test_failed_exact_check_is_strict_json(tmp_path, monkeypatch):
    import conifoldrh.cli as cli
    from conifoldrh.checks import Residual

    monkeypatch.setitem(cli.SUITES, "bernoulli",
                        (lambda: [Residual.exact("forced", 0, 1)], ()))
    out = tmp_path / "x.json"
    assert main(["verify", "--suite", "bernoulli", "--out", str(out)]) == EXIT_CHECK
    row = json.loads(out.read_text(), parse_constant=_no_constants)["checks"][0]
    assert row["passed"] is False and row["rel_err"] is None


def _moved(x):
    """x off its value: an exact value by one unit of its own type, a list
    element by element."""
    from conifoldrh.laurent import LaurentPoly
    from conifoldrh.lattice import ChargeVector
    from conifoldrh.qtorus import QTorusElement

    if isinstance(x, list):
        return [_moved(v) for v in x]
    if isinstance(x, LaurentPoly):
        return x + LaurentPoly.one()
    if isinstance(x, QTorusElement):
        return x + QTorusElement.generator(ChargeVector())
    return x + 1    # int, bool, Fraction


def test_every_verify_row_can_fail(tmp_path, monkeypatch):
    """With the right side of every row moved, every row of `verify --suite
    all` fails: an exact row by one unit of its type, a numerical row by
    4 tol relative (absolute below 1).  So every verdict is formed from the
    row's two sides by `Residual.exact` or `Residual.compare`: no row records
    a finished verdict, and no tolerance hides a 4 tol error.  (A row whose
    two sides are one computation still passes this; the per-row tests
    perturb a side's computation.)"""
    from conifoldrh.checks import Residual

    compare, exact = Residual.compare, Residual.exact

    def moved_compare(cls, name, lhs, rhs, tol, meta=None):
        rhs = complex(rhs)
        return compare(name, lhs, rhs + 4 * tol * max(abs(rhs), 1.0), tol, meta)

    def moved_exact(cls, name, lhs, rhs, meta=None):
        return exact(name, lhs, _moved(rhs), meta)

    monkeypatch.setattr(Residual, "compare", classmethod(moved_compare))
    monkeypatch.setattr(Residual, "exact", classmethod(moved_exact))
    code, data = run_cli(tmp_path, "verify", "--suite", "all")
    assert code == EXIT_CHECK
    assert data["n_checks"] == 104
    assert [c["name"] for c in data["checks"] if c["passed"]] == []


@pytest.mark.parametrize("schedule", ["t:4:1:3", "t:4:2:1"])
def test_growth_sweep_over_one_abs_t_is_usage(schedule, capsys):
    # one distinct |t| determines no exponent
    assert main(["sweep", "--target", "growth-B", "--sweep", schedule]) == EXIT_USAGE
    assert "two distinct" in capsys.readouterr().err


def test_fresh_import_does_not_load_numpy():
    """The runtime is the standard library: a fresh interpreter that imports
    the package and its CLI has not loaded numpy, whose import alone used to
    be more than half of a cold start."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import conifoldrh, conifoldrh.cli, sys; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          check=True)
    assert done.stdout.strip() == "False"


def test_fresh_import_loads_only_what_every_invocation_runs():
    """Importing the package and its CLI loads neither `dataclasses` (and
    with it `inspect`) nor `traceback` nor the exact layer's `qtorus`: the
    records are named tuples, and the suites that use `qtorus` and the
    unexpected-error branch import what they need when they run."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import conifoldrh, conifoldrh.cli\n"
            "names = ('dataclasses', 'inspect', 'traceback', 'conifoldrh.qtorus')\n"
            "print(sorted(set(names) & (set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          check=True)
    assert done.stdout.strip() == "[]"


def test_eval_sweep_and_region_never_load_the_exact_layer(tmp_path):
    """Only the verify suites that use `qtorus` import it: B_n and D_n at
    the README's admissible point, a growth-D sweep and a region scan run in
    one fresh process, all exit 0, and leave it unloaded."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = str(tmp_path / "out.json")
    code = ("import sys\n"
            "from conifoldrh import cli\n"
            "t = ['--param', 't=0.2+0.7i']\n"
            "for argv in (['eval', '--target', 'Bn', *t, '--param', 'n=2'],\n"
            "             ['eval', '--target', 'Dn', *t, '--param', 'n=1',\n"
            "              '--param', 'tau=-0.049+0.142i'],\n"
            "             ['sweep', '--target', 'growth-D', '--sweep', 't:4:2:3'],\n"
            "             ['region', *t]):\n"
            f"    assert cli.main(argv + ['--out', {out!r}]) == 0, argv\n"
            "print('conifoldrh.qtorus' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          check=True)
    assert done.stdout.strip() == "False"


def test_fresh_import_builds_no_parser():
    """Importing the CLI constructs no ArgumentParser: each call builds the
    parser for its own command line, and the import pays for none."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import conifoldrh.cli\n"
            "print(len(built))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          check=True)
    assert done.stdout.strip() == "0"


def test_inversion_row_fails_on_perturbed_coefficient(monkeypatch):
    """The inversion row multiplies R_(l,-gm) by R_(l,gm), each computed by
    its own conjugation, and fails when one coefficient of one is off."""
    import conifoldrh.cli as cli
    from conifoldrh import qtorus
    from conifoldrh.laurent import LaurentPoly

    row = cli._inversion_identity(3, 12)
    assert row.passed and list(row.meta["pairs"]) == [
        "ell_1 beta_v", "ell_1 delta_v", "ell_inf beta_v", "ell_inf delta_v"]
    good = qtorus.conjugation_element
    calls = []

    def perturbed(f, gamma):
        action = good(f, gamma)
        calls.append(gamma)
        if len(calls) > 1:
            return action
        # first call: ell_1 acting on -beta_v; shift its u^1 coefficient by 1
        terms = dict(action.terms)
        g = next(g for g in terms if g != gamma)
        terms[g] = terms[g] + LaurentPoly.one()
        return qtorus.QTorusElement(terms)

    monkeypatch.setattr(qtorus, "conjugation_element", perturbed)
    row = cli._inversion_identity(3, 12)
    assert not row.passed
    assert row.meta["pairs"] == {"ell_1 beta_v": False, "ell_1 delta_v": True,
                                 "ell_inf beta_v": True, "ell_inf delta_v": True}


def test_inverse_dilog_row_fails_on_wrong_table(tmp_path, monkeypatch):
    """The dilog suite's `1/E_q` row compares Euler's series with the generic
    inverse of the E_q series; one coefficient off in the inverse table fails
    it and no other row."""
    from conifoldrh import qtorus
    from conifoldrh.laurent import LaurentPoly

    good = qtorus.eq_coefficients

    def off(jmax, qcut, inverse=False):
        table = good(jmax, qcut, inverse)
        if inverse:
            table[2] = table[2] + LaurentPoly.one()
        return table

    monkeypatch.setattr(qtorus, "eq_coefficients", off)
    code, data = run_cli(tmp_path, "verify", "--suite", "dilog")
    assert code == EXIT_CHECK
    assert [c["name"] for c in data["checks"] if not c["passed"]] == [
        "E_q(x)^(-1) by Euler's series == generic inverse"]


def test_closed_form_mismatch_is_a_failed_check(tmp_path, monkeypatch):
    """A closed form off by one y_gm fails all 16 `conjugation == closed
    form` rows of the algebra suite (exit 1): the 8 magnetic rows and the 8
    electric ones, whose closed form multiplies no factor; the other rows do
    not read it."""
    from conifoldrh import qtorus
    from conifoldrh.laurent import LaurentPoly

    good = qtorus.closed_form_element

    def perturbed(ray_charges, gamma_m, order, qcut):
        return good(ray_charges, gamma_m, order, qcut) + qtorus.QTorusElement(
            {gamma_m: LaurentPoly.one()})

    monkeypatch.setattr(qtorus, "closed_form_element", perturbed)
    code, data = run_cli(tmp_path, "verify", "--suite", "algebra")
    assert code == EXIT_CHECK
    failed = [c["name"] for c in data["checks"] if not c["passed"]]
    assert data["n_failed"] == 16 and all("closed form" in n for n in failed)


def test_wallcrossing_rows_read_the_bps_invariants(tmp_path, monkeypatch):
    """The wall-crossing jumps are the ell_n ray factors built from
    `conifold_omega`: with Omega(beta + n delta) = 2 each factor is squared,
    so every B row, the D rows from n = 1 on and both telescoping rows fail.
    D's jump at n = 0 has no factor, and the extension and inversion rows
    read no jump."""
    from conifoldrh import qtorus
    from conifoldrh.laurent import LaurentPoly

    good = qtorus.conifold_omega

    def doubled(gamma):
        if gamma.is_electric() and gamma.a == 1:
            return LaurentPoly.monomial(0, 2)
        return good(gamma)

    monkeypatch.setattr(qtorus, "conifold_omega", doubled)
    code, data = run_cli(tmp_path, "verify", "--suite", "wallcrossing")
    assert code == EXIT_CHECK
    assert [c["name"] for c in data["checks"] if not c["passed"]] == [
        "B_wallcrossing(n=0)", "B_wallcrossing(n=1)", "D_wallcrossing(n=1)",
        "B_wallcrossing(n=2)", "D_wallcrossing(n=2)",
        "B telescoping to m=4", "D telescoping to m=4"]


def test_extension_row_fails_on_perturbed_side(monkeypatch):
    """The extension row takes B_0 by the product route and F*(v | w, -t)
    by the contour: the B side makes no contour call, the row passes, and
    it fails when either side is off by 1e-6."""
    import conifoldrh.cli as cli
    from conifoldrh import multisine, rhsolver

    p0 = cli._point({})
    good_b, good_f = rhsolver.log_B_n, multisine.log_F_contour
    contour_calls = []

    def counted(*args):
        contour_calls.append(args)
        return good_f(*args)

    with monkeypatch.context() as m:
        m.setattr(multisine, "log_F_contour", counted)
        multisine.clear_caches()
        good_b(p0)
    assert contour_calls == []
    assert cli._extension_consistency(1e-8).passed
    with monkeypatch.context() as m:
        m.setattr(rhsolver, "log_B_n", lambda *a: good_b(*a) + math.log1p(1e-6))
        assert not cli._extension_consistency(1e-8).passed
    with monkeypatch.context() as m:
        m.setattr(multisine, "log_F_contour",
                  lambda *a: (good_f(*a)[0] + 1e-6, 0.0))
        assert not cli._extension_consistency(1e-8).passed


def test_difference_points_hold_the_G_star_checklist():
    """The difference and reflection suites take the continuation log G* at
    z, z + w1 and z + w1t of each difference point, checking nothing there;
    the G* checklist holds at all of them, so a check could not have failed."""
    import conifoldrh.cli as cli
    from conifoldrh import multisine

    for z, w1, w1t, _ in cli._difference_points(3):
        for at in (z, z + w1, z + w1t):
            assert all(q.ok for q in multisine.G_star_predicates(at, w1, w1t))


@pytest.mark.parametrize("bad", [complex(math.nan, 0), complex(math.inf, 1)])
def test_zcs_row_fails_on_non_finite_value(bad, monkeypatch):
    import conifoldrh.cli as cli
    from conifoldrh import rhsolver

    assert cli._zcs_finite().passed
    monkeypatch.setattr(rhsolver, "refined_cs_partition", lambda *a: bad)
    assert not cli._zcs_finite().passed


def test_growth_sweep_matches_verify_exponent(tmp_path):
    """sweep --target growth-B over |t| = 4 * 2^j, j < 7, at the qrh-limits
    point fits the exponent that the suite's growth row reports."""
    import cmath

    def full(z):
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"

    t = 0.8 * cmath.exp(1j * (math.pi - 0.5))
    tau = 0.15 * cmath.exp(1.2j)
    code, sweep = run_cli(tmp_path, "sweep", "--target", "growth-B",
                          "--sweep", "t:4:2:7", "--param", f"t={full(t)}",
                          "--param", f"tau={full(tau)}", "--param", "n=1")
    assert code == EXIT_OK
    code, suite = run_cli(tmp_path, "verify", "--suite", "qrh-limits")
    assert code == EXIT_OK
    row = next(c for c in suite["checks"]
               if c["name"] == "qrh3 growth exponent finite (B)")
    assert abs(sweep["rows"][-1]["value"][0] - row["meta"]["exponent"]) < 1e-12


@pytest.mark.parametrize("off", [-1, 1])
def test_remainder_order_row_fails_one_order_off(off, monkeypatch):
    """The small-w2 order rows compare the slope with the closed-form order
    (K, or K + 1 where B_(K+1) = 0), not with the nearest integer: a slope
    one order off fails all six rows and no other."""
    import conifoldrh.cli as cli
    from conifoldrh import multisine

    assert all(r.passed for r in cli._suite_asymptotics())
    good = multisine.fit_loglog_slope

    def shifted(*args):
        slope, dev = good(*args)
        return slope + off, dev

    monkeypatch.setattr(multisine, "fit_loglog_slope", shifted)
    failed = [r.name for r in cli._suite_asymptotics() if not r.passed]
    assert failed == [f"{m} remainder order K={K}" for K in (1, 2, 4) for m in "FG"]


@pytest.mark.parametrize("off,passed", [(-0.25, [False] * 6), (-0.18, [False] * 2 + [True] * 4),
                                        (-0.15, [True] * 6), (0.15, [True] * 6),
                                        (0.25, [False] * 6)])
def test_remainder_gate_band(off, passed, monkeypatch):
    """The order rows (orders 1, 3, 5) pass exactly when
    order - 0.2 order/(order + 0.2) < slope < order + 0.2, not at a relative
    0.2: order + 0.25 fails all six and order +- 0.15 passes all six, and
    order - 0.18 fails the order-1 rows (lower edge 0.833) but passes the
    order-3 and order-5 rows (lower edges 2.8125 and 4.808)."""
    import conifoldrh.cli as cli
    from conifoldrh import multisine

    good = multisine.fit_loglog_slope

    def at_order(*args):
        slope, dev = good(*args)
        return round(slope) + off, dev

    monkeypatch.setattr(multisine, "fit_loglog_slope", at_order)
    rows = [r for r in cli._suite_asymptotics() if "remainder order" in r.name]
    assert [r.rhs.real for r in rows] == [1, 1, 3, 3, 5, 5]
    assert [r.passed for r in rows] == passed


@pytest.mark.parametrize("mode", ["F", "G"])
def test_remainder_rows_read_the_order_two_moments(mode, tmp_path, monkeypatch):
    """The K = 4 rows are the first to read the order-2 f and g moments:
    that moment's residue series off by 1e-3 fails `K=4` and no other row."""
    from conifoldrh import multisine

    name = f"{mode.lower()}_moment_series"
    good = getattr(multisine, name)

    def off(order, *args):
        value = good(order, *args)
        return value * (1 + 1e-3) if order == 2 else value

    monkeypatch.setattr(multisine, name, off)
    multisine.clear_caches()
    code, data = run_cli(tmp_path, "verify", "--suite", "asymptotics")
    multisine.clear_caches()
    assert code == EXIT_CHECK
    assert [c["name"] for c in data["checks"] if not c["passed"]] == [
        f"{mode} remainder order K=4"]


def test_no_two_compared_rows_check_the_same_numbers(tmp_path):
    """No two compared rows of `verify --suite all` have bitwise-equal
    (lhs, rhs): a row that repeats another's numbers can fail on nothing
    the other would not."""
    code, data = run_cli(tmp_path, "verify", "--suite", "all")
    assert code == EXIT_OK
    seen = {}
    for c in data["checks"]:
        if c["lhs"] is not None:
            key = (tuple(c["lhs"]), tuple(c["rhs"]))
            assert key not in seen, (seen.get(key), c["name"])
            seen[key] = c["name"]
    assert len(seen) == 71


def test_telescoping_rows_read_tol(tmp_path):
    """`verify --suite wallcrossing --tol 1e-3` gives that tolerance to every
    compared row, the two telescoping rows included."""
    code, data = run_cli(tmp_path, "verify", "--suite", "wallcrossing",
                         "--tol", "1e-3")
    assert code == EXIT_OK and data["tolerance"] == 1e-3
    compared = [c for c in data["checks"] if c["lhs"] is not None]
    assert len(compared) == 9 and {c["tol"] for c in compared} == {1e-3}
    assert {"B telescoping to m=4", "D telescoping to m=4"} <= {c["name"] for c in compared}


def test_asymptotics_suite_takes_each_log_value_once(tmp_path, monkeypatch):
    """The order rows at K = 1, 2, 4 read log X at the same seven w2, once
    each through the memo store: `verify --suite asymptotics` calls
    log_F_contour and log_G_value 15 times each (7 small-w2, 8 for the
    infinity fit), and every row passes."""
    from conifoldrh import multisine

    calls = []
    for name in ("log_F_contour", "log_G_value"):
        good = getattr(multisine, name)
        monkeypatch.setattr(multisine, name,
                            lambda *a, good=good, name=name: calls.append(name) or good(*a))
    multisine.clear_caches()
    code, record = run_cli(tmp_path, "verify", "--suite", "asymptotics")
    assert code == EXIT_OK and all(row["passed"] for row in record["checks"])
    assert calls.count("log_F_contour") == calls.count("log_G_value") == 15


@pytest.mark.parametrize("mode,params", [("F", (1 + 0.05j,)),
                                         ("G", (1 + 0.1j, 0.95 - 0.07j))])
def test_asym_order_sweep_matches_suite_remainders(mode, params, tmp_path):
    """sweep --target asym-order-F|G over |w2| = 0.4 * 2^-m, m < 7, at its
    default point reports the |remainders| that asymptotic_order_small_w2
    fits, and their slope is the row's."""
    import cmath
    from conifoldrh import multisine

    code, sweep = run_cli(tmp_path, "sweep", "--target", f"asym-order-{mode}",
                          "--sweep", "w2:0.4:0.5:7")
    assert code == EXIT_OK
    w2s = [cmath.exp(-0.2j) * 0.4 * 0.5**m for m in range(7)]
    _, rem = multisine.small_w2_remainders(mode, 0.3 + 0.4j, params, 2, w2s)
    assert [row["metric"] for row in sweep["rows"]] == pytest.approx(
        [abs(x) for x in rem], rel=1e-6)
    r = multisine.asymptotic_order_small_w2(mode, 0.3 + 0.4j, params, 2,
                                            cmath.exp(-0.2j))
    slope, _ = multisine.fit_loglog_slope(w2s, rem)
    assert r.lhs.real == pytest.approx(slope, rel=1e-12)


def _all_terms_remainders(mode, z, params, K, w2s):
    """`small_w2_remainders` summing every k = 0..K, the B_k = 0 terms
    (odd k >= 3) with their moments included."""
    from conifoldrh import multisine
    from conifoldrh.bernoulli import bernoulli_numbers

    moment, log_X = {"F": (multisine.f_moment, multisine.log_F_contour),
                     "G": (multisine.g_moment, multisine.log_G_value)}[mode]
    nums = bernoulli_numbers(K)
    moms = [moment(k - 2, z, *params) for k in range(K + 1)]

    def S(w2):
        return sum(complex(nums[k]) * w2 ** (k - 1) * moms[k] / math.factorial(k)
                   for k in range(K + 1))

    logs = [log_X(z, *params, w2)[0] for w2 in w2s]
    return logs, [lv - S(w2) for w2, lv in zip(w2s, logs)]


@pytest.mark.parametrize("mode", ["F", "G"])
def test_asym_order_sweep_skips_only_zero_terms(mode, tmp_path, monkeypatch):
    """The K = 7 rows, which used to take the order-5 f moment by
    quadrature only to multiply it by B_7 = 0, are the bytes of the sum
    over every k: each skipped term is exactly 0 * m."""
    from conifoldrh import multisine

    argv = ["sweep", "--target", f"asym-order-{mode}", "--sweep", "w2:0.4:0.5:7",
            "--param", "K=7"]
    code, skipped = run_cli(tmp_path, *argv)
    monkeypatch.setattr(multisine, "small_w2_remainders", _all_terms_remainders)
    multisine.clear_caches()
    full_code, full = run_cli(tmp_path, *argv)
    assert code == full_code == EXIT_OK
    skipped.pop("timing")
    full.pop("timing")
    assert json.dumps(skipped) == json.dumps(full)


def test_asym_order_sweep_at_K9():
    """K = 9 exits 0: the order-7 f moment, which quadrature cannot reach
    within 3e-11, has weight B_9 = 0 and is not computed."""
    assert main(["sweep", "--target", "asym-order-F", "--sweep", "w2:0.4:0.5:7",
                 "--param", "K=9"]) == EXIT_OK


def test_asym_order_sweep_at_K11():
    """K = 11 exits 0: its order-8 f moment (weight B_10 != 0), past the
    reach of quadrature within 3e-11, is the residue series
    (2 pi i / w1bar)^9 Li_(-8)(x1) with the Eulerian Li_(-8)."""
    assert main(["sweep", "--target", "asym-order-F", "--sweep", "w2:0.4:0.5:7",
                 "--param", "K=11"]) == EXIT_OK


def test_region_outside_mplus_names_predicate(capsys):
    assert main(["region", "--param", "v=1", "--param", "w=1"]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "Im(v/w) > 0" in err and "v + n*w != 0" in err


def _readme_commands() -> list[str]:
    """Every `conifoldrh ...` line of the README's CLI block, continuation
    lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [" ".join(line.split()) for line in joined.splitlines()
            if line.strip().startswith("conifoldrh ")]


def test_readme_lists_the_commands():
    cmds = _readme_commands()
    for part in ("verify --suite all", "region", "--target qrh-limit-D",
                 "--target growth-D"):
        assert any(part in c for c in cmds)


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    import shlex

    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == EXIT_OK
