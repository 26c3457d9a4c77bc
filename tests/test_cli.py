"""Command-line surface: outputs, schemas, exit codes, determinism."""

import json

import pytest

from nchilb.cli import build_parser, main
from nchilb.forests import forest_from_json
from nchilb.polynomial import poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poincare_text_output(capsys):
    code, out, _ = run(capsys, "forests", "poincare", "--m", "2", "--d", "3", "--n", "1")
    assert code == 0
    assert out.strip() == "t^12 + t^11 + 2*t^10 + t^9"


def test_count_trivial(capsys):
    code, out, _ = run(capsys, "forests", "count", "--m", "2", "--d", "0", "--n", "1")
    assert code == 0
    assert out.strip() == "1"


def test_enum_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "forests", "enum", "--m", "2", "--d", "3", "--n", "1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert data[0] == [["", "1", "11"]]
    for item in data:
        forest_from_json(item, 2)


def test_bijection_text(capsys):
    code, out, _ = run(capsys, "forests", "bijection", "--m", "2", "--d", "3", "--n", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].endswith("3333 -> 000")
    assert lines[-1].endswith("1233 -> 011")


def test_coha_mul_json(capsys):
    code, out, _ = run(
        capsys,
        "coha",
        "mul",
        "--m",
        "2",
        "--left",
        "1",
        "--left-arity",
        "1",
        "--right",
        "1*x1",
        "--right-arity",
        "1",
        "--format",
        "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 2
    poly = poly_from_json(data["poly"])
    assert poly.nvars == 2 and poly.degree() == 2


@pytest.mark.parametrize("flag", ["--left-arity", "--right-arity"])
def test_coha_mul_negative_arity_exits_2(capsys, flag):
    argv = ["coha", "mul", "--m", "2", "--left", "1*x1", "--left-arity", "1",
            "--right", "1", "--right-arity", "0"]
    argv[argv.index(flag) + 1] = "-1"
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"{flag} must be >= 0" in capsys.readouterr().err


def test_coha_psi_text(capsys):
    code, out, _ = run(capsys, "coha", "psi", "--k", "2")
    assert code == 0
    assert out.strip() == "psi_2 = 1*x1^2"


def test_coha_relations_count(capsys):
    code, out, _ = run(capsys, "coha", "relations", "--m", "2", "--d", "3", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 7


def test_chow_presentation_m1(capsys):
    code, out, _ = run(capsys, "chow", "presentation", "--m", "1", "--d", "3")
    assert code == 0
    assert "1*e1" in out and "1*e2" in out and "1*e3" in out
    assert "verdict chern_basis: pass" in out


def test_chow_hilbert(capsys):
    code, out, _ = run(capsys, "chow", "hilbert", "--m", "2", "--d", "3")
    assert code == 0
    assert out.split() == ["1", "1", "2", "1"] + ["0"] * 9


def test_chow_hilbert_max_deg_bounds(capsys):
    code, out, _ = run(capsys, "chow", "hilbert", "--m", "2", "--d", "3", "--max-deg", "0")
    assert code == 0
    assert out.split() == ["1"]
    with pytest.raises(SystemExit) as excinfo:
        main(["chow", "hilbert", "--m", "2", "--d", "3", "--max-deg", "-1"])
    assert excinfo.value.code == 2
    assert "--max-deg must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,usage",
    [
        (["chow", "hilbert", "--m", "2", "--d", "3", "--max-deg", "-1"], "nchilb chow hilbert"),
        (["coha", "forbidden", "--m", "2", "--d", "3", "--p", "5"], "nchilb coha forbidden"),
        (["chow", "verify", "--m", "-1", "--d", "3"], "nchilb chow verify"),
        (["forests", "count", "--m", "-1", "--d", "2"], "nchilb forests count"),
        (["paper-example", "--trials", "0"], "nchilb paper-example"),
    ],
    ids=["chow-hilbert", "coha-forbidden", "chow-verify", "forests-count", "paper-example"],
)
def test_validation_error_shows_subcommand_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.startswith(f"usage: {usage} ")


# Every bounded integer option: (subcommand path, valid arguments, flag, least value).
# The arguments stay valid when the flag is set to its least value.
FORESTS = ["--m", "2", "--d", "2", "--n", "1"]
MUL = ["--m", "2", "--left", "1", "--left-arity", "1", "--right", "1", "--right-arity", "1"]
CHOW = ["--m", "2", "--d", "2"]
MULTIPLICITY = ["--vars", "2", "--poly", "1*x1^2", "--poly", "1*x2", "--local", "2",
                "--trials", "1"]
BOUNDS = [
    *((["forests", sub], FORESTS, flag, low)
      for sub in ("enum", "count", "poincare", "bijection")
      for flag, low in (("--m", 0), ("--d", 0), ("--n", 1))),
    *((["coha", "mul"], MUL, flag, 0) for flag in ("--m", "--left-arity", "--right-arity")),
    (["coha", "psi"], ["--k", "1"], "--k", 0),
    (["coha", "psi-product"], ["--m", "2", "--ks", "0,1"], "--m", 0),
    (["coha", "forbidden"], ["--m", "2", "--d", "2", "--p", "0"], "--m", 0),
    (["coha", "relations"], ["--m", "2", "--d", "2"], "--m", 0),
    (["coha", "relations"], ["--m", "2", "--d", "2"], "--d", 1),
    *((["chow", sub], CHOW, flag, low)
      for sub in ("presentation", "hilbert", "verify")
      for flag, low in (("--m", 0), ("--d", 1))),
    (["chow", "hilbert"], CHOW + ["--max-deg", "3"], "--max-deg", 0),
    (["chow", "multiplicity"], MULTIPLICITY, "--local", 0),
    (["chow", "multiplicity"], MULTIPLICITY, "--trials", 1),
    (["paper-example"], ["--trials", "1"], "--trials", 1),
]


def _with_value(path, args, flag, value):
    args = list(args)
    args[args.index(flag) + 1] = str(value)
    return path + args


@pytest.mark.parametrize(
    "path,args,flag,low", BOUNDS, ids=[f"{' '.join(b[0])} {b[2]}" for b in BOUNDS]
)
def test_every_bounded_option_refuses_below_its_least_value(capsys, path, args, flag, low):
    with pytest.raises(SystemExit) as excinfo:
        main(_with_value(path, args, flag, low - 1))
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: nchilb {' '.join(path)} ")
    assert f"{flag} must be >= {low}" in err
    assert main(_with_value(path, args, flag, low)) in (0, 1)
    assert "must be >=" not in capsys.readouterr().err


def test_bounds_table_lists_every_declared_bound():
    table = {}
    for path, args, flag, low in BOUNDS:
        table.setdefault(tuple(path), (args, set()))[1].add((flag, low))
    for path, (args, rows) in table.items():
        argv = list(path) + args
        declared = build_parser(argv).parse_args(argv).bounds
        assert {(flag, low) for flag, _, low in declared} == rows


def test_multiplicity_with_no_local_variables_is_0(capsys):
    argv = ["chow", "multiplicity", "--vars", "2", "--poly", "1*x1^2", "--poly", "1*x2"]
    code, out, _ = run(capsys, *argv, "--local", "0")
    assert code == 0
    assert out.strip() == "0"


def test_chow_verify(capsys):
    code, out, _ = run(capsys, "chow", "verify", "--m", "2", "--d", "2")
    assert code == 0
    assert out.count("pass") == 2


def test_chow_multiplicity(capsys):
    code, out, _ = run(
        capsys,
        "chow",
        "multiplicity",
        "--vars",
        "2",
        "--poly",
        "1*x1^2",
        "--poly",
        "1*x2",
    )
    assert code == 0
    assert out.strip() == "2"


# y + a1 a2 a3 a4 a5 z, y z, z^3: the quotient has dimension 2, and 3 when some a_i is 0
DEGENERATE = ["--vars", "7", "--poly", "1*x1 + 1*x2*x3*x4*x5*x6*x7", "--poly", "1*x1*x2",
              "--poly", "1*x2^3", "--trials", "12", "--seed", "2"]


def test_chow_multiplicity_json_lists_every_trial(capsys):
    code, out, _ = run(capsys, "chow", "multiplicity", *DEGENERATE, "--format", "json")
    assert code == 0
    # the fourth draw sets a parameter to 0
    assert json.loads(out) == {"multiplicity": 2, "trials": [2, 2, 2, 3] + [2] * 8}
    code, out, _ = run(capsys, "chow", "multiplicity", *DEGENERATE)
    assert code == 0
    assert out == "2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["chow", "multiplicity", "--vars", "2", "--poly", "1*x1^2", "--poly", "1*x2"],
        ["paper-example"],
    ],
    ids=["multiplicity", "paper-example"],
)
def test_trials_below_one_exit_2(capsys, argv):
    for trials in ("0", "-3"):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--trials", trials])
        assert excinfo.value.code == 2
        assert "--trials must be >= 1" in capsys.readouterr().err


def test_paper_example_passes(capsys):
    code, out, _ = run(capsys, "paper-example")
    assert code == 0
    assert "all checks passed" in out
    assert "[FAIL]" not in out


def test_paper_example_json(capsys):
    code, out, _ = run(capsys, "paper-example", "--format", "json", "--seed", "3")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["checks"]) == 10


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["forests", "count", "--m", "2"])  # --d missing
    assert excinfo.value.code == 2


def test_validation_error_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["forests", "count", "--m", "-1", "--d", "2", "--n", "1"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["coha", "mul", "--m", "2", "--left-arity", "1", "--left", "1/0*x1"]
        + ["--right-arity", "1", "--right", "1*x1"],
        ["chow", "multiplicity", "--vars", "3", "--poly", "1/0*x1", "--poly", "1*x2"],
    ],
    ids=["coha-mul", "chow-multiplicity"],
)
def test_zero_denominator_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "zero denominator in polynomial term '1/0*x1'" in captured.err


@pytest.mark.parametrize("ks", ["1,,2", "1,", ",", "", "1, ,2"])
def test_ks_with_an_empty_item_exits_2(capsys, ks):
    with pytest.raises(SystemExit) as excinfo:
        main(["coha", "psi-product", "--m", "2", "--ks", ks])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected comma-separated integers: {ks!r}" in captured.err


@pytest.mark.parametrize("polys,zero", [(["0"], "0"), (["1*x1^2", "0"], "0"),
                                        (["1*x1 - 1*x1", "1*x2"], "1*x1 - 1*x1")])
def test_zero_poly_exits_2(capsys, polys, zero):
    argv = ["chow", "multiplicity", "--vars", "2"]
    for text in polys:
        argv += ["--poly", text]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: --poly {zero!r} is the zero polynomial\n" in captured.err


def test_computation_error_exits_1(capsys):
    code, out, err = run(
        capsys,
        "chow",
        "multiplicity",
        "--vars",
        "2",
        "--poly",
        "1*x1*x2",
        "--trials",
        "2",
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chow", "hilbert", "--m", "2", "--d", "3", "--max-deg", str(2**31)],
        ["chow", "multiplicity", "--vars", "2", "--poly", f"1*x1^{2**31}", "--poly", "1*x2"],
    ],
    ids=["max-deg", "poly"],
)
def test_weighted_degree_past_the_packed_field_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert str(2**31) in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "chow", "presentation", "--m", "2", "--d", "3", "--format", "json")
    second = run(capsys, "chow", "presentation", "--m", "2", "--d", "3", "--format", "json")
    assert first == second


def test_m_above_nine_exits_2_where_words_are_printed(capsys):
    for sub in ("enum", "bijection"):
        with pytest.raises(SystemExit) as excinfo:
            main(["forests", sub, "--m", "10", "--d", "1"])
        assert excinfo.value.code == 2
        assert "m = 10" in capsys.readouterr().err
    # counting prints no words, so it needs no digit encoding
    code, out, _ = run(capsys, "forests", "count", "--m", "10", "--d", "2")
    assert code == 0
    assert out.strip() == "10"


@pytest.mark.parametrize("sub", ["presentation", "hilbert", "verify"])
def test_chow_subcommands_take_no_seed_or_trials(capsys, sub):
    for flag in ("--seed", "--trials"):
        with pytest.raises(SystemExit) as excinfo:
            main(["chow", sub, "--m", "2", "--d", "2", flag, "1"])
        assert excinfo.value.code == 2


XSPACE_COMMANDS = [
    ["coha", "mul", "--m", "2", "--left", "1*x1^2 + 1/2*x1", "--left-arity", "1",
     "--right", "1*x1*x2", "--right-arity", "2"],
    ["coha", "psi", "--k", "3"],
    ["coha", "psi-product", "--m", "2", "--ks", "0,1,3"],
    ["coha", "relations", "--m", "2", "--d", "3"],
    ["coha", "forbidden", "--m", "2", "--d", "3", "--p", "1"],
]


def _refuse(*_args, **_kwargs):
    raise AssertionError("built an output format that is not printed")


@pytest.mark.parametrize("argv", XSPACE_COMMANDS, ids=lambda argv: argv[1])
def test_coha_builds_only_the_format_it_prints(capsys, monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr("nchilb.cli._element_json", _refuse)
        for module in ("nchilb.cli", "nchilb.polynomial"):
            patch.setattr(f"{module}.poly_to_json", _refuse)
        code, text, _ = run(capsys, *argv, "--format", "text")
    assert code == 0 and text.strip()
    with monkeypatch.context() as patch:
        for module in ("nchilb.cli", "nchilb.polynomial"):
            patch.setattr(f"{module}.poly_to_text", _refuse)
        code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out)
