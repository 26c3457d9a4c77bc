"""Command-line surface: forest combinatorics, shuffle algebra, presentations.

Subcommands mirror the library layers (`forests`, `coha`, `chow`) plus
`paper-example`, which replays the complete worked m=2, d=3, n=1 pipeline
and exits nonzero unless every pinned value matches.  Results go to
stdout, diagnostics to stderr; exit code 2 flags usage errors and 1 flags
computation errors.  Each integer option is declared once, with the least
value it accepts; `main` checks every declared bound right after parsing
and reports a violation as `<flag> must be >= <low>` under the usage line
of the subcommand.  Checks that compare two inputs stay in the commands.
"""

import argparse
import json
import sys

from . import __version__
from .coha import coha_mul, element, forbidden_polynomial, kernel_generators, psi, psi_product
from .forests import (
    check_digit_alphabet,
    enumerate_forests,
    forest_to_json,
    forest_to_jtuple,
    jtuple_to_btuple,
    poincare_polynomial,
)
from .groebner import buchberger, ideal_equals
from .polynomial import (
    SparsePoly,
    poly_from_text,
    poly_to_json,
    poly_to_text,
)
from .presentation import (
    e_weights,
    kernel_ideal,
    local_multiplicity,
    presentation_report,
    top_degree,
    trial_dimensions,
    verify_chern_basis,
    verify_poincare_match,
)


def _emit(args, payload, render):
    """Print payload() as JSON under --format json, else call render().

    Both are functions of no arguments, so each output format is built only
    when it is printed.
    """
    if args.format == "json":
        print(json.dumps(payload(), indent=2))
    else:
        render()


def _forest_text(data):
    return "(" + ", ".join("{" + ",".join(w or "e" for w in tree) + "}" for tree in data) + ")"


def _poincare_text(coeffs):
    if not coeffs or not any(coeffs):
        return "0"
    pieces = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if not c:
            continue
        if power == 0:
            body = str(c)
        else:
            t = "t" if power == 1 else f"t^{power}"
            body = t if c == 1 else f"{c}*{t}"
        pieces.append(body)
    return " + ".join(pieces)


def _int_list(text):
    try:
        return [int(x) for x in text.split(",")]  # int refuses an empty item
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


# ---------------------------------------------------------------------------
# forests


def _check_words(args):
    """Refuse before enumerating when the forests could not be printed."""
    try:
        check_digit_alphabet(args.m)
    except ValueError as exc:
        args.parser.error(str(exc))


def cmd_forests_enum(args):
    _check_words(args)
    data = [forest_to_json(f) for f in enumerate_forests(args.m, args.d, args.n)]

    def render():
        for forest in data:
            print(_forest_text(forest))

    _emit(args, lambda: data, render)
    return 0


def cmd_forests_count(args):
    count = sum(poincare_polynomial(args.m, args.d, args.n))
    _emit(args, lambda: {"count": count}, lambda: print(count))
    return 0


def cmd_forests_poincare(args):
    coeffs = poincare_polynomial(args.m, args.d, args.n, by=args.by)
    _emit(
        args,
        lambda: {"by": args.by, "coefficients": coeffs},
        lambda: print(_poincare_text(coeffs)),
    )
    return 0


def cmd_forests_bijection(args):
    _check_words(args)
    rows = []
    for forest in enumerate_forests(args.m, args.d, args.n):
        j = forest_to_jtuple(forest)
        rows.append(
            {
                "forest": forest_to_json(forest),
                "jtuple": list(j),
                "btuple": list(jtuple_to_btuple(j, args.d)),
            }
        )

    def render():
        for row in rows:
            print(
                _forest_text(row["forest"]),
                "->",
                "".join(map(str, row["jtuple"])),
                "->",
                "".join(map(str, row["btuple"])),
            )

    _emit(args, lambda: rows, render)
    return 0


# ---------------------------------------------------------------------------
# coha


def _element_json(f):
    """The JSON form of a shuffle-algebra element: its arity and x-space polynomial."""
    return {"d": f.nvars, "poly": poly_to_json(f.poly)}


def cmd_coha_mul(args):
    try:
        left = element(poly_from_text(args.left, nvars=args.left_arity))
        right = element(poly_from_text(args.right, nvars=args.right_arity))
    except ValueError as exc:
        args.parser.error(str(exc))
    product = coha_mul(left, right, args.m)
    _emit(
        args,
        lambda: _element_json(product),
        lambda: print(f"d={product.nvars}:", poly_to_text(product.poly)),
    )
    return 0


def cmd_coha_psi(args):
    f = psi(args.k)
    _emit(args, lambda: _element_json(f), lambda: print(f"psi_{args.k} =", poly_to_text(f.poly)))
    return 0


def cmd_coha_psi_product(args):
    ks = args.ks
    if not ks or any(k < 0 for k in ks):
        args.parser.error("--ks needs a non-empty list of indices >= 0")
    f = psi_product(ks, args.m)
    label = " * ".join(f"psi_{k}" for k in ks)
    _emit(args, lambda: _element_json(f), lambda: print(f"{label} =", poly_to_text(f.poly)))
    return 0


def cmd_coha_forbidden(args):
    if not 0 <= args.p < args.d:
        args.parser.error("need 0 <= p < d")
    poly = forbidden_polynomial(args.p, args.d, args.m)
    _emit(args, lambda: poly_to_json(poly), lambda: print(poly_to_text(poly)))
    return 0


def cmd_coha_relations(args):
    gens = kernel_generators(args.d, args.m)
    if args.format == "json":
        # json.dumps(gens as a list, indent=2), holding one generator's terms at a time
        opener = "["
        for g in gens:
            print(opener, json.dumps(_element_json(g), indent=2).replace("\n", "\n  "), sep="\n  ", end="")
            opener = ","
        print("[]" if opener == "[" else "\n]")
    else:
        for g in gens:
            print(f"d={g.nvars}:", poly_to_text(g.poly))
    return 0


# ---------------------------------------------------------------------------
# chow


def cmd_chow_presentation(args):
    report = presentation_report(args.m, args.d, minimal=args.minimal)

    def render():
        p = report.to_json()
        print(f"presentation for m={p['m']}, d={p['d']}")
        print("generators:")
        for g in p["generators"]:
            print("  ", g)
        print("reduced basis:")
        for g in p["groebner"]:
            print("  ", g)
        print("hilbert:", " ".join(map(str, p["hilbert"])))
        print("standard monomials:", ", ".join(p["standard_monomials"]))
        for name, verdict in p["verdicts"].items():
            print(f"verdict {name}: {'pass' if verdict else 'FAIL'}")
        if "minimal_generators" in p:
            print("minimal generators:")
            for g in p["minimal_generators"]:
                print("  ", g)

    _emit(args, report.to_json, render)
    return 0


def cmd_chow_hilbert(args):
    max_deg = top_degree(args.m, args.d) if args.max_deg is None else args.max_deg
    values = kernel_ideal(args.m, args.d).hilbert_function(max_deg)
    _emit(
        args,
        lambda: {"m": args.m, "d": args.d, "hilbert": values},
        lambda: print(" ".join(map(str, values))),
    )
    return 0


def cmd_chow_verify(args):
    gb = kernel_ideal(args.m, args.d)
    basis_ok = verify_chern_basis(args.m, args.d, gb)
    poincare_ok = verify_poincare_match(args.m, args.d, gb)
    verdicts = {"chern_basis": basis_ok, "poincare_match": poincare_ok}

    def render():
        for name, verdict in verdicts.items():
            print(f"{name}: {'pass' if verdict else 'FAIL'}")

    _emit(args, lambda: verdicts, render)
    return 0 if basis_ok and poincare_ok else 1


def cmd_chow_multiplicity(args):
    if args.vars < args.local:
        args.parser.error("--vars must be at least --local")
    try:
        polys = [poly_from_text(text, nvars=args.vars) for text in args.poly]
    except ValueError as exc:
        args.parser.error(str(exc))
    for text, poly in zip(args.poly, polys):
        if poly.is_zero():
            args.parser.error(f"--poly {text!r} is the zero polynomial")
    dimensions = trial_dimensions(polys, trials=args.trials, seed=args.seed, local_vars=args.local)
    value = min(dimensions)
    _emit(args, lambda: {"multiplicity": value, "trials": dimensions}, lambda: print(value))
    return 0


# ---------------------------------------------------------------------------
# the worked-example pipeline


def _worked_example_pair():
    """The two parametrized determinants of the worked multiplicity computation.

    Variables: y, z first, then ten parameters a1..a10.
    """
    n = 12
    y, z = 0, 1

    def var(i):
        return SparsePoly.variable(n, i)

    def param(i):
        return var(1 + i)

    g1 = var(y) ** 2 + param(4) * var(y) * var(z) - param(3) * var(z) ** 2
    g2 = (
        param(7) * var(y) ** 2
        + (param(10) - param(6)) * var(y) * var(z)
        - param(1) * var(z)
        - param(9) * var(z) ** 2
    )
    return [g1, g2]


def cmd_paper_example(args):
    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    forests = enumerate_forests(2, 3, 1)
    expected_forests = [
        [["", "1", "11"]],
        [["", "1", "12"]],
        [["", "1", "2"]],
        [["", "2", "21"]],
        [["", "2", "22"]],
    ]
    check(
        "five binary trees in order",
        [forest_to_json(f) for f in forests] == expected_forests,
        "; ".join(_forest_text(forest_to_json(f)) for f in forests),
    )

    jtuples = [forest_to_jtuple(f) for f in forests]
    check(
        "J-tuples 3333 2333 2233 1333 1233",
        jtuples == [(3, 3, 3, 3), (2, 3, 3, 3), (2, 2, 3, 3), (1, 3, 3, 3), (1, 2, 3, 3)],
        " ".join("".join(map(str, j)) for j in jtuples),
    )
    btuples = [jtuple_to_btuple(j, 3) for j in jtuples]
    check(
        "B-tuples 000 001 002 010 011",
        btuples == [(0, 0, 0), (0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 1, 1)],
        " ".join("".join(map(str, b)) for b in btuples),
    )

    coeffs = poincare_polynomial(2, 3, 1)
    check(
        "Poincare polynomial t^12 + t^11 + 2t^10 + t^9",
        coeffs == [0] * 9 + [1, 2, 1, 1],
        _poincare_text(coeffs),
    )

    gb = kernel_ideal(2, 3)
    target = buchberger(
        [
            SparsePoly.monomial(3, (0, 0, 1)),
            SparsePoly.monomial(3, (0, 2, 0)),
            poly_from_text("1*e1^3 - 4*e1*e2", nvars=3),
            SparsePoly.monomial(3, (4, 0, 0)),
        ],
        e_weights(3),
    )
    check(
        "kernel ideal equals (e3, e2^2, e1^3 - 4 e1 e2, e1^4)",
        ideal_equals(gb, target),
        "; ".join(poly_to_text(g, names="e") for g in gb.polys),
    )

    hilbert = gb.hilbert_function(12)
    check("Hilbert function 1 1 2 1", hilbert[:4] == [1, 1, 2, 1] and not any(hilbert[4:]))

    standard = gb.standard_monomials()
    check(
        "standard monomials 1, e1, e1^2, e2, e1 e2",
        sorted(standard) == sorted([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0)]),
        ", ".join(poly_to_text(SparsePoly.monomial(3, e), names="e") for e in standard),
    )

    basis_ok = verify_chern_basis(2, 3, gb)
    poincare_ok = verify_poincare_match(2, 3, gb)
    check("Chern monomial basis verdict", basis_ok)
    check("Poincare/Hilbert match verdict", poincare_ok)

    multiplicity = local_multiplicity(
        _worked_example_pair(), trials=args.trials, seed=args.seed
    )
    check("generic intersection length 4", multiplicity == 4, str(multiplicity))

    all_ok = all(c["ok"] for c in checks)

    def render():
        for c in checks:
            mark = "ok " if c["ok"] else "FAIL"
            line = f"[{mark}] {c['name']}"
            if c["detail"]:
                line += f": {c['detail']}"
            print(line)
        print("all checks passed" if all_ok else "some checks FAILED")

    _emit(args, lambda: {"checks": checks, "all_ok": all_ok}, render)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly


# An option is (flag, least value or None, add_argument keywords); options
# that several subcommands take are declared once here, and every command
# takes FORMAT first.


def _int(flag, low=None, **spec):
    """An integer option; `main` refuses a value below `low`."""
    return flag, low, dict(spec, type=int)


def _opt(flag, **spec):
    return flag, None, spec


def _d(low):
    return _int("--d", low, required=True, help="dimension, the forests' total node count")


FORMAT = _opt("--format", choices=("text", "json"), default="text", help="output format")
M = _int("--m", 0, required=True, help="number of loops, the forests' alphabet size")
FOREST_SHAPE = (M, _d(0), _int("--n", 1, default=1, help="number of roots"))
SEED_TRIALS = (_int("--seed", default=0), _int("--trials", 1, default=5))

# (group, summary, commands), each command (name, function, options)
GROUPS = (
    ("forests", "m-ary forest combinatorics", (
        ("enum", cmd_forests_enum, FOREST_SHAPE),
        ("count", cmd_forests_count, FOREST_SHAPE),
        ("poincare", cmd_forests_poincare,
         (*FOREST_SHAPE, _opt("--by", choices=("dim", "codim"), default="dim"))),
        ("bijection", cmd_forests_bijection, FOREST_SHAPE),
    )),
    ("coha", "shuffle-product algebra", (
        ("mul", cmd_coha_mul,
         (M, _opt("--left", required=True, help="left factor, text grammar in x-variables"),
          _int("--left-arity", 0, required=True), _opt("--right", required=True),
          _int("--right-arity", 0, required=True))),
        ("psi", cmd_coha_psi, (_int("--k", 0, required=True),)),
        ("psi-product", cmd_coha_psi_product,
         (M, _opt("--ks", type=_int_list, required=True, help="comma-separated indices"))),
        ("forbidden", cmd_coha_forbidden, (M, _d(None), _int("--p", required=True))),
        ("relations", cmd_coha_relations, (M, _d(1))),
    )),
    ("chow", "quotient-ring presentations", (
        ("presentation", cmd_chow_presentation,
         (M, _d(1), _opt("--minimal", action="store_true",
                         help="also report a minimal generator subset"))),
        ("hilbert", cmd_chow_hilbert, (M, _d(1), _int("--max-deg", 0, default=None))),
        ("verify", cmd_chow_verify, (M, _d(1))),
        ("multiplicity", cmd_chow_multiplicity,
         (_int("--vars", required=True, help="total variable count"),
          _int("--local", 0, default=2, help="leading local variables"),
          _opt("--poly", action="append", required=True, help="repeatable polynomial input"),
          *SEED_TRIALS)),
    )),
)


def _add_options(p, func, options):
    """Give the command parser `p` FORMAT and `options`, and what `main` dispatches on."""
    bounds = []
    for flag, low, spec in (FORMAT, *options):
        dest = p.add_argument(flag, **spec).dest
        if low is not None:
            bounds.append((flag, dest, low))
    p.set_defaults(func=func, parser=p, bounds=bounds)


def _level(parent, dest, names, argv):
    """Subparsers of `parent` for `names`: (the action, the names to build, the arguments after).

    A level is built for argv[0] alone when it is one of `names`, under a
    metavar that lists them all as argparse would.  When argv names none
    of them, or an option comes first (help, version, or one that argparse
    refuses), every name is built and so is everything below it (`argv`
    None), so that help, version and errors read as from the full parser.
    """
    if argv and argv[0] in names:
        action = parent.add_subparsers(dest=dest, required=True, metavar="{" + ",".join(names) + "}")
        return action, (argv[0],), argv[1:]
    return parent.add_subparsers(dest=dest, required=True), names, None


def build_parser(argv=None):
    """The `nchilb` parser, built only as far as `argv` reaches; None builds all of it.

    No top- or group-level option takes a value, so argparse takes the
    group from the first argument and the command from the next when
    neither starts with "-"; only that group and that command are built
    (see `_level`), and only the command gets options.
    """
    parser = argparse.ArgumentParser(
        prog="nchilb",
        description="Exact combinatorics and algebra of Chow rings of "
        "non-commutative Hilbert schemes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    groups = (*(group for group, _, _ in GROUPS), "paper-example")
    sub, built, rest = _level(parser, "command", groups, argv)
    for group, summary, commands in GROUPS:
        if group in built:
            p = sub.add_parser(group, help=summary)
            subs, chosen, _ = _level(p, "subcommand", tuple(name for name, _, _ in commands), rest)
            for name, func, options in commands:
                if name in chosen:
                    _add_options(subs.add_parser(name), func, options)
    if "paper-example" in built:
        p = sub.add_parser(
            "paper-example",
            help="replay the worked m=2, d=3, n=1 pipeline and verify every pinned value",
        )
        _add_options(p, cmd_paper_example, SEED_TRIALS)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    for flag, dest, low in args.bounds:
        value = getattr(args, dest)
        if value is not None and value < low:
            args.parser.error(f"{flag} must be >= {low}")
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
