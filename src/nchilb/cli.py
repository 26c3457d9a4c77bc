"""Command-line surface: forest combinatorics, shuffle algebra, presentations.

Subcommands mirror the library layers (`forests`, `coha`, `chow`) plus
`paper-example`, which replays the complete worked m=2, d=3, n=1 pipeline
and exits nonzero unless every pinned value matches.  Results go to
stdout, diagnostics to stderr; exit code 2 flags usage errors and 1 flags
computation errors.
"""

import argparse
import json
import sys

from . import __version__
from .coha import CohaElement, coha_mul, forbidden_polynomial, kernel_generators, psi, psi_product
from .forests import (
    ambient_dimension,
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
    verify_chern_basis,
    verify_poincare_match,
)


def _emit(payload, args, text_renderer):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        text_renderer(payload)


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
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _check_mdn(parser, args, need_n=True):
    if args.m < 0:
        parser.error("--m must be >= 0")
    if getattr(args, "d", 0) < 0:
        parser.error("--d must be >= 0")
    if need_n and args.n < 1:
        parser.error("--n must be >= 1")


# ---------------------------------------------------------------------------
# forests


def _check_words(parser, args):
    """Refuse before enumerating when the forests could not be printed."""
    try:
        check_digit_alphabet(args.m)
    except ValueError as exc:
        parser.error(str(exc))


def cmd_forests_enum(parser, args):
    _check_mdn(parser, args)
    _check_words(parser, args)
    data = [forest_to_json(f) for f in enumerate_forests(args.m, args.d, args.n)]

    def render(payload):
        for forest in payload:
            print(_forest_text(forest))

    _emit(data, args, render)
    return 0


def cmd_forests_count(parser, args):
    _check_mdn(parser, args)
    count = len(enumerate_forests(args.m, args.d, args.n))
    _emit({"count": count}, args, lambda payload: print(payload["count"]))
    return 0


def cmd_forests_poincare(parser, args):
    _check_mdn(parser, args)
    coeffs = poincare_polynomial(args.m, args.d, args.n, by=args.by)
    payload = {"by": args.by, "coefficients": coeffs}
    _emit(payload, args, lambda p: print(_poincare_text(p["coefficients"])))
    return 0


def cmd_forests_bijection(parser, args):
    _check_mdn(parser, args)
    _check_words(parser, args)
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

    def render(payload):
        for row in payload:
            print(
                _forest_text(row["forest"]),
                "->",
                "".join(map(str, row["jtuple"])),
                "->",
                "".join(map(str, row["btuple"])),
            )

    _emit(rows, args, render)
    return 0


# ---------------------------------------------------------------------------
# coha


def cmd_coha_mul(parser, args):
    if args.m < 0:
        parser.error("--m must be >= 0")
    if args.left_arity < 0:
        parser.error("--left-arity must be >= 0")
    if args.right_arity < 0:
        parser.error("--right-arity must be >= 0")
    try:
        left = CohaElement(args.left_arity, poly_from_text(args.left, nvars=args.left_arity))
        right = CohaElement(args.right_arity, poly_from_text(args.right, nvars=args.right_arity))
    except ValueError as exc:
        parser.error(str(exc))
    product = coha_mul(left, right, args.m)
    _emit(
        product.to_json(),
        args,
        lambda p: print(f"d={p['d']}:", poly_to_text(product.poly)),
    )
    return 0


def cmd_coha_psi(parser, args):
    if args.k < 0:
        parser.error("--k must be >= 0")
    element = psi(args.k)
    _emit(
        element.to_json(),
        args,
        lambda p: print(f"psi_{args.k} =", poly_to_text(element.poly)),
    )
    return 0


def cmd_coha_psi_product(parser, args):
    if args.m < 0:
        parser.error("--m must be >= 0")
    ks = args.ks
    if not ks or any(k < 0 for k in ks):
        parser.error("--ks needs a non-empty list of indices >= 0")
    element = psi_product(ks, args.m)
    label = " * ".join(f"psi_{k}" for k in ks)
    _emit(
        element.to_json(),
        args,
        lambda p: print(f"{label} =", poly_to_text(element.poly)),
    )
    return 0


def cmd_coha_forbidden(parser, args):
    if args.m < 0:
        parser.error("--m must be >= 0")
    if not 0 <= args.p < args.d:
        parser.error("need 0 <= p < d")
    poly = forbidden_polynomial(args.p, args.d, args.m)
    _emit(poly_to_json(poly), args, lambda p: print(poly_to_text(poly)))
    return 0


def cmd_coha_relations(parser, args):
    if args.m < 0:
        parser.error("--m must be >= 0")
    if args.d < 1:
        parser.error("--d must be >= 1")
    gens = kernel_generators(args.d, args.m)
    payload = [g.to_json() for g in gens]

    def render(rows):
        for g in gens:
            print(f"d={g.d}:", poly_to_text(g.poly))

    _emit(payload, args, render)
    return 0


# ---------------------------------------------------------------------------
# chow


def cmd_chow_presentation(parser, args):
    if args.m < 0 or args.d < 1:
        parser.error("need --m >= 0 and --d >= 1")
    report = presentation_report(args.m, args.d, minimal=args.minimal)
    payload = report.to_json()

    def render(p):
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

    _emit(payload, args, render)
    return 0


def cmd_chow_hilbert(parser, args):
    if args.m < 0 or args.d < 1:
        parser.error("need --m >= 0 and --d >= 1")
    max_deg = args.max_deg
    if max_deg is None:
        max_deg = max(ambient_dimension(args.m, args.d, 1), 0)
    elif max_deg < 0:
        parser.error("--max-deg must be >= 0")
    gb = kernel_ideal(args.m, args.d)
    values = gb.hilbert_function(max_deg)
    _emit(
        {"m": args.m, "d": args.d, "hilbert": values},
        args,
        lambda p: print(" ".join(map(str, p["hilbert"]))),
    )
    return 0


def cmd_chow_verify(parser, args):
    if args.m < 0 or args.d < 1:
        parser.error("need --m >= 0 and --d >= 1")
    gb = kernel_ideal(args.m, args.d)
    basis_ok = verify_chern_basis(args.m, args.d, gb)
    poincare_ok = verify_poincare_match(args.m, args.d, gb)
    payload = {"chern_basis": basis_ok, "poincare_match": poincare_ok}

    def render(p):
        for name, verdict in p.items():
            print(f"{name}: {'pass' if verdict else 'FAIL'}")

    _emit(payload, args, render)
    return 0 if basis_ok and poincare_ok else 1


def _check_trials(parser, args):
    if args.trials < 1:
        parser.error("--trials must be >= 1")


def cmd_chow_multiplicity(parser, args):
    _check_trials(parser, args)
    if args.vars < args.local:
        parser.error("--vars must be at least --local")
    try:
        polys = [poly_from_text(text, nvars=args.vars) for text in args.poly]
    except ValueError as exc:
        parser.error(str(exc))
    value = local_multiplicity(polys, trials=args.trials, seed=args.seed, local_vars=args.local)
    _emit({"multiplicity": value}, args, lambda p: print(p["multiplicity"]))
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


def cmd_paper_example(parser, args):
    _check_trials(parser, args)
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
    payload = {"checks": checks, "all_ok": all_ok}

    def render(p):
        for c in p["checks"]:
            mark = "ok " if c["ok"] else "FAIL"
            line = f"[{mark}] {c['name']}"
            if c["detail"]:
                line += f": {c['detail']}"
            print(line)
        print("all checks passed" if p["all_ok"] else "some checks FAILED")

    _emit(payload, args, render)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# parser assembly


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nchilb",
        description="Exact combinatorics and algebra of Chow rings of "
        "non-commutative Hilbert schemes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    forests = sub.add_parser("forests", help="m-ary forest combinatorics")
    fsub = forests.add_subparsers(dest="subcommand", required=True)
    for name, func, extra in (
        ("enum", cmd_forests_enum, ()),
        ("count", cmd_forests_count, ()),
        ("poincare", cmd_forests_poincare, ("by",)),
        ("bijection", cmd_forests_bijection, ()),
    ):
        p = fsub.add_parser(name, parents=[common])
        p.add_argument("--m", type=int, required=True, help="alphabet size")
        p.add_argument("--d", type=int, required=True, help="total node count")
        p.add_argument("--n", type=int, default=1, help="number of roots")
        if "by" in extra:
            p.add_argument("--by", choices=("dim", "codim"), default="dim")
        p.set_defaults(func=func, parser=p)

    coha = sub.add_parser("coha", help="shuffle-product algebra")
    csub = coha.add_subparsers(dest="subcommand", required=True)

    p = csub.add_parser("mul", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--left", required=True, help="left factor, text grammar in x-variables")
    p.add_argument("--left-arity", type=int, required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--right-arity", type=int, required=True)
    p.set_defaults(func=cmd_coha_mul, parser=p)

    p = csub.add_parser("psi", parents=[common])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_coha_psi, parser=p)

    p = csub.add_parser("psi-product", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ks", type=_int_list, required=True, help="comma-separated indices")
    p.set_defaults(func=cmd_coha_psi_product, parser=p)

    p = csub.add_parser("forbidden", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(func=cmd_coha_forbidden, parser=p)

    p = csub.add_parser("relations", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_coha_relations, parser=p)

    chow = sub.add_parser("chow", help="quotient-ring presentations")
    hsub = chow.add_subparsers(dest="subcommand", required=True)

    p = hsub.add_parser("presentation", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--minimal", action="store_true", help="also report a minimal generator subset")
    p.set_defaults(func=cmd_chow_presentation, parser=p)

    p = hsub.add_parser("hilbert", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-deg", type=int, default=None)
    p.set_defaults(func=cmd_chow_hilbert, parser=p)

    p = hsub.add_parser("verify", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_chow_verify, parser=p)

    p = hsub.add_parser("multiplicity", parents=[common])
    p.add_argument("--vars", type=int, required=True, help="total variable count")
    p.add_argument("--local", type=int, default=2, help="leading local variables")
    p.add_argument("--poly", action="append", required=True, help="repeatable polynomial input")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_chow_multiplicity, parser=p)

    p = sub.add_parser(
        "paper-example",
        parents=[common],
        help="replay the worked m=2, d=3, n=1 pipeline and verify every pinned value",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_paper_example, parser=p)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
