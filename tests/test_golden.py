"""CLI stdout against stored golden outputs, byte for byte.

The files under tests/data/ were written by the CLI itself; a change that
alters any of them changes what users see and must say so.
"""

import pathlib

import pytest

from nchilb.cli import main

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = [
    (
        f"chow_presentation_minimal_m{m}_d{d}.json",
        ["chow", "presentation", "--format", "json", "--minimal", "--m", str(m), "--d", str(d)],
    )
    for m, d in [(0, 3), (1, 3), (2, 3), (2, 4), (3, 3), (4, 3)]
] + [
    (
        f"chow_presentation_m{m}_d{d}.json",
        ["chow", "presentation", "--format", "json", "--m", str(m), "--d", str(d)],
    )
    for m, d in [(2, 5), (3, 4), (4, 4), (5, 3)]
] + [
    (
        "chow_hilbert_m2_d5.json",
        ["chow", "hilbert", "--format", "json", "--m", "2", "--d", "5"],
    ),
    ("paper_example.json", ["paper-example", "--format", "json"]),
    *(
        (
            f"forests_poincare_{by}_m{m}_d{d}_n{n}.json",
            ["forests", "poincare", "--format", "json", "--by", by]
            + ["--m", str(m), "--d", str(d), "--n", str(n)],
        )
        for m, d, n in [(2, 5, 1), (3, 4, 2), (4, 5, 1)]
        for by in ("dim", "codim")
    ),
    *(
        (
            f"forests_count_m{m}_d{d}_n{n}.json",
            ["forests", "count", "--format", "json", "--m", str(m), "--d", str(d), "--n", str(n)],
        )
        for m, d, n in [(2, 5, 1), (3, 4, 2), (4, 5, 1)]
    ),
    (
        "coha_relations_m2_d4.json",
        ["coha", "relations", "--m", "2", "--d", "4", "--format", "json"],
    ),
    (
        "coha_relations_m0_d3.json",
        ["coha", "relations", "--m", "0", "--d", "3", "--format", "json"],
    ),
    *(
        (
            f"coha_forbidden_m{m}_d{d}_p{p}.json",
            ["coha", "forbidden", "--m", str(m), "--d", str(d), "--p", str(p), "--format", "json"],
        )
        for m, d, p in [(2, 4, 1), (3, 5, 2)]
    ),
    (
        "coha_psi_product_m2_ks0_1_3.json",
        ["coha", "psi-product", "--m", "2", "--ks", "0,1,3", "--format", "json"],
    ),
    (
        "coha_mul_m2_rational_left.json",
        [
            "coha", "mul", "--m", "2",
            "--left", "1/2*x1", "--left-arity", "1",
            "--right", "1*x1^2 + 1*x2^2 - 2/3*x1*x2", "--right-arity", "2",
            "--format", "json",
        ],
    ),
]


@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_stdout_equals_golden_file(capsys, name, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out.encode() == (DATA / name).read_bytes()
