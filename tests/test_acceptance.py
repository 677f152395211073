"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (no tolerances) and runs inside its stated time budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from random import Random

from plesken_lab import (
    canonical_basis,
    check_full,
    check_functor_laws,
    enumerate_homs,
    find_faithfulness_counterexample,
    hat,
    heisenberg_hat_closed_form,
    lie_bracket,
    lift_hom_bar,
    lift_hom_hat,
    parse_element,
    structure_constants,
    subgroup_category,
)
from conftest import CATALOG_SPECS, CHILD_ENV, SMALL_CATALOG_SPECS
from oracles import (
    bracket_expansion_check, lie_map_violations, random_element, random_scalar, rank,
    unitriangular_inverse_by_search,
)


def _run(num: int, description: str, budget_s: float, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_s
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL (time)'} - {description} ({elapsed:.2f}s / {budget_s:g}s budget)"
    print(line)
    assert ok, f"criterion {num} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


def test_criterion_1_s3_dimension_and_basis(catalog):
    def check():
        S3 = catalog["S3"]
        basis = canonical_basis(S3)
        assert basis.dimension == 1
        generator = hat(S3, basis.reps[0])
        expected = parse_element(S3, "(123) - (132)")
        assert generator == expected or generator == -expected

    _run(1, "dim of S3 hat span is 1 with basis (123)-(132) up to sign", 1.0, check)


def test_criterion_2_k4_zero_algebra_and_witness(catalog):
    def check():
        K4 = catalog["K4"]
        assert canonical_basis(K4).dimension == 0
        category = subgroup_category(K4)
        classes = find_faithfulness_counterexample(category)
        assert classes
        k4_table = category.table[-1]  # classes name tables; K4 itself is the last object
        identity_image = tuple(range(4))
        trivial_image = (0, 0, 0, 0)
        assert any(
            (c.source, c.target) == (k4_table, k4_table)
            and {trivial_image, identity_image} <= set(c.images)
            for c in classes
        )

    _run(2, "K4 hat span is {0}; identity and trivial lift share one class", 1.0, check)


def test_criterion_3_bracket_expansion_everywhere(catalog):
    def check():
        for spec in ("C3", "C6", "K4", "S3", "D4", "S4", "H3"):
            G = catalog[spec]
            for g in range(G.order):
                for h in range(G.order):
                    assert bracket_expansion_check(G, g, h), (spec, g, h)

    _run(3, "four-hat bracket expansion holds for all ordered pairs", 30.0, check)


def test_criterion_4_lie_axioms_random_sample(catalog):
    def check():
        rng = Random(20240)
        for spec in CATALOG_SPECS:
            G = catalog[spec]
            assert G.order <= 27
            for _ in range(100):
                x, y, z = (random_element(G, rng) for _ in range(3))
                a, b = random_scalar(rng), random_scalar(rng)
                jacobi = (
                    lie_bracket(x, lie_bracket(y, z))
                    + lie_bracket(y, lie_bracket(z, x))
                    + lie_bracket(z, lie_bracket(x, y))
                )
                assert jacobi.is_zero(), spec
                assert lie_bracket(a * x + b * y, z) == a * lie_bracket(x, z) + b * lie_bracket(y, z)
                assert lie_bracket(x, x).is_zero()

    _run(4, "Jacobi, bilinearity, alternation on 100 seeded triples per group", 60.0, check)


def test_criterion_5_dimension_formula_vs_rank_oracle(catalog):
    def check():
        for spec in CATALOG_SPECS:
            G = catalog[spec]
            involutions = sum(
                1 for x in range(G.order) if G.mul(x, x) == G.identity
            )
            expected = (G.order - involutions) // 2
            rows = [{g: 1, G.inv[g]: -1} if g != G.inv[g] else {} for g in range(G.order)]
            dim = canonical_basis(G).dimension
            assert dim == expected == rank(rows), spec

    _run(5, "basis size equals involution formula and exact elimination rank", 10.0, check)


def test_criterion_6_lifts_preserve_brackets(catalog):
    def check():
        rng = Random(60)
        groups = [catalog[s] for s in SMALL_CATALOG_SPECS]
        assert all(G.order <= 8 for G in groups)
        tables = {G: structure_constants(canonical_basis(G)) for G in groups}
        maps = 0
        for G in groups:
            for H in groups:
                for f in enumerate_homs(G, H):
                    bar = lift_hom_bar(f)
                    for _ in range(20):
                        x, y = random_element(G, rng), random_element(G, rng)
                        assert bar(lie_bracket(x, y)) == lie_bracket(bar(x), bar(y))
                    # the hat lift on every bracket of two basis hats, exactly
                    assert lie_map_violations(lift_hom_hat(f), tables[G], tables[H]) == [], f
                    maps += 1
        assert maps == 217
        # every small-catalog algebra is abelian, where no sign error in a hat map
        # breaks a bracket; the nonabelian S4 and H3 catch one
        for spec, count in (("S4", 58), ("H3", 729)):
            G = catalog[spec]
            table = structure_constants(canonical_basis(G))
            homs = enumerate_homs(G, G)
            assert len(homs) == count
            for f in homs:
                assert lie_map_violations(lift_hom_hat(f), table, table) == [], f

    _run(
        6,
        "bar and hat lifts preserve brackets for every small-catalog hom, "
        "hat lifts for every S4 -> S4 and H3 -> H3 hom",
        60.0,
        check,
    )


def test_criterion_7_functor_laws_and_fullness(catalog):
    def check():
        for spec in ("C6", "K4", "S3", "D4"):
            category = subgroup_category(catalog[spec])
            law_report = check_functor_laws(category)
            assert law_report.all_hold, spec
            full_report = check_full(category)
            assert full_report.all_full, spec

    _run(7, "identity/composition laws and fullness over C6, K4, S3, D4", 60.0, check)


def test_criterion_8_closed_form_full_sweep():
    def check():
        for p in (3, 5):
            for a in range(p):
                for b in range(p):
                    for c in range(p):
                        a2, b2, c2 = unitriangular_inverse_by_search(p, a, b, c)
                        direct = [
                            [0, (a - a2) % p, (b - b2) % p],
                            [0, 0, (c - c2) % p],
                            [0, 0, 0],
                        ]
                        assert heisenberg_hat_closed_form(p, a, b, c) == direct

    _run(8, "hat closed form equals direct A - A^(-1) for all 27 + 125 cases", 5.0, check)


ACCEPTANCE_COMMANDS = (
    ("group", "K4"),
    ("group", "S3"),
    ("group", "H3"),
    ("plesken", "S3", "dim"),
    ("plesken", "K4", "dim"),
    ("plesken", "H3", "dim"),
    ("plesken", "S3", "basis"),
    ("plesken", "H3", "sc"),
    ("bracket", "C3", "e+a", "e+a^2"),
    ("bracket", "S3", "(12)", "(123)"),
    ("homs", "C3", "C3"),
    ("functor", "check", "--ambient", "S3"),
    ("functor", "counterexample", "--ambient", "K4"),
    ("functor", "full", "--ambient", "C6"),
)


def test_criterion_9_cli_determinism():
    def check():
        for argv in ACCEPTANCE_COMMANDS:
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "plesken_lab", *argv],
                    capture_output=True,
                    check=False,
                    env=CHILD_ENV,
                )
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], argv
            json.loads(outputs[0])  # every acceptance command emits valid JSON

    _run(9, "every acceptance CLI command is byte-identical across runs", 120.0, check)
