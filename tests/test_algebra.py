from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plesken_lab import (
    AlgebraElement,
    GroupHom,
    GroupMismatch,
    InvalidHom,
    ParseError,
    add,
    convolve,
    element_from_json,
    element_to_json,
    enumerate_homs,
    identity_hom,
    lie_bracket,
    lift_hom_bar,
    parse_element,
    random_element,
    random_scalar,
    scale,
    trivial_hom,
)
from plesken_lab.algebra import I, ONE, ZERO, Scalar

fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=9)
scalars_st = st.builds(Scalar, fractions_st, fractions_st)


@given(scalars_st, scalars_st, scalars_st)
def test_scalar_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars_st)
def test_scalar_division_inverts_multiplication(a):
    if a:
        assert (a * a) / a == a
        assert a / a == ONE


def test_scalar_basics():
    assert Scalar.of(1, 1) * Scalar.of(1, -1) == Scalar.of(2)
    assert I * I == -ONE
    assert not ZERO
    assert str(Scalar.of(Fraction(-3, 2))) == "-3/2"
    assert str(Scalar.of(0, 1)) == "i"
    assert str(Scalar.of(Fraction(1, 2), -2)) == "1/2-2i"
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_add_and_scale_examples(catalog):
    C3 = catalog["C3"]
    x = parse_element(C3, "2*e + a")
    y = parse_element(C3, "e + 3*a^2")
    assert add(x, AlgebraElement.zero(C3)) == x
    assert add(parse_element(C3, "e + a"), parse_element(C3, "-e")) == parse_element(C3, "a")
    assert add(x, y) == parse_element(C3, "3*e + a + 3*a^2")
    assert scale(ZERO, x).is_zero()
    assert scale(ONE, x) == x
    assert scale(Scalar.of(Fraction(1, 2)), parse_element(C3, "2*e + 4*a")) == parse_element(C3, "e + 2*a")


def test_convolve_examples(catalog):
    C3, S3 = catalog["C3"], catalog["S3"]
    x = parse_element(C3, "e + a")
    y = parse_element(C3, "e + a^2")
    assert convolve(x, y) == parse_element(C3, "2*e + a + a^2")
    e = AlgebraElement.basis(S3, S3.identity)
    z = parse_element(S3, "(12) + 2*(123)")
    assert convolve(e, z) == z
    for g in range(S3.order):
        gterm = AlgebraElement.basis(S3, g)
        ginv = AlgebraElement.basis(S3, S3.inv[g])
        assert convolve(gterm, ginv) == e


def test_lie_bracket_examples(catalog):
    S3 = catalog["S3"]
    x = parse_element(S3, "(12)")
    y = parse_element(S3, "(123)")
    assert lie_bracket(x, y) == parse_element(S3, "(23) - (13)")
    assert lie_bracket(y, y).is_zero()
    for spec in ("C3", "K4"):
        G = catalog[spec]
        rng = Random(7)
        for _ in range(10):
            a, b = random_element(G, rng), random_element(G, rng)
            assert lie_bracket(a, b).is_zero()


def test_group_mismatch(catalog):
    x = AlgebraElement.basis(catalog["C3"], 1)
    y = AlgebraElement.basis(catalog["K4"], 1)
    for op in (add, convolve, lie_bracket):
        with pytest.raises(GroupMismatch):
            op(x, y)


def test_bracket_is_bilinear_and_alternating(catalog):
    rng = Random(2024)
    for G in catalog.values():
        if G.order > 8:
            continue
        for _ in range(10):
            x, y, z = (random_element(G, rng) for _ in range(3))
            a, b = random_scalar(rng), random_scalar(rng)
            assert lie_bracket(a * x + b * y, z) == a * lie_bracket(x, z) + b * lie_bracket(y, z)
            assert lie_bracket(z, a * x + b * y) == a * lie_bracket(z, x) + b * lie_bracket(z, y)
            assert lie_bracket(x, x).is_zero()


def test_jacobi_identity_small_sample(catalog):
    rng = Random(99)
    for spec in ("S3", "D4"):
        G = catalog[spec]
        for _ in range(10):
            x, y, z = (random_element(G, rng) for _ in range(3))
            total = (
                lie_bracket(x, lie_bracket(y, z))
                + lie_bracket(y, lie_bracket(z, x))
                + lie_bracket(z, lie_bracket(x, y))
            )
            assert total.is_zero()


def test_convolve_is_associative(catalog):
    rng = Random(5)
    for spec in ("S3", "H3"):
        G = catalog[spec]
        for _ in range(10):
            x, y, z = (random_element(G, rng) for _ in range(3))
            assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))


def test_bar_lift_identity_and_trivial(catalog):
    C3, K4 = catalog["C3"], catalog["K4"]
    x = parse_element(C3, "2*e + (1/2)*a - i*a^2")
    assert lift_hom_bar(identity_hom(C3))(x) == x
    collapsed = lift_hom_bar(trivial_hom(C3, K4))(x)
    total = Scalar.of(2) + Scalar.of(Fraction(1, 2)) - I
    assert collapsed == AlgebraElement.basis(K4, K4.identity, total)


def test_bar_lift_c2_to_k4(catalog):
    C2, K4 = catalog["C2"], catalog["K4"]
    f = GroupHom(C2, K4, (0, 2))
    bar = lift_hom_bar(f)
    x = parse_element(C2, "e + a")
    assert bar(x) == parse_element(K4, "e + b")
    rng = Random(11)
    for _ in range(10):
        u, v = random_element(C2, rng), random_element(C2, rng)
        assert bar(lie_bracket(u, v)).is_zero()
        assert lie_bracket(bar(u), bar(v)).is_zero()


def test_bar_lift_rejects_non_hom(catalog):
    C3 = catalog["C3"]
    with pytest.raises(InvalidHom):
        lift_hom_bar(GroupHom(C3, C3, (0, 1, 1)))


def test_bar_lift_preserves_bracket_for_all_small_homs(small_catalog):
    rng = Random(31)
    groups = list(small_catalog.values())
    for G in groups:
        for H in groups:
            for f in enumerate_homs(G, H):
                bar = lift_hom_bar(f)
                for _ in range(5):
                    x, y = random_element(G, rng), random_element(G, rng)
                    assert bar(lie_bracket(x, y)) == lie_bracket(bar(x), bar(y))


def test_bar_lift_is_functorial(catalog):
    from plesken_lab import compose_homs

    C3, C6 = catalog["C3"], catalog["C6"]
    for f1 in enumerate_homs(C3, C6):
        for f2 in enumerate_homs(C6, C3):
            composed = lift_hom_bar(compose_homs(f2, f1))
            bar1, bar2 = lift_hom_bar(f1), lift_hom_bar(f2)
            for g in range(C3.order):
                basis = AlgebraElement.basis(C3, g)
                assert composed(basis) == bar2(bar1(basis))


def test_parse_element_syntax(catalog):
    C3 = catalog["C3"]
    x = parse_element(C3, "2*e + (1/2)*a - i*a^2")
    assert x.coefficient(0) == Scalar.of(2)
    assert x.coefficient(1) == Scalar.of(Fraction(1, 2))
    assert x.coefficient(2) == -I
    assert parse_element(C3, "a - a") .is_zero()
    assert parse_element(C3, "-a") == scale(Scalar.of(-1), parse_element(C3, "a"))
    assert parse_element(C3, "(-3/2)*a") == scale(Scalar.of(Fraction(-3, 2)), parse_element(C3, "a"))
    assert parse_element(C3, "((1/2))*a") == parse_element(C3, "(1/2)*a")
    S4 = catalog["S4"]
    double = parse_element(S4, "(12)(34)")
    assert double.coefficient(S4.label_index["(12)(34)"]) == ONE
    S3 = catalog["S3"]
    assert parse_element(S3, "(12)*(123)") == AlgebraElement.basis(
        S3, S3.label_index["(123)"], Scalar.of(12)
    )


@pytest.mark.parametrize(
    "bad", ["", "q", "2*", "*a", "1//2*a", "((1/2*a", "a++a", "(1)(2)*a", "2*("]
)
def test_parse_element_errors(catalog, bad):
    with pytest.raises(ParseError):
        parse_element(catalog["C3"], bad)


def test_parse_element_error_messages(catalog):
    # a coefficient ends at the first '*' outside parentheses
    for bad, message in [
        ("(2*3)*a", "cannot parse coefficient '(2*3)'"),
        ("(1)(2)*a", "cannot parse coefficient '(1)(2)'"),
        ("2*(", "unbalanced parentheses in '2*('"),
        ("2*", "missing element label in term '2*'"),
        ("a++a", "missing term in 'a++a'"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_element(catalog["C3"], bad)
        assert str(info.value) == message


def test_element_json_round_trip(catalog):
    C3 = catalog["C3"]
    x = parse_element(C3, "2*e + (1/2)*a - i*a^2")
    payload = element_to_json(x)
    assert payload == {
        "group": "C3",
        "terms": [
            {"elem": "e", "re": "2", "im": "0"},
            {"elem": "a", "re": "1/2", "im": "0"},
            {"elem": "a^2", "re": "0", "im": "-1"},
        ],
    }
    assert element_from_json(payload) == x


def test_random_element_is_seed_deterministic(catalog):
    G = catalog["S3"]
    xs = [random_element(G, Random(42)) for _ in range(2)]
    assert xs[0] == xs[1]
    assert all(len(random_element(G, Random(s)).coeffs) <= 5 for s in range(20))
