from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from plesken_lab import (
    AlgebraElement,
    GroupHom,
    GroupMismatch,
    IndexOutOfRange,
    InvalidHom,
    ParseError,
    convolve,
    element_to_json,
    enumerate_homs,
    group_from_name,
    identity_hom,
    lie_bracket,
    lift_hom_bar,
    parse_element,
    trivial_hom,
)
from plesken_lab.algebra import I, ONE, ZERO, Scalar
from oracles import RANDOM_COEFFS, conjugacy_class_count, random_element, random_scalar, rank

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
    assert Scalar(1, 1) * Scalar(1, -1) == Scalar(2)
    assert I * I == -ONE
    assert not ZERO
    assert str(Scalar(Fraction(-3, 2))) == "-3/2"
    assert str(Scalar(0, 1)) == "i"
    assert str(Scalar(Fraction(1, 2), -2)) == "1/2-2i"
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    # each part is an int or a Fraction, and is stored as a Fraction
    for s in (Scalar(), Scalar(2, True), Scalar(Fraction(1, 2), -1), ONE + I):
        assert type(s.re) is Fraction and type(s.im) is Fraction
    with pytest.raises(TypeError, match=r"^scalar part 0\.5 is not an int or Fraction$"):
        Scalar(0.5)


def test_algebra_element_vector_arithmetic(catalog):
    C3, C6 = catalog["C3"], catalog["C6"]
    with pytest.raises(IndexOutOfRange, match="^element index 3 outside group of order 3$"):
        AlgebraElement(C3, {3: 1})
    x = AlgebraElement(C3, {0: Scalar(2, 1)})
    for op in (operator.add, operator.sub):
        with pytest.raises(GroupMismatch, match="^operands belong to different groups$"):
            op(x, AlgebraElement(C6, {0: 1}))
    zero = AlgebraElement.zero(C3)
    assert zero != AlgebraElement.zero(C6) and not zero == {}
    with pytest.raises(TypeError):
        hash(x)
    assert (x - x).is_zero() and x - x == zero
    assert -x + x == zero and x.terms() == [(0, Scalar(2, 1))]
    assert x != AlgebraElement(C3, {0: 2}) and x != AlgebraElement(C6, {0: Scalar(2, 1)})
    for k in (3, Fraction(3), Scalar(3)):
        assert k * x == x * k == AlgebraElement(C3, {0: Scalar(6, 3)})
    y = Scalar(Fraction(1, 2), -1) * x
    assert y == AlgebraElement(C3, {0: Scalar(2, Fraction(-3, 2))})


def test_algebra_element_arithmetic_refuses_other_operands(catalog):
    x = AlgebraElement(catalog["C3"], {0: 1})
    for other in (1, Scalar(1), None, {0: 1}):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(x, other)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(other, x)


def test_element_keys_must_be_integers(catalog):
    C3 = catalog["C3"]
    for key in (1.5, "1"):
        with pytest.raises(IndexOutOfRange, match=f"element index {key!r} is not an integer"):
            AlgebraElement(C3, {key: 1})
    read = AlgebraElement(C3, {True: 1}).coeffs
    assert read == {1: ONE} and type(next(iter(read))) is int


def test_element_coefficients_must_be_exact(catalog):
    C3 = catalog["C3"]
    for value in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError, match=f"coefficient {value!r} at element index 0 "):
            AlgebraElement(C3, {0: value})
    x = AlgebraElement(C3, {0: True})
    assert x.terms() == [(0, ONE)] and str(x.terms()[0][1]) == "1"


class Idx:
    """A key that is an element index only through ``__index__``, hashed apart from its int."""

    def __init__(self, i: int) -> None:
        self.i = i

    def __index__(self) -> int:
        return self.i

    def __repr__(self) -> str:
        return f"Idx({self.i})"


def _total(pairs) -> dict[int, Scalar]:
    """The coefficient map of a sum of (index, (re, im)) terms, added up in plain tuples."""
    acc: dict[int, tuple] = {}
    for k, (re, im) in pairs:
        r0, i0 = acc.get(k, (0, 0))
        acc[k] = (r0 + re, i0 + im)
    return {k: Scalar(re, im) for k, (re, im) in acc.items() if re or im}


def _times(a: tuple, b: tuple) -> tuple:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


@st.composite
def _terms(draw, order: int = 6):
    """(key, coefficient) pairs for ``AlgebraElement`` and the (index, (re, im)) terms they mean.

    Few indices and coefficients closed under negation, so indices repeat and
    sums cancel often; a key may be an ``Idx`` and a real coefficient a bare number.
    """
    given_pairs, meant = [], []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, order - 1))
        re, im = draw(st.sampled_from(RANDOM_COEFFS))
        key = Idx(k) if draw(st.booleans()) else k
        coeff = re if not im and draw(st.booleans()) else Scalar(re, im)
        given_pairs.append((key, coeff))
        meant.append((k, (re, im)))
    return given_pairs, meant


S3 = group_from_name("S3")
S3_HOMS = enumerate_homs(S3, S3) + enumerate_homs(S3, group_from_name("C2"))


@given(_terms(), _terms(), st.sampled_from(S3_HOMS))
def test_constructor_and_every_builder_add_up_their_terms(xs, ys, f):
    (x_pairs, px), (y_pairs, py) = xs, ys
    x, y = AlgebraElement(S3, x_pairs), AlgebraElement(S3, y_pairs)
    assert x.coeffs == _total(px) and y.coeffs == _total(py)
    assert all(type(k) is int and c for k, c in x.coeffs.items())
    assert (x + y).coeffs == _total(px + py)
    assert (x - y).coeffs == _total(px + [(k, (-re, -im)) for k, (re, im) in py])
    products = [(S3.cayley[i][j], _times(a, b)) for i, a in px for j, b in py]
    assert convolve(x, y).coeffs == _total(products)
    image = lift_hom_bar(f)(x)
    assert image.group == f.codomain and image.coeffs == _total((f.image[g], c) for g, c in px)


def test_repeated_indices_are_added(catalog):
    C3 = catalog["C3"]
    a = AlgebraElement.basis(C3, 1)
    assert AlgebraElement(C3, {Idx(1): 1, 1: 1}) == 2 * a
    assert AlgebraElement(C3, [(1, 1), (Idx(1), Fraction(1, 2)), (True, Scalar(0, 1))]) == (
        Scalar(Fraction(3, 2), 1) * a
    )
    assert AlgebraElement(C3, [(1, 1), (2, 3), (Idx(1), -1)]).coeffs == {2: Scalar(3)}
    assert AlgebraElement(C3, iter([(0, I), (0, -I)])).is_zero()


@pytest.mark.parametrize("build,error", [
    (lambda G: Scalar(0.5), TypeError),
    (lambda G: Scalar(1, 0.1), TypeError),
    (lambda G: Scalar("1"), TypeError),
    (lambda G: AlgebraElement(G, {0: 0.5}), TypeError),
    (lambda G: AlgebraElement(G, [(0, 1), (0, 0.5)]), TypeError),
    (lambda G: 0.5 * AlgebraElement.basis(G, 0), TypeError),
    (lambda G: AlgebraElement.basis(G, 0) * 0.5, TypeError),
    (lambda G: parse_element(G, "0.5*e"), ParseError),
], ids=[
    "Scalar(0.5)", "Scalar(1, 0.1)", "Scalar('1')", "AlgebraElement-mapping",
    "AlgebraElement-pairs", "float*x", "x*float", "parse_element",
])
def test_every_entry_point_refuses_floats(catalog, build, error):
    with pytest.raises(error):
        build(catalog["C3"])


def test_add_and_scale_examples(catalog):
    C3 = catalog["C3"]
    x = parse_element(C3, "2*e + a")
    y = parse_element(C3, "e + 3*a^2")
    assert x + AlgebraElement.zero(C3) == x
    assert parse_element(C3, "e + a") + parse_element(C3, "-e") == parse_element(C3, "a")
    assert x + y == parse_element(C3, "3*e + a + 3*a^2")
    assert (ZERO * x).is_zero()
    assert ONE * x == x
    assert Scalar(Fraction(1, 2)) * parse_element(C3, "2*e + 4*a") == parse_element(C3, "e + 2*a")


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
    for op in (operator.add, operator.sub, convolve, lie_bracket):
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
    total = Scalar(2) + Scalar(Fraction(1, 2)) - I
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
    assert x.coefficient(0) == Scalar(2)
    assert x.coefficient(1) == Scalar(Fraction(1, 2))
    assert x.coefficient(2) == -I
    assert parse_element(C3, "a - a") .is_zero()
    assert parse_element(C3, "-a") == Scalar(-1) * parse_element(C3, "a")
    assert parse_element(C3, "(-3/2)*a") == Scalar(Fraction(-3, 2)) * parse_element(C3, "a")
    assert parse_element(C3, "((1/2))*a") == parse_element(C3, "(1/2)*a")
    S4 = catalog["S4"]
    double = parse_element(S4, "(12)(34)")
    assert double.coefficient(S4.label_index["(12)(34)"]) == ONE
    S3 = catalog["S3"]
    assert parse_element(S3, "(12)*(123)") == AlgebraElement.basis(
        S3, S3.label_index["(123)"], Scalar(12)
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


def test_random_element_is_seed_deterministic(catalog):
    G = catalog["S3"]
    xs = [random_element(G, Random(42)) for _ in range(2)]
    assert xs[0] == xs[1]
    assert all(len(random_element(G, Random(s)).coeffs) <= 5 for s in range(20))


@pytest.mark.parametrize("spec,dims", [
    ("S3", (3, 3)), ("D4", (5, 3)), ("S4", (5, 19)), ("H3", (11, 16)), ("D6", (6, 6)),
])
def test_group_algebra_center_and_derived_dimensions(spec, dims):
    # the Lie algebra of C[G]: its center has dimension k(G), and [C[G], C[G]] has
    # |G| - k(G), with every bracket of two basis elements computed by lie_bracket
    G = group_from_name(spec)
    n, k = G.order, conjugacy_class_count(G)
    brackets = {}
    for g, h in itertools.product(range(n), repeat=2):
        br = lie_bracket(AlgebraElement.basis(G, g), AlgebraElement.basis(G, h))
        assert all(not c.im and c.re.denominator == 1 for c in br.coeffs.values())
        brackets[g, h] = {x: int(c.re) for x, c in br.coeffs.items()}
    adjoint = [
        {h * n + x: c for h in range(n) for x, c in brackets[g, h].items()} for g in range(n)
    ]
    assert (n - rank(adjoint), rank(brackets.values())) == (k, n - k) == dims
