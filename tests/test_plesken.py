from __future__ import annotations

import operator
from fractions import Fraction
from random import Random

import pytest

from plesken_lab import (
    AlgebraElement,
    BasisMismatch,
    GroupMismatch,
    IndexOutOfRange,
    InvalidPrime,
    NotInSpan,
    PleskenElement,
    bracket_expansion_check,
    canonical_basis,
    embed,
    enumerate_homs,
    group_from_name,
    hat,
    heisenberg_hat_closed_form,
    identity_hom,
    lift_hom_hat,
    parse_element,
    plesken_bracket,
    reduce,
    structure_constants,
    trivial_hom,
)
from plesken_lab.algebra import ONE, ZERO, Scalar
from oracles import (
    center_and_derived_dims,
    cohen_taylor_dims,
    exact_rank,
    lie_map_violations,
    unitriangular_inverse_by_search,
)


def test_hat_examples(catalog):
    C3, K4 = catalog["C3"], catalog["K4"]
    assert hat(C3, C3.identity).is_zero()
    for x in range(K4.order):
        assert hat(K4, x).is_zero()
    assert hat(C3, 1) == parse_element(C3, "a - a^2")
    with pytest.raises(IndexOutOfRange, match="^element index 3 outside group of order 3$"):
        hat(C3, 3)
    with pytest.raises(IndexOutOfRange, match="^element index 1.5 is not an integer$"):
        hat(C3, 1.5)


def test_canonical_basis_shapes(catalog):
    assert canonical_basis(catalog["K4"]).dimension == 0
    S3 = catalog["S3"]
    basis = canonical_basis(S3)
    assert basis.reps == (S3.label_index["(123)"],)
    S4 = catalog["S4"]
    involutions = sum(1 for x in range(S4.order) if S4.mul(x, x) == S4.identity)
    assert involutions == 10
    assert canonical_basis(S4).dimension == (S4.order - involutions) // 2 == 7


def test_element_keys_must_be_integers(catalog):
    C3 = catalog["C3"]
    basis = canonical_basis(C3)
    for key in (1.5, "1"):
        with pytest.raises(IndexOutOfRange, match=f"element index {key!r} is not an integer"):
            AlgebraElement(C3, {key: 1})
    with pytest.raises(IndexOutOfRange, match="coordinate 0.9 is not an integer"):
        PleskenElement(basis, {0.9: 1})
    read = AlgebraElement(C3, {True: 1}).coeffs
    assert read == {1: ONE} and type(next(iter(read))) is int
    assert PleskenElement(basis, {False: 1}).coords == {0: ONE}


def test_element_coefficients_must_be_exact(catalog):
    C3 = catalog["C3"]
    basis = canonical_basis(C3)
    for value in (0.1, 1.0, "1/2"):
        with pytest.raises(TypeError, match=f"coefficient {value!r} at element index 0 "):
            AlgebraElement(C3, {0: value})
        with pytest.raises(TypeError, match=f"coefficient {value!r} at coordinate 0 "):
            PleskenElement(basis, {0: value})
    for x in (AlgebraElement(C3, {0: True}), PleskenElement(basis, {0: True})):
        assert x.terms() == [(0, ONE)] and str(x.terms()[0][1]) == "1"


SPACE_OF = {AlgebraElement: lambda G: G, PleskenElement: canonical_basis}
VECTOR_ERRORS = {
    AlgebraElement: (
        3,
        "element index 3 outside group of order 3",
        GroupMismatch,
        "operands belong to different groups",
    ),
    PleskenElement: (
        1,
        "coordinate 1 outside basis of dim 1",
        BasisMismatch,
        "operands use different bases",
    ),
}


@pytest.mark.parametrize("cls", list(SPACE_OF), ids=lambda cls: cls.__name__)
def test_element_classes_share_vector_arithmetic(catalog, cls):
    C3, C6 = catalog["C3"], catalog["C6"]
    space, other_space = SPACE_OF[cls](C3), SPACE_OF[cls](C6)
    size, outside, mismatch, text = VECTOR_ERRORS[cls]
    with pytest.raises(IndexOutOfRange, match=f"^{outside}$"):
        cls(space, {size: 1})
    x = cls(space, {0: Scalar.of(2, 1)})
    for op in (operator.add, operator.sub):
        with pytest.raises(mismatch, match=f"^{text}$"):
            op(x, cls(other_space, {0: 1}))
    (foreign,) = set(SPACE_OF) - {cls}
    assert cls.zero(space) != foreign.zero(SPACE_OF[foreign](C3))
    assert not cls.zero(space) == foreign.zero(SPACE_OF[foreign](C3))
    assert x != foreign(SPACE_OF[foreign](C3), {0: Scalar.of(2, 1)})
    with pytest.raises(TypeError):
        hash(x)
    assert (x - x).is_zero() and x - x == cls.zero(space)
    assert -x + x == cls.zero(space) and x.terms() == [(0, Scalar.of(2, 1))]
    assert x != cls(space, {0: 2}) and x != cls(other_space, {0: Scalar.of(2, 1)})
    for k in (3, Fraction(3), Scalar.of(3)):
        assert k * x == x * k == cls(space, {0: Scalar.of(6, 3)})
    assert Scalar.of(Fraction(1, 2), -1) * x == cls(space, {0: Scalar.of(2, Fraction(-3, 2))})


@pytest.mark.parametrize("cls", list(SPACE_OF), ids=lambda cls: cls.__name__)
def test_element_arithmetic_refuses_other_operands(catalog, cls):
    C3 = catalog["C3"]
    x = cls(SPACE_OF[cls](C3), {0: 1})
    (foreign,) = set(SPACE_OF) - {cls}
    for other in (1, Scalar.of(1), None, foreign(SPACE_OF[foreign](C3), {0: 1})):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(x, other)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(other, x)


def test_dimension_formula_matches_rank_oracle(catalog):
    for spec in ("C6", "S3", "D4"):
        G = catalog[spec]
        rows = []
        for g in range(G.order):
            row = [Fraction(0)] * G.order
            row[g] += 1
            row[G.inv[g]] -= 1
            rows.append(row)
        assert canonical_basis(G).dimension == exact_rank(rows)


def test_reduce_and_embed_round_trip(catalog):
    for spec in ("C6", "S3", "D4", "H3"):
        G = catalog[spec]
        basis = canonical_basis(G)
        for g in range(G.order):
            pos = basis.position(g)
            got = reduce(hat(G, g), basis)
            if pos is None:
                assert got.is_zero()
            else:
                k, sign = pos
                assert got == PleskenElement.unit(basis, k, Scalar.of(sign))
        rng = Random(17)
        for _ in range(10):
            coords = {
                k: c
                for k, c in enumerate(
                    (rng.choice((ZERO, ONE, -ONE, Scalar.of(Fraction(1, 2)))))
                    for _ in range(basis.dimension)
                )
            }
            x = PleskenElement(basis, coords)
            assert reduce(embed(x), basis) == x
            y = embed(x)
            assert embed(reduce(y, basis)) == y


def test_reduce_rejects_symmetric_component(catalog):
    C3 = catalog["C3"]
    assert reduce(AlgebraElement.zero(C3)).is_zero()
    with pytest.raises(NotInSpan):
        reduce(parse_element(C3, "e + a"))


def test_embed_examples(catalog):
    S3 = catalog["S3"]
    basis = canonical_basis(S3)
    assert embed(PleskenElement.zero(basis)).is_zero()
    assert embed(PleskenElement.unit(basis, 0)) == parse_element(S3, "(123) - (132)")


def test_plesken_bracket_s3_is_zero(catalog):
    S3 = catalog["S3"]
    basis = canonical_basis(S3)
    x = PleskenElement.unit(basis, 0, Scalar.of(3))
    y = PleskenElement.unit(basis, 0, Scalar.of(Fraction(-1, 2)))
    assert plesken_bracket(x, y).is_zero()
    assert plesken_bracket(x, x).is_zero()


def test_plesken_bracket_matches_four_hat_expansion(catalog):
    S4 = catalog["S4"]
    basis = canonical_basis(S4)
    four_cycles = [
        k for k, g in enumerate(basis.reps)
        if S4.mul(S4.mul(g, g), S4.mul(g, g)) == S4.identity and S4.mul(g, g) != S4.identity
    ]
    assert len(four_cycles) >= 2
    k, l = four_cycles[:2]
    g, h = basis.reps[k], basis.reps[l]
    gi, hi = S4.inv[g], S4.inv[h]
    expansion = (
        hat(S4, S4.mul(g, h))
        - hat(S4, S4.mul(g, hi))
        - hat(S4, S4.mul(gi, h))
        + hat(S4, S4.mul(gi, hi))
    )
    got = plesken_bracket(PleskenElement.unit(basis, k), PleskenElement.unit(basis, l))
    assert got == reduce(expansion, basis)


def test_plesken_bracket_basis_mismatch(catalog):
    b1 = canonical_basis(catalog["S3"])
    b2 = canonical_basis(catalog["C6"])
    with pytest.raises(BasisMismatch):
        plesken_bracket(PleskenElement.unit(b1, 0), PleskenElement.unit(b2, 0))


def test_bracket_expansion_check_examples(catalog):
    S3 = catalog["S3"]
    g, h = S3.label_index["(12)"], S3.label_index["(123)"]
    assert bracket_expansion_check(S3, g, h)
    for x in range(S3.order):
        assert bracket_expansion_check(S3, x, x)
    K4 = catalog["K4"]
    for x in range(K4.order):
        for y in range(K4.order):
            assert bracket_expansion_check(K4, x, y)


def test_bracket_closure_never_leaves_span(catalog):
    for G in catalog.values():
        basis = canonical_basis(G)
        for k in range(basis.dimension):
            for l in range(basis.dimension):
                plesken_bracket(
                    PleskenElement.unit(basis, k), PleskenElement.unit(basis, l)
                )  # must not raise NotInSpan


def test_structure_constants_small_cases(catalog):
    assert structure_constants(canonical_basis(catalog["K4"])) == {}
    assert structure_constants(canonical_basis(catalog["S3"])) == {}
    assert structure_constants(canonical_basis(catalog["C6"])) == {}


def _bracket_coords(sc, a, b):
    """[e_a, e_b] from the k < l table: antisymmetry gives the rest."""
    if a < b:
        return sc.get((a, b), {})
    return {m: -c for m, c in sc.get((b, a), {}).items()}


def test_structure_constants_h3_antisymmetry_and_jacobi(catalog):
    basis = canonical_basis(catalog["H3"])
    sc = structure_constants(basis)
    d = basis.dimension
    assert sc
    assert all(k < l for (k, l) in sc)
    for row in sc.values():
        assert all(isinstance(c, int) and c and 0 <= m < d for m, c in row.items())
    for k in range(d):
        for l in range(d):
            for q in range(d):
                acc: dict[int, int] = {}
                for (a, b, c) in ((k, l, q), (l, q, k), (q, k, l)):
                    for m, c1 in _bracket_coords(sc, a, b).items():
                        for r, c2 in _bracket_coords(sc, m, c).items():
                            acc[r] = acc.get(r, 0) + c1 * c2
                assert all(not v for v in acc.values())


def test_structure_constants_reproduce_brackets(catalog):
    for G in catalog.values():
        basis = canonical_basis(G)
        sc = structure_constants(basis)
        assert all(k < l for (k, l) in sc)
        d = basis.dimension
        for k in range(d):
            for l in range(k + 1, d):
                br = plesken_bracket(
                    PleskenElement.unit(basis, k), PleskenElement.unit(basis, l)
                )
                assert br == PleskenElement(basis, sc.get((k, l), {})), (G, k, l)
                assert ((k, l) in sc) == (not br.is_zero())
    assert canonical_basis(catalog["H3"]).dimension == 13
    assert canonical_basis(catalog["S4"]).dimension == 7


def test_hat_lift_identity_trivial_and_zero_target(catalog):
    S3, K4 = catalog["S3"], catalog["K4"]
    assert lift_hom_hat(identity_hom(S3)) == ((0, 1),)
    assert lift_hom_hat(trivial_hom(S3, S3)) == (None,)
    for f in enumerate_homs(S3, K4):
        assert lift_hom_hat(f) == (None,)


def test_hat_lift_preserves_brackets(catalog, small_catalog):
    # every bracket of two basis hats, for every hom of the small catalog and every
    # S4 -> S4 and H3 -> H3 hom: only these two nonabelian algebras can catch a sign error
    small = list(small_catalog.values())
    pairs = [(G, H) for G in small for H in small] + [(catalog[s],) * 2 for s in ("S4", "H3")]
    tables = {G: structure_constants(canonical_basis(G)) for G in catalog.values()}
    maps = 0
    for G, H in pairs:
        for f in enumerate_homs(G, H):
            assert lie_map_violations(lift_hom_hat(f), tables[G], tables[H]) == [], f
            maps += 1
    assert maps == 217 + 58 + 729


@pytest.mark.parametrize("spec", ["S4", "H3", "H5"])
def test_structure_constants_are_stored_in_ascending_order(spec):
    # `plesken sc` writes its rows in the table's own order: (k, l) ascending, then m
    table = structure_constants(canonical_basis(group_from_name(spec)))
    assert list(table) == sorted(table)
    assert all(list(row) == sorted(row) for row in table.values())


def test_hat_lift_action_matches_pushed_hats(small_catalog):
    groups = list(small_catalog.values())
    for G in groups:
        for H in groups:
            codomain_basis = canonical_basis(H)
            for f in enumerate_homs(G, H):
                action = lift_hom_hat(f)
                reps = canonical_basis(G).reps
                assert len(action) == len(reps)
                for k, g in enumerate(reps):
                    pushed = reduce(hat(H, f.image[g]), codomain_basis)
                    if pushed.is_zero():
                        assert action[k] is None
                    else:
                        m, sign = action[k]
                        unit = PleskenElement.unit(codomain_basis, m, Scalar.of(sign))
                        assert pushed == unit


@pytest.mark.parametrize("spec", ["S3", "S4", "D6", "H3", "C6", "K4"])
def test_structure_constants_give_the_cohen_taylor_dimensions(spec):
    # S5 (3.8 s) and H5 (11.9 s) wait for a faster exact elimination than exact_rank
    basis = canonical_basis(group_from_name(spec))
    table = structure_constants(basis)
    assert center_and_derived_dims(table, basis.dimension) == cohen_taylor_dims(spec)


def test_cohen_taylor_dimensions_catch_every_one_entry_sign_flip():
    basis = canonical_basis(group_from_name("S4"))
    table = structure_constants(basis)
    predicted = cohen_taylor_dims("S4")
    flips = 0
    for kl, row in table.items():
        for m in row:
            flipped = {**table, kl: {**row, m: -row[m]}}
            assert center_and_derived_dims(flipped, basis.dimension) != predicted, (kl, m)
            flips += 1
    assert flips == 48


def test_closed_form_examples():
    assert heisenberg_hat_closed_form(3, 0, 0, 0) == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert heisenberg_hat_closed_form(5, 1, 0, 1) == [[0, 2, 4], [0, 0, 2], [0, 0, 0]]
    assert heisenberg_hat_closed_form(3, 1, 1, 1) == [[0, 2, 1], [0, 0, 2], [0, 0, 0]]


def test_closed_form_against_search_oracle():
    for p in (3, 5, 7, 11):
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    a2, b2, c2 = unitriangular_inverse_by_search(p, a, b, c)
                    expected = [
                        [0, (a - a2) % p, (b - b2) % p],
                        [0, 0, (c - c2) % p],
                        [0, 0, 0],
                    ]
                    assert heisenberg_hat_closed_form(p, a, b, c) == expected


@pytest.mark.parametrize("entry", [0.5, 1.0, "1", None])
def test_closed_form_refuses_non_integer_entries(entry):
    # the closed form promises exact integers: a float p or entry would give float entries
    for args in ((entry, 0, 0, 0), (3, entry, 0, 0), (3, 0, entry, 0), (3, 0, 0, entry)):
        with pytest.raises(TypeError):
            heisenberg_hat_closed_form(*args)


@pytest.mark.parametrize("p", [2, 4, 9, 1])
def test_closed_form_rejects_bad_primes(p):
    with pytest.raises(InvalidPrime):
        heisenberg_hat_closed_form(p, 0, 0, 0)
