from __future__ import annotations

from fractions import Fraction

import pytest

from plesken_lab import (
    AlgebraElement,
    GroupMismatch,
    IndexOutOfRange,
    InvalidPrime,
    build_group,
    canonical_basis,
    enumerate_homs,
    hat,
    heisenberg_hat_closed_form,
    identity_hom,
    lie_bracket,
    lift_hom_hat,
    parse_element,
    structure_constants,
    trivial_hom,
)
from oracles import (
    bracket_expansion_check,
    center_and_derived_dims,
    cohen_taylor_dims,
    lie_map_violations,
    rank,
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


def test_dimension_formula_matches_rank_oracle(catalog):
    for spec in ("C6", "S3", "D4"):
        G = catalog[spec]
        rows = [{g: 1, G.inv[g]: -1} if g != G.inv[g] else {} for g in range(G.order)]
        assert canonical_basis(G).dimension == rank(rows)


def test_basis_positions_give_signed_hats(catalog):
    # position(g) = (k, sign) says g^ = sign * e_k; no position says g^ = 0
    for spec in ("C6", "S3", "D4", "H3"):
        G = catalog[spec]
        basis = canonical_basis(G)
        for g in range(G.order):
            pos = basis.position(g)
            if pos is None:
                assert hat(G, g).is_zero()
            else:
                k, sign = pos
                assert hat(G, g) == sign * hat(G, basis.reps[k])


def test_basis_position_reads_its_index_as_mul_does(catalog):
    # None answers "g is an involution", so an index outside the group must not get it
    basis = canonical_basis(catalog["C3"])
    assert basis.position(0) is None and basis.position(2) == (0, -1)
    for key, message in (
        (-1, "element index -1 outside group of order 3"),
        (99, "element index 99 outside group of order 3"),
        (1.5, "element index 1.5 is not an integer"),
    ):
        with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
            basis.position(key)


def test_hat_of_a_basis_rep_in_the_group_algebra(catalog):
    # e_0 sits in C[S3] as the hat of its representative
    S3 = catalog["S3"]
    e0 = hat(S3, canonical_basis(S3).reps[0])
    assert (0 * e0).is_zero()
    assert e0 == parse_element(S3, "(123) - (132)")


def test_lie_bracket_of_multiples_of_one_s3_hat_is_zero(catalog):
    S3 = catalog["S3"]
    e0 = hat(S3, canonical_basis(S3).reps[0])
    x, y = 3 * e0, Fraction(-1, 2) * e0
    assert lie_bracket(x, y).is_zero()
    assert lie_bracket(x, x).is_zero()


def test_lie_bracket_of_s4_four_cycle_hats_matches_four_hat_expansion(catalog):
    S4 = catalog["S4"]
    basis = canonical_basis(S4)
    four_cycles = [
        k for k, g in enumerate(basis.reps)
        if S4.mul(S4.mul(g, g), S4.mul(g, g)) == S4.identity and S4.mul(g, g) != S4.identity
    ]
    assert len(four_cycles) >= 2
    k, l = four_cycles[:2]
    g, h = basis.reps[k], basis.reps[l]
    assert bracket_expansion_check(S4, g, h)
    assert not lie_bracket(hat(S4, g), hat(S4, h)).is_zero()


def test_lie_bracket_of_hats_of_different_groups_raises_group_mismatch(catalog):
    x = hat(catalog["S3"], canonical_basis(catalog["S3"]).reps[0])
    y = hat(catalog["C6"], canonical_basis(catalog["C6"]).reps[0])
    with pytest.raises(GroupMismatch):
        lie_bracket(x, y)


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
    # [e_k, e_l] is the combination of basis hats read off its coefficients at the reps
    for G in catalog.values():
        basis = canonical_basis(G)
        hats = [hat(G, g) for g in basis.reps]
        zero = AlgebraElement.zero(G)
        for k in range(basis.dimension):
            for l in range(basis.dimension):
                x = lie_bracket(hats[k], hats[l])
                in_span = sum(
                    (x.coefficient(r) * e for r, e in zip(basis.reps, hats)), zero
                )
                assert x == in_span, (G, k, l)


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
    # [r_k^, r_l^] = sum_m c r_m^ in C[G], for every k < l: the table against convolve;
    # a zero bracket has no entry, and no entry holds a zero row or a zero coefficient
    for G in catalog.values():
        basis = canonical_basis(G)
        sc = structure_constants(basis)
        assert all(k < l for (k, l) in sc)
        assert all(row and all(row.values()) for row in sc.values())
        hats = [hat(G, g) for g in basis.reps]
        zero = AlgebraElement.zero(G)
        for k in range(basis.dimension):
            for l in range(k + 1, basis.dimension):
                br = lie_bracket(hats[k], hats[l])
                expected = sum((c * hats[m] for m, c in sc.get((k, l), {}).items()), zero)
                assert br == expected, (G, k, l)
                assert ((k, l) in sc) == (not br.is_zero()), (G, k, l)
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
    table = structure_constants(canonical_basis(build_group(spec)))
    assert list(table) == sorted(table)
    assert all(list(row) == sorted(row) for row in table.values())


def test_hat_lift_action_matches_pushed_hats(small_catalog):
    groups = list(small_catalog.values())
    for G in groups:
        for H in groups:
            codomain_reps = canonical_basis(H).reps
            for f in enumerate_homs(G, H):
                action = lift_hom_hat(f)
                reps = canonical_basis(G).reps
                assert len(action) == len(reps)
                for k, g in enumerate(reps):
                    pushed = hat(H, f.image[g])
                    if action[k] is None:
                        assert pushed.is_zero()
                    else:
                        m, sign = action[k]
                        assert pushed == sign * hat(H, codomain_reps[m])


@pytest.mark.parametrize("spec", ["S3", "S4", "D6", "H3", "C6", "K4", "S5", "H5"])
def test_structure_constants_give_the_cohen_taylor_dimensions(spec):
    basis = canonical_basis(build_group(spec))
    table = structure_constants(basis)
    assert center_and_derived_dims(table, basis.dimension) == cohen_taylor_dims(spec)


def test_cohen_taylor_dimensions_catch_every_one_entry_sign_flip():
    basis = canonical_basis(build_group("S4"))
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


@pytest.mark.parametrize("p", [2, 4, 9, 1, 3317044064679887385961981])
def test_closed_form_rejects_bad_primes(p):
    # the last is psi_13, a composite that passes Miller-Rabin on every prime base up to 41
    with pytest.raises(InvalidPrime):
        heisenberg_hat_closed_form(p, 0, 0, 0)
