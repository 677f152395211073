from __future__ import annotations

import itertools
import subprocess
import sys
import tracemalloc
from random import Random

import pytest

import plesken_lab.groups as groups
from plesken_lab import (
    AlgebraElement,
    BarLift,
    DomainMismatch,
    FiniteGroup,
    GroupHom,
    GroupSpec,
    IndexOutOfRange,
    InvalidHom,
    InvalidSpec,
    ParseError,
    Scalar,
    SearchTooLarge,
    canonical_basis,
    compose_homs,
    enumerate_homs,
    enumerate_subgroups,
    group_from_name,
    identity_hom,
    lift_hom_hat,
    trivial_hom,
    validate_hom,
)
from conftest import CHILD_ENV
from oracles import (
    all_hom_tables, all_subgroup_sets, compose_permutations, direct_product_table,
    greedy_generators, hom_from_generator_images, is_group_table,
)
from test_invariance import relabelled


def assert_group_axioms(G: FiniteGroup) -> None:
    """Re-check every axiom with plain loops, independent of construction."""
    n, e = G.order, G.identity
    for x in range(n):
        assert G.cayley[e][x] == x and G.cayley[x][e] == x
        assert G.cayley[x][G.inv[x]] == e == G.cayley[G.inv[x]][x]
        assert sorted(G.cayley[x]) == list(range(n))
        assert sorted(row[x] for row in G.cayley) == list(range(n))
    for x in range(n):
        for y in range(n):
            row_xy = G.cayley[G.cayley[x][y]]
            row_x = G.cayley[x]
            row_y = G.cayley[y]
            for z in range(n):
                assert row_xy[z] == row_x[row_y[z]]


def test_catalog_groups_satisfy_axioms(catalog):
    for G in catalog.values():
        assert_group_axioms(G)


def test_spec_parsing_round_trip():
    for text, canonical in [
        ("c3", "C3"), ("S4", "S4"), ("d4", "D4"), ("k4", "K4"), ("h3", "H3")
    ]:
        spec = GroupSpec.parse(text)
        assert str(spec) == canonical


@pytest.mark.parametrize("bad", ["", "Q8", "C", "K5", "3C", "S-1"])
def test_spec_parse_errors(bad):
    with pytest.raises(ParseError):
        GroupSpec.parse(bad)


def test_spec_parameter_too_long_for_int_is_a_parse_error():
    # int() refuses more than sys.get_int_max_str_digits() digits (4300 by default)
    with pytest.raises(ParseError, match="^cannot parse group spec 'C9999"):
        GroupSpec.parse("C" + "9" * 5000)


def _trial_division_is_odd_prime(p: int) -> bool:
    return p > 2 and p % 2 == 1 and all(p % d for d in range(3, int(p**0.5) + 1, 2))


def test_odd_prime_test_agrees_with_trial_division():
    assert [p for p in range(10**5) if groups._is_odd_prime(p)] == [
        p for p in range(10**5) if _trial_division_is_odd_prime(p)
    ]


@pytest.mark.parametrize("n", [
    561,  # Carmichael
    3057601,  # Carmichael, 43 * 211 * 337: no base divides it, and 2**(n-1) == 1 mod n
    3215031751,  # strong pseudoprime to the bases 2, 3, 5 and 7
    3825123056546413051,  # ... to every prime base up to 23
    318665857834031151167461,  # ... to every prime base up to 37
])
def test_odd_prime_test_rejects_strong_pseudoprimes(n):
    assert not groups._is_odd_prime(n)


@pytest.mark.parametrize("p", [2**61 - 1, 2**89 - 1, 2**127 - 1])
def test_odd_prime_test_accepts_large_primes(p):
    assert groups._is_odd_prime(p)


@pytest.mark.parametrize("kind,param", [
    ("heisenberg", 2), ("heisenberg", 4), ("heisenberg", 9),
    ("cyclic", 0), ("dihedral", 0), ("symmetric", 0),
    ("cyclic", 3.0), ("cyclic", "3"), ("symmetric", None), ("heisenberg", False),
    # more digits than str() writes, so the spec could not be shown or parsed back
    *(pytest.param(kind, 10**5000, id=f"{kind}-10^5000")
      for kind in ("cyclic", "symmetric", "dihedral", "heisenberg")),
])
def test_invalid_spec_parameters(kind, param):
    with pytest.raises(InvalidSpec):
        GroupSpec(kind, param)


def test_spec_refusals_name_their_fault():
    with pytest.raises(InvalidSpec, match="^klein4 takes no parameter$"):
        GroupSpec("klein4", 3)
    with pytest.raises(InvalidSpec, match="^unknown group kind 'quaternion'$"):
        GroupSpec("quaternion", 2)


@pytest.mark.parametrize("kind,param", [
    ("cyclic", 6), ("symmetric", 4), ("dihedral", 5), ("heisenberg", 3), ("klein4", None),
    ("cyclic", True),  # read as 1, the way the library reads every index: prints C1
    ("heisenberg", 1001),  # 7 * 11 * 13, above the order limit: build_group refuses it
])
def test_spec_str_round_trips(kind, param):
    spec = GroupSpec(kind, param)
    assert GroupSpec.parse(str(spec)) == spec
    assert spec.param is None or type(spec.param) is int


def test_cyclic3_structure(catalog):
    C3 = catalog["C3"]
    assert C3.order == 3
    assert C3.inv == (0, 2, 1)
    assert C3.mul(1, 2) == 0


def test_klein4_is_elementary_abelian(catalog):
    K4 = catalog["K4"]
    assert K4.order == 4
    for x in range(4):
        assert K4.inv[x] == x
        assert K4.mul(x, x) == K4.identity
    assert K4.involution_count() == 4


def test_heisenberg_order_is_p_cubed():
    H3 = group_from_name("H3")
    assert H3.order == 27
    assert len(set(itertools.product(range(3), repeat=3))) == 27
    assert H3.labels[H3.identity] == "(0,0,0)"


def test_symmetric_group_composition_matches_permutation_oracle():
    for n in range(1, 6):
        Sn = group_from_name(f"S{n}")
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        assert Sn.cayley == tuple(
            tuple(index[compose_permutations(px, py)] for py in perms) for px in perms
        ), n
        assert Sn.labels == tuple(groups._cycle_label(p) for p in perms), n
    S3 = group_from_name("S3")
    # (12) after (123) is (23)
    twelve = S3.label_index["(12)"]
    cycle = S3.label_index["(123)"]
    assert S3.mul(twelve, cycle) == S3.label_index["(23)"]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_table_matches_matrix_product_formula(p):
    Hp = group_from_name(f"H{p}")
    triples = list(itertools.product(range(p), repeat=3))
    index = {t: i for i, t in enumerate(triples)}
    assert Hp.cayley == tuple(
        tuple(
            index[(a1 + a2) % p, (b1 + b2 + a1 * c2) % p, (c1 + c2) % p]
            for a2, b2, c2 in triples
        )
        for a1, b1, c1 in triples
    )
    assert Hp.labels == tuple(f"({a},{b},{c})" for a, b, c in triples)


@pytest.mark.parametrize("n", range(1, 13))
def test_dihedral_table_matches_reflection_rotation_formula(n):
    # s^f1 r^k1 * s^f2 r^k2 = s^(f1+f2) r^((-1)^f2 k1 + k2), from s r s = r^-1
    Dn = group_from_name(f"D{n}")
    elements = [(f, k) for f in range(2) for k in range(n)]
    index = {x: i for i, x in enumerate(elements)}
    assert Dn.cayley == tuple(
        tuple(index[(f1 + f2) % 2, ((-1) ** f2 * k1 + k2) % n] for f2, k2 in elements)
        for f1, k1 in elements
    )
    rotations = ["e", "r", *(f"r^{k}" for k in range(2, n))][:n]
    assert Dn.labels == (*rotations, "s", *("s" + rot for rot in rotations[1:]))


def test_table_entries_share_one_int_per_value():
    C600 = group_from_name("C600")
    assert len({id(v) for row in C600.cayley for v in row}) == 600


def test_heisenberg_inverse_by_matrix_formula():
    H5 = group_from_name("H5")
    x = H5.label_index["(1,0,1)"]
    assert H5.labels[H5.inv[x]] == "(4,1,4)"


def test_inverse_is_involution(catalog):
    for G in catalog.values():
        assert G.inv[G.identity] == G.identity
        for x in range(G.order):
            assert G.inv[G.inv[x]] == x


def test_mul_and_inverse_bounds(catalog):
    C3 = catalog["C3"]
    with pytest.raises(IndexOutOfRange, match="^element index 3 outside group of order 3$"):
        C3.mul(0, 3)
    with pytest.raises(IndexOutOfRange, match="^element index -1 outside group of order 3$"):
        C3.inverse(-1)
    # the wording AlgebraElement uses for the same index, not a TypeError from tuple indexing
    for call, key in (
        (lambda: C3.mul(1.5, 0), 1.5),
        (lambda: C3.mul(0, "1"), "1"),
        (lambda: C3.inverse(1.5), 1.5),
    ):
        with pytest.raises(IndexOutOfRange, match=f"^element index {key!r} is not an integer$"):
            call()


def test_hom_call_reads_its_index_as_mul_does(catalog):
    C3, K4 = catalog["C3"], catalog["K4"]
    f = GroupHom(K4, C3, (0, 0, 0, 0))
    assert identity_hom(C3)(2) == 2 and f(3) == 0 and identity_hom(C3)(True) == 1
    for hom, key, message in (
        (identity_hom(C3), -1, "element index -1 outside group of order 3"),
        (identity_hom(C3), 3, "element index 3 outside group of order 3"),
        (f, 4, "element index 4 outside group of order 4"),
        (f, 1.5, "element index 1.5 is not an integer"),
    ):
        with pytest.raises(IndexOutOfRange, match=f"^{message}$"):
            hom(key)


def test_validate_hom(catalog):
    C3, K4 = catalog["C3"], catalog["K4"]
    assert validate_hom(identity_hom(C3))
    assert validate_hom(trivial_hom(K4, C3))
    with pytest.raises(InvalidHom, match="image table is not a group homomorphism"):
        GroupHom(C3, C3, (0, 1, 1))


@pytest.mark.parametrize("dom,cod", [
    ("C1", "C3"), ("C3", "C3"), ("C2", "S3"), ("S3", "C3"), ("S3", "C2"), ("K4", "C6"),
    ("C6", "K4"), ("D4", "C2"), ("K4", "K4"), ("S3", "S3"),
])
def test_validate_hom_agrees_with_every_pair_check(catalog, small_catalog, dom, cod):
    G = catalog[dom] if dom in catalog else group_from_name(dom)
    H = catalog[cod]
    homs = set(all_hom_tables(G, H))
    for image in itertools.product(range(H.order), repeat=G.order):
        if image in homs:
            assert validate_hom(GroupHom(G, H, image)), image
        else:
            with pytest.raises(InvalidHom, match="not a group homomorphism"):
                GroupHom(G, H, image)
    # the homs the library builds unchecked are homs too
    built = [*enumerate_homs(G, H), trivial_hom(G, H)]
    if G == H:
        built.append(identity_hom(G))
    for K in small_catalog.values():
        built += [
            compose_homs(f2, f1) for f1 in enumerate_homs(G, K) for f2 in enumerate_homs(K, H)
        ]
    assert {f.image for f in built} <= homs


@pytest.mark.parametrize("dom,cod", [("C3", "C3"), ("S3", "S3"), ("K4", "C6"), ("D4", "C2")])
def test_hom_oracle_is_the_scan_of_every_map(catalog, dom, cod):
    # the oracle drops a partial map only when a product among its elements already breaks
    G, H = catalog[dom], catalog[cod]
    r = range(G.order)
    scan = [
        image for image in itertools.product(range(H.order), repeat=G.order)
        if all(image[G.cayley[x][y]] == H.cayley[image[x]][image[y]] for x in r for y in r)
    ]
    assert all_hom_tables(G, H) == scan


@pytest.mark.parametrize("dom,cod", [
    ("C3", "C3"), ("S3", "S3"), ("K4", "C6"), ("D4", "C2"), ("S3", "K4"), ("C6", "S3"),
])
def test_generator_image_oracle_rebuilds_each_hom_and_no_other_map(catalog, dom, cod):
    # every choice of generator images gives the one hom that sends the generators there,
    # or None when there is none
    G, H = catalog[dom], catalog[cod]
    gens = greedy_generators(G.cayley)
    homs = {tuple(image[g] for g in gens): image for image in all_hom_tables(G, H)}
    for images in itertools.product(range(H.order), repeat=len(gens)):
        assert hom_from_generator_images(G.cayley, H.cayley, gens, images) == homs.get(images)
    # a set that does not generate G fixes no hom, even with the images of a hom
    images = next(iter(homs))
    assert hom_from_generator_images(G.cayley, H.cayley, gens[:-1], images[:-1]) is None


def test_group_hom_refuses_a_map_that_agrees_on_the_generators(catalog):
    S3 = catalog["S3"]
    ident = identity_hom(S3).image
    auto = next(f for f in enumerate_homs(S3, S3) if len(set(f.image)) == 6 and f.image != ident)
    x = next(x for x in range(S3.order) if x not in S3.generators and x != S3.identity)
    image = list(auto.image)
    image[x] = (image[x] + 1) % S3.order
    assert all(image[g] == auto.image[g] for g in S3.generators)
    with pytest.raises(InvalidHom, match="not a group homomorphism"):
        GroupHom(S3, S3, image)
    # the trivial group has no generators: a map of it must still send e to e
    C1 = group_from_name("C1")
    assert not C1.generators
    with pytest.raises(InvalidHom, match="not a group homomorphism"):
        GroupHom(C1, S3, ((S3.identity + 1) % S3.order,))


@pytest.mark.parametrize("dom,cod,count", [
    ("C3", "C3", 3),
    ("K4", "C3", 1),
    ("C2", "K4", 4),
])
def test_enumerate_homs_counts(catalog, dom, cod, count):
    homs = enumerate_homs(catalog[dom], catalog[cod])
    assert len(homs) == count
    assert all(validate_hom(f) for f in homs)
    images = [f.image for f in homs]
    assert images == sorted(images)


def _orders_by_powers(G: FiniteGroup) -> list[int]:
    orders = []
    for x in range(G.order):
        k, y = 1, x
        while y != G.identity:
            k, y = k + 1, G.cayley[y][x]
        orders.append(k)
    return orders


@pytest.mark.parametrize("spec", ["C1", "C12", "K4", "S3", "D4", "D6", "S4", "H3"])
def test_element_orders_match_repeated_multiplication(spec):
    G = group_from_name(spec)
    assert groups._element_orders(G) == _orders_by_powers(G)


# pairs where some image of a generator is skipped: its order does not divide the generator's
PRUNED_PAIRS = {
    ("K4", "C3"), ("S3", "S3"), ("S3", "C6"), ("C2", "S3"), ("C3", "S3"), ("K4", "S3"),
    ("D4", "C4"), ("S3", "D4"), ("C4", "C6"),
}


@pytest.mark.parametrize("dom,cod", [
    ("C3", "C3"), ("K4", "C3"), ("C2", "K4"), ("S3", "S3"), ("C6", "C6"),
    ("S3", "C6"), ("C6", "S3"), ("D4", "K4"),
    ("C2", "S3"), ("C3", "S3"), ("K4", "S3"), ("C4", "D4"), ("D4", "C4"), ("S3", "D4"),
    ("C4", "C6"), ("C1", "S3"), ("S3", "C1"),
])
def test_enumerate_homs_exhaustive_against_map_search(catalog, dom, cod):
    G, H = (catalog.get(spec) or group_from_name(spec) for spec in (dom, cod))
    orders_G, orders_H = _orders_by_powers(G), _orders_by_powers(H)
    pruned = any(orders_G[g] % orders_H[h] for g in G.generators for h in range(H.order))
    assert pruned == ((dom, cod) in PRUNED_PAIRS)
    found = {f.image for f in enumerate_homs(G, H)}
    assert found == set(all_hom_tables(G, H))


# (tuples left by the order check, tuples the generator-pair check skips)
PAIR_PRUNED = {
    ("K4", "S3"): (16, 6), ("K4", "D4"): (36, 8), ("S3", "S3"): (12, 2),
    ("S3", "C6"): (6, 4), ("D4", "C4"): (8, 4),
}


def _count_hom_checks(monkeypatch) -> list[int]:
    calls = [0]
    is_hom = groups._is_hom

    def counted(*args):
        calls[0] += 1
        return is_hom(*args)

    monkeypatch.setattr(groups, "_is_hom", counted)
    return calls


@pytest.mark.parametrize("dom,cod", sorted(PAIR_PRUNED))
def test_generator_pair_check_skips_tuples_and_keeps_every_hom(catalog, monkeypatch, dom, cod):
    G, H = (catalog.get(spec) or group_from_name(spec) for spec in (dom, cod))
    calls = _count_hom_checks(monkeypatch)
    found = {f.image for f in enumerate_homs(G, H)}
    assert found == set(all_hom_tables(G, H))
    tried, skipped = PAIR_PRUNED[dom, cod]
    assert calls[0] == tried - skipped


def test_generator_pair_check_bounds_the_s5_search(monkeypatch):
    # the order check alone leaves 1,716 tuples to fill and check
    S5 = group_from_name("S5")
    calls = _count_hom_checks(monkeypatch)
    assert len(enumerate_homs(S5, S5)) == 146
    assert calls[0] <= 386


def test_s5_endomorphism_count():
    # 1 trivial, 25 through the sign map onto the 25 involutions, 120 automorphisms
    S5 = group_from_name("S5")
    homs = enumerate_homs(S5, S5)
    assert len(homs) == 146
    assert sum(len(set(f.image)) == 2 for f in homs) == 25
    assert sum(len(set(f.image)) == 120 for f in homs) == 120


@pytest.mark.parametrize("spec,gens", [
    ("S4", [9, 1]), ("S5", [27, 6]), ("S6", [27, 126]), ("H7", [1, 49]),
])
def test_stored_generating_sets(spec, gens):
    # the greedy choice fixes the HOM_SEARCH_LIMIT outcome of every hom search
    assert list(group_from_name(spec).generators) == gens


GENERATOR_SPECS = (
    "C2", "C3", "C6", "C12", "K4", "S3", "D4", "D6", "D32", "S4", "S5", "S6", "H3", "H5", "H7",
)


@pytest.mark.parametrize("spec", GENERATOR_SPECS)
def test_generating_set_matches_the_unpruned_greedy_reference(spec):
    G = group_from_name(spec)
    assert list(G.generators) == greedy_generators(G.cayley)


@pytest.mark.parametrize("spec", ["S4", "D6", "H3", "C12", "S3"])
def test_generating_set_matches_the_reference_on_relabelled_tables_and_subgroups(spec):
    G = group_from_name(spec)
    n, rng = G.order, Random(f"generators {spec}")
    tables = []
    for _ in range(5):
        relabel = rng.sample(range(n), n)
        back = sorted(range(n), key=relabel.__getitem__)
        tables.append([[relabel[G.cayley[back[x]][back[y]]] for y in range(n)] for x in range(n)])
    for H in [FiniteGroup(t) for t in tables] + enumerate_subgroups(G):
        assert list(H.generators) == greedy_generators(H.cayley), H


@pytest.mark.parametrize("spec,closures", [("S6", 312), ("H7", 59), ("S5", 58)])
def test_generating_set_skips_elements_inside_a_closure_already_tried(monkeypatch, spec, closures):
    # the unpruned greedy search computes 840, 385 and 123 closures on these groups
    G = group_from_name(spec)
    calls = [0]
    closure = groups.closure

    def counted(*args):
        calls[0] += 1
        return closure(*args)

    monkeypatch.setattr(groups, "closure", counted)
    assert list(groups.generating_set(G)) == list(G.generators)
    assert calls[0] == closures


def test_hom_search_guard(catalog, monkeypatch):
    # K4's two generators have order 2: 4 candidate images each in S3, not |S3| = 6, and
    # each of the 16 choices fills a table of |K4| = 4 entries
    monkeypatch.setattr(groups, "HOM_SEARCH_LIMIT", 63)
    # the message names both groups: inside a functor category that is the table pair
    pattern = (
        r"^hom search FiniteGroup\(K4\) -> FiniteGroup\(S3\) fills 64 table entries "
        r"\(4 \* 4 candidate images, 4 entries each\), above the limit 63$"
    )
    with pytest.raises(SearchTooLarge, match=pattern):
        enumerate_homs(catalog["K4"], catalog["S3"])
    monkeypatch.setattr(groups, "HOM_SEARCH_LIMIT", 64)
    assert len(enumerate_homs(catalog["K4"], catalog["S3"])) == 10


@pytest.mark.parametrize("spec,entries", [
    ("D500", 1000 * 502 * 1000), ("H11", 1331**3), ("D1024", 2048 * 1026 * 2048),
])
def test_hom_search_guard_counts_table_entries_not_choices(monkeypatch, spec, entries):
    # each has fewer than 10**7 choices of generator images, so a guard on choices admits it
    G = group_from_name(spec)
    assert entries // G.order < 10**7 < groups.HOM_SEARCH_LIMIT < entries
    monkeypatch.setattr(groups, "_is_hom", None)  # a search past the guard fails at once
    with pytest.raises(SearchTooLarge, match=f" fills {entries} table entries "):
        enumerate_homs(G, G)


def test_compose_homs(catalog):
    C3 = catalog["C3"]
    ident = identity_hom(C3)
    triv = trivial_hom(C3, C3)
    inversion = GroupHom(C3, C3, (0, 2, 1))
    some = enumerate_homs(C3, C3)[-1]
    assert compose_homs(ident, some).image == some.image
    assert compose_homs(triv, some).image == triv.image
    assert compose_homs(inversion, inversion).image == ident.image
    with pytest.raises(DomainMismatch):
        compose_homs(trivial_hom(catalog["K4"], C3), ident)


@pytest.mark.parametrize("spec,orders", [
    ("C3", [1, 3]),
    ("K4", [1, 2, 2, 2, 4]),
    ("S3", [1, 2, 2, 2, 3, 6]),
])
def test_enumerate_subgroups_counts(catalog, spec, orders):
    subs = enumerate_subgroups(catalog[spec])
    assert [s.order for s in subs] == orders


def test_subgroups_are_closed_and_embedded(catalog):
    for spec in ("C6", "S3", "D4"):
        G = catalog[spec]
        for S in enumerate_subgroups(G):
            assert_group_axioms(S)
            emb = S.embedding
            assert emb[S.identity] == G.identity
            for x in range(S.order):
                for y in range(S.order):
                    assert emb[S.mul(x, y)] == G.mul(emb[x], emb[y])
                assert emb[S.inv[x]] == G.inv[emb[x]]


@pytest.mark.parametrize("spec", ["C2", "C3", "C6", "K4", "S3", "D4", "C12", "D6"])
def test_subgroups_match_full_subset_closure(spec):
    G = group_from_name(spec)
    assert G.order <= 12
    found = {frozenset(S.embedding) for S in enumerate_subgroups(G)}
    assert found == all_subgroup_sets(G)


def _product(*specs: str) -> FiniteGroup:
    tables = [group_from_name(spec).cayley for spec in specs]
    table = tables[0]
    for other in tables[1:]:
        table = direct_product_table(table, other)
    return FiniteGroup(table)


@pytest.mark.parametrize("specs,count", [
    (("C2", "C2", "C2", "C2"), 67),  # pairs of elements generate only 52 of them
    (("C2", "D4"), 35),  # pairs miss the two C2^3 subgroups
    (("C2", "C2", "C4"), 27),
])
def test_subgroups_of_products_match_full_subset_closure(specs, count):
    G = _product(*specs)
    found = [frozenset(S.embedding) for S in enumerate_subgroups(G)]
    assert len(found) == len(set(found)) == count
    assert set(found) == all_subgroup_sets(G)


def test_group_order_guard(monkeypatch):
    monkeypatch.setattr(groups, "GROUP_ORDER_LIMIT", 6)
    for spec in ("C6", "D3", "S3", "K4"):
        assert group_from_name(spec).order <= 6
    for spec, order in (("C7", "7"), ("D4", "8"), ("S4", "4!"), ("H3", "27")):
        with pytest.raises(SearchTooLarge, match=f"group {spec} has order {order},"):
            group_from_name(spec)
    # an order with more digits than str() writes is shown from its parameter
    n = 10 ** (sys.get_int_max_str_digits() - 1)  # as many digits as str() writes
    for spec, shown in (
        (GroupSpec("dihedral", 9 * n), f"2*{9 * n}"), (GroupSpec("heisenberg", n), f"{n}^3"),
    ):
        with pytest.raises(SearchTooLarge) as raised:
            groups.build_group(spec)
        assert str(raised.value) == f"group {spec} has order {shown}, above the limit 6"


def test_subgroup_order_guard():
    D33 = group_from_name("D33")
    assert D33.order == 66
    pattern = r"^subgroup enumeration of FiniteGroup\(D33\) needs order <= 64, got 66$"
    with pytest.raises(SearchTooLarge, match=pattern):
        enumerate_subgroups(D33)


def _cyclic_with_swapped_intercalate(n: int) -> list[list[int]]:
    """C_n's addition table with rows 1, n/2+1 and columns 2, n/2+2 swapped.

    Still a latin square with identity 0 and inverses, but (1*2)*1 != 1*(2*1).
    """
    h = n // 2
    t = [[(i + j) % n for j in range(n)] for i in range(n)]
    t[1][2], t[1][h + 2] = t[1][h + 2], t[1][2]
    t[h + 1][2], t[h + 1][h + 2] = t[h + 1][h + 2], t[h + 1][2]
    return t


def test_direct_table_construction_rejects_bad_tables():
    with pytest.raises(ValueError, match="^a group needs at least the identity element$"):
        FiniteGroup([])
    with pytest.raises(ValueError, match="permutation"):
        FiniteGroup([[0, 1], [1, 1]])  # repeated entry in a row
    with pytest.raises(ValueError, match="two-sided identity"):
        # latin square with a left identity only, so no two-sided identity
        FiniteGroup([[0, 1, 2], [2, 0, 1], [1, 2, 0]])
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([[0, 1, 2], [1, 2], [2, 0, 1]])  # ragged row
    with pytest.raises(ValueError, match="permutation"):
        FiniteGroup([[0, 1, 2], [1, 2, 3], [2, 0, 1]])  # entry out of range
    for bad in ([[0, 1.5], [1.5, 0]], [["0", "1"], ["1", "0"]], [[0, 1], [1, None]]):
        with pytest.raises(ValueError, match=r"row \d is not a permutation"):
            FiniteGroup(bad)  # non-integral entries; int() would have accepted the first two
    assert FiniteGroup([[0.0, 1], [True, 0]]).cayley == ((0, 1), (1, 0))  # integral values
    for n in (8, 600):  # the check must be exact at small and large orders
        t = _cyclic_with_swapped_intercalate(n)
        assert t[t[1][2]][1] != t[1][t[2][1]]
        with pytest.raises(ValueError, match=r"associativity fails.*x=1, g=1, y=1"):
            FiniteGroup(t)


def test_right_zero_table_has_no_two_sided_identity():
    # x*y = y: associative and every row a permutation, but no right identity
    with pytest.raises(ValueError, match="two-sided identity"):
        FiniteGroup([[0, 1, 2]] * 3)


def test_repeated_labels_are_refused(catalog):
    C2, C3 = catalog["C2"], catalog["C3"]
    with pytest.raises(ValueError, match="^label 'e' is at positions 0 and 1$"):
        FiniteGroup(C2.cayley, labels=["e", "e"])
    with pytest.raises(ValueError, match="^labels length does not match group order$"):
        FiniteGroup(C2.cayley, labels=["e"])
    with pytest.raises(ValueError, match="^label '1' is at positions 1 and 2$"):
        FiniteGroup(C3.cayley, labels=["0", 1, "1"])  # labels are read as text


def test_table_may_be_any_iterable_of_rows(catalog):
    C3 = catalog["C3"]
    assert FiniteGroup(iter(C3.cayley)) == C3
    assert FiniteGroup(list(row) for row in C3.cayley) == C3
    with pytest.raises(ValueError, match="square"):
        FiniteGroup(iter(C3.cayley[:2]))


def _tables_to_classify(rng: Random):
    """Every table of order <= 3, then seeded random tables of orders 4 to 8.

    The random ones are tables whose rows are permutations, tables with
    identity 0 whose other rows are permutations, and relabelled catalog groups
    with one pair of entries swapped in a row, or not.
    """
    for n in (1, 2, 3):
        for entries in itertools.product(range(n), repeat=n * n):
            yield [list(entries[i : i + n]) for i in range(0, n * n, n)]
    groups_4_to_8 = [group_from_name(s) for s in ("C4", "K4", "C5", "S3", "C6", "C7", "D4", "C8")]
    for _ in range(200):
        n = rng.randint(4, 8)
        yield [rng.sample(range(n), n) for _ in range(n)]
        rows = [list(range(n))]
        for x in range(1, n):
            rest = rng.sample([v for v in range(n) if v != x], n - 1)
            rows.append([x, *rest])
        yield rows
        G = rng.choice(groups_4_to_8)
        n = G.order
        relabel = rng.sample(range(n), n)
        back = {v: i for i, v in enumerate(relabel)}
        t = [[relabel[G.cayley[back[x]][back[y]]] for y in range(n)] for x in range(n)]
        yield [row[:] for row in t]
        x, y, z = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        t[x][y], t[x][z] = t[x][z], t[x][y]
        yield t


def test_table_check_agrees_with_brute_force_axioms():
    accepted = rejected = 0
    for t in _tables_to_classify(Random(20260412)):
        try:
            FiniteGroup(t)
        except ValueError:
            ok = False
        else:
            ok = True
        assert ok == is_group_table(t), t
        accepted += ok
        rejected += not ok
    assert accepted > 200 and rejected > 20_000


@pytest.mark.parametrize("spec", ["C512", "D256", "H7", "S6"])
def test_built_group_holds_one_table_at_peak(spec):
    group_from_name("C2")  # any one-time allocations of the first build
    tracemalloc.start()
    try:
        G = group_from_name(spec)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.order > 300
    assert peak <= 1.25 * held, (peak, held)


def test_hom_image_entries_must_be_integers(catalog):
    C2 = catalog["C2"]
    for image, entry in (((0, 1.9), 1), (("0", 1), 0), ((0, None), 1)):
        with pytest.raises(InvalidHom, match=f"image entry {entry} is"):
            GroupHom(C2, C2, image)
    assert GroupHom(C2, C2, (0, True)).image == (0, 1)


def test_hom_image_range_and_length_messages_name_the_entry(catalog):
    C2, C3 = catalog["C2"], catalog["C3"]
    for image, message in (
        ((0, 1, 4), r"image entry 2 is 4, outside 0\.\.2"),
        ((0, -1, 0), r"image entry 1 is -1, outside 0\.\.2"),
        ((0, 0), "image has 2 entries, expected 3"),
    ):
        with pytest.raises(InvalidHom, match=f"^{message}$"):
            GroupHom(C3, C3, image)
    with pytest.raises(InvalidHom, match="^image has 3 entries, expected 2$"):
        GroupHom(C2, C3, (0, 0, 0))


def test_every_subgroup_is_embedded_pairwise(catalog):
    # the embedding is set unchecked by enumerate_subgroups; this re-checks every pair of
    # elements with plain loops, not through _is_hom, on the catalog and on the relabelled
    # tables of test_invariance
    ambients = list(catalog.values())
    for spec in ("S3", "D4", "S4", "H3", "D6"):
        G, rng = group_from_name(spec), Random(f"relabel {spec}")
        ambients += [relabelled(G, rng) for _ in range(2)]
    for G in ambients:
        for S in enumerate_subgroups(G):
            e = S.embedding
            assert S.ambient is G and S.spec is None
            assert S.labels == tuple(G.labels[g] for g in e)
            assert len(set(e)) == S.order and set(e) <= set(range(G.order))
            for x in range(S.order):
                for y in range(S.order):
                    assert G.cayley[e[x]][e[y]] == e[S.cayley[x][y]], (G, S, x, y)


def test_spec_ambient_and_embedding_come_from_the_builders(catalog):
    for spec, G in catalog.items():
        assert groups.build_group(GroupSpec.parse(spec)).spec == GroupSpec.parse(spec) == G.spec
        assert G.ambient is None and G.embedding is None
    S3 = catalog["S3"]
    user = FiniteGroup(S3.cayley, S3.labels)
    assert (user.spec, user.ambient, user.embedding) == (None, None, None)
    assert repr(user) == "FiniteGroup(order-6 group)"


@pytest.mark.parametrize("keyword", ["spec", "ambient", "embedding"])
def test_constructor_takes_only_a_table_and_labels(catalog, keyword):
    S3 = catalog["S3"]
    value = {"spec": GroupSpec.parse("C5"), "ambient": S3, "embedding": tuple(range(6))}[keyword]
    with pytest.raises(TypeError, match=keyword):
        FiniteGroup(S3.cayley, S3.labels, **{keyword: value})
    with pytest.raises(TypeError):
        FiniteGroup(S3.cayley, S3.labels, value)  # S3's table can no longer be named C5


def test_value_classes_are_immutable_and_compare_by_fields(catalog):
    K4 = catalog["K4"]
    ident, triv = identity_hom(K4), trivial_hom(K4, K4)
    values = {
        GroupSpec("klein4"): "kind",
        ident: "image",
        Scalar(): "re",
        BarLift(ident): "hom",
        canonical_basis(K4): "reps",
        K4: "order",  # GroupHom's hash reads its groups' hashes
    }
    for value, field in values.items():
        before = hash(value)
        with pytest.raises(AttributeError, match=f"^cannot assign to field {field!r}$"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field {field!r}$"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None
        assert hash(value) == before
    assert K4.order == 4 and repr(K4) == "FiniteGroup(K4)"
    assert GroupSpec("cyclic", 3) == GroupSpec.parse("C3") != GroupSpec("cyclic", 4)
    assert hash(GroupSpec("cyclic", 3)) == hash(GroupSpec.parse("c3"))
    assert GroupHom(K4, K4, [0, 1, 2, 3]) == ident != triv
    assert canonical_basis(K4) == canonical_basis(K4) != canonical_basis(catalog["C3"])
    assert hash(canonical_basis(K4)) == hash(canonical_basis(K4))
    assert Scalar() == Scalar(0) != Scalar(0, 1)
    assert Scalar() != 0 and Scalar() != (0, 0)  # only a Scalar equals a Scalar
    assert BarLift(ident) == BarLift(identity_hom(K4)) != BarLift(triv)
    # K4 has no hat basis, so both hat maps are empty: equal, whatever the hom
    assert lift_hom_hat(ident) == lift_hom_hat(triv) == ()
    C3 = catalog["C3"]
    assert lift_hom_hat(identity_hom(C3)) == ((0, 1),) != lift_hom_hat(trivial_hom(C3, C3))


def test_a_group_is_its_cayley_table(catalog):
    # K4's three subgroups of order 2 are one group: labels and embeddings describe a
    # group but do not identify it, so elements of two of them add without GroupMismatch
    K4 = catalog["K4"]
    a, b, c = (S for S in enumerate_subgroups(K4) if S.order == 2)
    assert a == b == c and hash(a) == hash(b) == hash(c)
    # a group is not equal to anything but a group, and leaves the question to the other side
    C3 = catalog["C3"]
    assert C3.__eq__(3) is NotImplemented and (C3 == 3) is False
    assert [S.embedding for S in (a, b, c)] == [(0, 1), (0, 2), (0, 3)]
    assert [S.labels for S in (a, b, c)] == [("e", "a"), ("e", "b"), ("e", "c")]
    total = AlgebraElement(a, {1: 1}) + AlgebraElement(b, {1: 1})
    assert total.coeffs == {1: Scalar(2)}


def test_import_loads_no_numpy():
    code = "import sys, plesken_lab; assert 'numpy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code], check=False, env=CHILD_ENV).returncode == 0


def test_import_loads_no_dataclasses_or_inspect():
    code = (
        "import sys, plesken_lab, plesken_lab.cli; "
        "assert 'dataclasses' not in sys.modules and 'inspect' not in sys.modules"
    )
    assert subprocess.run([sys.executable, "-c", code], check=False, env=CHILD_ENV).returncode == 0
