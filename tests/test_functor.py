from __future__ import annotations

import json
from itertools import combinations, product
from random import Random

import pytest

import plesken_lab.functor as functor
import plesken_lab.groups as groups
from plesken_lab import (
    AlgebraElement,
    SubgroupCategory,
    canonical_basis,
    check_full,
    check_functor_laws,
    compose_homs,
    enumerate_homs,
    enumerate_subgroups,
    find_faithfulness_counterexample,
    group_from_name,
    identity_hom,
    lift_hom_bar,
    lift_hom_hat,
    morphism_map,
    object_map,
    parse_element,
    structure_constants,
    subgroup_category,
    trivial_hom,
)
from plesken_lab.cli import main
from oracles import (
    compose_hat_maps, composition_law_by_pairs, equal_lift_pairs, heisenberg_homset_size,
    heisenberg_subgroup_counts, lie_map_violations, random_element, random_scalar,
)


def test_object_map_examples(catalog):
    C3, K4 = catalog["C3"], catalog["K4"]
    e = AlgebraElement.basis(C3, C3.identity)
    assert object_map(e).is_zero()
    rng = Random(3)
    for _ in range(10):
        assert object_map(random_element(K4, rng)).is_zero()
    assert object_map(parse_element(C3, "a")) == parse_element(C3, "2*a - 2*a^2")


def test_object_map_is_linear_and_lands_in_span(catalog):
    rng = Random(14)
    for G in catalog.values():
        if G.order > 8:
            continue
        for _ in range(10):
            x, y = random_element(G, rng), random_element(G, rng)
            a, b = random_scalar(rng), random_scalar(rng)
            assert object_map(a * x + b * y) == a * object_map(x) + b * object_map(y)
            image = object_map(x)  # in the hat span: antisymmetric under g -> g^-1
            assert all(image.coefficient(G.inv[g]) == -c for g, c in image.coeffs.items())


def test_morphism_map_identity_and_trivial(catalog):
    S3 = catalog["S3"]
    assert morphism_map(lift_hom_bar(identity_hom(S3))) == ((0, 1),)
    assert morphism_map(lift_hom_bar(trivial_hom(S3, S3))) == (None,)


def test_morphism_map_respects_composition_chains(catalog):
    for G, H, K in (("C3", "C3", "C3"), ("S3", "C6", "C3"), ("C6", "S3", "S3")):
        G, H, K = catalog[G], catalog[H], catalog[K]
        for f1 in enumerate_homs(G, H):
            h1 = morphism_map(lift_hom_bar(f1))
            for f2 in enumerate_homs(H, K):
                h2 = morphism_map(lift_hom_bar(f2))
                composite = morphism_map(lift_hom_bar(compose_homs(f2, f1)))
                assert composite == compose_hat_maps(h1, h2)


@pytest.mark.parametrize("spec,distinct", [("S4", 391), ("H3", 2696)])
def test_every_distinct_lift_is_a_lie_map(catalog, spec, distinct):
    category = subgroup_category(catalog[spec])
    tables = [structure_constants(basis) for basis in category.bases]
    maps = 0
    for (a, b), lifts in category.lifts.items():
        for action in set(lifts.values()):
            assert lie_map_violations(action, tables[a], tables[b]) == [], (a, b, action)
            maps += 1
    assert maps == distinct


def _flip_first_sign(action):
    """``action`` with the sign of its first nonzero entry flipped."""
    k = next(k for k, entry in enumerate(action) if entry is not None)
    m, sign = action[k]
    return (*action[:k], (m, -sign), *action[k + 1 :])


def test_lie_map_check_catches_a_sign_flip(catalog):
    S4, H3 = catalog["S4"], catalog["H3"]
    table = structure_constants(canonical_basis(S4))
    flipped = _flip_first_sign(lift_hom_hat(identity_hom(S4)))
    assert len(lie_map_violations(flipped, table, table)) == 12
    # between abelian algebras every linear map is a Lie map, so a flip there still passes
    flipped = _flip_first_sign(lift_hom_hat(identity_hom(catalog["C6"])))
    assert lie_map_violations(flipped, {}, {}) == []
    # into an abelian target a Lie map must still kill [L, L], which a flip from H3 breaks
    table = structure_constants(canonical_basis(H3))
    onto = [lift_hom_hat(f) for f in enumerate_homs(H3, catalog["C3"]) if set(f.image) != {0}]
    assert len(onto) == 8
    for action in onto:
        assert lie_map_violations(action, table, {}) == []
        assert len(lie_map_violations(_flip_first_sign(action), table, {})) == 18


def test_subgroup_category_invariants(catalog):
    C = subgroup_category(catalog["S3"])
    n = len(C.bases)  # S3's 6 subgroups lie on 4 tables: 1, C2 (three of them), C3, S3
    assert n == 4 and C.table == (0, 1, 1, 1, 2, 3) and C.sizes == (1, 3, 1, 1)
    assert [b.group for b in C.bases] == [C.objects[C.table.index(a)] for a in range(n)]
    assert all(obj.cayley == C.bases[a].group.cayley for obj, a in zip(C.objects, C.table))
    for a, basis in enumerate(C.bases):
        images = [f.image for f in C.homsets[(a, a)]]
        assert identity_hom(basis.group).image in images
    assert set(C.lifts) == set(C.homsets)
    for (a, b), homset in C.homsets.items():
        assert list(C.lifts[(a, b)]) == [f.image for f in homset]
        for f in homset:
            assert C.lifts[(a, b)][f.image] == lift_hom_hat(f)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                available = {f.image for f in C.homsets[(a, c)]}
                for f1 in C.homsets[(a, b)]:
                    for f2 in C.homsets[(b, c)]:
                        assert compose_homs(f2, f1).image in available


@pytest.mark.parametrize("spec", ["C3", "K4", "S3", "D4", "D6", "S4", "H3"])
def test_functor_laws_hold(catalog, spec):
    G = catalog[spec] if spec in catalog else group_from_name(spec)
    report = check_functor_laws(subgroup_category(G))
    assert report.all_hold
    assert all(r.ok for r in report.identity)
    assert all(r.ok for r in report.composition)


def _object_rows(C, report):
    """(source, middle, target, pairs, ok) for every object triple, read from its table row."""
    rows = {(r.source, r.middle, r.target): r for r in report.composition}
    out = []
    for i, j, k in product(range(len(C.objects)), repeat=3):
        r = rows[C.table[i], C.table[j], C.table[k]]
        assert r.pairs % r.triples == 0
        out.append((i, j, k, r.pairs // r.triples, r.ok))
    return out


def test_composition_law_matches_the_pairwise_reference(catalog):
    rows = {}
    for spec, G in catalog.items():
        C = subgroup_category(G)
        report = check_functor_laws(C)
        tables, n = len(C.bases), len(C.objects)
        assert [r[:3] for r in report.composition] == list(product(range(tables), repeat=3))
        assert sum(r.triples for r in report.composition) == n**3, spec
        assert _object_rows(C, report) == composition_law_by_pairs(C), spec
        rows[spec] = len(report.composition)
    assert rows["S4"] == 13**3  # 30 objects on 13 tables: 2,197 rows for 27,000 triples


def _check_against_reference(C):
    """The law report, after checking that it passes no object triple the reference fails."""
    report = check_functor_laws(C)
    reference = composition_law_by_pairs(C)
    rows = _object_rows(C, report)
    assert [r[:4] for r in rows] == [r[:4] for r in reference]
    assert all(ref[4] or not r[4] for r, ref in zip(rows, reference))
    return report


def _touching(C, a, b):
    """The (source, middle, target) table triples whose law reads the table pair (a, b)."""
    return {
        (x, y, z)
        for x, y, z in product(range(len(C.bases)), repeat=3)
        if (a, b) in ((x, y), (y, z), (x, z))
    }


def _failing(report):
    return {(r.source, r.middle, r.target) for r in report.composition if not r.ok}


def _cli_failing(monkeypatch, capsys, C):
    """Exit code and failing (source, middle, target) rows of ``functor check`` on ``C``."""
    monkeypatch.setattr(functor, "subgroup_category", lambda ambient: C)
    code = main(["functor", "check", "--ambient", "S3"])
    rows = json.loads(capsys.readouterr().out)["payload"]["composition_law"]
    return code, {(r["source"], r["middle"], r["target"]) for r in rows if not r["ok"]}


def _top_automorphism(C):
    """Index of the whole group among the objects, its table and a non-identity automorphism."""
    top = len(C.objects) - 1
    t = C.table[top]
    ident = identity_hom(C.objects[top]).image
    autos = [f for f in C.homsets[(t, t)] if len(set(f.image)) == len(ident)]
    return top, t, next(f for f in autos if f.image != ident)


def test_functor_laws_fail_when_a_composite_is_missing(catalog):
    C = subgroup_category(catalog["S3"])
    _, t, auto = _top_automorphism(C)
    homsets = dict(C.homsets)
    homsets[(t, t)] = tuple(f for f in homsets[(t, t)] if f != auto)
    report = _check_against_reference(SubgroupCategory(C.ambient, C.objects, homsets))
    assert not report.all_hold
    assert all(r.ok for r in report.identity)
    assert (t, t, t) in _failing(report)


def test_functor_laws_fail_on_a_corrupted_lift(catalog, monkeypatch, capsys):
    C = subgroup_category(catalog["S3"])
    top, t, auto = _top_automorphism(C)
    lift = C.lifts[(t, t)][auto.image]
    flipped = tuple(None if e is None else (e[0], -e[1]) for e in lift)
    assert flipped != lift
    C.lifts[(t, t)][auto.image] = flipped
    report = _check_against_reference(C)
    assert not report.all_hold
    assert all(r.ok for r in report.identity)
    # the table triples that read Hom(t, t): 3·4 - 3 + 1 = 10 of S3's 4³ = 64
    assert _failing(report) == _touching(C, t, t) and len(_touching(C, t, t)) == 10
    assert _cli_failing(monkeypatch, capsys, C) == (1, _touching(C, t, t))

    C = subgroup_category(catalog["S3"])
    ident = identity_hom(C.objects[top]).image
    C.lifts[(t, t)][ident] = (None,) * len(C.lifts[(t, t)][ident])
    report = check_functor_laws(C)
    assert [r.table for r in report.identity if not r.ok] == [t]
    assert not report.all_hold


def test_homsets_match_a_search_per_pair(catalog):
    # one search per pair of distinct tables gives each object pair its own search's homset
    for spec, G in catalog.items():
        C = subgroup_category(G)
        for i, Gi in enumerate(C.objects):
            for j, Gj in enumerate(C.objects):
                homset = C.homsets[(C.table[i], C.table[j])]
                searched = enumerate_homs(Gi, Gj)
                assert [f.image for f in homset] == [f.image for f in searched], (spec, i, j)
                # the homs are shared by every object pair on these tables, so their domain
                # and codomain are the first objects on them: equal tables, not these objects
                assert all(f.domain == Gi and f.codomain == Gj for f in homset)


@pytest.mark.parametrize("spec,tables,homs", [
    ("C2", 2, 5), ("C3", 2, 6), ("C6", 4, 30), ("K4", 3, 31),
    ("S3", 4, 34), ("D4", 5, 153), ("S4", 13, 1493), ("H3", 6, 2696),
])
def test_one_homset_per_table_pair(catalog, spec, tables, homs):
    C = subgroup_category(catalog[spec])
    firsts = [C.objects[C.table.index(a)] for a in range(tables)]
    assert sorted(set(C.table)) == list(range(tables))
    assert list(C.homsets) == [(a, b) for a in range(tables) for b in range(tables)]
    for (a, b), homset in C.homsets.items():
        assert homset == tuple(enumerate_homs(firsts[a], firsts[b]))
        assert all(f.domain is firsts[a] and f.codomain is firsts[b] for f in homset)
    assert sum(map(len, C.homsets.values())) == homs


def test_hom_search_runs_once_per_table_pair(catalog, monkeypatch):
    searched = []

    def counted(G, H):
        searched.append((G.cayley, H.cayley))
        return enumerate_homs(G, H)

    monkeypatch.setattr(functor, "enumerate_homs", counted)
    C = subgroup_category(catalog["S4"])
    assert len(searched) == len(set(searched)) == len(C.homsets) == 13**2


def test_category_refuses_homsets_not_keyed_by_table_pairs(catalog):
    C = subgroup_category(catalog["S3"])
    t = C.table
    per_object_pair = {
        (i, j): C.homsets[(t[i], t[j])] for i in range(len(t)) for j in range(len(t))
    }
    missing = {ab: homset for ab, homset in C.homsets.items() if ab != (1, 2)}
    for homsets in (per_object_pair, missing):
        with pytest.raises(ValueError, match="keyed by pairs of the 4 object tables"):
            SubgroupCategory(C.ambient, C.objects, homsets)
    SubgroupCategory(C.ambient, C.objects, dict(C.homsets))  # the table pairs themselves


def _c2_objects(C):
    c2 = [i for i, obj in enumerate(C.objects) if obj.order == 2]
    assert len(c2) == 3 and len({C.objects[i].cayley for i in c2}) == 1
    return c2


def test_equal_table_objects_share_a_corrupted_lift(catalog, monkeypatch, capsys):
    # S3's three C2 subgroups share one table, so every pair of them reads one homset
    C = subgroup_category(catalog["S3"])
    a, b, c = _c2_objects(C)
    t = C.table[a]
    image = C.homsets[(t, t)][0].image
    C.lifts[(t, t)][image] = (None,)  # a C2 has no basis hat: the true lift is ()
    # (a) fails every table triple that reads Hom(t, t), and so every object triple on
    # them, whichever C2s it names
    report = _check_against_reference(C)
    assert _failing(report) == _touching(C, t, t)
    failing = {r[:3] for r in _object_rows(C, report) if not r[4]}
    assert {(a, b, c), (b, c, a), (c, c, c)} <= failing
    assert _cli_failing(monkeypatch, capsys, C) == (1, _touching(C, t, t))


@pytest.mark.parametrize("spec", ["C3", "C5", "C9", "C15", "H3"])
def test_odd_order_ambients_are_faithful(spec):
    # in an odd-order group only the identity is an involution, so g - g^-1 is zero only
    # for g = e and fixes g otherwise: a hat lift fixes its hom, and distinct homs differ
    G = group_from_name(spec)
    assert G.involution_count() == 1
    assert find_faithfulness_counterexample(subgroup_category(G)) == []


def _check_heisenberg_closed_forms(C, p):
    """The subgroups of H<p> per order, and every homset size by the orders of its two
    objects, against the closed forms in p."""
    orders = [obj.order for obj in C.objects]
    assert {n: orders.count(n) for n in set(orders)} == heisenberg_subgroup_counts(p)
    sizes = {
        (i, j): len(C.homsets[C.table[i], C.table[j]])
        for i, j in product(range(len(orders)), repeat=2)
    }
    assert sizes == {
        (i, j): heisenberg_homset_size(p, orders[i], orders[j])
        for i, j in product(range(len(orders)), repeat=2)
    }


def test_heisenberg_category_matches_the_closed_forms(catalog):
    # the paper's example at p = 3
    C = subgroup_category(catalog["H3"])
    _check_heisenberg_closed_forms(C, 3)
    assert len(C.objects) == 19


def test_heisenberg_category_at_p5_matches_the_closed_forms(monkeypatch):
    # the paper's example at p = 5: H5 has order 125, above the CLI's subgroup limit
    monkeypatch.setattr(groups, "SUBGROUP_ORDER_LIMIT", 125)
    C = subgroup_category(group_from_name("H5"))
    _check_heisenberg_closed_forms(C, 5)
    orders = [obj.order for obj in C.objects]
    assert {n: orders.count(n) for n in set(orders)} == {1: 1, 5: 31, 25: 6, 125: 1}
    assert len(C.bases) == 8
    assert sum(map(len, C.homsets.values())) == 52_920  # one homset per table pair


def test_heisenberg_closed_forms_at_p7(monkeypatch):
    # the paper's example at p = 7, without H7 itself as a source or target: Hom(H7, .)
    # adds about 1.9 s, and Hom(C7^2, H7) alone holds 18,865 homs
    monkeypatch.setattr(groups, "SUBGROUP_ORDER_LIMIT", 343)
    subgroups = enumerate_subgroups(group_from_name("H7"))
    orders = [S.order for S in subgroups]
    assert {n: orders.count(n) for n in set(orders)} == heisenberg_subgroup_counts(7) == {
        1: 1, 7: 57, 49: 8, 343: 1
    }
    tables = list({S.cayley: S for S in subgroups}.values())  # one subgroup per table
    table_orders = [S.order for S in tables]
    assert {n: table_orders.count(n) for n in set(table_orders)} == {1: 1, 7: 1, 49: 7, 343: 1}
    proper = [S for S in tables if S.order < 343]
    assert len(proper) == 9
    for A, B in product(proper, repeat=2):
        assert len(enumerate_homs(A, B)) == heisenberg_homset_size(7, A.order, B.order)


@pytest.mark.parametrize("spec", ["C3", "K4", "S3", "C6"])
def test_functor_is_full(catalog, spec):
    report = check_full(subgroup_category(catalog[spec]))
    assert report.all_full
    for pair in report.pairs:
        assert pair.witnessed == pair.distinct_images


def test_fullness_covers_mixed_object_pairs(catalog):
    C = subgroup_category(catalog["S3"])
    report = check_full(C)
    a3 = next(C.table[i] for i, obj in enumerate(C.objects) if obj.order == 3)
    top = next(C.table[i] for i, obj in enumerate(C.objects) if obj.order == 6)
    assert [(r.source, r.target) for r in report.pairs] == list(product(range(4), repeat=2))
    pair = next(r for r in report.pairs if (r.source, r.target) == (a3, top))
    assert pair.ok and pair.morphisms >= pair.distinct_images >= 1


def _pairs(classes):
    """(source, target, image_a, image_b) for every two members of each class, sorted."""
    return sorted(
        (c.source, c.target, a, b) for c in classes for a, b in combinations(c.images, 2)
    )


def test_k4_witness_contains_identity_vs_trivial(catalog):
    C = subgroup_category(catalog["K4"])
    classes = find_faithfulness_counterexample(C)
    assert classes
    k4_index = len(C.objects) - 1
    assert C.objects[k4_index].order == 4
    assert all(b.dimension == 0 for b in C.bases)
    t = C.table[k4_index]
    found = [
        c
        for c in classes
        if (c.source, c.target) == (t, t) and {(0, 0, 0, 0), (0, 1, 2, 3)} <= set(c.images)
    ]
    assert len(found) == 1
    # every hom into or out of a zero hat span lifts to the zero map: one class per homset
    assert found[0].images == tuple(sorted(f.image for f in C.homsets[(t, t)]))


def test_c3_category_is_faithful(catalog):
    assert find_faithfulness_counterexample(subgroup_category(catalog["C3"])) == []


def test_c2_category_witness_count(catalog):
    C = subgroup_category(catalog["C2"])
    classes = find_faithfulness_counterexample(C)
    # the only homset with more than one morphism is end(C2) with 2 maps: one class, one pair
    assert classes == [(1, 1, ((0, 0), (0, 1)))]
    assert _pairs(classes) == [(1, 1, (0, 0), (0, 1))]


def test_witnesses_are_sorted(catalog):
    classes = find_faithfulness_counterexample(subgroup_category(catalog["K4"]))
    keys = [(c.source, c.target, c.images) for c in classes]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert all(len(c.images) >= 2 and list(c.images) == sorted(set(c.images)) for c in classes)


@pytest.mark.parametrize("spec", ["C2", "K4", "S3", "D4", "D6"])
def test_classes_expand_to_the_equal_lift_pairs(spec):
    # each class of a table pair is a class on every object pair on those tables; two
    # members of one class are a pair the oracle finds, and every such pair is in a
    # class: a merged class adds pairs, a dropped member loses them
    G = group_from_name(spec)
    C = subgroup_category(G)
    classes = find_faithfulness_counterexample(C)
    per_objects = [
        functor.FaithfulnessClass(i, j, images)
        for i, a in enumerate(C.table)
        for j, b in enumerate(C.table)
        for s, t, images in classes
        if (s, t) == (a, b)
    ]
    assert _pairs(per_objects) == equal_lift_pairs(G)
    n = C.sizes
    assert len(equal_lift_pairs(G)) == sum(
        n[a] * n[b] * len(c) * (len(c) - 1) // 2 for a, b, c in classes
    )
