from __future__ import annotations

from random import Random

import pytest

import plesken_lab.functor as functor
from plesken_lab import (
    AlgebraElement,
    SubgroupCategory,
    check_full,
    check_functor_laws,
    compose_homs,
    enumerate_homs,
    find_faithfulness_counterexample,
    group_from_name,
    identity_hom,
    lift_hom_bar,
    lift_hom_hat,
    morphism_map,
    object_map,
    parse_element,
    random_element,
    random_scalar,
    reduce,
    subgroup_category,
    trivial_hom,
)
from oracles import compose_hat_maps, composition_law_by_pairs


def test_object_map_examples(catalog):
    C3, K4 = catalog["C3"], catalog["K4"]
    e = AlgebraElement.basis(C3, C3.identity)
    assert object_map(e).is_zero()
    rng = Random(3)
    for _ in range(10):
        assert object_map(random_element(K4, rng)).is_zero()
    assert object_map(parse_element(C3, "a")) == parse_element(C3, "2*a - 2*a^2")
    assert object_map(parse_element(C3, "a"), "pairwise") == parse_element(C3, "a - a^2")


def test_object_map_literal_is_twice_pairwise(catalog):
    rng = Random(8)
    for G in catalog.values():
        if G.order > 8:
            continue
        for _ in range(10):
            x = random_element(G, rng)
            assert object_map(x) == 2 * object_map(x, "pairwise")


def test_object_map_rejects_unknown_convention(catalog):
    with pytest.raises(ValueError):
        object_map(AlgebraElement.zero(catalog["C3"]), "midpoint")


def test_object_map_is_linear_and_lands_in_span(catalog):
    rng = Random(14)
    for G in catalog.values():
        if G.order > 8:
            continue
        for _ in range(10):
            x, y = random_element(G, rng), random_element(G, rng)
            a, b = random_scalar(rng), random_scalar(rng)
            assert object_map(a * x + b * y) == a * object_map(x) + b * object_map(y)
            reduce(object_map(x))  # must not raise NotInSpan


def test_morphism_map_identity_and_trivial(catalog):
    S3 = catalog["S3"]
    assert morphism_map(lift_hom_bar(identity_hom(S3))).is_identity_map()
    assert morphism_map(lift_hom_bar(trivial_hom(S3, S3))).is_zero_map()


def test_morphism_map_respects_composition_chains(catalog):
    for G, H, K in (("C3", "C3", "C3"), ("S3", "C6", "C3"), ("C6", "S3", "S3")):
        G, H, K = catalog[G], catalog[H], catalog[K]
        for f1 in enumerate_homs(G, H):
            h1 = morphism_map(lift_hom_bar(f1))
            for f2 in enumerate_homs(H, K):
                h2 = morphism_map(lift_hom_bar(f2))
                composite = morphism_map(lift_hom_bar(compose_homs(f2, f1)))
                assert composite.action == compose_hat_maps(h1.action, h2.action)


def test_subgroup_category_invariants(catalog):
    C = subgroup_category(catalog["S3"])
    n = len(C.bases)  # S3's 6 subgroups lie on 4 tables: 1, C2 (three of them), C3, S3
    assert n == 4 and C.table == (0, 1, 1, 1, 2, 3)
    assert [b.group for b in C.bases] == [C.objects[C.table.index(a)] for a in range(n)]
    assert all(obj.cayley == C.bases[a].group.cayley for obj, a in zip(C.objects, C.table))
    for a, basis in enumerate(C.bases):
        images = [f.image for f in C.homsets[(a, a)]]
        assert identity_hom(basis.group).image in images
    assert set(C.lifts) == set(C.homsets)
    for (a, b), homset in C.homsets.items():
        assert list(C.lifts[(a, b)]) == [f.image for f in homset]
        for f in homset:
            assert C.lifts[(a, b)][f.image] == lift_hom_hat(f).action
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


def test_composition_law_matches_the_pairwise_reference(catalog):
    for spec, G in catalog.items():
        C = subgroup_category(G)
        assert list(check_functor_laws(C).composition) == composition_law_by_pairs(C), spec


def _check_against_reference(C):
    """The law report, after checking that it passes no triple the reference fails."""
    report = check_functor_laws(C)
    reference = composition_law_by_pairs(C)
    assert [r[:4] for r in report.composition] == [r[:4] for r in reference]
    assert all(ref[4] or not r.ok for r, ref in zip(report.composition, reference))
    return report


def _touching(C, a, b):
    """The (source, middle, target) object triples whose law reads the table pair (a, b)."""
    t, n = C.table, len(C.objects)
    return {
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(n)
        if (a, b) in ((t[i], t[j]), (t[j], t[k]), (t[i], t[k]))
    }


def _failing(report):
    return {(r.source, r.middle, r.target) for r in report.composition if not r.ok}


def _top_automorphism(C):
    """Index of the whole group among the objects, its table and a non-identity automorphism."""
    top = len(C.objects) - 1
    t = C.table[top]
    ident = identity_hom(C.objects[top]).image
    autos = [f for f in C.homsets[(t, t)] if len(set(f.image)) == len(ident)]
    return top, t, next(f for f in autos if f.image != ident)


def test_functor_laws_fail_when_a_composite_is_missing(catalog):
    C = subgroup_category(catalog["S3"])
    top, t, auto = _top_automorphism(C)
    homsets = dict(C.homsets)
    homsets[(t, t)] = tuple(f for f in homsets[(t, t)] if f != auto)
    report = _check_against_reference(SubgroupCategory(C.ambient, C.objects, homsets))
    assert not report.all_hold
    assert all(r.ok for r in report.identity)
    assert not next(
        r for r in report.composition if (r.source, r.middle, r.target) == (top, top, top)
    ).ok


def test_functor_laws_fail_on_a_corrupted_lift(catalog):
    C = subgroup_category(catalog["S3"])
    top, t, auto = _top_automorphism(C)
    lift = C.lifts[(t, t)][auto.image]
    flipped = tuple(None if e is None else (e[0], -e[1]) for e in lift)
    assert flipped != lift
    C.lifts[(t, t)][auto.image] = flipped
    report = _check_against_reference(C)
    assert not report.all_hold
    assert all(r.ok for r in report.identity)
    assert _failing(report) == _touching(C, t, t)

    C = subgroup_category(catalog["S3"])
    ident = identity_hom(C.objects[top]).image
    C.lifts[(t, t)][ident] = (None,) * len(C.lifts[(t, t)][ident])
    report = check_functor_laws(C)
    assert not report.identity[top].ok
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


def test_equal_table_objects_share_a_corrupted_lift(catalog):
    # S3's three C2 subgroups share one table, so every pair of them reads one homset
    C = subgroup_category(catalog["S3"])
    a, b, c = _c2_objects(C)
    t = C.table[a]
    image = C.homsets[(t, t)][0].image
    C.lifts[(t, t)][image] = (None,)  # a C2 has no basis hat: the true lift is ()
    # (a) fails every object triple that reads Hom(t, t), whichever C2s it names
    report = _check_against_reference(C)
    assert _failing(report) == _touching(C, t, t)
    assert {(a, b, c), (b, c, a), (c, c, c)} <= _failing(report)


@pytest.mark.parametrize("spec", ["C3", "C5", "C9", "C15", "H3"])
def test_odd_order_ambients_are_faithful(spec):
    # in an odd-order group only the identity is an involution, so g - g^-1 is zero only
    # for g = e and fixes g otherwise: a hat lift fixes its hom, and distinct homs differ
    G = group_from_name(spec)
    assert G.involution_count() == 1
    assert find_faithfulness_counterexample(subgroup_category(G)) == []


@pytest.mark.parametrize("spec", ["C3", "K4", "S3", "C6"])
def test_functor_is_full(catalog, spec):
    report = check_full(subgroup_category(catalog[spec]))
    assert report.all_full
    for pair in report.pairs:
        assert pair.witnessed == pair.distinct_images


def test_fullness_covers_mixed_object_pairs(catalog):
    C = subgroup_category(catalog["S3"])
    report = check_full(C)
    a3 = next(i for i, obj in enumerate(C.objects) if obj.order == 3)
    top = next(i for i, obj in enumerate(C.objects) if obj.order == 6)
    pair = next(r for r in report.pairs if (r.source, r.target) == (a3, top))
    assert pair.ok and pair.morphisms >= pair.distinct_images >= 1


def test_k4_witness_contains_identity_vs_trivial(catalog):
    C = subgroup_category(catalog["K4"])
    witnesses = find_faithfulness_counterexample(C)
    assert witnesses
    k4_index = len(C.objects) - 1
    assert C.objects[k4_index].order == 4
    assert all(b.dimension == 0 for b in C.bases)
    found = [
        w
        for w in witnesses
        if (w.source, w.target) == (k4_index, k4_index)
        and w.image_a == (0, 0, 0, 0)
        and w.image_b == (0, 1, 2, 3)
    ]
    assert len(found) == 1


def test_c3_category_is_faithful(catalog):
    assert find_faithfulness_counterexample(subgroup_category(catalog["C3"])) == []


def test_c2_category_witness_count(catalog):
    C = subgroup_category(catalog["C2"])
    witnesses = find_faithfulness_counterexample(C)
    # the only homset with more than one morphism is end(C2) with 2 maps
    assert len(witnesses) == 1
    assert witnesses[0].image_a == (0, 0) and witnesses[0].image_b == (0, 1)


def test_witnesses_are_sorted(catalog):
    witnesses = find_faithfulness_counterexample(subgroup_category(catalog["K4"]))
    keys = [(w.source, w.target, w.image_a, w.image_b) for w in witnesses]
    assert keys == sorted(keys)
    assert all(w.image_a < w.image_b for w in witnesses)
