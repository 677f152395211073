"""The whole pipeline depends only on the group: relabelled and isomorphic tables agree.

Subgroups, homs, the category, both laws, fullness, the faithfulness classes
and the structure constants are reduced to a summary with no labels in it.
A rewrite that leans on element order or table layout passes every
fixed-label test and fails here.
"""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from plesken_lab import (
    FiniteGroup,
    build_group,
    canonical_basis,
    check_full,
    check_functor_laws,
    find_faithfulness_counterexample,
    structure_constants,
    subgroup_category,
)
from oracles import direct_product_table


def invariants(G: FiniteGroup) -> dict:
    """Label-free facts about ``G``, its subgroup category and its Plesken Lie algebra."""
    category = subgroup_category(G)
    orders = [obj.order for obj in category.objects]
    table, homsets, n = category.table, category.homsets, category.sizes
    laws = check_functor_laws(category)
    classes = find_faithfulness_counterexample(category)
    # the reports have a row per table pair or triple; which subgroups share a table
    # depends on the labels, so each row is counted once per object pair it stands for
    full = {(r.source, r.target): r for r in check_full(category).pairs}
    sc = structure_constants(canonical_basis(G))
    return {
        "objects_per_order": Counter(orders),
        "homset_sizes": Counter(
            (orders[i], orders[j], len(homsets[a, b]))
            for i, a in enumerate(table)
            for j, b in enumerate(table)
        ),
        "all_hold": laws.all_hold,
        "composition_pairs": sum(r.pairs for r in laws.composition),
        "witness_pairs": sum(n[a] * n[b] * len(c) * (len(c) - 1) // 2 for a, b, c in classes),
        "morphisms_and_hat_maps": Counter(
            (full[a, b].morphisms, full[a, b].distinct_images) for a in table for b in table
        ),
        "nonzero_structure_constants": sum(map(len, sc.values())),
    }


def relabelled(G: FiniteGroup, rng: Random) -> FiniteGroup:
    """The table of ``G`` with its elements renamed by a random permutation."""
    n = G.order
    relabel = rng.sample(range(n), n)
    back = sorted(range(n), key=relabel.__getitem__)
    return FiniteGroup([[relabel[G.cayley[back[x]][back[y]]] for y in range(n)] for x in range(n)])


def group(spec: str) -> FiniteGroup:
    """A built-in group, or the product of two built-ins written ``AxB``."""
    if "x" not in spec:
        return build_group(spec)
    a, b = (build_group(s).cayley for s in spec.split("x"))
    return FiniteGroup(direct_product_table(a, b))


@pytest.mark.parametrize("spec", ["S3", "D4", "S4", "H3", "D6"])
def test_relabelled_tables_give_the_same_invariants(spec):
    G = build_group(spec)
    expected = invariants(G)
    assert expected["all_hold"]
    rng = Random(f"relabel {spec}")
    for _ in range(2):
        H = relabelled(G, rng)
        assert H.cayley != G.cayley
        assert invariants(H) == expected


@pytest.mark.parametrize("first,second", [
    ("D3", "S3"), ("D2", "K4"), ("C2xC3", "C6"), ("C2xS3", "D6"),
])
def test_isomorphic_groups_give_the_same_invariants(first, second):
    assert invariants(group(first)) == invariants(group(second))


def test_non_isomorphic_groups_of_one_order_differ():
    # the summary can tell groups apart: S3 and C6 differ in their subgroups and homs
    s3, c6 = invariants(build_group("S3")), invariants(build_group("C6"))
    assert s3["objects_per_order"] != c6["objects_per_order"]
    assert s3["homset_sizes"] != c6["homset_sizes"]
