"""Mapping group-algebra Lie algebras of subgroups onto their hat-span Lie algebras.

Objects are the subgroups of an ambient group; morphisms are the linear lifts
of all group homomorphisms between them.  The checks here verify the identity
and composition laws of the object/morphism assignment, its surjectivity on
induced maps, and exhibit pairs of distinct morphisms with equal images.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import product

from .algebra import AlgebraElement, BarLift, Scalar, ZERO
from .groups import FiniteGroup, GroupHom, enumerate_homs, enumerate_subgroups, identity_hom
from .groups import CONVENTIONS
from .plesken import HatLift, HatMap, PleskenBasis, canonical_basis, hat_map, lift_hom_hat


def object_map(x: AlgebraElement, convention: str = "literal") -> AlgebraElement:
    """Antisymmetrize x into the hat span.

    ``literal`` sums (a_g - a_{g^{-1}})(g - g^{-1}) over every group element,
    so each non-involution pair contributes twice; ``pairwise`` sums over
    canonical representatives only and differs by that factor of two.  Each
    pair {g, g^{-1}} is visited once, from its smaller index.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    G, k = x.group, 2 if convention == "literal" else 1
    acc: dict[int, Scalar] = {}
    for g in {min(g, G.inv[g]) for g in x.coeffs}:
        gi = G.inv[g]
        c = x.coeffs.get(g, ZERO) - x.coeffs.get(gi, ZERO)
        if gi != g and c:
            acc[g], acc[gi] = k * c, -k * c
    return AlgebraElement(G, acc)


def morphism_map(fbar: BarLift) -> HatLift:
    """Send the bar lift of a group homomorphism to its hat lift."""
    return lift_hom_hat(fbar.hom)


class SubgroupCategory:
    """Subgroups of an ambient group, keyed by their distinct Cayley tables.

    ``table[i]`` numbers the table of ``objects[i]``, in order of first
    appearance.  ``bases[a]`` is the hat basis of the first object on table
    ``a``, and ``homsets[a, b]`` the homs between the first objects on tables
    ``a`` and ``b``: a hom, its lift and the laws read only the two tables, so
    every object pair on those tables shares them.
    """

    def __init__(
        self,
        ambient: FiniteGroup,
        objects: tuple[FiniteGroup, ...],
        homsets: dict[tuple[int, int], tuple[GroupHom, ...]],
    ) -> None:
        self.table, firsts = _tables(objects)
        if homsets.keys() != set(product(range(len(firsts)), repeat=2)):
            raise ValueError(f"homsets must be keyed by pairs of the {len(firsts)} object tables")
        self.ambient = ambient
        self.objects = objects
        self.bases = tuple(canonical_basis(G) for G in firsts)
        self.homsets = homsets

    @cached_property
    def lifts(self) -> dict[tuple[int, int], dict[tuple[int, ...], HatMap]]:
        """Integer hat map of every morphism, keyed by table pair, then by image table."""
        bases = self.bases
        return {(a, b): _hat_maps(h, bases[a], bases[b]) for (a, b), h in self.homsets.items()}


def _tables(objects) -> tuple[tuple[int, ...], tuple[FiniteGroup, ...]]:
    """Each object's table id, in order of first appearance, and the first object on each table."""
    ids: dict = {}
    table = tuple(ids.setdefault(obj.cayley, len(ids)) for obj in objects)
    return table, tuple(objects[table.index(a)] for a in range(len(ids)))


def _hat_maps(homset, src: PleskenBasis, dst: PleskenBasis) -> dict[tuple[int, ...], HatMap]:
    return {f.image: hat_map(f.image, src, dst) for f in homset}


def subgroup_category(ambient: FiniteGroup) -> SubgroupCategory:
    """The category of the subgroups of ``ambient``, with every hom between them.

    Many subgroups are one group on one Cayley table (S4's 30 have 13 tables),
    and ``enumerate_homs`` reads only the two tables, their ``generators`` and
    ``identity``, which the table fixes.  So the search runs once per ordered
    pair of distinct tables, between the first objects on them.
    """
    objects = tuple(enumerate_subgroups(ambient))
    _, firsts = _tables(objects)
    homsets = {
        (a, b): tuple(enumerate_homs(Ga, Gb))
        for a, Ga in enumerate(firsts)
        for b, Gb in enumerate(firsts)
    }
    return SubgroupCategory(ambient, objects, homsets)


IdentityLawResult = namedtuple("IdentityLawResult", "object_index ok")
CompositionLawResult = namedtuple("CompositionLawResult", "source middle target pairs ok")


class LawReport(namedtuple("LawReport", "identity composition")):
    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return all(r.ok for r in self.identity) and all(r.ok for r in self.composition)


def check_functor_laws(category: SubgroupCategory) -> LawReport:
    """Verify the identity and composition laws on all homsets.

    The composition law is checked in two parts:

    (a) once per homset Hom(a, b), its stored lifts are exactly the
        ``hat_map`` of each of its morphisms;
    (b) once per composable pair f1: a -> b, f2: b -> c, the composite is a
        morphism of Hom(a, c), looked up by its generator images, which fix
        a hom.

    A table triple (a, b, c) holds when (b) holds for all its pairs and (a)
    holds on Hom(a, b), Hom(b, c) and Hom(a, c).  Every morphism is a
    ``GroupHom``, so a hom by type; under (a), (b) is the same as the pairwise
    law: the composite image table is a morphism, and its lift is the
    composite of the two integer hat maps.

    Both laws run once per table or table triple; the object rows (i, j, k)
    read the result of (table[i], table[j], table[k]).
    """
    bases, homsets, lifts = category.bases, category.homsets, category.lifts
    identity = [
        lifts[a, a].get(identity_hom(basis.group).image)
        == tuple((k, 1) for k in range(basis.dimension))
        for a, basis in enumerate(bases)
    ]
    gens = [basis.group.generators or (basis.group.identity,) for basis in bases]
    exact = {}  # exact[a, b]: (a) holds on Hom(a, b)
    keys = {}  # keys[a, b]: generator images of every morphism of Hom(a, b)
    columns = {}  # columns[a, b][x] == (f(x) for each f in Hom(a, b))
    for (a, b), homset in homsets.items():
        images = [f.image for f in homset]
        exact[a, b] = lifts[a, b] == _hat_maps(homset, bases[a], bases[b])
        keys[a, b] = {tuple(map(image.__getitem__, gens[a])) for image in images}
        columns[a, b] = list(zip(*images))
    law = {}  # law[a, b][c] == (pairs, ok) of the table triple (a, b, c)
    for a, b in homsets:
        row = law[a, b] = []
        for c in range(len(bases)):
            ok = exact[a, b] and exact[b, c] and exact[a, c]
            if ok and homsets[b, c]:
                # each f1 checks all f2 at once: zip yields the composites' generator images
                found, column = keys[a, c].issuperset, columns[b, c].__getitem__
                ok = all(found(zip(*map(column, t1))) for t1 in keys[a, b])
            row.append((len(homsets[a, b]) * len(homsets[b, c]), ok))
    table = category.table
    composition_results = []
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            row = law[a, b]
            composition_results.extend(
                CompositionLawResult(i, j, k, *row[c]) for k, c in enumerate(table)
            )
    identity_results = tuple(IdentityLawResult(i, identity[a]) for i, a in enumerate(table))
    return LawReport(identity_results, tuple(composition_results))


FullnessPairResult = namedtuple(
    "FullnessPairResult", "source target morphisms distinct_images witnessed ok"
)


class FullnessReport(namedtuple("FullnessReport", "pairs")):
    __slots__ = ()

    @property
    def all_full(self) -> bool:
        return all(r.ok for r in self.pairs)


def check_full(category: SubgroupCategory) -> FullnessReport:
    """For every object pair, count the distinct hat lifts and those with a preimage.

    A pair is ``ok`` when ``witnessed`` equals ``distinct_images``.  Every
    distinct lift is collected from some morphism of the homset, so that
    holds by construction.  The counts are taken once per table pair.
    """
    counts = {}  # counts[a, b]: the fields after source and target, once per table pair
    for ab, lifts in category.lifts.items():
        distinct = witnessed = len(set(lifts.values()))
        counts[ab] = (len(lifts), distinct, witnessed, witnessed == distinct)
    table = category.table
    return FullnessReport(tuple(
        FullnessPairResult(i, j, *counts[a, b])
        for i, a in enumerate(table)
        for j, b in enumerate(table)
    ))


class FaithfulnessWitness(
    namedtuple("FaithfulnessWitness", "source target image_a image_b")
):
    """Two distinct bar lifts between the same objects with equal hat lifts."""

    __slots__ = ()


def find_faithfulness_counterexample(category: SubgroupCategory) -> list[FaithfulnessWitness]:
    """All pairs of distinct morphisms that collapse to the same hat lift.

    The classes of equal lifts are found once per table pair.
    """
    classes = {}  # classes[a, b]: the image tables of Hom(a, b) that share each lift
    for ab, lifts in category.lifts.items():
        by_lift: dict[HatMap, list[tuple[int, ...]]] = {}
        for image, action in lifts.items():
            by_lift.setdefault(action, []).append(image)
        classes[ab] = [images for images in by_lift.values() if len(images) > 1]
    table = category.table
    out: list[FaithfulnessWitness] = []
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            for images in classes[a, b]:
                for x, image_a in enumerate(images):
                    for image_b in images[x + 1 :]:
                        out.append(FaithfulnessWitness(i, j, image_a, image_b))
    out.sort()
    return out
