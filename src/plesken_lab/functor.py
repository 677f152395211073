"""Mapping group-algebra Lie algebras of subgroups onto their hat-span Lie algebras.

Objects are the subgroups of an ambient group; morphisms are the linear lifts
of all group homomorphisms between them.  The checks here verify the identity
and composition laws of the object/morphism assignment, its surjectivity on
induced maps, and exhibit pairs of distinct morphisms with equal images.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .algebra import AlgebraElement, BarLift, Scalar, ZERO
from .groups import FiniteGroup, GroupHom, enumerate_homs, enumerate_subgroups, identity_hom
from .groups import CONVENTIONS, _built_hom
from .plesken import (
    HatLift,
    HatMap,
    PleskenBasis,
    canonical_basis,
    hat_map,
    lift_hom_hat,
)


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
    """Subgroups of an ambient group, one hat basis each, and every hom between them.

    The morphisms are ``GroupHom`` values, so each is a hom by type; the ones
    ``enumerate_homs`` finds are built without a second check.
    """

    def __init__(
        self,
        ambient: FiniteGroup,
        objects: tuple[FiniteGroup, ...],
        bases: tuple[PleskenBasis, ...],
        homsets: dict[tuple[int, int], tuple[GroupHom, ...]],
    ) -> None:
        self.ambient = ambient
        self.objects = objects
        self.bases = bases
        self.homsets = homsets

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ambient, self.objects, self.bases, self.homsets) == (
            other.ambient, other.objects, other.bases, other.homsets
        )

    __hash__ = None  # its fields can be reassigned

    @cached_property
    def lifts(self) -> dict[tuple[int, int], dict[tuple[int, ...], HatMap]]:
        """Integer hat map of every morphism, keyed by object pair, then by image table."""
        return {
            (i, j): _hat_maps(homset, self.bases[i], self.bases[j])
            for (i, j), homset in self.homsets.items()
        }


def _hat_maps(homset, src: PleskenBasis, dst: PleskenBasis) -> dict[tuple[int, ...], HatMap]:
    return {f.image: hat_map(f.image, src, dst) for f in homset}


def subgroup_category(ambient: FiniteGroup) -> SubgroupCategory:
    """The category of the subgroups of ``ambient``, with every hom between them.

    Many subgroups are one group on one Cayley table (S4's 30 have 13 tables),
    and ``enumerate_homs`` reads only the two tables, their ``generators`` and
    ``identity``, which the table fixes.  So the search runs once per ordered
    pair of distinct tables, and each homset holds its own ``GroupHom``s
    (``domain`` and ``codomain`` are its objects) on the shared image tables.
    """
    objects = tuple(enumerate_subgroups(ambient))
    bases = tuple(canonical_basis(obj) for obj in objects)
    tables: dict = {}
    kinds = [tables.setdefault(obj.cayley, len(tables)) for obj in objects]
    images: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    homsets = {}
    for i, Gi in enumerate(objects):
        for j, Gj in enumerate(objects):
            found = images.get((kinds[i], kinds[j]))
            if found is None:
                found = images[kinds[i], kinds[j]] = [f.image for f in enumerate_homs(Gi, Gj)]
            homsets[i, j] = tuple(_built_hom(Gi, Gj, t) for t in found)
    return SubgroupCategory(ambient, objects, bases, homsets)


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

    (a) once per homset Hom(i, j), its stored lifts are exactly the
        ``hat_map`` of each of its morphisms;
    (b) once per composable pair f1: i -> j, f2: j -> k, the composite is a
        morphism of Hom(i, k), looked up by its generator images, which fix
        a hom.

    A triple (i, j, k) holds when (b) holds for all its pairs and (a) holds on
    Hom(i, j), Hom(j, k) and Hom(i, k).  Every morphism is a ``GroupHom``, so
    a hom by type; under (a), (b) is the same as the pairwise law: the
    composite image table is a morphism, and its lift is the composite of
    the two integer hat maps.

    (b) reads only the generators of i and the image tables of the three
    homsets, so it runs once per distinct triple of homset contents, keyed by
    (generators of i, image tables of Hom(i, j)); subgroups on one table give
    many equal triples.  The key is the content, not the objects' tables, so
    this holds for any category: a homset that lacks a composite its
    equal-table twin has gets its own key and fails its own triples.  (a) and
    the identity law still run per homset and per object.
    """
    objects, bases, homsets = category.objects, category.bases, category.homsets
    lifts = category.lifts
    identity_results = []
    for i, obj in enumerate(objects):
        ident = lifts[(i, i)].get(identity_hom(obj).image)
        ok = ident == tuple((k, 1) for k in range(bases[i].dimension))
        identity_results.append(IdentityLawResult(i, ok))
    gens = [obj.generators or (obj.identity,) for obj in objects]
    ids: dict = {}  # one content id per distinct (generators of i, image tables of Hom(i, j))
    keys = []  # keys[c]: generator images of every morphism of content c
    columns = []  # columns[c][x] == (f(x) for each morphism f of content c)
    state = {}  # state[i, j] == (|Hom(i, j)|, its content id, (a) on it)
    for (i, j), homset in homsets.items():
        images = tuple(f.image for f in homset)
        c = ids.setdefault((gens[i], images), len(ids))
        if c == len(keys):
            keys.append({tuple(map(image.__getitem__, gens[i])) for image in images})
            columns.append(list(zip(*images)))
        state[i, j] = len(homset), c, lifts[i, j] == _hat_maps(homset, bases[i], bases[j])
    n = len(objects)
    rows = [[state[i, j] for j in range(n)] for i in range(n)]
    part_b = {}  # (b) depends on the three contents alone
    composition_results = []
    for i, row_i in enumerate(rows):
        for j, (size_ij, c1, exact_ij) in enumerate(row_i):
            for k, (size_jk, c2, exact_jk) in enumerate(rows[j]):
                _, c12, exact_ik = row_i[k]
                ok = exact_ij and exact_jk and exact_ik
                if ok and size_jk:
                    ok = part_b.get((c1, c2, c12))
                    if ok is None:
                        # each f1 checks all f2 at once: zip yields the composites' generator images
                        found, column = keys[c12].issuperset, columns[c2].__getitem__
                        ok = all(found(zip(*map(column, t1))) for t1 in keys[c1])
                        part_b[c1, c2, c12] = ok
                composition_results.append(CompositionLawResult(i, j, k, size_ij * size_jk, ok))
    return LawReport(tuple(identity_results), tuple(composition_results))


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
    holds by construction.
    """
    results = []
    for (i, j), homset in sorted(category.lifts.items()):
        distinct = witnessed = len(set(homset.values()))
        results.append(
            FullnessPairResult(i, j, len(homset), distinct, witnessed, witnessed == distinct)
        )
    return FullnessReport(tuple(results))


class FaithfulnessWitness(
    namedtuple("FaithfulnessWitness", "source target image_a image_b")
):
    """Two distinct bar lifts between the same objects with equal hat lifts."""

    __slots__ = ()


def find_faithfulness_counterexample(
    category: SubgroupCategory,
) -> list[FaithfulnessWitness]:
    """All pairs of distinct morphisms that collapse to the same hat lift."""
    out: list[FaithfulnessWitness] = []
    for (i, j), homset in sorted(category.lifts.items()):
        classes: dict[HatMap, list[tuple[int, ...]]] = {}
        for image, action in homset.items():
            classes.setdefault(action, []).append(image)
        for images in classes.values():
            for a, image_a in enumerate(images):
                for image_b in images[a + 1 :]:
                    out.append(FaithfulnessWitness(i, j, image_a, image_b))
    out.sort()
    return out
