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
from .plesken import (
    HatLift,
    HatMap,
    PleskenBasis,
    canonical_basis,
    hat_map,
    lift_hom_hat,
)

CONVENTIONS = ("literal", "pairwise")


def object_map(x: AlgebraElement, convention: str = "literal") -> AlgebraElement:
    """Antisymmetrize x into the hat span.

    ``literal`` sums (a_g - a_{g^{-1}})(g - g^{-1}) over every group element,
    so each non-involution pair contributes twice; ``pairwise`` sums over
    canonical representatives only and differs by that factor of two.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    G = x.group
    candidates = sorted(set(x.coeffs) | {G.inv[g] for g in x.coeffs})
    if convention == "pairwise":
        candidates = [g for g in candidates if g < G.inv[g]]
    acc: dict[int, Scalar] = {}
    for g in candidates:
        gi = G.inv[g]
        if gi == g:
            continue
        c = x.coeffs.get(g, ZERO) - x.coeffs.get(gi, ZERO)
        if not c:
            continue
        acc[g] = acc.get(g, ZERO) + c
        acc[gi] = acc.get(gi, ZERO) - c
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
    objects = tuple(enumerate_subgroups(ambient))
    bases = tuple(canonical_basis(obj) for obj in objects)
    homsets = {
        (i, j): tuple(enumerate_homs(Gi, Gj))
        for i, Gi in enumerate(objects)
        for j, Gj in enumerate(objects)
    }
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
    """
    objects, bases, homsets = category.objects, category.bases, category.homsets
    lifts = category.lifts
    identity_results = []
    for i, obj in enumerate(objects):
        ident = lifts[(i, i)].get(identity_hom(obj).image)
        ok = ident == tuple((k, 1) for k in range(bases[i].dimension))
        identity_results.append(IdentityLawResult(i, ok))
    gens = [obj.generators or (obj.identity,) for obj in objects]
    exact = {}  # (a) on the homset
    keys = {}  # generator images of every morphism of the homset
    homset_columns = {}  # homset_columns[i, j][x] == (f(x) for each f in Hom(i, j))
    for (i, j), homset in homsets.items():
        images = [f.image for f in homset]
        exact[i, j] = lifts[i, j] == _hat_maps(homset, bases[i], bases[j])
        keys[i, j] = {tuple(map(image.__getitem__, gens[i])) for image in images}
        homset_columns[i, j] = list(zip(*images))
    composition_results = []
    n = len(objects)
    for i in range(n):
        for j in range(n):
            size_ij = len(homsets[i, j])
            for k in range(n):
                size_jk = len(homsets[j, k])
                ok = exact[i, j] and exact[j, k] and exact[i, k]
                if ok and size_jk:
                    # each f1 checks all f2 at once: zip yields the composites' generator images
                    found = keys[i, k].issuperset
                    column = homset_columns[j, k].__getitem__
                    ok = all(found(zip(*map(column, t1))) for t1 in keys[i, j])
                composition_results.append(CompositionLawResult(i, j, k, size_ij * size_jk, ok))
    return LawReport(tuple(identity_results), tuple(composition_results))


class FullnessPairResult(
    namedtuple("FullnessPairResult", "source target morphisms distinct_images witnessed")
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.witnessed == self.distinct_images


class FullnessReport(namedtuple("FullnessReport", "pairs")):
    __slots__ = ()

    @property
    def all_full(self) -> bool:
        return all(r.ok for r in self.pairs)


def check_full(category: SubgroupCategory) -> FullnessReport:
    """For every object pair, count the distinct hat lifts and those with a preimage.

    Every distinct lift is collected from some morphism of the homset, so
    ``witnessed`` equals ``distinct_images`` by construction.
    """
    results = []
    for (i, j), homset in sorted(category.lifts.items()):
        distinct = set(homset.values())
        results.append(FullnessPairResult(i, j, len(homset), len(distinct), len(distinct)))
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
