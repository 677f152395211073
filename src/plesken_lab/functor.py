"""Mapping group-algebra Lie algebras of subgroups onto their hat-span Lie algebras.

Objects are the subgroups of an ambient group; morphisms are the linear lifts
of all group homomorphisms between them.  The checks here verify the identity
and composition laws of the object/morphism assignment, its surjectivity on
induced maps, and exhibit classes of distinct morphisms with equal images.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import product

import plesken_lab  # names algebra's classes in annotations, loading `algebra` only when read

from .groups import FiniteGroup, GroupHom, enumerate_homs, enumerate_subgroups, identity_hom
from .plesken import HatMap, PleskenBasis, canonical_basis, hat_map, lift_hom_hat


def object_map(x: plesken_lab.AlgebraElement) -> plesken_lab.AlgebraElement:
    """Antisymmetrize x into the hat span.

    Sums (a_g - a_{g^{-1}})(g - g^{-1}) over every group element, so each
    non-involution pair contributes twice: that is 2 times the sum of
    a_g (g - g^{-1}) over the support of x, whose terms on an involution cancel.
    """
    # imported here: no other name of this module needs group-algebra elements, so
    # `functor full` and `functor counterexample` never load `algebra`
    from .algebra import AlgebraElement

    G = x.group
    terms = (t for g, c in x.coeffs.items() for t in ((g, 2 * c), (G.inv[g], -2 * c)))
    return AlgebraElement(G, terms)


def morphism_map(fbar: plesken_lab.BarLift) -> HatMap:
    """Send the bar lift of a group homomorphism to its hat lift, as an integer hat map."""
    return lift_hom_hat(fbar.hom)


class SubgroupCategory:
    """Subgroups of an ambient group, keyed by their distinct Cayley tables.

    ``table[i]`` numbers the table of ``objects[i]``, in order of first
    appearance, and ``sizes[a]`` counts the objects on table ``a``.
    ``bases[a]`` is the hat basis of the first object on table ``a``, and
    ``homsets[a, b]`` the homs between the first objects on tables ``a`` and
    ``b``: a hom, its lift and the laws read only the two tables, so every
    object pair on those tables shares them.
    """

    def __init__(
        self,
        objects: tuple[FiniteGroup, ...],
        homsets: dict[tuple[int, int], tuple[GroupHom, ...]],
    ) -> None:
        self.table, firsts = _tables(objects)
        if homsets.keys() != set(product(range(len(firsts)), repeat=2)):
            raise ValueError(f"homsets must be keyed by pairs of the {len(firsts)} object tables")
        self.sizes = tuple(map(self.table.count, range(len(firsts))))
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
    return SubgroupCategory(objects, homsets)


IdentityLawResult = namedtuple("IdentityLawResult", "table ok")
CompositionLawResult = namedtuple("CompositionLawResult", "source target pairs failing_middles ok")


class LawReport(namedtuple("LawReport", "identity composition")):
    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return all(r.ok for r in self.identity) and all(r.ok for r in self.composition)


def check_functor_laws(category: SubgroupCategory) -> LawReport:
    """Verify the identity law once per table, and the composition law once per table triple.

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

    The triples are reported once per table pair (a, c), which stands for
    every object pair on those tables: ``failing_middles`` lists, ascending,
    each middle table b whose triple fails, and ``pairs`` counts the
    composable pairs of all object triples through a and c, the sum over b of
    n_a·n_b·n_c·|Hom(a, b)|·|Hom(b, c)|, where n_a = ``sizes[a]``.
    """
    bases, homsets, lifts, sizes = category.bases, category.homsets, category.lifts, category.sizes
    identity = tuple(
        IdentityLawResult(
            a,
            lifts[a, a].get(identity_hom(basis.group).image)
            == tuple((k, 1) for k in range(basis.dimension)),
        )
        for a, basis in enumerate(bases)
    )
    gens = [basis.group.generators or (basis.group.identity,) for basis in bases]
    exact = {}  # exact[a, b]: (a) holds on Hom(a, b)
    keys = {}  # keys[a, b]: generator images of every morphism of Hom(a, b)
    columns = {}  # columns[a, b][x] == (f(x) for each f in Hom(a, b))
    for (a, b), homset in homsets.items():
        images = [f.image for f in homset]
        exact[a, b] = lifts[a, b] == _hat_maps(homset, bases[a], bases[b])
        keys[a, b] = {tuple(map(image.__getitem__, gens[a])) for image in images}
        columns[a, b] = list(zip(*images))
    tables = range(len(bases))
    composition = []
    for a, c in product(tables, repeat=2):
        failing, pairs = [], 0
        for b in tables:
            ok = exact[a, b] and exact[b, c] and exact[a, c]
            if ok and homsets[b, c]:
                # each f1 checks all f2 at once: zip yields the composites' generator images
                found, column = keys[a, c].issuperset, columns[b, c].__getitem__
                ok = all(found(zip(*map(column, t1))) for t1 in keys[a, b])
            if not ok:
                failing.append(b)
            pairs += sizes[b] * len(homsets[a, b]) * len(homsets[b, c])
        pairs *= sizes[a] * sizes[c]
        composition.append(CompositionLawResult(a, c, pairs, failing, not failing))
    return LawReport(identity, tuple(composition))


FullnessPairResult = namedtuple(
    "FullnessPairResult", "source target morphisms distinct_images witnessed ok"
)


class FullnessReport(namedtuple("FullnessReport", "pairs")):
    __slots__ = ()

    @property
    def all_full(self) -> bool:
        return all(r.ok for r in self.pairs)


def check_full(category: SubgroupCategory) -> FullnessReport:
    """For every table pair, count the distinct hat lifts and those with a preimage.

    A pair is ``ok`` when ``witnessed`` equals ``distinct_images``.  Every
    distinct lift is collected from some morphism of the homset, so that
    holds by construction.
    """
    pairs = []
    for (a, b), lifts in sorted(category.lifts.items()):
        distinct = witnessed = len(set(lifts.values()))
        pairs.append(
            FullnessPairResult(a, b, len(lifts), distinct, witnessed, witnessed == distinct)
        )
    return FullnessReport(tuple(pairs))


class FaithfulnessClass(namedtuple("FaithfulnessClass", "source target images")):
    """Two or more morphisms between the same tables with equal hat lifts, images ascending."""

    __slots__ = ()


def find_faithfulness_counterexample(category: SubgroupCategory) -> list[FaithfulnessClass]:
    """Each class of two or more morphisms with one hat lift, sorted by (source, target, images).

    The classes are found, and given, once per table pair: a class stands for
    one class on every object pair on its tables.
    """
    classes = []
    for (a, b), lifts in sorted(category.lifts.items()):
        by_lift: dict[HatMap, list[tuple[int, ...]]] = {}
        for image, action in lifts.items():
            by_lift.setdefault(action, []).append(image)
        classes += sorted(
            FaithfulnessClass(a, b, tuple(sorted(c))) for c in by_lift.values() if len(c) > 1
        )
    return classes
