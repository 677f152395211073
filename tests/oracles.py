"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the library's search or reduction code paths: ranks come
from plain Fraction elimination, homomorphism sets from exhaustive map
search, subgroup sets from full subset closure, matrix inverses from
search over the whole matrix group, the functor's composition law from
every composable pair, its equal lifts from the hat of every hom image,
and the group axioms from every triple of a table.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from types import SimpleNamespace


def exact_rank(rows: list[list[Fraction]]) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    if not m:
        return 0
    n_cols = len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def is_group_table(t) -> bool:
    """The group axioms on an n x n table over ``0..n-1``, every triple checked.

    A two-sided identity, a two-sided inverse for each element and
    ``(x*y)*z == x*(y*z)`` for all n^3 triples.
    """
    n = len(t)
    r = range(n)
    if not n or any(len(row) != n or not all(v in r for v in row) for row in t):
        return False
    units = [e for e in r if all(t[e][x] == x == t[x][e] for x in r)]
    if len(units) != 1:
        return False
    e = units[0]
    if not all(any(t[x][y] == e == t[y][x] for y in r) for x in r):
        return False
    return all(t[t[x][y]][z] == t[x][t[y][z]] for x in r for y in r for z in r)


def compose_permutations(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """Function composition x after y (y applied first)."""
    return tuple(x[y[i]] for i in range(len(x)))


def all_hom_tables(G, H) -> list[tuple[int, ...]]:
    """Every multiplicative map table, in ascending order.

    Maps are built one element at a time, in index order, over every value in
    ``H``; a partial map is dropped as soon as some x*y with x, y and x*y
    mapped breaks ``image[x*y] == image[x]*image[y]``, which no extension can
    mend.  So this is the scan of all |H|^|G| maps, less the dead branches.
    """
    n, t, u = G.order, G.cayley, H.cayley
    checks = [[] for _ in range(n)]  # checks[z]: the (x, y, x*y) with largest entry z
    for x in range(n):
        for y in range(n):
            checks[max(x, y, t[x][y])].append((x, y, t[x][y]))
    out = []
    image = [0] * n

    def extend(z: int) -> None:
        if z == n:
            out.append(tuple(image))
            return
        for v in range(H.order):
            image[z] = v
            if all(image[xy] == u[image[x]][image[y]] for x, y, xy in checks[z]):
                extend(z + 1)

    extend(0)
    return out


def all_subgroup_sets(G) -> set[frozenset[int]]:
    """Every subset that is closed and contains the identity (full powerset scan)."""
    out = set()
    elements = list(range(G.order))
    for r in range(1, G.order + 1):
        for subset in itertools.combinations(elements, r):
            s = set(subset)
            if G.identity not in s:
                continue
            if all(G.cayley[a][b] in s for a in s for b in s) and all(
                G.inv[a] in s for a in s
            ):
                out.add(frozenset(s))
    return out


def compose_hat_maps(first, second):
    """The integer hat map of ``second`` after ``first``."""
    out = []
    for entry in first:
        if entry is not None:
            m, s = entry
            entry = second[m]
            if entry is not None and s < 0:
                entry = (entry[0], -entry[1])
        out.append(entry)
    return tuple(out)


def composition_law_by_pairs(category) -> list[tuple[int, int, int, int, bool]]:
    """(source, middle, target, pairs, ok) for every object triple, pair by pair.

    A pair holds when the composite image table is a morphism of the category
    and its stored lift equals the composite of the two stored integer maps.
    Object i reads its homsets and lifts through its table id ``table[i]``.
    """
    lifts, table = category.lifts, category.table
    out = []
    for i, j, k in itertools.product(range(len(table)), repeat=3):
        a, b, c = table[i], table[j], table[k]
        first, second, composites = lifts[(a, b)], lifts[(b, c)], lifts[(a, c)]
        ok = True
        for image1, lift1 in first.items():
            for image2, lift2 in second.items():
                composite = composites.get(tuple(image2[x] for x in image1))
                if composite is None or composite != compose_hat_maps(lift1, lift2):
                    ok = False
        out.append((i, j, k, len(first) * len(second), ok))
    return out


def unitriangular_inverse_by_search(p: int, a: int, b: int, c: int) -> tuple[int, int, int]:
    """Inverse of (a, b, c) in the mod-p unitriangular group, by exhaustive search."""
    for a2, b2, c2 in itertools.product(range(p), repeat=3):
        if (
            (a + a2) % p == 0
            and (b + b2 + a * c2) % p == 0
            and (c + c2) % p == 0
        ):
            return a2, b2, c2
    raise AssertionError("no inverse found; not a group element")


def equal_lift_pairs(ambient) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """(source, target, image_a, image_b), sorted, for every two homs with one hat lift.

    The objects are the subsets of ``all_subgroup_sets``, ordered by size and
    then by their sorted members, each on the local indices of its sorted
    members; homs come from ``all_hom_tables``.  A hom f sends the hat
    g - g^-1 to f(g) - f(g)^-1, which is zero when f(g) is its own inverse
    and otherwise names f(g) by its +1 term.  So two homs have equal lifts
    exactly when they agree wherever either image is not its own inverse.
    """
    objects = []
    for members in sorted(map(sorted, all_subgroup_sets(ambient)), key=lambda s: (len(s), s)):
        pos = {g: i for i, g in enumerate(members)}
        cayley = [[pos[ambient.cayley[x][y]] for y in members] for x in members]
        e = pos[ambient.identity]
        inverse = [row.index(e) for row in cayley]
        objects.append((SimpleNamespace(order=len(members), identity=e, cayley=cayley), inverse))
    out = []
    for (i, (G, _)), (j, (H, inverse)) in itertools.product(enumerate(objects), repeat=2):
        homs = all_hom_tables(G, H)
        hats = [[x if inverse[x] != x else None for x in image] for image in homs]
        for (image_a, hats_a), (image_b, hats_b) in itertools.combinations(zip(homs, hats), 2):
            if hats_a == hats_b:
                out.append((i, j, image_a, image_b))
    return sorted(out)
