"""Independent brute-force oracles the tests check the library against.

Nothing here reuses the library's search or reduction code paths: ranks come
from fraction-free integer elimination, homomorphism sets from exhaustive map
search, a hom from its generator images by a walk of the table checked on
every pair, subgroup sets from full subset closure, the span of a set by a
walk of the table, generating sets from the unpruned greedy search,
conjugacy classes from conjugating by every element, product groups from
the product of two tables, matrix inverses from search over the whole
matrix group, the functor's composition law from every composable pair,
its equal lifts from the hat of every hom image, the
subgroups and homset sizes of the Heisenberg group in closed form in p, the
group axioms from every triple of a table, Lie maps from every bracket of two
basis hats, the Cohen-Taylor dimensions from character degrees in closed
form, and the report layout from ``json.dumps``.  The four-hat expansion of a
bracket and the seeded random elements at the end are built from the
library's own elements, for its property checks.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from math import factorial, gcd, lcm, prod
from random import Random
from types import SimpleNamespace


def rank(rows) -> int:
    """Rank over the rationals of integer rows ``{column: value}``, fraction-free.

    Each row is reduced against the pivot rows on its lowest column with
    r := a*r - b*p (a, b the two entries there) and divided by the gcd of
    its entries, until it is zero or opens a new pivot column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = {k: v for k, v in row.items() if v}
        while r:
            col = min(r)
            p = pivots.get(col)
            if p is None:
                pivots[col] = r
                break
            a, b = p[col], r[col]
            r = {k: a * r.get(k, 0) - b * p.get(k, 0) for k in r.keys() | p.keys()}
            r = {k: v for k, v in r.items() if v}
            g = gcd(*r.values()) if r else 1
            r = {k: v // g for k, v in r.items()}
    return len(pivots)


def exact_rank(rows) -> int:
    """Rank over the rationals of dense rows of ints or Fractions, by ``rank``.

    Each row is scaled by the lcm of its denominators.  The benchmark's
    ``perfbench/run.py --write-reference`` calls this by name.
    """
    sparse = []
    for row in map(list, rows):
        scale = lcm(*(Fraction(v).denominator for v in row))
        sparse.append({j: int(Fraction(v) * scale) for j, v in enumerate(row) if v})
    return rank(sparse)


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


def _table_identity(table) -> int:
    """The element whose row is 0..n-1, read from the rows alone."""
    return next(x for x in range(len(table)) if list(table[x]) == list(range(len(table))))


def span(table, gens) -> set[int]:
    """Everything a Cayley table reaches from its identity by left multiplication by ``gens``."""
    e = _table_identity(table)
    seen, stack = {e}, [e]
    while stack:
        z = stack.pop()
        for g in gens:
            if (y := table[g][z]) not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def hom_from_generator_images(source, target, gens, images) -> tuple[int, ...] | None:
    """The image table of the hom of two Cayley tables sending each ``gens[i]`` to ``images[i]``.

    Walks the source table from its identity, setting f(x*g) = f(x)*f(g) for
    each generator g, then checks ``f(x*y) == f(x)*f(y)`` for every pair and
    ``f(gens[i]) == images[i]``.  None when the walk misses an element or a
    check fails: then no such hom exists.
    """
    t, u = source, target
    image = {_table_identity(t): _table_identity(u)}
    stack = list(image)
    while stack:
        x = stack.pop()
        for g, h in zip(gens, images):
            if (y := t[x][g]) not in image:
                image[y] = u[image[x]][h]
                stack.append(y)
    n = len(t)
    if len(image) < n:
        return None
    f = tuple(image[x] for x in range(n))
    if any(f[t[x][y]] != u[f[x]][f[y]] for x in range(n) for y in range(n)):
        return None
    return f if all(f[g] == h for g, h in zip(gens, images)) else None


def greedy_generators(table) -> list[int]:
    """Greedy generating set of a Cayley table: each round adds the first x whose span is largest.

    Works on the rows alone, tries every x outside the span so far in every
    round, and spans by left multiplication from the identity.
    """
    n = len(table)
    gens, generated = [], {_table_identity(table)}
    while len(generated) < n:
        spans = {x: span(table, gens + [x]) for x in range(n) if x not in generated}
        best = max(spans, key=lambda x: len(spans[x]))  # max keeps the first of equal keys
        gens.append(best)
        generated = spans[best]
    return gens


def conjugacy_class_count(G) -> int:
    """k(G): the number of classes {y x y^-1 : y in G}, each found by conjugating by all of G."""
    t, seen, count = G.cayley, set(), 0
    for x in range(G.order):
        if x not in seen:
            seen.update(t[t[y][x]][G.inv[y]] for y in range(G.order))
            count += 1
    return count


def direct_product_table(t1, t2) -> list[list[int]]:
    """The Cayley table of the product of two tables: (a, b) is index a * len(t2) + b."""
    n = len(t2)
    pairs = [(a, b) for a in range(len(t1)) for b in range(n)]
    return [[t1[a][c] * n + t2[b][d] for c, d in pairs] for a, b in pairs]


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


def _table_bracket(table, a: int, b: int) -> dict[int, int]:
    """[e_a, e_b] as {m: c}, read from a sparse table {(k, l): {m: c}} with k < l."""
    if a == b:
        return {}
    sign = 1 if a < b else -1
    return {m: sign * c for m, c in table.get((min(a, b), max(a, b)), {}).items()}


def lie_map_violations(action, src_sc, dst_sc) -> list[tuple[int, int]]:
    """Every k < l with f([e_k, e_l]) != [f(e_k), f(e_l)], for the map f = ``action``.

    ``action[k]`` is (m, +-1) when f sends e_k to +-e_m and None when it sends
    it to zero; ``src_sc`` and ``dst_sc`` are the structure-constant tables of
    source and target.  Both sides are computed in the integer coordinates of
    the target, so every bracket of two basis vectors is checked exactly.
    """

    def image(vector: dict[int, int]) -> dict[int, int]:
        out: dict[int, int] = {}
        for m, c in vector.items():
            if action[m] is not None:
                n, s = action[m]
                out[n] = out.get(n, 0) + s * c
        return {n: c for n, c in out.items() if c}

    def bracket_of_images(k: int, l: int) -> dict[int, int]:
        if action[k] is None or action[l] is None:
            return {}
        (a, s), (b, t) = action[k], action[l]
        return {m: s * t * c for m, c in _table_bracket(dst_sc, a, b).items()}

    return [
        (k, l)
        for k, l in itertools.combinations(range(len(action)), 2)
        if image(src_sc.get((k, l), {})) != bracket_of_images(k, l)
    ]


def center_and_derived_dims(table, dim: int) -> tuple[int, int]:
    """(dim of the center, dim of [L, L]) of the Lie algebra on ``table``, by exact rank.

    Row k of the adjoint matrix holds [e_k, e_l] for every l, so the center
    has dimension ``dim`` less its rank; [L, L] is spanned by the [e_k, e_l].
    """
    adjoint = [
        {l * dim + m: c for l in range(dim) for m, c in _table_bracket(table, k, l).items()}
        for k in range(dim)
    ]
    derived = [_table_bracket(table, k, l) for k, l in itertools.combinations(range(dim), 2)]
    return dim - rank(adjoint), rank(derived)


def _partitions(n: int, largest: int):
    """The partitions of n with parts at most ``largest``, parts descending."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _hook_length_degree(shape: tuple[int, ...]) -> int:
    """The degree of the irreducible character of S_n on ``shape``, by the hook-length formula."""
    columns = [sum(1 for row in shape if row > j) for j in range(shape[0])]
    hooks = prod(
        (row - j) + (columns[j] - i) - 1 for i, row in enumerate(shape) for j in range(row)
    )
    return factorial(sum(shape)) // hooks


def cohen_taylor_dims(spec: str) -> tuple[int, int]:
    """(dim of the center, dim of [L, L]) of the Plesken Lie algebra of a built-in group.

    Cohen and Taylor (Amer. Math. Monthly 114, 2007) decompose it over C as
    so(chi(1)) for each real chi of indicator +1, sp(chi(1)) for each of
    indicator -1 and gl(chi(1)) for each pair chi != conj(chi):
    - S<n>: every chi is real of indicator +1, with hook-length degrees f, so
      the center counts the f == 2 (so(2) is abelian) and [L, L] is the sum of
      f(f-1)/2 over f >= 3 (so(1) is zero);
    - H<p>: gl(1)^((p^2-1)/2) + gl(p)^((p-1)/2), so the center is
      (p^2+p-2)/2 and [L, L] is (p-1)(p^2-1)/2;
    - C<n>, D<n> (order 2n) and K4 are abelian: the center is all of L, one
      dimension per pair {g, g^-1} with g != g^-1, which is (n-1)//2 for C<n>
      and D<n> (its rotations) and 0 for K4.
    """
    family, n = re.fullmatch(r"([CDHKS])(\d+)", spec.upper()).groups()
    n = int(n)
    if family == "S":
        degrees = [_hook_length_degree(shape) for shape in _partitions(n, n)]
        return degrees.count(2), sum(f * (f - 1) // 2 for f in degrees if f >= 3)
    if family == "H":
        return (n * n + n - 2) // 2, (n - 1) * (n * n - 1) // 2
    return (0 if family == "K" else (n - 1) // 2), 0


def heisenberg_subgroup_counts(p: int) -> dict[int, int]:
    """{order: number of subgroups of that order} of the Heisenberg group H<p>, p an odd prime.

    H<p> has exponent p and centre Z of order p.  Each subgroup of order p is
    one of the p^2+p+1 lines of the 3-dimensional space of elements over F_p,
    and each of order p^2 is Z times one of the p+1 lines of H<p>/Z = F_p^2.
    """
    return {1: 1, p: p * p + p + 1, p**2: p + 1, p**3: 1}


def heisenberg_homset_size(p: int, m: int, n: int) -> int:
    """|Hom(A, B)| for subgroups A, B of H<p> of orders m and n, p an odd prime.

    The subgroups of order p, p^2 and p^3 are C_p, C_p x C_p and H<p> itself,
    all of exponent p.  A hom from C_p or C_p^2 picks the images of its one or
    two free generators: any element, or any commuting pair, of which H<p>
    has p^3 (p^2 + p - 1), |H<p>| times its number of conjugacy classes.  A
    hom from H<p> to an abelian group factors through H<p>/Z = C_p^2, and
    H<p> is free of rank 2 among the groups of exponent p and class 2, so it
    has p^6 endomorphisms.  The trivial group has one hom to and from each.
    """
    if m == 1 or n == 1:
        return 1
    c, c2, h = p, p**2, p**3
    return {
        (c, c): p, (c, c2): p**2, (c, h): p**3,
        (c2, c): p**2, (c2, c2): p**4, (c2, h): p**3 * (p * p + p - 1),
        (h, c): p**2, (h, c2): p**4, (h, h): p**6,
    }[m, n]


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


def report_layout(value, indent: str = "", key: str | None = None) -> str:
    """The report layout of a JSON value (schema 12 on), from ``json.dumps`` alone.

    ``json.dumps(value, indent=2, sort_keys=True)``, except that each dict
    that is an item of a list is written on one line, as
    ``json.dumps(item, sort_keys=True, separators=(",", ":"))``, and that the
    records of the list under the key ``"sc"`` are grouped by their ``"k"``:
    each run of records with one ``"k"`` shares a line, joined by ``,``.
    """
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{json.dumps(k)}: {report_layout(value[k], inner, k)}" for k in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        lines = (
            itertools.groupby(value, lambda r: r["k"])
            if key == "sc"
            else ((None, [v]) for v in value)
        )
        items = [
            ",".join(
                json.dumps(v, sort_keys=True, separators=(",", ":"))
                if isinstance(v, dict)
                else report_layout(v, inner)
                for v in line
            )
            for _, line in lines
        ]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    return json.dumps(value)


# (re, im) of the coefficients a random element draws from
RANDOM_COEFFS = (
    (-2, 0), (-1, 0), (Fraction(-1, 2), 0), (0, 0), (Fraction(1, 2), 0), (1, 0), (2, 0),
    (0, 1), (0, -1),
)


def random_scalar(rng: Random):
    """A ``Scalar`` drawn from ``RANDOM_COEFFS``."""
    from plesken_lab import Scalar  # the oracles above never import the library

    return Scalar(*rng.choice(RANDOM_COEFFS))


def bracket_expansion_check(G, g: int, h: int) -> bool:
    """True iff [g^, h^] equals (gh)^ - (gh^{-1})^ - (g^{-1}h)^ + (g^{-1}h^{-1})^ in C[G].

    Both sides are group-algebra elements: the bracket by ``lie_bracket``, the
    four hats by ``hat`` from the products read off the table.
    """
    from plesken_lab import hat, lie_bracket

    gi, hi, t = G.inv[g], G.inv[h], G.cayley
    rhs = hat(G, t[g][h]) - hat(G, t[g][hi]) - hat(G, t[gi][h]) + hat(G, t[gi][hi])
    return lie_bracket(hat(G, g), hat(G, h)) == rhs


def random_element(group, rng: Random, max_support: int = 5):
    """Small random ``AlgebraElement`` with coefficients from ``RANDOM_COEFFS``."""
    from plesken_lab import AlgebraElement

    k = rng.randint(0, min(max_support, group.order))
    support = rng.sample(range(group.order), k)
    return AlgebraElement(group, {g: random_scalar(rng) for g in support})
