"""Finite groups as dense index tables: construction, homomorphisms, subgroups.

Every group lives on element indices ``0..order-1`` with a fully validated
Cayley table, so all downstream algebra reduces to table lookups plus exact
scalar arithmetic.  Each built-in family, and each subgroup, gives only its
elements, generators and product to ``_generated``, which computes the
generators' rows, grows every other row from them, and hands the table to the
one checked constructor, ``FiniteGroup``.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Sequence
from math import gcd, prod
from operator import attrgetter, index, itemgetter, xor

from .errors import (
    DomainMismatch,
    IndexOutOfRange,
    InvalidHom,
    InvalidPrime,
    InvalidSpec,
    ParseError,
    SearchTooLarge,
)

SUBGROUP_ORDER_LIMIT = 64
HOM_SEARCH_LIMIT = 10**8  # table entries filled: choices of generator images * |G|
GROUP_ORDER_LIMIT = 2048  # a table holds order**2 entries

_SPEC_RE = re.compile(r"([CSDH])([0-9]+)", re.IGNORECASE | re.ASCII)


def _is_odd_prime(p: int) -> bool:
    """Miller-Rabin on the 13 prime bases 2..41: a few modular powers, not sqrt(p) divisions.

    No composite below psi_13 passes every one of these bases, and psi_13 does
    (Sorenson and Webster, Math. Comp. 86, 2017), so the answer is exact below
    it, and ``InvalidPrime`` is raised for an odd p from psi_13 on.
    """
    if p < 3 or p % 2 == 0:
        return False
    psi_13 = 3317044064679887385961981
    if p >= psi_13:
        raise InvalidPrime(f"cannot certify {p} as prime: the test is exact only below {psi_13}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p <= bases[-1]:
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 == d * 2**s, d odd
    for a in bases:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):  # a**(d * 2**r) for r < s: one of them must be -1
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


_set = object.__setattr__


class _Frozen:
    """Base of the small immutable value classes.

    ``__init__`` sets each slot once through ``object.__setattr__``; later
    assignment raises ``AttributeError``.  Two instances of the same class are
    equal, and hash alike, when the fields read by the class's ``_key`` agree.
    """

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _validate_table(G: FiniteGroup) -> None:
    """Set ``G.identity``, ``inv`` and ``generators``, checking that ``G``'s rows make a group.

    Rows arrive as permutations of ``0..n-1``.  ``identity`` is the two-sided
    identity e (there is at most one: e == e*f == f), and ``inv[x]`` is where e
    sits in row x, so x*inv[x] == e.  Associativity is exact, by Light's test
    (Clifford and Preston, *The Algebraic Theory of Semigroups*, vol. I): the g
    with ``(x*g)*y == x*(g*y)`` for all x, y are closed under products, so it
    suffices to check each g in ``generating_set(G)``, whose right-multiples
    reach every element on any table: O(n^2 * |generators|).  Nothing else can
    fail then: an associative table with a two-sided identity and right inverses
    is a group, as x*x' == e and x'*x'' == e give x'*x == x'*x*x'*x'' == e, and
    then y*a == b has the one solution b*inv[a], so every column is a permutation.
    """
    rows, n = G.cayley, G.order
    ident = tuple(range(n))
    units = (x for x in ident if rows[x] == ident and tuple(row[x] for row in rows) == ident)
    e = next(units, None)
    if e is None:
        raise ValueError("table does not have exactly one two-sided identity")
    _set(G, "identity", e)
    _set(G, "inv", tuple(row.index(e) for row in rows))
    _set(G, "generators", tuple(generating_set(G)))
    for g in G.generators:
        row_g = rows[g]
        times_row_g = itemgetter(*row_g)  # row_x -> the row of x*(g*y) over y
        for x, row_x in enumerate(rows):
            row_xg = rows[row_x[g]]
            if row_xg != times_row_g(row_x):
                y = next(y for y in range(n) if row_xg[y] != row_x[row_g[y]])
                raise ValueError(f"associativity fails: (x*g)*y != x*(g*y) at {x=}, {g=}, {y=}")


class FiniteGroup(_Frozen):
    """A finite group on indices ``0..order-1`` with precomputed tables.

    Built from any iterable of rows, each read once and checked to be a
    permutation of ``0..n-1``; ``_validate_table`` checks the rest and stores
    the greedy ``generators``.  Immutable after, as every ``_Frozen`` value is.
    The constructor takes only what it checks, so ``spec``, ``ambient`` and
    ``embedding`` start as None: ``build_group`` sets ``spec`` to the canonical
    name of the group it names (``"S3"``), and ``enumerate_subgroups`` sets
    each subgroup's ``ambient`` and ``embedding``, the members' indices in the
    ambient group.

    A group is its Cayley table: two groups with one table are equal and hash
    alike.  ``labels``, ``spec``, ``ambient`` and ``embedding`` describe a
    group but do not identify it, so K4's three subgroups of order 2 are one
    group, and their elements mix without ``GroupMismatch``.
    """

    __slots__ = (
        "order",
        "cayley",
        "inv",
        "identity",
        "generators",
        "labels",
        "spec",
        "ambient",
        "embedding",
        "label_index",
    )

    def __init__(self, cayley, labels=None) -> None:
        rows = iter(cayley)
        first = tuple(next(rows, ()))  # n comes from the first row
        n = len(first)
        if not n:
            raise ValueError("a group needs at least the identity element")
        # one shared int object per value; a non-integral or out-of-range entry has no key
        canonical = dict(zip(range(n), range(n))).__getitem__
        table = []
        for i, row in enumerate(itertools.chain((first,), rows)):
            try:
                row = tuple(map(canonical, row))
            except (KeyError, TypeError):
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}") from None
            if len(row) != n:
                raise ValueError("Cayley table must be square")
            if len(set(row)) != n:
                raise ValueError(f"row {i} is not a permutation of 0..{n - 1}")
            table.append(row)
        if len(table) != n:
            raise ValueError("Cayley table must be square")
        _set(self, "order", n)
        _set(self, "cayley", tuple(table))
        _validate_table(self)
        labels = tuple(map(str, range(n) if labels is None else labels))
        if len(labels) != n:
            raise ValueError("labels length does not match group order")
        label_index = {}
        for i, lab in enumerate(labels):
            if (j := label_index.setdefault(lab, i)) != i:
                raise ValueError(f"label {lab!r} is at positions {j} and {i}")
        _set(self, "labels", labels)
        _set(self, "label_index", label_index)
        _set(self, "spec", None)
        _set(self, "ambient", None)
        _set(self, "embedding", None)

    def mul(self, x: int, y: int) -> int:
        return self.cayley[self._check_index(x)][self._check_index(y)]

    def inverse(self, x: int) -> int:
        return self.inv[self._check_index(x)]

    def involution_count(self) -> int:
        """Number of x with x*x = identity (identity itself included)."""
        return sum(1 for x in range(self.order) if self.cayley[x][x] == self.identity)

    def _check_index(self, x: int) -> int:
        """``x`` read as an element index: an integer in range(order)."""
        try:
            x = index(x)
        except TypeError:
            raise IndexOutOfRange(f"element index {x!r} is not an integer") from None
        if not 0 <= x < self.order:
            raise IndexOutOfRange(f"element index {x} outside group of order {self.order}")
        return x

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and self.cayley == other.cayley

    def __hash__(self) -> int:
        return hash((self.order, self.identity, self.cayley[0]))

    def __repr__(self) -> str:
        return f"FiniteGroup({self.spec or f'order-{self.order} group'})"


# ---------------------------------------------------------------------------
# built-in families


def build_group(name: str) -> FiniteGroup:
    """The group named ``C<n>``, ``S<n>``, ``D<n>``, ``K4`` or ``H<p>``, in any case.

    Outer spaces are ignored, and ``spec`` is set to the canonical name.  Text
    that is no such name raises ``ParseError``; ``n < 1``, or an ``H<p>`` whose
    ``p`` is not an odd prime, raises ``InvalidSpec``.  An order above
    ``GROUP_ORDER_LIMIT`` raises ``SearchTooLarge`` before any table is built,
    and before the primality test: the order is worked out from ``n`` alone,
    and ``S<n>`` multiplies ``n!`` out only until the limit is passed.
    """
    text = name.strip()
    if text.upper() == "K4":
        letter, n = "K", 4
    elif m := _SPEC_RE.fullmatch(text):
        letter = m.group(1).upper()
        try:
            n = int(m.group(2))
        except ValueError:  # more digits than int() reads
            raise ParseError(f"cannot parse group spec {name!r}: parameter too long") from None
    else:
        raise ParseError(f"cannot parse group spec {name!r}")
    kind, builder, order, shown = {
        "C": ("cyclic", _cyclic_group, n, "{}"),
        "S": ("symmetric", _symmetric_group, 1, "{}!"),
        "D": ("dihedral", _dihedral_group, 2 * n, "2*{}"),
        "H": ("heisenberg", _heisenberg_group, n**3, "{}^3"),
        "K": ("klein4", _klein_four_group, 4, "{}"),
    }[letter]
    if n < 1:
        raise InvalidSpec(f"{kind} needs a positive integer parameter")
    if letter == "S":
        for k in range(2, n + 1):
            order *= k
            if order > GROUP_ORDER_LIMIT:
                break
    spec = f"{letter}{n}"
    if order > GROUP_ORDER_LIMIT:
        raise SearchTooLarge(
            f"group {spec} has order {shown.format(n)}, above the limit {GROUP_ORDER_LIMIT}"
        )
    if letter == "H" and not _is_odd_prime(n):
        raise InvalidSpec(f"heisenberg parameter must be an odd prime, got {n}")
    G = builder(n)
    _set(G, "spec", spec)
    return G


group_from_name = build_group  # perfbench/run.py imports this name; the tracer wraps both


def _power_label(base: str, k: int) -> str:
    if k == 0:
        return "e"
    if k == 1:
        return base
    return f"{base}^{k}"


def _generated(elements, identity, generators, mul, labels) -> FiniteGroup:
    """The group on ``elements`` under ``mul``, grown from the rows of ``generators``.

    Only the generators' rows are computed with ``mul``: entry y of s's row is the
    position of s*y.  Every other row is grown from the identity's by right
    multiplication, x*s = row(x)[s] and row(x*s) = row(x)[row(s)], one C-level
    lookup per entry.  All rows share the int objects of the identity's row, and
    ``FiniteGroup`` checks each and drops it once read.
    """
    position = {x: i for i, x in enumerate(elements)}
    n, e = len(position), position[identity]
    steps = [
        (position[s], itemgetter(*[position[mul(s, y)] for y in elements])) for s in generators
    ]
    rows = {e: tuple(range(n))}
    stack = [e]
    while stack:
        row_x = rows[stack.pop()]
        for s, times_row_s in steps:
            xs = row_x[s]
            if xs not in rows:
                rows[xs] = times_row_s(row_x)
                stack.append(xs)
    return FiniteGroup(map(rows.pop, range(n)), labels)


def _cyclic_group(n: int) -> FiniteGroup:
    labels = [_power_label("a", k) for k in range(n)]
    return _generated(range(n), 0, [1 % n], lambda x, y: (x + y) % n, labels)


def _klein_four_group(n: int) -> FiniteGroup:
    return _generated(range(n), 0, [1, 2], xor, ["e", "a", "b", "c"])  # n = 4: C2 x C2


def _dihedral_group(n: int) -> FiniteGroup:
    # pairs (f, k) for s^f r^k, generated by r and s with s r s = r^{-1}
    elements = [(f, k) for f in range(2) for k in range(n)]

    def mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        (f1, k1), (f2, k2) = x, y
        return f1 ^ f2, (k2 - k1 if f2 else k1 + k2) % n

    labels = [_power_label("r", k) for k in range(n)]
    labels += ["s" if k == 0 else "s" + _power_label("r", k) for k in range(n)]
    return _generated(elements, (0, 0), [(0, 1 % n), (1, 0)], mul, labels)


def _cycle_label(perm: tuple[int, ...]) -> str:
    n = len(perm)
    seen = [False] * n
    sep = "" if n <= 9 else ","
    parts = []
    for start in range(n):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + sep.join(str(p + 1) for p in cycle) + ")")
    return "".join(parts) if parts else "e"


def _symmetric_group(n: int) -> FiniteGroup:
    # one-line permutations in lexicographic order; product x*y applies y first
    perms = list(itertools.permutations(range(n)))
    gens = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []  # (12) and (12...n)
    labels = [_cycle_label(p) for p in perms]
    return _generated(perms, perms[0], gens, lambda x, y: tuple(map(x.__getitem__, y)), labels)


def _heisenberg_group(p: int) -> FiniteGroup:
    # [[1,a,b],[0,1,c],[0,0,1]] over Z_p as the triple (a, b, c), generated by (1,0,0), (0,0,1)
    triples = list(itertools.product(range(p), repeat=3))

    def mul(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
        (a1, b1, c1), (a2, b2, c2) = x, y
        return (a1 + a2) % p, (b1 + b2 + a1 * c2) % p, (c1 + c2) % p

    labels = [f"({a},{b},{c})" for (a, b, c) in triples]
    return _generated(triples, (0, 0, 0), [(1, 0, 0), (0, 0, 1)], mul, labels)


# ---------------------------------------------------------------------------
# homomorphisms


class GroupHom(_Frozen):
    """A group homomorphism, given by its image table on element indices.

    Every ``GroupHom`` is a hom: ``__init__`` reads the table and raises
    ``InvalidHom`` unless ``validate_hom`` accepts it, and ``enumerate_homs``
    keeps only the tables that the same test accepts.  ``identity_hom``,
    ``trivial_hom`` and ``compose_homs`` are homs by how they are built, and
    ``_built_hom`` makes the library's own homs without checking them again.
    """

    __slots__ = ("domain", "codomain", "image")
    _key = attrgetter(*__slots__)

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, image) -> None:
        entries = []
        for i, v in enumerate(image):
            try:
                v = index(v)
            except TypeError:
                raise InvalidHom(f"image entry {i} is {v!r}, not an integer") from None
            if not 0 <= v < codomain.order:
                raise InvalidHom(f"image entry {i} is {v}, outside 0..{codomain.order - 1}")
            entries.append(v)
        if len(entries) != domain.order:
            raise InvalidHom(f"image has {len(entries)} entries, expected {domain.order}")
        _set(self, "domain", domain)
        _set(self, "codomain", codomain)
        _set(self, "image", tuple(entries))
        if not validate_hom(self):
            raise InvalidHom("image table is not a group homomorphism")

    def __call__(self, x: int) -> int:
        return self.image[self.domain._check_index(x)]


def _built_hom(domain: FiniteGroup, codomain: FiniteGroup, image: tuple[int, ...]) -> GroupHom:
    """The ``GroupHom`` of a table of ints already known to be a hom, unchecked."""
    f = object.__new__(GroupHom)
    _set(f, "domain", domain)
    _set(f, "codomain", codomain)
    _set(f, "image", image)
    return f


def identity_hom(G: FiniteGroup) -> GroupHom:
    return _built_hom(G, G, tuple(range(G.order)))


def trivial_hom(G: FiniteGroup, H: FiniteGroup) -> GroupHom:
    return _built_hom(G, H, (H.identity,) * G.order)


def validate_hom(h: GroupHom) -> bool:
    """True iff ``h.image`` is a hom, checked on the rows of the domain's generators.

    The g with ``img[g*y] == img[g]*img[y]`` for every y are closed under
    products once ``img`` fixes the identity, so they are all of the domain
    when they include its ``generators``: O(|G| * |generators|) instead of
    every pair.  ``GroupHom.__init__`` runs it on every table it is given, and
    the tables ``enumerate_homs`` keeps pass the same ``_is_hom``: it is the
    library's one test of a hom.
    """
    return _is_hom(h.domain, h.codomain, h.image)


def _is_hom(G: FiniteGroup, H: FiniteGroup, img: Sequence[int]) -> bool:
    """``validate_hom`` on a bare image table, for the hom search."""
    if img[G.identity] != H.identity:
        return False
    image, rows = img.__getitem__, H.cayley
    return all(
        tuple(map(image, G.cayley[g])) == tuple(map(rows[img[g]].__getitem__, img))
        for g in G.generators
    )


def compose_homs(f2: GroupHom, f1: GroupHom) -> GroupHom:
    """The composite x -> f2(f1(x)); f1 is applied first."""
    if f1.codomain != f2.domain:
        raise DomainMismatch("codomain of the first map must equal the domain of the second")
    return _built_hom(f1.domain, f2.codomain, tuple(f2.image[v] for v in f1.image))


def closure(G: FiniteGroup, elements) -> frozenset[int]:
    """Smallest subgroup of G containing ``elements``, at O(|result| * |elements|).

    Grows from the identity by right-multiplying only, so on any table it gives
    the left-bracketed products ``e*a1*...*ak`` that ``_validate_table`` needs.
    """
    right = set(elements)
    table = G.cayley
    known = {G.identity}
    stack = [G.identity]
    while stack:
        row = table[stack.pop()]
        for a in right:
            z = row[a]
            if z not in known:
                known.add(z)
                stack.append(z)
    return frozenset(known)


def generating_set(G: FiniteGroup) -> list[int]:
    """Small generating set, grown greedily (largest gain, smallest index ties).

    An x inside a closure already tried this round is skipped: <gens, x> lies in
    that closure, so x can neither beat the best so far nor generate G first.
    """
    gens: list[int] = []
    generated: frozenset[int] = frozenset({G.identity})
    while len(generated) < G.order:
        best_x, best = -1, generated
        covered = set(generated)
        for x in range(G.order):
            if x in covered:
                continue
            cand = closure(G, gens + [x])
            covered |= cand
            if len(cand) > len(best):
                best_x, best = x, cand
                if len(cand) == G.order:
                    break
        gens.append(best_x)
        generated = best
    return gens


def _element_orders(G: FiniteGroup) -> list[int]:
    """Order of every element; the powers of x give the orders of all of <x> at once."""
    e, orders = G.identity, [0] * G.order
    for x in range(G.order):
        if not orders[x]:
            row, powers = G.cayley[x], [e]
            while (y := row[powers[-1]]) != e:
                powers.append(y)
            m = len(powers)
            for k, y in enumerate(powers):
                orders[y] = m // gcd(k, m)
    return orders


def enumerate_homs(G: FiniteGroup, H: FiniteGroup) -> list[GroupHom]:
    """All homomorphisms G -> H, sorted lexicographically by image table.

    A hom sends each generator g to an element whose order divides g's order,
    so only those images are tried (the backtrack search of Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*).  It also sends each
    product g_i*g_j of two generators to h_i*h_j, so a choice of images where
    the order of h_i*h_j does not divide that of g_i*g_j is no hom's and is
    skipped.  Every other choice h_i for ``G.generators`` fills a table along
    one walk of G from the identity, with steps y = x*g_i where x is reached
    first: ``img[y] = img[x]*h_i``.  It is kept when ``_is_hom``, the test every
    ``GroupHom`` passes, accepts it.  A hom with images h_i equals its fill, so
    none is missed; the identity's own steps set ``img[g_i] = h_i``, so distinct
    choices give distinct tables.  ``HOM_SEARCH_LIMIT`` bounds the entries the
    loop may fill: the product of the candidate counts times |G|.
    """
    gens = G.generators
    orders_G, orders_H = _element_orders(G), _element_orders(H)
    candidates = [
        [h for h in range(H.order) if orders_G[g] % orders_H[h] == 0] for g in gens
    ]
    entries = prod(map(len, candidates)) * G.order
    if entries > HOM_SEARCH_LIMIT:
        raise SearchTooLarge(
            f"hom search {G!r} -> {H!r} fills {entries} table entries "
            f"({' * '.join(str(len(c)) for c in candidates)} candidate images, "
            f"{G.order} entries each), above the limit {HOM_SEARCH_LIMIT}"
        )
    # order(x*y) == order(y*x), so one of each unordered pair of generators is enough
    pairs = [
        (i, j, orders_G[G.cayley[gens[i]][gens[j]]])
        for i, j in itertools.combinations(range(len(gens)), 2)
    ]
    reached, seen, steps = [G.identity], {G.identity}, []
    for x in reached:  # grows while it is read
        for i, g in enumerate(gens):
            y = G.cayley[x][g]
            if y not in seen:
                seen.add(y)
                reached.append(y)
                steps.append((y, x, i))
    rows_H = H.cayley
    img = [H.identity] * G.order
    tables = []
    for images in itertools.product(*candidates):
        if any(m % orders_H[rows_H[images[i]][images[j]]] for i, j, m in pairs):
            continue
        for y, x, i in steps:
            img[y] = rows_H[img[x]][images[i]]
        if _is_hom(G, H, img):
            tables.append(tuple(img))
    return [_built_hom(G, H, t) for t in sorted(tables)]


# ---------------------------------------------------------------------------
# subgroups


def _as_subgroup(G: FiniteGroup, members: list[int], generators: list[int]) -> FiniteGroup:
    """The subgroup on ``members``, generated by ``generators``: local index i is ``members[i]``.

    Its table multiplies as G's does, so the stored ``embedding`` i -> m_i is an injective hom.
    """
    labels = [G.labels[g] for g in members]
    S = _generated(members, G.identity, generators, lambda x, y: G.cayley[x][y], labels)
    _set(S, "ambient", G)
    _set(S, "embedding", tuple(members))
    return S


def enumerate_subgroups(G: FiniteGroup) -> list[FiniteGroup]:
    """All subgroups of G, smallest first, by cyclic extension.

    Each result is a FiniteGroup whose ``ambient`` is G and whose ``embedding``
    maps local indices back into G.  Every subgroup is <g_1, ..., g_r> for
    some elements, so extending each subgroup H found by one element outside
    it, until nothing new turns up, finds them all (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005).  <H, g> = <H, xh> for
    every generator x of <g> and h in H, so one g of each set of such
    products is tried.
    """
    if G.order > SUBGROUP_ORDER_LIMIT:
        raise SearchTooLarge(
            f"subgroup enumeration of {G!r} needs order <= {SUBGROUP_ORDER_LIMIT}, got {G.order}"
        )
    table, generators = G.cayley, {}  # each cyclic subgroup and the elements that generate it
    for g in range(G.order):
        generators.setdefault(closure(G, [g]), []).append(g)
    found = {frozenset({G.identity}): []}  # each subgroup, by the generators it was found from
    layer = list(found)
    while layer:
        grown = []
        for H in layer:
            covered = set(H)
            for gs in generators.values():
                if gs[0] not in covered:
                    covered.update(table[x][h] for x in gs for h in H)
                    if (K := closure(G, found[H] + gs[:1])) not in found:
                        found[K] = found[H] + gs[:1]
                        grown.append(K)
        layer = grown
    ordered = sorted(found, key=lambda s: (len(s), sorted(s)))
    return [_as_subgroup(G, sorted(s), found[s]) for s in ordered]
