"""Hat elements g - g^{-1}: canonical bases, structure constants, hat lifts.

The span of all hat elements is closed under the commutator bracket, so it
carries a Lie algebra structure of its own.  Its data are integers: over a
canonical choice of hat representatives every structure constant is a small
integer and every hat lift sends a basis hat to +-1 times a basis hat or to
zero, so everything here is read straight from the Cayley table.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter, index

from .errors import InvalidPrime
from .groups import FiniteGroup, GroupHom, _Frozen, _is_odd_prime, _set


def hat(G: FiniteGroup, g: int):
    """The antisymmetrized element g - g^{-1} of C[G]; zero for involutions and identity."""
    # imported here: no other name of this module needs group-algebra elements,
    # so `plesken` commands never load `algebra` and its Fraction scalars
    from .algebra import AlgebraElement, ONE

    g = G._check_index(g)
    return AlgebraElement(G, ((g, ONE), (G.inv[g], -ONE)))  # an involution's terms cancel


class PleskenBasis(_Frozen):
    """The canonical hat basis of a group: each g with index(g) < index(g^{-1}), in order."""

    __slots__ = ("group", "reps", "_positions")
    _key = attrgetter("group", "reps")

    def __init__(self, group: FiniteGroup) -> None:
        inv = group.inv
        reps = tuple(g for g in range(group.order) if g < inv[g])
        positions: dict[int, tuple[int, int]] = {}
        for k, g in enumerate(reps):
            positions[g] = (k, 1)
            positions[inv[g]] = (k, -1)
        _set(self, "group", group)
        _set(self, "reps", reps)
        _set(self, "_positions", positions)

    @property
    def dimension(self) -> int:
        return len(self.reps)

    def position(self, g: int) -> tuple[int, int] | None:
        """(basis position, sign) for a non-involution g, else None."""
        return self._positions.get(self.group._check_index(g))

    def __repr__(self) -> str:
        return f"PleskenBasis({self.group!r}, dim={self.dimension})"


def canonical_basis(G: FiniteGroup) -> PleskenBasis:
    """Representatives g with g != g^{-1} and index(g) < index(g^{-1})."""
    return PleskenBasis(G)


# Retired: the benchmark's tracer still wraps these three names by their entries
# in ``LAYER_FUNCTIONS`` (perfbench/tracing.py), and no code calls them.  The
# benchmark-only change of ROADMAP items 1 and 15 deletes both together.
def reduce(*args): raise NotImplementedError("reduce was retired")
def embed(*args): raise NotImplementedError("embed was retired")
def plesken_bracket(*args): raise NotImplementedError("plesken_bracket was retired")


def structure_constants(B: PleskenBasis) -> dict[tuple[int, int], dict[int, int]]:
    """Sparse table {(k, l): {m: c}}, k < l, with [e_k, e_l] = sum_m c e_m.

    Read straight from [g^, h^] = (gh)^ - (gh^{-1})^ - (g^{-1}h)^ + (g^{-1}h^{-1})^:
    each product is a signed basis hat or zero.  Only nonzero brackets and
    entries are stored; [e_l, e_k] is the negative and [e_k, e_k] is zero.

    Row k reads the four products for every l > k at once, through ``plus[x]``
    (the position of x as (m, +-1), None for an involution) and ``minus[x]``
    (its negative); the sorted terms of a bracket are its entries unless two
    share an m.
    """
    G, reps = B.group, B.reps
    t, inv = G.cayley, G.inv
    position = list(map(B._positions.get, range(G.order)))
    plus = position.__getitem__
    minus = [p and (p[0], -p[1]) for p in position].__getitem__
    rep_invs = tuple(map(inv.__getitem__, reps))
    table: dict[tuple[int, int], dict[int, int]] = {}
    for k, g in enumerate(reps):
        row, row_i = t[g].__getitem__, t[inv[g]].__getitem__
        hs, his = reps[k + 1 :], rep_invs[k + 1 :]
        products = zip(
            map(plus, map(row, hs)), map(minus, map(row, his)),
            map(minus, map(row_i, hs)), map(plus, map(row_i, his)),
        )
        for l, terms in enumerate(map(sorted, map(filter, repeat(None), products)), k + 1):
            entries = dict(terms)
            if len(entries) < len(terms):  # two terms on one m: add them up
                entries = {}
                for m, c in terms:
                    entries[m] = entries.get(m, 0) + c
                entries = {m: c for m, c in entries.items() if c}
            if entries:
                table[(k, l)] = entries
    return table


HatMap = tuple[tuple[int, int] | None, ...]


def hat_map(image, domain_basis: PleskenBasis, codomain_basis: PleskenBasis) -> HatMap:
    """Integer form of a hat lift: entry k is (m, +-1) when the k-th basis hat
    goes to +-e_m, None when it goes to zero; ``image`` is the hom's image table."""
    return tuple(map(codomain_basis._positions.get, map(image.__getitem__, domain_basis.reps)))


def lift_hom_hat(f: GroupHom) -> HatMap:
    """The hat map of f: the k-th basis hat g^ goes to (f(g))^ in the codomain's basis."""
    return hat_map(f.image, canonical_basis(f.domain), canonical_basis(f.codomain))


# ---------------------------------------------------------------------------
# closed form for upper unitriangular matrices over Z_p


def heisenberg_hat_closed_form(p: int, a: int, b: int, c: int) -> list[list[int]]:
    """A - A^{-1} for A = [[1,a,b],[0,1,c],[0,0,1]] over Z_p, p an odd prime.

    A^{-1} = [[1, -a, ac-b], [0, 1, -c], [0, 0, 1]], so the difference is
    [[0, 2a, 2b-ac], [0, 0, 2c], [0, 0, 0]] mod p.  The tests check this
    closed form against inverses found by exhaustive search.  Every argument
    is read with ``operator.index``, so the entries are exact integers.
    ``InvalidPrime`` is raised unless p is an odd prime below psi_13 =
    3317044064679887385961981, the range where the primality test is exact.
    """
    p, a, b, c = index(p), index(a), index(b), index(c)
    if not _is_odd_prime(p):
        raise InvalidPrime(f"p must be an odd prime, got {p}")
    return [[0, (2 * a) % p, (2 * b - a * c) % p], [0, 0, (2 * c) % p], [0, 0, 0]]
