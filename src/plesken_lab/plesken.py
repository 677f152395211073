"""Hat elements g - g^{-1}: canonical bases, brackets, structure constants.

The span of all hat elements is closed under the commutator bracket, so it
carries a Lie algebra structure of its own; everything here manipulates
coordinates over a canonical choice of hat representatives.  Coordinate
vectors use the sparse-vector arithmetic of ``algebra._Vector``.
"""

from __future__ import annotations

from operator import attrgetter

from .algebra import AlgebraElement, ONE, Scalar, ZERO, _Vector, lie_bracket
from .errors import BasisMismatch, InvalidPrime, NotInSpan
from .groups import FiniteGroup, GroupHom, _Frozen, _is_odd_prime, _set


def hat(G: FiniteGroup, g: int) -> AlgebraElement:
    """The antisymmetrized element g - g^{-1}; zero for involutions and identity."""
    G._check_index(g)
    gi = G.inv[g]
    coeffs = {g: ONE}
    coeffs[gi] = coeffs.get(gi, ZERO) - ONE
    return AlgebraElement(G, coeffs)


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
        return self._positions.get(g)

    def __repr__(self) -> str:
        return f"PleskenBasis({self.group!r}, dim={self.dimension})"


def canonical_basis(G: FiniteGroup) -> PleskenBasis:
    """Representatives g with g != g^{-1} and index(g) < index(g^{-1})."""
    return PleskenBasis(G)


class PleskenElement(_Vector):
    """Sparse vector over a PleskenBasis: ``coords`` maps basis positions to Scalars."""

    __slots__ = ()
    basis = _Vector._space
    coords = _Vector._map
    _size = attrgetter("dimension")
    _index_name, _space_name = "coordinate", "basis of dim"
    _mismatch, _mismatch_text = BasisMismatch, "operands use different bases"

    @classmethod
    def unit(cls, basis: PleskenBasis, k: int, coeff: Scalar = ONE) -> "PleskenElement":
        return cls(basis, {k: coeff})

    def __repr__(self) -> str:
        labels = self.basis.group.labels
        body = " + ".join(f"({c})*{labels[self.basis.reps[k]]}^" for k, c in self.terms())
        return f"PleskenElement({body or '0'})"


def reduce(x: AlgebraElement, basis: PleskenBasis | None = None) -> PleskenElement:
    """Coordinates of x over the hat basis.

    Hat multiples are subtracted greedily per representative; a nonzero
    residual means x has a component outside the span and raises NotInSpan.
    """
    b = basis if basis is not None else canonical_basis(x.group)
    if b.group != x.group:
        raise BasisMismatch("element and basis use different groups")
    residual = dict(x.coeffs)
    coords: dict[int, Scalar] = {}
    for k, g in enumerate(b.reps):
        c = residual.pop(g, None)
        if c is None:
            continue
        coords[k] = c
        gi = x.group.inv[g]
        r = residual.get(gi, ZERO) + c
        if r:
            residual[gi] = r
        else:
            residual.pop(gi, None)
    if residual:
        raise NotInSpan(
            f"nonzero component outside the hat span at indices {sorted(residual)}"
        )
    return PleskenElement(b, coords)


def embed(x: PleskenElement) -> AlgebraElement:
    """The group-algebra element sum_k coords[k] * (rep_k - rep_k^{-1})."""
    G = x.basis.group
    acc: dict[int, Scalar] = {}
    for k, c in x.coords.items():
        g = x.basis.reps[k]
        gi = G.inv[g]
        acc[g] = acc.get(g, ZERO) + c
        acc[gi] = acc.get(gi, ZERO) - c
    return AlgebraElement(G, acc)


def plesken_bracket(x: PleskenElement, y: PleskenElement) -> PleskenElement:
    """Commutator of the embedded elements, reduced back to coordinates."""
    x._require_same_space(y)
    return reduce(lie_bracket(embed(x), embed(y)), x.basis)


def bracket_expansion_check(G: FiniteGroup, g: int, h: int) -> bool:
    """True iff [g^, h^] equals (gh)^ - (gh^{-1})^ - (g^{-1}h)^ + (g^{-1}h^{-1})^."""
    lhs = lie_bracket(hat(G, g), hat(G, h))
    gi, hi = G.inv[g], G.inv[h]
    t = G.cayley
    rhs = hat(G, t[g][h]) - hat(G, t[g][hi]) - hat(G, t[gi][h]) + hat(G, t[gi][hi])
    return lhs == rhs


def structure_constants(B: PleskenBasis) -> dict[tuple[int, int], dict[int, int]]:
    """Sparse table {(k, l): {m: c}}, k < l, with [e_k, e_l] = sum_m c e_m.

    Read straight from [g^, h^] = (gh)^ - (gh^{-1})^ - (g^{-1}h)^ + (g^{-1}h^{-1})^:
    each product is a signed basis hat or zero.  Only nonzero brackets and
    entries are stored; [e_l, e_k] is the negative and [e_k, e_k] is zero.
    """
    t, inv, position = B.group.cayley, B.group.inv, B.position
    table: dict[tuple[int, int], dict[int, int]] = {}
    for k, g in enumerate(B.reps):
        gi = inv[g]
        for l in range(k + 1, B.dimension):
            h = B.reps[l]
            hi = inv[h]
            acc: dict[int, int] = {}
            for p, sign in ((t[g][h], 1), (t[g][hi], -1), (t[gi][h], -1), (t[gi][hi], 1)):
                pos = position(p)
                if pos is not None:
                    acc[pos[0]] = acc.get(pos[0], 0) + sign * pos[1]
            entries = {m: c for m, c in sorted(acc.items()) if c}
            if entries:
                table[(k, l)] = entries
    return table


HatMap = tuple[tuple[int, int] | None, ...]


def hat_map(image, domain_basis: PleskenBasis, codomain_basis: PleskenBasis) -> HatMap:
    """Integer form of a hat lift: entry k is (m, +-1) when the k-th basis hat
    goes to +-e_m, None when it goes to zero; ``image`` is the hom's image table."""
    return tuple(map(codomain_basis._positions.get, map(image.__getitem__, domain_basis.reps)))


class HatLift(_Frozen):
    """Induced map between hat-span Lie algebras, stored as its integer hat map.

    ``action[k]`` is (m, +-1) when the k-th domain basis hat goes to +-e_m in
    the codomain basis and None when it goes to zero (see ``hat_map``).  Two
    lifts are equal exactly when their bases and actions agree, regardless
    of which group homomorphism produced them.
    """

    __slots__ = ("hom", "domain_basis", "codomain_basis", "action")
    _key = attrgetter("domain_basis", "codomain_basis", "action")

    def __init__(
        self,
        hom: GroupHom,
        domain_basis: PleskenBasis,
        codomain_basis: PleskenBasis,
        action: HatMap,
    ) -> None:
        _set(self, "hom", hom)
        _set(self, "domain_basis", domain_basis)
        _set(self, "codomain_basis", codomain_basis)
        _set(self, "action", action)

    def __call__(self, x: PleskenElement) -> PleskenElement:
        if x.basis != self.domain_basis:
            raise BasisMismatch("element does not live in the lift's domain")
        acc: dict[int, Scalar] = {}
        for k, c in x.coords.items():
            entry = self.action[k]
            if entry is not None:
                m, s = entry
                acc[m] = acc.get(m, ZERO) + (c if s > 0 else -c)
        return PleskenElement(self.codomain_basis, acc)

    def is_zero_map(self) -> bool:
        return all(entry is None for entry in self.action)

    def is_identity_map(self) -> bool:
        if self.domain_basis != self.codomain_basis:
            return False
        return all(entry == (k, 1) for k, entry in enumerate(self.action))

    def __repr__(self) -> str:
        return (
            f"HatLift(dim {self.domain_basis.dimension} -> "
            f"{self.codomain_basis.dimension})"
        )


def lift_hom_hat(f: GroupHom) -> HatLift:
    """The map sending each basis hat g^ to (f(g))^ in the codomain's basis."""
    domain_basis = canonical_basis(f.domain)
    codomain_basis = canonical_basis(f.codomain)
    action = hat_map(f.image, domain_basis, codomain_basis)
    return HatLift(f, domain_basis, codomain_basis, action)


# ---------------------------------------------------------------------------
# closed form for upper unitriangular matrices over Z_p


def heisenberg_hat_closed_form(p: int, a: int, b: int, c: int) -> list[list[int]]:
    """A - A^{-1} for A = [[1,a,b],[0,1,c],[0,0,1]] over Z_p, p an odd prime.

    A^{-1} = [[1, -a, ac-b], [0, 1, -c], [0, 0, 1]], so the difference is
    [[0, 2a, 2b-ac], [0, 0, 2c], [0, 0, 0]] mod p.  The tests check this
    closed form against inverses found by exhaustive search.
    """
    if not _is_odd_prime(p):
        raise InvalidPrime(f"p must be an odd prime, got {p}")
    return [[0, (2 * a) % p, (2 * b - a * c) % p], [0, 0, (2 * c) % p], [0, 0, 0]]
