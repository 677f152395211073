"""Exact Gaussian-rational scalars and sparse group-algebra arithmetic.

Scalars are pairs of arbitrary-precision rationals (a + b*i), so every
algebraic identity downstream is checked with exact equality rather than
floating-point tolerances.  Group-algebra elements and the hat coordinates
of ``plesken`` share one sparse-vector class, ``_Vector``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter, index
from random import Random

from .errors import GroupMismatch, IndexOutOfRange, ParseError
from .groups import FiniteGroup, GroupHom, GroupSpec, _Frozen, _set, build_group


class Scalar(_Frozen):
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")
    _key = attrgetter(*__slots__)

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> None:
        _set(self, "re", re)
        _set(self, "im", im)

    @staticmethod
    def of(re=0, im=0) -> "Scalar":
        return Scalar(Fraction(re), Fraction(im))

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if not d:
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __str__(self) -> str:
        if not self:
            return "0"
        parts = []
        if self.re:
            parts.append(str(self.re))
        if self.im:
            mag = "i" if abs(self.im) == 1 else f"{abs(self.im)}i"
            if parts:
                parts.append(("+" if self.im > 0 else "-") + mag)
            else:
                parts.append(mag if self.im > 0 else "-" + mag)
        return "".join(parts)


def _coerce(value) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(Fraction(value))
    return None


ZERO = Scalar()
ONE = Scalar.of(1)
I = Scalar.of(0, 1)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}") from exc


class _Vector:
    """Finitely supported map from the indices of a space to nonzero Scalars.

    The shared arithmetic of ``AlgebraElement`` and ``PleskenElement``.  Each
    subclass names its space and map (aliases of the two slots below), how to
    read the size of the space, the wording of its index errors and the error
    raised when two operands live in different spaces.  Stored coefficients
    are never zero, so equality of vectors is equality of the maps.
    """

    __slots__ = ("_space", "_map")

    def __init__(self, space, entries=None) -> None:
        size = self._size(space)
        clean: dict[int, Scalar] = {}
        for k, c in (entries or {}).items():
            try:
                k = index(k)
            except TypeError:
                raise IndexOutOfRange(f"{self._index_name} {k!r} is not an integer") from None
            if not 0 <= k < size:
                raise IndexOutOfRange(
                    f"{self._index_name} {k} outside {self._space_name} {size}"
                )
            value = c if c.__class__ is Scalar else _coerce(c)
            if value is None:
                raise TypeError(
                    f"coefficient {c!r} at {self._index_name} {k} "
                    "is not a Scalar, int, or Fraction"
                )
            if value:
                clean[k] = value
        self._space = space
        self._map = clean

    @classmethod
    def zero(cls, space):
        return cls(space)

    def terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self._map.items())

    def is_zero(self) -> bool:
        return not self._map

    def _require_same_space(self, other: "_Vector") -> None:
        if self._space != other._space:
            raise self._mismatch(self._mismatch_text)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._space == other._space and self._map == other._map

    __hash__ = None

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._require_same_space(other)
        acc = dict(self._map)
        for k, c in other._map.items():
            acc[k] = acc.get(k, ZERO) + c
        return self.__class__(self._space, acc)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._require_same_space(other)
        acc = dict(self._map)
        for k, c in other._map.items():
            acc[k] = acc.get(k, ZERO) - c
        return self.__class__(self._space, acc)

    def __neg__(self):
        return self.__class__(self._space, {k: -c for k, c in self._map.items()})

    def __rmul__(self, other):
        k = _coerce(other)
        if k is None:
            return NotImplemented
        return self.__class__(self._space, {i: k * c for i, c in self._map.items()})

    __mul__ = __rmul__


class AlgebraElement(_Vector):
    """Sparse element of a group algebra: ``coeffs`` maps group indices to Scalars."""

    __slots__ = ()
    group = _Vector._space
    coeffs = _Vector._map
    _size = attrgetter("order")
    _index_name, _space_name = "element index", "group of order"
    _mismatch, _mismatch_text = GroupMismatch, "operands belong to different groups"

    @classmethod
    def basis(cls, group: FiniteGroup, g: int, coeff: Scalar = ONE) -> "AlgebraElement":
        return cls(group, {g: coeff})

    def coefficient(self, g: int) -> Scalar:
        return self.coeffs.get(g, ZERO)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        return self.__rmul__(other)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for g, c in self.terms():
            label = self.group.labels[g]
            if c == ONE:
                chunks.append(label)
            elif c == -ONE:
                chunks.append(f"-{label}")
            else:
                chunks.append(f"({c})*{label}")
        return " + ".join(chunks).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"AlgebraElement({self})"


def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x + y


def scale(k, x: AlgebraElement) -> AlgebraElement:
    product = x.__rmul__(k)
    if product is NotImplemented:
        raise TypeError("scale expects a Scalar, int, or Fraction")
    return product


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The group-algebra product: full bilinear expansion through the Cayley table."""
    x._require_same_space(y)
    table = x.group.cayley
    acc: dict[int, Scalar] = {}
    for i, ci in x.coeffs.items():
        row = table[i]
        for j, cj in y.coeffs.items():
            k = row[j]
            c = ci * cj
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
    return AlgebraElement(x.group, acc)


def lie_bracket(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Commutator bracket x*y - y*x."""
    return convolve(x, y) - convolve(y, x)


class BarLift(_Frozen):
    """Linear extension of a group homomorphism across group-algebra elements.

    Two lifts are equal exactly when they agree on every group basis element,
    i.e. when the underlying image tables coincide.
    """

    __slots__ = ("hom",)
    _key = attrgetter(*__slots__)

    def __init__(self, hom: GroupHom) -> None:
        _set(self, "hom", hom)

    def __call__(self, x: AlgebraElement) -> AlgebraElement:
        if x.group != self.hom.domain:
            raise GroupMismatch("element does not live in the lift's domain")
        img = self.hom.image
        acc: dict[int, Scalar] = {}
        for g, c in x.coeffs.items():
            h = img[g]
            acc[h] = acc.get(h, ZERO) + c
        return AlgebraElement(self.hom.codomain, acc)


def lift_hom_bar(f: GroupHom) -> BarLift:
    """The linear extension of ``f``; a ``GroupHom`` is a hom, so nothing is checked."""
    return BarLift(f)


# ---------------------------------------------------------------------------
# parsing and serialization

_COEFF_RE = re.compile(r"(?P<rat>[+-]?[0-9]+(?:/[0-9]+)?)?(?P<imag>i)?")


def _split_terms(text: str) -> list[tuple[int, str | None, str]]:
    """Split an element expression into (sign, coefficient text or None, label) terms.

    One scan tracks the parenthesis depth; a term ends at a top-level sign and
    its coefficient ends at its first top-level ``*``.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element expression")
    out: list[tuple[int, str | None, str]] = []
    i, n = 0, len(s)
    while i < n:
        sign = -1 if s[i] == "-" else 1
        if s[i] in "+-":
            i += 1
        start, star, depth = i, None, 0
        while i < n and (depth > 0 or s[i] not in "+-"):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError(f"unbalanced parentheses in {text!r}")
            elif s[i] == "*" and depth == 0 and star is None:
                star = i
            i += 1
        if depth != 0:
            raise ParseError(f"unbalanced parentheses in {text!r}")
        if i == start:
            raise ParseError(f"missing term in {text!r}")
        if star is None:
            out.append((sign, None, s[start:i]))
        else:
            out.append((sign, s[start:star], s[star + 1 : i]))
    return out


def _parse_coefficient(text: str) -> Scalar:
    # ``text`` is balanced, so stripping outer parentheses either leaves text
    # without any or leaves unbalanced text that _COEFF_RE refuses.
    t = text
    while t.startswith("(") and t.endswith(")"):
        t = t[1:-1]
    m = _COEFF_RE.fullmatch(t)
    if m is None or (m.group("rat") is None and m.group("imag") is None):
        raise ParseError(f"cannot parse coefficient {text!r}")
    q = parse_fraction(m.group("rat")) if m.group("rat") is not None else Fraction(1)
    if m.group("imag"):
        return Scalar(Fraction(0), q)
    return Scalar(q)


def parse_element(group: FiniteGroup, text: str) -> AlgebraElement:
    """Parse expressions like ``2*e + (1/2)*a - i*a^2`` against the group's labels."""
    acc: dict[int, Scalar] = {}
    for sign, coeff_text, label in _split_terms(text):
        coeff = ONE if coeff_text is None else _parse_coefficient(coeff_text)
        if not label:
            raise ParseError(f"missing element label in term {coeff_text + '*'!r}")
        g = group.label_index.get(label)
        if g is None:
            raise ParseError(f"unknown element label {label!r}")
        c = coeff if sign > 0 else -coeff
        acc[g] = acc.get(g, ZERO) + c
    return AlgebraElement(group, acc)


def element_to_json(x: AlgebraElement) -> dict:
    """JSON form {"group": spec, "terms": [{"elem", "re", "im"}, ...]}, sorted by index."""
    if x.group.spec is None:
        raise ValueError("only groups built from a spec can be serialized")
    return {
        "group": str(x.group.spec),
        "terms": [
            {"elem": x.group.labels[g], "re": str(c.re), "im": str(c.im)}
            for g, c in x.terms()
        ],
    }


def element_from_json(payload: dict) -> AlgebraElement:
    group = build_group(GroupSpec.parse(payload["group"]))
    acc: dict[int, Scalar] = {}
    for term in payload["terms"]:
        g = group.label_index.get(term["elem"])
        if g is None:
            raise ParseError(f"unknown element label {term['elem']!r}")
        c = Scalar(parse_fraction(term["re"]), parse_fraction(term.get("im", "0")))
        acc[g] = acc.get(g, ZERO) + c
    return AlgebraElement(group, acc)


# ---------------------------------------------------------------------------
# seeded random elements for property checks

RANDOM_COEFFS = (
    Scalar.of(-2),
    Scalar.of(-1),
    Scalar.of(Fraction(-1, 2)),
    ZERO,
    Scalar.of(Fraction(1, 2)),
    ONE,
    Scalar.of(2),
    I,
    -I,
)


def random_scalar(rng: Random) -> Scalar:
    return rng.choice(RANDOM_COEFFS)


def random_element(group: FiniteGroup, rng: Random, max_support: int = 5) -> AlgebraElement:
    """Small random element with coefficients from a fixed exact set."""
    k = rng.randint(0, min(max_support, group.order))
    support = rng.sample(range(group.order), k)
    return AlgebraElement(group, {g: random_scalar(rng) for g in support})
