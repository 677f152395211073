"""Exact Gaussian-rational scalars and sparse group-algebra arithmetic.

Scalars are pairs of arbitrary-precision rationals (a + b*i), so every
algebraic identity downstream is checked with exact equality rather than
floating-point tolerances.
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


class AlgebraElement:
    """Sparse element of a group algebra: finitely supported index -> Scalar map.

    Stored coefficients are never zero, so equality of elements is equality
    of the underlying maps.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs=None) -> None:
        clean: dict[int, Scalar] = {}
        for g, c in (coeffs or {}).items():
            try:
                g = index(g)
            except TypeError:
                raise IndexOutOfRange(f"element index {g!r} is not an integer") from None
            if not 0 <= g < group.order:
                raise IndexOutOfRange(
                    f"element index {g} outside group of order {group.order}"
                )
            if not isinstance(c, Scalar):
                c = Scalar.of(c)
            if c:
                clean[g] = c
        self.group = group
        self.coeffs = clean

    @classmethod
    def zero(cls, group: FiniteGroup) -> "AlgebraElement":
        return cls(group)

    @classmethod
    def basis(cls, group: FiniteGroup, g: int, coeff: Scalar = ONE) -> "AlgebraElement":
        return cls(group, {g: coeff})

    def terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self.coeffs.items())

    def coefficient(self, g: int) -> Scalar:
        return self.coeffs.get(g, ZERO)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _require_same_group(self, other)
        acc = dict(self.coeffs)
        for g, c in other.coeffs.items():
            acc[g] = acc.get(g, ZERO) + c
        return AlgebraElement(self.group, acc)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-other)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, {g: -c for g, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        k = _coerce(other)
        if k is None:
            return NotImplemented
        return scale(k, self)

    def __rmul__(self, other):
        k = _coerce(other)
        if k is None:
            return NotImplemented
        return scale(k, self)

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


def _require_same_group(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.group != y.group:
        raise GroupMismatch("operands belong to different groups")


def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    return x + y


def scale(k, x: AlgebraElement) -> AlgebraElement:
    k = _coerce(k)
    if k is None:
        raise TypeError("scale expects a Scalar, int, or Fraction")
    return AlgebraElement(x.group, {g: k * c for g, c in x.coeffs.items()})


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The group-algebra product: full bilinear expansion through the Cayley table."""
    _require_same_group(x, y)
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


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def _split_terms(text: str) -> list[tuple[int, str]]:
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element expression")
    out: list[tuple[int, str]] = []
    i, n = 0, len(s)
    while i < n:
        sign = 1
        if s[i] in "+-":
            sign = -1 if s[i] == "-" else 1
            i += 1
        start = i
        depth = 0
        while i < n and (depth > 0 or s[i] not in "+-"):
            if s[i] == "(":
                depth += 1
            elif s[i] == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError(f"unbalanced parentheses in {text!r}")
            i += 1
        if depth != 0:
            raise ParseError(f"unbalanced parentheses in {text!r}")
        chunk = s[start:i]
        if not chunk:
            raise ParseError(f"missing term in {text!r}")
        out.append((sign, chunk))
    return out


def _parse_coefficient(text: str) -> Scalar:
    t = text
    while t.startswith("(") and t.endswith(")") and _balanced(t[1:-1]):
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
    for sign, chunk in _split_terms(text):
        star = -1
        depth = 0
        for pos, ch in enumerate(chunk):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "*" and depth == 0:
                star = pos
                break
        if star >= 0:
            coeff = _parse_coefficient(chunk[:star])
            label = chunk[star + 1 :]
        else:
            coeff, label = ONE, chunk
        if not label:
            raise ParseError(f"missing element label in term {chunk!r}")
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
