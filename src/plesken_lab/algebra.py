"""Exact Gaussian-rational scalars and sparse group-algebra arithmetic.

Scalars are pairs of arbitrary-precision rationals (a + b*i), so every
algebraic identity downstream is checked with exact equality rather than
floating-point tolerances.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from operator import attrgetter

from .errors import GroupMismatch, ParseError
from .groups import FiniteGroup, GroupHom, _Frozen, _set


class Scalar(_Frozen):
    """Exact complex number re + im*i: each part an int or a Fraction, stored as a Fraction."""

    __slots__ = ("re", "im")
    _key = attrgetter(*__slots__)

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0) -> None:
        _set(self, "re", re if re.__class__ is Fraction else _part(re))
        _set(self, "im", im if im.__class__ is Fraction else _part(im))

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


def _part(value) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"scalar part {value!r} is not an int or Fraction")


def _coerce(value) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


ZERO = Scalar()
ONE = Scalar(1)
I = Scalar(0, 1)


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}") from exc


class AlgebraElement:
    """Sparse element of a group algebra: ``coeffs`` maps group indices to Scalars.

    Built from a mapping or an iterable of (index, coefficient) pairs, as
    ``dict`` is; every operation builds its result from such terms.  Each index
    is read by ``group._check_index`` and each coefficient must be a Scalar, int
    or Fraction.  The coefficients of a repeated index are added up and zero
    sums dropped, so stored coefficients are never zero, and equality of
    elements is equality of their groups and coefficient maps.
    """

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs=()) -> None:
        read = group._check_index
        acc: dict[int, Scalar] = {}
        for k, c in coeffs.items() if hasattr(coeffs, "keys") else coeffs:
            k = read(k)
            value = c if c.__class__ is Scalar else _coerce(c)
            if value is None:
                raise TypeError(
                    f"coefficient {c!r} at element index {k} is not a Scalar, int, or Fraction"
                )
            prev = acc.get(k)
            acc[k] = value if prev is None else prev + value
        self.group = group
        self.coeffs = {k: c for k, c in acc.items() if c}

    @classmethod
    def zero(cls, group: FiniteGroup) -> "AlgebraElement":
        return cls(group)

    @classmethod
    def basis(cls, group: FiniteGroup, g: int, coeff: Scalar = ONE) -> "AlgebraElement":
        return cls(group, {g: coeff})

    def coefficient(self, g: int) -> Scalar:
        return self.coeffs.get(g, ZERO)

    def terms(self) -> list[tuple[int, Scalar]]:
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def _require_same_group(self, other: "AlgebraElement") -> None:
        if self.group != other.group:
            raise GroupMismatch("operands belong to different groups")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group == other.group and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        self._require_same_group(other)
        return AlgebraElement(self.group, chain(self.coeffs.items(), other.coeffs.items()))

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self + -other

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, {k: -c for k, c in self.coeffs.items()})

    def __rmul__(self, other):
        k = _coerce(other)
        if k is None:
            return NotImplemented
        return AlgebraElement(self.group, {i: k * c for i, c in self.coeffs.items()})

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


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The group-algebra product: full bilinear expansion through the Cayley table."""
    x._require_same_group(y)
    table, ys = x.group.cayley, y.coeffs.items()
    return AlgebraElement(
        x.group, ((table[i][j], ci * cj) for i, ci in x.coeffs.items() for j, cj in ys)
    )


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
        return AlgebraElement(self.hom.codomain, ((img[g], c) for g, c in x.coeffs.items()))


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
    return Scalar(0, q) if m.group("imag") else Scalar(q)


def parse_element(group: FiniteGroup, text: str) -> AlgebraElement:
    """Parse expressions like ``2*e + (1/2)*a - i*a^2`` against the group's labels."""
    terms = []
    for sign, coeff_text, label in _split_terms(text):
        coeff = ONE if coeff_text is None else _parse_coefficient(coeff_text)
        if not label:
            raise ParseError(f"missing element label in term {coeff_text + '*'!r}")
        g = group.label_index.get(label)
        if g is None:
            raise ParseError(f"unknown element label {label!r}")
        terms.append((g, coeff if sign > 0 else -coeff))
    return AlgebraElement(group, terms)


def element_to_json(x: AlgebraElement) -> dict:
    """JSON form {"group": spec, "terms": [{"elem", "re", "im"}, ...]}, sorted by index."""
    if x.group.spec is None:
        raise ValueError("only groups built from a spec can be serialized")
    return {
        "group": x.group.spec,
        "terms": [
            {"elem": x.group.labels[g], "re": str(c.re), "im": str(c.im)}
            for g, c in x.terms()
        ],
    }

