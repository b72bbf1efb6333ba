"""Exact coefficient bookkeeping for potentials.

Pipelines track monomial coefficients that are Laurent monomials in a
handful of named parameters with integer weights, so a tiny dedicated
polynomial type beats a general computer-algebra dependency: equality,
hashing, and string form must all be canonical to keep reports
byte-stable.
"""

from __future__ import annotations

import re

from ._value import Value
from .lattice import _integer, _lattice_vector

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _clean_monomial(monomial):
    pairs = []
    for name, exp in monomial:
        if not _NAME.match(name):
            raise ValueError(f"bad parameter name {name!r}")
        if type(exp) is not int:
            exp = _integer(exp)
        if exp:
            pairs.append((str(name), exp))
    merged = {}
    for name, exp in pairs:
        merged[name] = merged.get(name, 0) + exp
    return tuple(sorted((n, e) for n, e in merged.items() if e))


class ParamPoly(Value):
    """Laurent polynomial in named parameters with integer coefficients.

    Stored as sorted `(monomial, coefficient)` pairs where a monomial is
    a sorted tuple of `(name, exponent)` with nonzero exponents; the
    representation is unique, so `==` and `hash` are structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc = {}
        for monomial, coeff in terms:
            if type(coeff) is not int:
                coeff = _integer(coeff)
            if coeff == 0:
                continue
            key = _clean_monomial(monomial)
            acc[key] = acc.get(key, 0) + coeff
        object.__setattr__(
            self, "terms", tuple(sorted((m, c) for m, c in acc.items() if c))
        )

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def constant(cls, c) -> "ParamPoly":
        return cls((((), c),))

    @classmethod
    def parameter(cls, name, power=1, coeff=1) -> "ParamPoly":
        return cls(((((name, power),), coeff),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ParamPoly(self.terms + other.terms)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = []
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                out.append((m1 + m2, c1 * c2))
        return ParamPoly(out)

    __rmul__ = __mul__

    def _key(self):
        return self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for monomial, coeff in self.terms:
            factors = [
                name if exp == 1 else f"{name}^{exp}" for name, exp in monomial
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            parts.append(("-" if coeff < 0 else "+", body))
        # leading sign survives only when negative
        sign, body = parts[0]
        text = body if sign == "+" else f"-{body}"
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"ParamPoly({str(self)!r})"


def _coerce(value):
    if isinstance(value, ParamPoly):
        return value
    if isinstance(value, int):
        return ParamPoly.constant(value)
    return NotImplemented


class Potential(Value):
    """Formal sum of characters with `ParamPoly` coefficients.

    `terms` maps exponent tuples to coefficients; zero coefficients are
    dropped on construction and the order is lexicographic in the
    exponent, which keeps the serialization canonical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        if hasattr(terms, "items"):
            terms = terms.items()
        acc = {}
        for exponent, coeff in terms:
            exponent = _lattice_vector(exponent, "exponent")
            if not isinstance(coeff, ParamPoly):
                if coeff == 0:
                    continue
                coeff = ParamPoly.constant(coeff)
            acc[exponent] = acc[exponent] + coeff if exponent in acc else coeff
        object.__setattr__(
            self,
            "terms",
            tuple(sorted((e, c) for e, c in acc.items() if not c.is_zero())),
        )

    @property
    def support(self):
        return tuple(e for e, _ in self.terms)

    def _key(self):
        return self.terms

    def __repr__(self):
        body = ", ".join(f"{list(e)!r}: {c}" for e, c in self.terms)
        return f"Potential({{{body}}})"
