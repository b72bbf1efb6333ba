"""Finite abelian groups given by invariant factors plus generator lifts.

A group element never exists on its own here: groups arise either as the
torsion of a cokernel (lifts are integer vectors in the codomain) or as a
subgroup of (Q/Z)^m generated by phase vectors (lifts are rational vectors
with entries in [0,1)).  Both cases share the same presentation record, and
isomorphism testing is just equality of invariant-factor lists.  The phase
methods (`contains_phase`, `elements`, `is_subgroup_of`,
`quotient_factors`) apply to phase groups only, and raise `ValueError` on
a cokernel's torsion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

from ._value import Value
from .lattice import (
    LatticeMap,
    _identity_rows,
    _integer,
    _phase_lattice,
    _rational,
    _scaled_lattice,
    _scaled_phases,
    _smith,
    smith_diagonal,
)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(_rational(x))


def normalize_phase(q):
    """Reduce a rational vector componentwise into [0,1)."""
    return tuple(_frac(x) % 1 for x in q)


class FiniteAbelianGroup(Value):
    """Invariant-factor presentation of a finite abelian group.

    `invariant_factors` is the divisibility chain restricted to factors
    greater than one (empty means the trivial group).  `lifts[i]` is a
    rational vector in the rank-`ambient_rank` ambient whose class
    generates the i-th cyclic factor.  `_lattice` keeps the (ell, B, Y)
    of the lifts once built, outside the key: B is the Hermite basis of
    ell·L for the lattice L = Zᵐ + Σ Z·lift, and Y = ell·B⁻¹.
    """

    __slots__ = ("invariant_factors", "lifts", "ambient_rank", "_lattice")

    def __init__(self, invariant_factors, lifts, ambient_rank):
        factors = tuple(map(_integer, invariant_factors))
        if any(d <= 1 for d in factors):
            raise ValueError("invariant factors must all exceed 1")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")
        lifts = tuple(tuple(_frac(x) for x in v) for v in lifts)
        if len(lifts) != len(factors):
            raise ValueError("one generator lift per invariant factor")
        if any(len(v) != ambient_rank for v in lifts):
            raise ValueError("generator lift has wrong length")
        object.__setattr__(self, "invariant_factors", factors)
        object.__setattr__(self, "lifts", lifts)
        object.__setattr__(self, "ambient_rank", _integer(ambient_rank))
        object.__setattr__(self, "_lattice", None)

    @classmethod
    def from_phases(cls, phases, ambient_rank):
        """Canonical presentation of the subgroup of (Q/Z)^m the phases
        generate."""
        return cls._from_scaled(*_scaled_phases(phases, ambient_rank),
                                ambient_rank)

    @classmethod
    def _from_scaled(cls, ell, cols, ambient_rank):
        """`from_phases` of the phases c / ell, ell their denominators' lcm.

        The construction takes the Hermite basis B of the scaled lattice,
        and reads the quotient by ell·Z^m off the Smith form U·Y·V = D of
        Y = B⁻¹·(ell·id).  Then B·U⁻¹ = ell·V·D⁻¹, so lift i is column i
        of V over d_i, reduced into [0, 1).  Only D and V are read, so the
        Smith pass runs on [Y; I] and carries no U.  Every step is
        canonical, so two generating sets of the same subgroup produce
        equal objects.  The phases and the lifts generate one group, so
        they share L and ell (its exponent), and the group keeps
        (ell, B, Y).
        """
        lattice = _scaled_lattice(ell, cols, ambient_rank)
        n = lattice[2].rows
        m = _smith([list(row) for row in lattice[2].entries]
                   + _identity_rows(n), n, n)
        kept = [(i, m[i][i]) for i in range(n) if m[i][i] > 1]
        lifts = [tuple(Fraction(row[i] % d, d) for row in m[n:])
                 for i, d in kept]
        group = cls([d for _, d in kept], lifts, ambient_rank)
        object.__setattr__(group, "_lattice", lattice)
        return group

    @property
    def _lattice_of_lifts(self):
        """(ell, B, Y) of the lattice of the lifts, built on first use.
        It raises on an integral lift (a cokernel's), zero in (Q/Z)^m, and
        on lifts whose group has an order [L : Zᵐ] = ell^m / det B not
        `order`."""
        if self._lattice is None:
            if any(all(x.denominator == 1 for x in v) for v in self.lifts):
                raise ValueError("phase question on a group whose lifts "
                                 "are not phases")
            ell, b, _ = lattice = _phase_lattice(self.lifts, self.ambient_rank)
            if ell ** self.ambient_rank != self.order * prod(
                    row[i] for i, row in enumerate(b.entries)):
                raise ValueError("the lifts generate a group of another order")
            object.__setattr__(self, "_lattice", lattice)
        return self._lattice

    @property
    def order(self):
        return prod(self.invariant_factors)

    def contains_phase(self, phase) -> bool:
        """Membership test for a rational vector, read modulo Z^m."""
        ell = self._lattice_of_lifts[0]
        phase_ell, cols = _scaled_phases((phase,), self.ambient_rank, ell)
        # a denominator that self lacks, or ell·phase outside ell·L
        return phase_ell == ell and self._coordinates(cols) is not None

    def elements(self):
        """Every element as a normalized phase tuple.

        Enumerates the full group, so callers are expected to keep the
        order small (the test suite stays at 625 or below).
        """
        self._lattice_of_lifts  # raises on lifts that are not phases
        out = []
        for ks in product(*(range(d) for d in self.invariant_factors)):
            acc = [Fraction(0)] * self.ambient_rank
            for k, lift in zip(ks, self.lifts):
                for i, x in enumerate(lift):
                    acc[i] += k * x
            out.append(tuple(x % 1 for x in acc))
        return out

    def is_subgroup_of(self, other) -> bool:
        return other._quotient_map(self) is not None

    def quotient_factors(self, sub):
        """Invariant factors (> 1 only) of self modulo the phase subgroup
        `sub`; raises if `sub` does not sit inside self."""
        x = self._quotient_map(sub)
        if x is None:
            raise ValueError("not a subgroup")
        return tuple(d for d in smith_diagonal(x) if d > 1)

    def _quotient_map(self, sub):
        # Integer matrix X with B_self·X = B_sub at self's scale ell, or
        # None when sub is not contained in self.
        if sub.ambient_rank != self.ambient_rank:
            return None
        ell = self._lattice_of_lifts[0]
        sub_ell, b_sub, _ = sub._lattice_of_lifts
        if ell % sub_ell:  # a denominator that self lacks
            return None
        # the Hermite basis of k·L is k times that of L
        k = ell // sub_ell
        cols = self._coordinates([k * x for x in c] for c in b_sub.columns())
        return None if cols is None else LatticeMap.from_cols(
            cols, nrows=self.ambient_rank)

    def _coordinates(self, cols):
        # B⁻¹·c = Y·c / ell for each integer column c, or None when one
        # of them is not integral, i.e. c lies outside ell·L
        ell, _, y = self._lattice_of_lifts
        out = []
        for c in cols:
            x = y @ c
            if any(v % ell for v in x):
                return None
            out.append(tuple(v // ell for v in x))
        return out

    def _key(self):
        return self.invariant_factors, self.lifts, self.ambient_rank

    def __repr__(self):
        return (
            f"FiniteAbelianGroup({self.invariant_factors!r}, "
            f"{self.lifts!r}, {self.ambient_rank!r})"
        )
