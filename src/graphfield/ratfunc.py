"""Exact rational functions num/den over the multivariate polynomial ring.

Canonical form: gcd(num, den) = 1 and den monic under deg-lex.  Two
rational functions are equal iff their canonical (num, den) pairs are.

Arithmetic uses the classical reduced-fraction formulas, so gcds are
only ever taken of already-reduced components; results are reduced by
construction and skip renormalization.  A square takes no gcd at all:
gcd(n, d) = 1 gives gcd(n^2, d^2) = 1.  Every cancellation calls
`Poly.cofactors`, whose quotients are the reduced parts, so no division
follows a gcd.  Making den monic only rescales the rational contents of
num and den in characteristic 0 (see `polynomials`), so it costs no
pass over the terms there.
"""
from __future__ import annotations

from .coeffs import CoeffField
from .polynomials import Poly


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        _, num, den = num.cofactors(den)
        self.num, self.den = _canonical(num, den)

    @staticmethod
    def _raw(num: Poly, den: Poly) -> "RatFunc":
        """Construct from a pair already known to be reduced."""
        self = object.__new__(RatFunc)
        self.num, self.den = _canonical(num, den)
        return self

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_poly(p: Poly) -> "RatFunc":
        return RatFunc._raw(p, Poly.one(p.field, p.nvars))

    @staticmethod
    def zero(field: CoeffField, nvars: int) -> "RatFunc":
        return RatFunc.from_poly(Poly.zero(field, nvars))

    @staticmethod
    def one(field: CoeffField, nvars: int) -> "RatFunc":
        return RatFunc.from_poly(Poly.one(field, nvars))

    @staticmethod
    def const(field: CoeffField, nvars: int, c) -> "RatFunc":
        return RatFunc.from_poly(Poly.const(field, nvars, c))

    # -- views ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def variables_used(self) -> set[int]:
        return self.num.variables_used() | self.den.variables_used()

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1 == d2:
            _, t, d = (n1 + n2).cofactors(d1)
            return RatFunc._raw(t, d)
        g, d1r, d2r = d1.cofactors(d2)
        if g.is_one():
            return RatFunc._raw(n1 * d2 + n2 * d1, d1 * d2)
        h, t, gr = (n1 * d2r + n2 * d1r).cofactors(g)
        # d2/h = d2r·(g/h)
        return RatFunc._raw(t, d1r * (d2 if h.is_one() else d2r * gr))

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        n1, d1 = self.num, self.den
        if other is self:
            # gcd(n, d) = 1 gives gcd(n^2, d^2) = 1, and d^2 stays monic
            return RatFunc._raw(n1**2, d1**2)
        n2, d2 = other.num, other.den
        if not (n1.is_constant() or d2.is_constant()):
            _, n1, d2 = n1.cofactors(d2)
        if not (n2.is_constant() or d1.is_constant()):
            _, n2, d1 = n2.cofactors(d1)
        return RatFunc._raw(n1 * n2, d1 * d2)

    def __pow__(self, n: int) -> "RatFunc":
        """self^n for any integer n (self nonzero when n < 0): gcd(u, d) = 1
        gives gcd(u^m, d^m) = 1, so no gcd is taken."""
        t, b = (self.num, self.den) if n >= 0 else (self.den, self.num)
        return RatFunc._raw(t ** abs(n), b ** abs(n))

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        return self * other.inv()

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc._raw(self.den, self.num)

    def scale_poly(self, p: Poly) -> "RatFunc":
        if self.den.is_one() or p.is_constant():
            return RatFunc._raw(self.num * p, self.den)
        _, p, den = p.cofactors(self.den)
        return RatFunc._raw(self.num * p, den)

    def stretch(self, factors: tuple[int, ...]) -> "RatFunc":
        # substitution X_i -> X_i^k preserves coprimality
        return RatFunc._raw(self.num.stretch(factors), self.den.stretch(factors))

    def permute_vars(self, perm: list[int]) -> "RatFunc":
        return RatFunc._raw(self.num.permute_vars(perm), self.den.permute_vars(perm))

    def pth_root(self, p: int) -> "RatFunc | None":
        """Exact p-th root in the rational function field, or None."""
        rn = self.num.pth_root(p)
        if rn is None:
            return None
        rd = self.den.pth_root(p)
        if rd is None:
            return None
        return RatFunc._raw(rn, rd)


def _canonical(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """(num, den) with den monic, or (0, 1), for a coprime pair."""
    if num.is_zero():
        return num, Poly.one(num.field, num.nvars)
    if den.is_monic():
        return num, den
    inv = den.field.inv(den.leading()[1])
    return num.scale(inv), den.scale(inv)
