"""Sparse multivariate polynomials over a prime field, on one integer kernel.

A polynomial is a content times an integer part `ints` {exponent tuple:
int}.  In characteristic 0 the content is a nonzero `Fraction` and the
integer part is primitive with a positive leading coefficient, so
(content, ints) is unique and equality is syntactic.  In characteristic
r the ints lie in [1, r) and the content is 1.  Both run the same dict
loops, reducing mod r once per output term.  Coefficients appear as
field elements only at the public face: `Poly(field, nvars, terms)` and
`terms()`.  By Gauss's lemma a product of primitive polynomials is
primitive, so products take no gcd.

Leading terms are deg-lex (total degree, then exponents compared by
variable index; the index order is fixed per context) and cached.

Keys stay exponent tuples here.  Inside products of operands with at
least 4 terms, powers, exact division and the integer part's p-th root,
the kernel packs each tuple into one deg-lex int key
(`_modgcd._packing`).

`Poly.cofactors` is the one gcd routine and returns (g, f/g, h/g).  It
first tries one input as a divisor of the other (one trial division),
since in rational-function arithmetic one input often divides the
other: the input with fewer terms, or the other one when only that
direction passes the extreme-monomial test.  Otherwise both
characteristics hand the integer parts to the one modular gcd
`_modgcd.int_gcd`, and one exact division by the gcd gives each
cofactor.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import add, itemgetter, le, mul, sub

from ._modgcd import _deglex, _divide_terms, _mul_terms, _pow_terms, _root_terms, int_gcd
from .coeffs import CoeffField, _int_root


class Poly:
    __slots__ = ("field", "nvars", "content", "ints", "_lead")

    def __init__(self, field: CoeffField, nvars: int, terms: dict):
        """`terms` maps exponent tuples to elements of `field`."""
        r = field.char
        if r:
            _set(self, field, nvars, 1, {e: c % r for e, c in terms.items() if c % r})
        else:
            den = math.lcm(*(c.denominator for c in terms.values()))
            ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items() if c}
            _set(self, field, nvars, Fraction(1, den), ints)

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: CoeffField, nvars: int) -> "Poly":
        return _poly(field, nvars, field.zero, {})

    @staticmethod
    def const(field: CoeffField, nvars: int, c) -> "Poly":
        return Poly(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def one(field: CoeffField, nvars: int) -> "Poly":
        e = (0,) * nvars
        return _poly(field, nvars, field.one, {e: 1}, e, False)

    @staticmethod
    def var(field: CoeffField, nvars: int, i: int, power: int = 1) -> "Poly":
        e = (0,) * i + (power,) + (0,) * (nvars - i - 1)
        return _poly(field, nvars, field.one, {e: 1}, e, False)

    # -- predicates and views ----------------------------------------------

    def _top(self) -> tuple:
        """The deg-lex leading exponent of nonzero self, computed once."""
        if self._lead is None:
            self._lead = max(self.ints, key=_deglex)
        return self._lead

    def terms(self) -> dict:
        """{exponent tuple: coefficient}, coefficients as elements of `field`."""
        return {e: self.content * c for e, c in self.ints.items()}

    def is_zero(self) -> bool:
        return not self.ints

    def is_constant(self) -> bool:
        return not self.ints or not any(self._top())

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.content * self.ints[self._lead] if self.ints else self.field.zero

    def is_one(self) -> bool:
        return self.is_constant() and self.constant_value() == 1

    def is_monic(self) -> bool:
        """Whether the deg-lex leading coefficient of nonzero self is 1."""
        c = self.content  # the int 1 in characteristic r
        return c.numerator == 1 and c.denominator == self.ints[self._top()]

    def variables_used(self) -> set[int]:
        return {i for e in self.ints for i, x in enumerate(e) if x}

    def degree_in(self, var: int) -> int:
        return max((e[var] for e in self.ints), default=-1)

    def degrees(self) -> dict[int, int]:
        """{j: degree in X_j} over the variables used.  The columns of
        all positions are not built (a chain tower has thousands of
        variables, each polynomial a few): each key's nonzero positions
        are gathered in C (`compress`), and only their columns are
        read."""
        ints = self.ints
        used = sorted(set().union(*map(compress, repeat(range(self.nvars)), ints)))
        return {j: max(map(itemgetter(j), ints)) for j in used}

    def min_degree_in(self, var: int) -> int:
        if not self.ints:
            raise ValueError("zero polynomial")
        return min(e[var] for e in self.ints)

    def leading(self) -> tuple[tuple, object]:
        """Leading (exponent, coefficient) under deg-lex."""
        if not self.ints:
            raise ValueError("zero polynomial")
        e = self._top()
        return e, self.content * self.ints[e]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.content == other.content
            and self.ints == other.ints
        )

    def __hash__(self):
        return hash((self.nvars, self.content, frozenset(self.ints.items())))

    def __repr__(self):
        terms = self.terms()
        bits = [
            f"{terms[e]}" + "".join(f"*X{i}^{x}" for i, x in enumerate(e) if x)
            for e in sorted(terms, key=_deglex, reverse=True)
        ]
        return "Poly(" + (" + ".join(bits) or "0") + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not self.ints:
            return other
        if not other.ints:
            return self
        r = self.field.char
        ka = kb = base = 1
        if not r:
            # ka/kb is content_a/content_b in lowest terms, base = content_a/ka
            ca, cb = self.content, other.content
            den = math.lcm(ca.denominator, cb.denominator)
            ka = ca.numerator * (den // ca.denominator)
            kb = cb.numerator * (den // cb.denominator)
            g = math.gcd(ka, kb)
            ka, kb, base = ka // g, kb // g, Fraction(g, den)
        out = dict(self.ints) if ka == 1 else {e: ka * c for e, c in self.ints.items()}
        for e, c in other.ints.items():
            s = out.get(e, 0) + kb * c
            if r:
                s %= r
            if s:
                out[e] = s
            else:
                del out[e]
        la, lb = self._top(), other._top()
        if la != lb:
            lead = la if _deglex(la) > _deglex(lb) else lb
        else:
            lead = la if la in out else None
        return _poly(self.field, self.nvars, base, out, lead)

    def __neg__(self) -> "Poly":
        return self.scale(-1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.ints or not other.ints:
            return Poly.zero(self.field, self.nvars)
        ints = _mul_terms(self.ints, other.ints, self.field.char)
        lead = tuple(map(add, self._top(), other._top()))
        ca, cb = self.content, other.content
        content = ca if cb == 1 else cb if ca == 1 else ca * cb
        return _poly(self.field, self.nvars, content, ints, lead, False)

    def scale(self, c) -> "Poly":
        r = self.field.char
        if r:
            c %= r
        if not c or not self.ints:
            return Poly.zero(self.field, self.nvars)
        if r:
            return _poly(self.field, self.nvars, 1, {e: x * c % r for e, x in self.ints.items()},
                         self._lead, False)
        return _poly(self.field, self.nvars, self.content * c, self.ints, self._lead, False)

    def __pow__(self, n: int) -> "Poly":
        """self^n for n >= 0, on packed keys (`_modgcd._pow_terms`).  The
        content is raised to the n-th power and the leading exponent is
        multiplied by n: by Gauss's lemma a power of a primitive integer
        part is primitive, and a positive leading coefficient stays
        positive, so the result needs no normalising pass."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return Poly.one(self.field, self.nvars)
        if n == 1 or not self.ints:
            return self
        ints = _pow_terms(self.ints, n, self.field.char)
        lead = tuple(x * n for x in self._top())
        return _poly(self.field, self.nvars, self.content**n, ints, lead, False)

    def stretch(self, factors: tuple[int, ...]) -> "Poly":
        """Substitute X_i -> X_i^factors[i] (all factors >= 1)."""
        ints = {tuple(map(mul, e, factors)): c for e, c in self.ints.items()}
        return _poly(self.field, self.nvars, self.content, ints)

    def permute_vars(self, perm: list[int]) -> "Poly":
        """Substitute X_i -> X_perm[i] for a bijection of variable indices."""
        back = sorted(range(self.nvars), key=perm.__getitem__)
        ints = {tuple(e[i] for i in back): c for e, c in self.ints.items()}
        return _poly(self.field, self.nvars, self.content, ints)

    def derivative(self, var: int) -> "Poly":
        r = self.field.char
        out: dict = {}
        for e, c in self.ints.items():
            c = c * e[var] % r if r else c * e[var]
            if c:
                out[e[:var] + (e[var] - 1,) + e[var + 1:]] = c
        return _poly(self.field, self.nvars, self.content, out)

    def monic_deglex(self) -> "Poly":
        """Scale so the deg-lex leading coefficient is 1."""
        if not self.ints or self.is_monic():
            return self
        return self.scale(self.field.inv(self.leading()[1]))

    # -- division ------------------------------------------------------------

    def divexact(self, other: "Poly") -> "Poly | None":
        """Exact quotient self/other, or None when not divisible.  In
        characteristic 0 the integer parts divide in Z: a quotient of
        primitive polynomials over Q is primitive, hence integral."""
        if not other.ints:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.ints:
            return self
        q = _divide_terms(self.ints, other.ints, self.field.char)
        if q is None:
            return None
        content = self.content / other.content if not self.field.char else 1
        lead = tuple(map(sub, self._top(), other._top()))
        return _poly(self.field, self.nvars, content, q, lead, False)

    def multiplicity_of(self, factor: "Poly") -> int:
        """Largest k with factor^k dividing self (self nonzero)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        k = 0
        cur = self.divexact(factor)
        while cur is not None:
            k += 1
            cur = cur.divexact(factor)
        return k

    # -- univariate views ----------------------------------------------------

    def coeffs_in(self, var: int) -> list["Poly"]:
        """Coefficient list [c_0, ..., c_d] of self viewed in K[...][X_var]."""
        parts: list[dict] = [{} for _ in range(max(0, self.degree_in(var)) + 1)]
        for e, c in self.ints.items():
            parts[e[var]][e[:var] + (0,) + e[var + 1:]] = c
        return [_poly(self.field, self.nvars, self.content, d) for d in parts]

    def pth_root(self, p: int) -> "Poly | None":
        """Exact p-th root, or None when self is not a perfect p-th power.

        Under Frobenius (p the characteristic) roots are taken termwise.
        Otherwise the content's root is taken in the prime field and the
        integer part's root is peeled from the top (`_root_terms`), with
        the prime field's root of the leading coefficient as its own.
        """
        if not self.ints:
            return self
        F, r = self.field, self.field.char
        top = self._top()
        if r == p:
            if any(x % p for e in self.ints for x in e):
                return None
            out = {tuple(x // p for x in e): F.pth_root(c, p) for e, c in self.ints.items()}
            return _poly(F, self.nvars, 1, out, tuple(x // p for x in top), False)
        if any(x % p for x in top):
            return None
        if r:
            content, rc = 1, F.pth_root(self.ints[top], p)
        else:
            content, rc = F.pth_root(self.content, p), _int_root(self.ints[top], p)
        h = None if content is None or rc is None else _root_terms(self.ints, top, rc, p, r)
        if h is None:
            return None
        return _poly(F, self.nvars, content, h, tuple(x // p for x in top), False)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic (deg-lex) gcd, the first entry of `cofactors`."""
        return self.cofactors(other)[0]

    def cofactors(self, other: "Poly") -> tuple["Poly", "Poly", "Poly"]:
        """(g, self/g, other/g) with g the monic (deg-lex) gcd; both inputs
        zero give three zeros.

        First one input, d, is tried as a divisor of the other, f: d is
        the input with fewer terms, unless the extreme-monomial test rules
        that out and allows the other way round.  The test asks that the
        deg-lex highest and lowest monomials of d divide those of f; when
        it passes, one trial division runs, and if d divides f the gcd is
        d up to a unit.  Otherwise the modular gcd `int_gcd` of the integer
        parts (primitive in characteristic 0, residues in characteristic
        p) gives g, and one exact division by it gives each cofactor.
        """
        F, n = self.field, self.nvars
        if not self.ints or not other.ints:
            g = self + other
            if not g.ints:
                return g, g, g
            lc = Poly.const(F, n, g.leading()[1])
            g = g.monic_deglex()
            return (g, lc, other) if self.ints else (g, self, lc)
        if self.is_constant() or other.is_constant():
            return Poly.one(F, n), self, other
        d, f = (other, self) if len(other.ints) <= len(self.ints) else (self, other)
        dt, ft = d._top(), f._top()
        dl, fl = min(d.ints, key=_deglex), min(f.ints, key=_deglex)
        fits = all(map(le, dt, ft)) and all(map(le, dl, fl))
        if not fits and all(map(le, ft, dt)) and all(map(le, fl, dl)):
            d, f, dt, ft, fits = f, d, ft, dt, True
        if fits:
            q = _divide_terms(f.ints, d.ints, F.char)
            if q is not None:
                g = d.monic_deglex()
                fq = _poly(F, n, f.content, q, tuple(map(sub, ft, dt)), False).scale(d.ints[dt])
                dq = Poly.const(F, n, d.leading()[1])
                return (g, fq, dq) if d is other else (g, dq, fq)
        g = _poly(F, n, F.one, int_gcd(self.ints, other.ints, F.char)).monic_deglex()
        if g.is_one():
            return g, self, other
        a, b = self.divexact(g), other.divexact(g)
        if a is None or b is None:
            raise ArithmeticError("gcd failed its division check")  # pragma: no cover
        return g, a, b


# ---------------------------------------------------------------------------
# Unique form
# ---------------------------------------------------------------------------


def _set(p: Poly, field: CoeffField, nvars: int, content, ints: dict, lead=None,
         normal: bool = True) -> Poly:
    """Fill p with content·ints.  Zero gets content 0; with `normal`, a
    char-0 integer part is made primitive with a positive leading
    coefficient (pass normal=False for parts known to be so)."""
    if not ints:
        content, lead = field.zero, None
    elif normal and not field.char:
        if lead is None:
            lead = max(ints, key=_deglex)
        g = math.gcd(*ints.values())
        if ints[lead] < 0:
            g = -g
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            content = content * g
    p.field, p.nvars, p.content, p.ints, p._lead = field, nvars, content, ints, lead
    return p


def _poly(field: CoeffField, nvars: int, content, ints: dict, lead=None, normal: bool = True) -> Poly:
    return _set(object.__new__(Poly), field, nvars, content, ints, lead, normal)
