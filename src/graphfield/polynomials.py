"""Sparse multivariate polynomials over a prime field.

Terms are stored as {exponent tuple: coefficient}.  The monomial order
used for leading terms and normalization is degree-lexicographic with
variables compared by index; variable index order is fixed per context
(vertices sorted by label), which keeps every canonical form
deterministic.

The gcd in characteristic 0 is the modular integer gcd of `_modgcd`,
on the polynomials scaled to coprime integer coefficients; in positive
characteristic it is a primitive polynomial remainder sequence,
recursing on the highest variable that actually occurs.  All algorithms
here are chosen for predictability at desk scale, not asymptotics.
"""
from __future__ import annotations

import math

from .coeffs import CoeffField

_ROOT_LOOP_CAP = 100000


class Poly:
    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: CoeffField, nvars: int, terms: dict):
        self.field = field
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if not field.is_zero(c)}

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(field: CoeffField, nvars: int) -> "Poly":
        return Poly(field, nvars, {})

    @staticmethod
    def const(field: CoeffField, nvars: int, c) -> "Poly":
        return Poly(field, nvars, {(0,) * nvars: c})

    @staticmethod
    def one(field: CoeffField, nvars: int) -> "Poly":
        return Poly.const(field, nvars, field.one)

    @staticmethod
    def var(field: CoeffField, nvars: int, i: int, power: int = 1) -> "Poly":
        e = [0] * nvars
        e[i] = power
        return Poly(field, nvars, {tuple(e): field.one})

    # -- predicates and views ----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self):
        if self.is_zero():
            return self.field.zero
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def is_one(self) -> bool:
        return self.is_constant() and not self.is_zero() and self.field.is_one(self.constant_value())

    def variables_used(self) -> set[int]:
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def degree_in(self, var: int) -> int:
        if self.is_zero():
            return -1
        return max(e[var] for e in self.terms)

    def min_degree_in(self, var: int) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return min(e[var] for e in self.terms)

    def leading(self) -> tuple[tuple, object]:
        """Leading (exponent, coefficient) under deg-lex."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(f"X{i}^{x}" for i, x in enumerate(e) if x)
            c = self.terms[e]
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        F = self.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = F.add(out.get(e, F.zero), c)
            if F.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(F, self.nvars, out)

    def __neg__(self) -> "Poly":
        F = self.field
        return Poly(F, self.nvars, {e: F.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        F = self.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = F.add(out.get(e, F.zero), F.mul(c1, c2))
                if F.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(F, self.nvars, out)

    def scale(self, c) -> "Poly":
        F = self.field
        if F.is_zero(c):
            return Poly.zero(F, self.nvars)
        return Poly(F, self.nvars, {e: F.mul(x, c) for e, x in self.terms.items()})

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one(self.field, self.nvars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def stretch(self, factors: tuple[int, ...]) -> "Poly":
        """Substitute X_i -> X_i^factors[i] (all factors >= 1)."""
        out = {}
        for e, c in self.terms.items():
            out[tuple(x * f for x, f in zip(e, factors))] = c
        return Poly(self.field, self.nvars, out)

    def permute_vars(self, perm: list[int]) -> "Poly":
        """Substitute X_i -> X_perm[i] for a bijection of variable indices."""
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * self.nvars
            for i, x in enumerate(e):
                e2[perm[i]] = x
            out[tuple(e2)] = c
        return Poly(self.field, self.nvars, out)

    def derivative(self, var: int) -> "Poly":
        F = self.field
        out: dict = {}
        for e, c in self.terms.items():
            k = e[var]
            if k == 0:
                continue
            e2 = list(e)
            e2[var] = k - 1
            coeff = F.mul(c, F.of_int(k))
            if not F.is_zero(coeff):
                out[tuple(e2)] = coeff
        return Poly(F, self.nvars, out)

    # -- normalization -----------------------------------------------------

    def monic_deglex(self) -> "Poly":
        """Scale so the deg-lex leading coefficient is 1."""
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self.scale(self.field.inv(lc))

    # -- division ------------------------------------------------------------

    def divexact(self, other: "Poly") -> "Poly | None":
        """Exact quotient self/other, or None when not divisible."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        F = self.field
        if self.is_zero():
            return self
        quo: dict = {}
        rem = self
        le, lc = other.leading()
        lc_inv = F.inv(lc)
        while not rem.is_zero():
            re, rc = rem.leading()
            qe = tuple(a - b for a, b in zip(re, le))
            if any(x < 0 for x in qe):
                return None
            qc = F.mul(rc, lc_inv)
            quo[qe] = qc
            rem = rem - other * Poly(F, self.nvars, {qe: qc})
        return Poly(F, self.nvars, quo)

    def multiplicity_of(self, factor: "Poly") -> int:
        """Largest k with factor^k dividing self (self nonzero)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        k = 0
        cur = self
        while True:
            nxt = cur.divexact(factor)
            if nxt is None:
                return k
            cur = nxt
            k += 1

    # -- univariate views ----------------------------------------------------

    def coeffs_in(self, var: int) -> list["Poly"]:
        """Coefficient list [c_0, ..., c_d] of self viewed in K[...][X_var]."""
        d = max(0, self.degree_in(var))
        out = [Poly.zero(self.field, self.nvars) for _ in range(d + 1)]
        for e, c in self.terms.items():
            k = e[var]
            e2 = list(e)
            e2[var] = 0
            out[k] = out[k] + Poly(self.field, self.nvars, {tuple(e2): c})
        return out

    # -- evaluation ------------------------------------------------------------

    def eval_mod(self, point: list[int], q: int) -> int:
        """Evaluate at integer points mod a prime q (char-0 coefficients).

        Raises ZeroDivisionError when a coefficient denominator vanishes
        mod q; callers treat that as a bad specialization prime.
        """
        if self.field.char != 0:
            raise ValueError("eval_mod is for characteristic-0 polynomials")
        acc = 0
        for e, c in self.terms.items():
            d = c.denominator % q
            if d == 0:
                raise ZeroDivisionError("coefficient denominator vanishes mod q")
            v = c.numerator % q * pow(d, -1, q) % q
            for i, k in enumerate(e):
                if k:
                    v = v * pow(point[i] % q, k, q) % q
            acc = (acc + v) % q
        return acc

    # -- p-th roots ------------------------------------------------------------

    def pth_root(self, p: int) -> "Poly | None":
        """Exact p-th root, or None when self is not a perfect p-th power."""
        F = self.field
        if self.is_zero():
            return self
        if F.char == p:
            # Frobenius: termwise roots
            out = {}
            for e, c in self.terms.items():
                if any(x % p for x in e):
                    return None
                rc = F.pth_root(c, p)
                if rc is None:
                    return None
                out[tuple(x // p for x in e)] = rc
            return Poly(F, self.nvars, out)
        le, lc = self.leading()
        if any(x % p for x in le):
            return None
        rc = F.pth_root(lc, p)
        if rc is None:
            return None
        h = Poly(F, self.nvars, {tuple(x // p for x in le): rc})
        # peel further terms: next term t of the root satisfies
        # lt(self - h^p) = p * lt(h)^(p-1) * t
        lead_h = Poly(F, self.nvars, {tuple(x // p for x in le): rc})
        denom = lead_h ** (p - 1)
        denom = denom.scale(F.of_int(p))
        for _ in range(_ROOT_LOOP_CAP):
            r = self - h**p
            if r.is_zero():
                return h
            re, rcf = r.leading()
            de, dc = denom.leading()
            te = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in te):
                return None
            t = Poly(F, self.nvars, {te: F.div(rcf, dc)})
            if (sum(te), te) >= (sum(h.leading()[0]), h.leading()[0]):
                return None  # not making progress; not a power
            h = h + t
        return None

    # -- gcd --------------------------------------------------------------------

    def gcd(self, other: "Poly") -> "Poly":
        """Monic (deg-lex) gcd.

        Characteristic 0 goes through the modular integer gcd (Fraction
        arithmetic would pay a number gcd on every multiply and the
        classical remainder sequence swells); small positive
        characteristic uses the direct primitive remainder sequence.
        """
        if self.field.char == 0:
            if self.is_zero():
                return other.monic_deglex()
            if other.is_zero():
                return self.monic_deglex()
            if self.is_constant() or other.is_constant():
                return Poly.one(self.field, self.nvars)
            from ._modgcd import int_gcd

            g = int_gcd(_to_int_terms(self), _to_int_terms(other))
            return _from_int_terms(g, self.field, self.nvars).monic_deglex()
        g = _gcd(self, other)
        return g.monic_deglex() if not g.is_zero() else g


def _gcd(f: Poly, g: Poly) -> Poly:
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.is_constant() or g.is_constant():
        return Poly.one(f.field, f.nvars)
    vars_f = f.variables_used()
    vars_g = g.variables_used()
    v = max(vars_f | vars_g)
    if v not in vars_f:
        return _gcd(f, _content(g, v))
    if v not in vars_g:
        return _gcd(_content(f, v), g)
    cf = _content(f, v)
    cg = _content(g, v)
    c = _gcd(cf, cg)
    pf = f.divexact(cf)
    pg = g.divexact(cg)
    a, b = (pf, pg) if pf.degree_in(v) >= pg.degree_in(v) else (pg, pf)
    while not b.is_zero() and b.degree_in(v) > 0:
        r = _pseudo_rem(a, b, v)
        if r.is_zero():
            a, b = b, r
            break
        a, b = b, r.divexact(_content(r, v))
    if b.is_zero():
        prim = a.divexact(_content(a, v))
        return c * prim
    # remainder of degree 0 in v: the primitive parts are coprime
    return c


def _content(f: Poly, var: int) -> Poly:
    """gcd of the coefficients of f viewed as univariate in `var`."""
    acc = Poly.zero(f.field, f.nvars)
    for c in f.coeffs_in(var):
        acc = _gcd(acc, c)
        if acc.is_one():
            break
    return acc.monic_deglex() if not acc.is_zero() else acc


def _pseudo_rem(a: Poly, b: Poly, var: int) -> Poly:
    """Pseudo-remainder of a by b in variable `var`."""
    da, db = a.degree_in(var), b.degree_in(var)
    if da < db:
        return a
    F = a.field
    bc = b.coeffs_in(var)
    lb = bc[db]
    r = a
    for _ in range(da - db + 1):
        dr = r.degree_in(var)
        if r.is_zero() or dr < db:
            break
        rc = r.coeffs_in(var)
        lr = rc[dr]
        r = r * lb - b * (lr * Poly.var(F, a.nvars, var, dr - db))
    return r


# ---------------------------------------------------------------------------
# Integer conversion for the modular gcd
# ---------------------------------------------------------------------------

from fractions import Fraction as _Fraction


def _to_int_terms(p: Poly) -> dict:
    """The terms of a char-0 polynomial scaled by a rational to coprime
    integers: numerators over their gcd, times the lcm of denominators."""
    den_lcm = 1
    num_gcd = 0
    for c in p.terms.values():
        den_lcm = math.lcm(den_lcm, c.denominator)
        num_gcd = math.gcd(num_gcd, c.numerator)
    return {e: c.numerator // num_gcd * (den_lcm // c.denominator) for e, c in p.terms.items()}


def _from_int_terms(d: dict, field: CoeffField, nvars: int) -> Poly:
    return Poly(field, nvars, {e: _Fraction(c) for e, c in d.items()})
