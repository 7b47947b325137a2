"""Exact arithmetic in finite truncations of the radical towers built
over a star-colored graph, and in the generic single-transcendental
radical tower with arbitrary defining polynomials.

Representation (flattened): only the deepest roots are symbols.  Each
chain variable X_s stands for the deepest vertex root, so the shallower
roots are its powers; each radical generator Y_e is the deepest edge
root, subject to Y_e^(prime^depth) = A_e where A_e is a polynomial in
the chain variables.  An element is a map from reduced generator
exponent vectors (each component below prime^depth) to rational
functions in the chain variables; that map is the canonical form, and
equality is syntactic.

A truncation is named by its TowerContext.  Arithmetic and equality
combine only elements of one context object and raise ValueError
otherwise; embed() moves an element into a deeper truncation of the same
family, and field_norm() takes it down to a shallower one.

A one-term element c·Y^e is raised to every integer power in one
closed form, since its generator powers fold into a product of the A_i;
its inverse is the (-1)-st power.  When the A_i form a coprime base
(`TowerContext.coprime_base`), a one-term element built from constants
and generators carries its coefficient as a power product
c·prod A_i^k_i·prod X_j^x_j (c a prime-field constant, X_j only a chain
variable that divides no A_i) in place of the canonical form: products
and powers add and scale the exponent vectors k and x, and the
coefficient is expanded from cached A_i powers without a gcd (`_expand`)
only when the canonical form is first read.  A two-term element m0 + m1 is
inverted in closed form too: w = -m1/m0 is one term, and a power w^L
lies in the base field, so (m0 + m1)^-1 = m0^-1 · sum_(j < L) w^j /
(1 - w^L).  Other elements are raised by square-and-multiply, and
inverted by walking the generator levels with extended Euclid against
each defining polynomial T^N - A; so is a two-term element with
1 - w^L = 0.  A nontrivial gcd on the way would exhibit a zero divisor
and aborts with the offending factor preserved.  Norms to a shallower
truncation go down one pure step T^m = t at a time (a deeper generator
root, then a deeper vertex root) and take each step's norm as the
resultant Res_T(T^m - t, a(T)), read off the same remainder sequence.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from .coeffs import CoeffField, is_prime
from .errors import (
    DepthExceeded,
    InvalidInput,
    ProfileNotLarger,
    ProfileNotSmaller,
    SingularMultiplication,
    SpecInvalid,
    TooLarge,
    UnknownResult,
)
from ._modgcd import _constant_coefficient
from .graphs import ColoredGraph, check_star_coloring
from .polynomials import Poly, _poly
from .ratfunc import RatFunc


def choose_primes(r: int, n_colors: int) -> tuple[int, ...]:
    """The n_colors+1 smallest odd primes different from r that do not
    divide r-1, ascending."""
    out = []
    cand = 3
    while len(out) < n_colors + 1:
        if is_prime(cand) and cand != r and (r == 0 or (r - 1) % cand != 0):
            out.append(cand)
        cand += 2
    return tuple(out)


@dataclass(frozen=True)
class RadicalGen:
    """One radical generator: Y^(prime^depth) = A, with A given by a recipe.

    recipe is ("edge", s, t) for A = x_s^0 + x_t^0 + 1, or
    ("tpoly", var, coeffs) for A = T(chain-bottom of var).
    """

    label: str
    prime: int
    depth: int
    recipe: tuple
    color: int | None = None


@dataclass(frozen=True)
class RadicalSpec:
    """Hypotheses for the generic radical extension."""

    p: int
    branch_primes: tuple
    partition: dict          # generator label -> index into branch_primes
    polys: dict              # generator label -> univariate coeff tuple (low first)


class TowerContext:
    """An immutable tower truncation; all elements refer to one context."""

    def __init__(
        self,
        char: int,
        var_names,
        chain_prime: int,
        vertex_depths: dict,
        gens,
        colored_graph: ColoredGraph | None = None,
    ):
        self.field = CoeffField(char)
        self.char = char
        self.var_names = tuple(var_names)
        self.var_index = {v: i for i, v in enumerate(self.var_names)}
        self.nvars = len(self.var_names)
        self.chain_prime = chain_prime
        self.vertex_depths = dict(vertex_depths)
        self.gens = tuple(gens)
        self.gen_index = {g.label: i for i, g in enumerate(self.gens)}
        depths = list(self.vertex_depths.items()) + [(g.label, g.depth) for g in self.gens]
        for name, d in depths:
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise InvalidInput(f"depth of {name} must be an integer >= 0, got {d!r}")
        self.colored_graph = colored_graph
        self.gen_degrees = tuple(g.prime**g.depth for g in self.gens)  # N_i
        self._gen_polys = [self._build_gen_poly(g) for g in self.gens]
        self._gen_pow_cache: dict = {}
        self._gen_var_degrees: list | None = None
        self._sub_cache: dict = {}
        self._coprime_rows: list | None = None
        self._coprime: bool | None = None
        self._dividing_vars: frozenset | None = None
        self.root_plans: dict = {}  # p -> roots._RootPlan, filled by roots

    # -- structure -----------------------------------------------------------

    @cached_property
    def dimension(self) -> int:
        """The basis dimension prod N_i, at first read."""
        return math.prod(self.gen_degrees)

    def gen_degree(self, i: int) -> int:
        """N_i, i.e. `gen_degrees[i]`; the package reads the tuple."""
        return self.gen_degrees[i]

    def gen_poly(self, i: int) -> Poly:
        return self._gen_polys[i]

    def gen_poly_power(self, i: int, k: int) -> Poly:
        key = (i, k)
        cached = self._gen_pow_cache.get(key)
        if cached is None:
            cached = self._gen_polys[i] ** k
            self._gen_pow_cache[key] = cached
        return cached

    def gen_var_degrees(self) -> list[dict[int, int]]:
        """deg_{X_j}(A_i) as one sparse column {j: degree} per generator i
        (an edge polynomial touches two variables), built at first use."""
        if self._gen_var_degrees is None:
            self._gen_var_degrees = [A.degrees() for A in self._gen_polys]
        return self._gen_var_degrees

    def coprime_to_others(self) -> list[bool]:
        """For each i, whether A_i is coprime to every other A_j: the one
        pass over pairs of defining polynomials, at first use.  A common
        factor involves only shared variables, so only the pairs that
        share one (by the `gen_var_degrees` columns) and the pairs with a
        zero A_j, which has none, go through `_coprime`."""
        if self._coprime_rows is None:
            A, degs = self._gen_polys, self.gen_var_degrees()
            rows = [True] * len(A)
            users: dict = {}
            for i, d in enumerate(degs):
                for v in d:
                    users.setdefault(v, []).append(i)
            pairs = {(i, j) for u in users.values() for x, j in enumerate(u) for i in u[:x]}
            pairs |= {(z, i) for z, f in enumerate(A) if f.is_zero() for i in range(len(A)) if i != z}
            for i, j in pairs:
                if (rows[i] or rows[j]) and not _coprime(A[i], A[j], (degs[i], degs[j])):
                    rows[i] = rows[j] = False
            self._coprime_rows = rows
        return self._coprime_rows

    def coprime_base(self) -> bool:
        """Whether the A_i are nonzero, nonconstant, monic and pairwise
        coprime (`coprime_to_others`), decided at first use.  Only then
        do one-term elements carry power-product forms."""
        if self._coprime is None:
            monic = all(not f.is_constant() and f.is_monic() for f in self._gen_polys)
            self._coprime = monic and all(self.coprime_to_others())
        return self._coprime

    def dividing_vars(self) -> frozenset:
        """The j for which X_j divides some A_i, at first use.  Only an A_i
        whose `gen_var_degrees` column holds j can; an A_i with a term
        free of X_j (an edge polynomial's 1) cannot.  Any other X_j is
        coprime to every nonzero A_i, so it is a power-product atom, and
        X_j = 0 is an unramified place (`roots.certified_places`)."""
        if self._dividing_vars is None:
            self._dividing_vars = frozenset(
                j for A, column in zip(self._gen_polys, self.gen_var_degrees())
                for j in column if A.min_degree_in(j))
        return self._dividing_vars

    def _chain_bottom_exp(self, var: str) -> int:
        return self.chain_prime ** self.vertex_depths[var]

    def _build_gen_poly(self, g: RadicalGen) -> Poly:
        F, n = self.field, self.nvars
        if g.recipe[0] == "edge":
            _, s, t = g.recipe
            one = Poly.one(F, n)
            return (
                Poly.var(F, n, self.var_index[s], self._chain_bottom_exp(s))
                + Poly.var(F, n, self.var_index[t], self._chain_bottom_exp(t))
                + one
            )
        _, var, coeffs = g.recipe
        i = self.var_index[var]
        bottom = self._chain_bottom_exp(var)
        acc = Poly.zero(F, n)
        for k, c in enumerate(coeffs):
            if F.is_zero(c):
                continue
            acc = acc + Poly.var(F, n, i, k * bottom).scale(c)
        return acc

    def family_key(self):
        return (
            self.char,
            self.var_names,
            self.chain_prime,
            tuple((g.label, g.prime, g.recipe, g.color) for g in self.gens),
        )

    def with_depths(self, vertex_depths: dict, edge_depths: dict) -> "TowerContext":
        gens = tuple(
            RadicalGen(g.label, g.prime, edge_depths.get(g.label, g.depth), g.recipe, g.color)
            for g in self.gens
        )
        vd = dict(self.vertex_depths)
        vd.update(vertex_depths)
        return TowerContext(self.char, self.var_names, self.chain_prime, vd, gens, self.colored_graph)

    def deepen(self, vertex_delta: int = 0, edge_delta: int = 0, only_prime: int | None = None) -> "TowerContext":
        vd = {v: d + vertex_delta for v, d in self.vertex_depths.items()}
        ed = {
            g.label: g.depth + (edge_delta if only_prime in (None, g.prime) else 0)
            for g in self.gens
        }
        return self.with_depths(vd, ed)

    def sub_context(self, j: int) -> "TowerContext":
        """The tower over the same base with only the first j generators."""
        ctx = self._sub_cache.get(j)
        if ctx is None:
            ctx = TowerContext(
                self.char,
                self.var_names,
                self.chain_prime,
                self.vertex_depths,
                self.gens[:j],
                self.colored_graph,
            )
            if self._coprime:  # a subset of a coprime base is one
                ctx._coprime, ctx._coprime_rows = True, self._coprime_rows[:j]
            self._sub_cache[j] = ctx
        return ctx

    def __repr__(self):
        return (
            f"TowerContext(char={self.char}, vars={self.var_names}, "
            f"gens={[g.label for g in self.gens]}, dim={self.dimension})"
        )

    # -- element constructors -------------------------------------------------

    def zero(self) -> "TowerElement":
        return TowerElement(self, {})

    def one(self) -> "TowerElement":
        return self.from_ratfunc(RatFunc.one(self.field, self.nvars))

    def constant(self, n: int) -> "TowerElement":
        return self.from_ratfunc(RatFunc.const(self.field, self.nvars, self.field.of_int(n)))

    def from_poly(self, p: Poly) -> "TowerElement":
        return self.from_ratfunc(RatFunc.from_poly(p))

    def from_ratfunc(self, r: RatFunc) -> "TowerElement":
        """The element r; a constant times a quotient of chain-variable
        monomials over a coprime base starts a power-product form, unless
        one of its variables divides an A_i."""
        if r.is_zero():
            return self.zero()
        zero_exp = (0,) * len(self.gens)
        if len(r.num.ints) == len(r.den.ints) == 1 and self.coprime_base():
            ((m, u),), ((d, _),) = r.num.ints.items(), r.den.ints.items()  # den is monic
            x = tuple(map(sub, m, d))
            if not any(x[j] for j in self.dividing_vars()):
                return _from_form(self, zero_exp, r.num.content * u, zero_exp, x)
        return TowerElement(self, {zero_exp: r})


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def edge_label(e) -> str:
    return "e:" + ",".join(sorted(e))


def build_tower(
    cg: ColoredGraph,
    char: int = 0,
    vertex_depths=1,
    edge_depths=1,
    cap: int | None = None,
    primes: tuple | None = None,
) -> TowerContext:
    """Tower context over a star-colored graph.

    For each edge e = {s, t} of color l the defining relation is
    Y_e^(p_{l+1}^d_e) = X_s^(p_0^d_s) + X_t^(p_0^d_t) + 1.

    The coloring must be a star coloring: that backs the classification
    arguments, not the arithmetic.  So does the distinctness of the chain
    prime p_0 and the color primes p_1 ... p_n (`primes`, which defaults
    to `choose_primes`).  A caller that passes `cap` has a tower of
    larger basis dimension refused with TooLarge.
    """
    bad = [c for c, rep in check_star_coloring(cg).items() if not rep["ok"]]
    if bad:
        raise InvalidInput(f"coloring is not a star coloring; failing colors {bad}")
    if primes is None:
        primes = choose_primes(char, cg.color_count)
    if len(primes) < cg.color_count + 1:
        raise InvalidInput("need one prime per color plus the chain prime")
    if len(set(primes[:cg.color_count + 1])) != cg.color_count + 1:
        raise InvalidInput("the chain prime and the color primes must be pairwise distinct")
    verts = sorted(cg.vertices)
    for depths, names in ((vertex_depths, verts), (edge_depths, map(edge_label, cg.edges))):
        unknown = set() if isinstance(depths, int) else set(depths) - set(names)
        if unknown:
            raise InvalidInput(f"depths name no vertex or edge of the input: {sorted(map(str, unknown))}")
    vd = {v: (vertex_depths if isinstance(vertex_depths, int) else vertex_depths.get(v, 0)) for v in verts}
    gens = []
    for e in sorted(cg.edges, key=lambda e: sorted(e)):
        s, t = sorted(e)
        d = edge_depths if isinstance(edge_depths, int) else edge_depths.get(edge_label(e), 0)
        color = cg.colors[e]
        gens.append(
            RadicalGen(
                label=edge_label(e),
                prime=primes[color + 1],
                depth=d,
                recipe=("edge", s, t),
                color=color,
            )
        )
    ctx = TowerContext(char, verts, primes[0], vd, gens, colored_graph=cg)
    if cap is not None and ctx.dimension > cap:
        raise TooLarge(f"basis dimension exceeds cap {cap}")
    return ctx


def radical_extend(
    spec: RadicalSpec,
    char: int = 0,
    z_depth: int = 1,
    depths=1,
) -> TowerContext:
    """The generic tower: one transcendental z_0 with p-power roots and,
    for each v, p_k-power roots of T_v(z_0).

    The hypotheses are validated exactly: every T_v nonconstant,
    not divisible by X, separable, and pairwise coprime.
    """
    field = CoeffField(char)
    if not is_prime(spec.p) or spec.p == char:
        raise SpecInvalid("p must be a prime different from the characteristic")
    if len(set(spec.branch_primes)) != len(spec.branch_primes):
        raise SpecInvalid("branch primes must be pairwise distinct")
    for q in spec.branch_primes:
        if not is_prime(q) or q in (spec.p, char):
            raise SpecInvalid("branch primes must be primes different from p and the characteristic")
    upolys = {}
    for v, coeffs in spec.polys.items():
        if char and any(c.denominator % char == 0 for c in coeffs):
            raise SpecInvalid(f"T_{v} has a coefficient whose denominator {char} divides")
        poly = Poly(field, 1, {(k,): field.of_int(c) if isinstance(c, int) else field.of_fraction(c)
                               for k, c in enumerate(coeffs)})
        if poly.is_zero() or poly.is_constant():
            raise SpecInvalid(f"T_{v} must be nonconstant")
        if poly.min_degree_in(0) > 0:
            raise SpecInvalid(f"T_{v} must not be divisible by X")
        if not _coprime(poly, poly.derivative(0)):
            raise SpecInvalid(f"T_{v} must be separable")
        upolys[v] = poly
    labels = sorted(upolys)
    for i, v in enumerate(labels):
        for w in labels[i + 1 :]:
            if not _coprime(upolys[v], upolys[w]):
                raise SpecInvalid(f"T_{v} and T_{w} must be relatively prime")
    gens = []
    for v in labels:
        k = spec.partition[v]
        d = depths if isinstance(depths, int) else depths.get(v, 0)
        terms = upolys[v].terms()
        coeffs = tuple(terms.get((i,), field.zero) for i in range(upolys[v].degree_in(0) + 1))
        gens.append(
            RadicalGen(
                label=f"t:{v}",
                prime=spec.branch_primes[k],
                depth=d,
                recipe=("tpoly", "z", coeffs),
                color=None,
            )
        )
    return TowerContext(char, ("z",), spec.p, {"z": z_depth}, gens)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class TowerElement:
    """Canonical form: {reduced generator exponent vector: RatFunc}.

    `_pp` is None or, on a one-term element of a tower with a coprime
    base, its power-product form (e, c, k, x): the element is
    c·prod A_i^k_i·prod X_j^x_j · Y^e with c a nonzero prime-field
    constant, and x_j = 0 wherever X_j divides an A_i
    (`TowerContext.dividing_vars`).  Such an element is built without its
    canonical form (`_from_form`); `coeffs` is expanded from the form
    (`_expand`) when first read, and kept.

    Two forms are equal exactly when their elements are.  The A_i are
    nonzero, nonconstant, monic and pairwise coprime, and an X_j with
    x_j != 0 is irreducible and divides none of them, so the A_i and
    those X_j are pairwise coprime.  If c·prod A_i^k_i·prod X_j^x_j =
    c'·prod A_i^k'_i·prod X_j^x'_j, any irreducible factor of one of
    them divides no other, and its valuation gives k_i = k'_i and
    x_j = x'_j; cancelling the powers then gives c = c'.  So equality
    compares forms when both sides carry one, and coefficients
    otherwise; hashing always hashes the expanded coefficients, so equal
    elements hash alike with or without a form."""

    __slots__ = ("ctx", "coeffs", "_pp")

    def __init__(self, ctx: TowerContext, coeffs: dict):
        self.ctx = ctx
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}
        self._pp = None

    def __getattr__(self, name):
        # reached only for an unset slot: the coefficients of a form
        if name != "coeffs" or self._pp is None:
            raise AttributeError(name)
        e, c, k, x = self._pp
        self.coeffs = {e: _expand(self.ctx, c, k, x)}
        return self.coeffs

    # -- basic views -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self._pp is None and not self.coeffs

    def is_one(self) -> bool:
        z = (0,) * len(self.ctx.gens)
        return set(self.coeffs) == {z} and self.coeffs[z].is_one()

    def is_base(self) -> bool:
        """In the rational function field (no generator occurs)?"""
        z = (0,) * len(self.ctx.gens)
        return not self.coeffs or set(self.coeffs) == {z}

    def base_value(self) -> RatFunc:
        if self.is_zero():
            return RatFunc.zero(self.ctx.field, self.ctx.nvars)
        if not self.is_base():
            raise ValueError("element is not in the base field")
        return next(iter(self.coeffs.values()))

    def support_vars(self) -> set[int]:
        columns = self.ctx.gen_var_degrees()
        out = set()
        for e, c in self.coeffs.items():
            out.update(c.variables_used(), *(columns[i] for i, k in enumerate(e) if k))
        return out

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        _same_ctx(self, other)
        if self._pp is not None and other._pp is not None:
            return self._pp == other._pp
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset((e, c.num, c.den) for e, c in self.coeffs.items()))

    def __repr__(self):
        if self.is_zero():
            return "TowerElement(0)"
        parts = []
        for e in sorted(self.coeffs):
            parts.append(f"{dict(enumerate(e))}:{self.coeffs[e]!r}")
        return "TowerElement(" + "; ".join(parts) + ")"

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "TowerElement") -> "TowerElement":
        _same_ctx(self, other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return TowerElement(self.ctx, out)

    def __neg__(self) -> "TowerElement":
        return TowerElement(self.ctx, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "TowerElement") -> "TowerElement":
        return self + (-other)

    def __mul__(self, other: "TowerElement") -> "TowerElement":
        _same_ctx(self, other)
        if self._pp is not None and other._pp is not None:
            # one term times one term: c1·c2, k1 + k2 + the fold, x1 + x2
            (e1, c1, k1, x1), (e2, c2, k2, x2) = self._pp, other._pp
            exps, k = [], []
            for n, x, y, u, v in zip(self.ctx.gen_degrees, e1, e2, k1, k2):
                q, x = divmod(x + y, n)
                exps.append(x)
                k.append(u + v + q)
            return _from_form(self.ctx, tuple(exps), self.ctx.field.mul(c1, c2), tuple(k),
                              tuple(map(add, x1, x2)))
        raw: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                prev = raw.get(e)
                raw[e] = c if prev is None else prev + c
        return _reduce(self.ctx, raw)

    def __pow__(self, n: int) -> "TowerElement":
        """self^n.  A one-term element is raised in closed form
        (`_monomial_power`) for every n other than 0 and 1, by exponent
        arithmetic on its power-product form when it carries one; any
        other element is inverted first for a negative n, then raised by
        square-and-multiply."""
        if (self._pp is not None or len(self.coeffs) == 1) and n not in (0, 1):
            return _monomial_power(self, n)
        if n < 0:
            return self.inv() ** (-n)
        acc = self.ctx.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def __truediv__(self, other: "TowerElement") -> "TowerElement":
        return self * other.inv()

    def inv(self) -> "TowerElement":
        """Field inverse: in closed form for one and two terms, otherwise
        by extended Euclid against each defining polynomial.

        Euclid: level by level from the top generator down, the remainder
        sequence of T^N - A and the element (a polynomial in T over the
        lower levels) runs until a constant remainder r; the tracked
        cofactor times r^-1 is the inverse.  A zero remainder of positive
        degree before that means a nontrivial gcd with T^N - A, so the
        tower has a zero divisor: SingularMultiplication is raised,
        carrying the to_json() form of the element being inverted at that
        level as its counterexample.  Leading coefficients are inverted
        by this same dispatch one level down.

        One term: the n = -1 case of the one-term power
        (`_monomial_power`).  Y_i^e_i · Y_i^(N_i - e_i) = A_i, so
        (c·Y^e)^-1 = c^-1 · prod_(e_i > 0) A_i^-1 · Y^(N - e), with N - e
        read as 0 where e_i = 0; a zero A_i there makes Y_i nilpotent,
        and SingularMultiplication is raised as above.  A power-product
        form (e, c, k, x) goes to (N - e, c^-1, -k - [e_i > 0], -x), and
        nothing is expanded.

        Two terms: a = m0 + m1, m0 the term of smaller exponent vector.
        Then w = -m1·m0^-1 is one term c·Y^δ, and a = m0·(1 - w).  Let L
        be the lcm of N_i / gcd(N_i, δ_i) over δ_i != 0, the order of δ
        modulo N: w^L = c^L · prod A_i^(L·δ_i/N_i) lies in the base field,
        and w^0, ..., w^(L-1) have pairwise distinct exponents, so their
        sum is a plain collection of terms.  Since
        (1 - w) · sum_(j < L) w^j = 1 - w^L = D, when D != 0

            a^-1 = m0^-1 · D^-1 · sum_(j < L) w^j,

        and the identity makes this exact.  If a is not a unit, D must be
        0, since otherwise the right-hand side is an inverse; so the closed
        form never hides a zero divisor.  D = 0 sends a to the Euclid walk,
        which raises SingularMultiplication as above (y - z over
        Y^5 = z^5).  The cost is one base-field inversion and L one-term
        products.  When the numerators and denominators of m0's and m1's
        coefficients and the A_i under a are pairwise coprime (`_coprime`
        per pair, taken once), each term is a product of powers of these
        pieces over the numerator of D, already in lowest terms
        (`_binomial_by_bases`); otherwise term j + 1 is term j times w,
        reduced as it goes.  On a tower with A_i = 0 for one of a's
        generators, m0 need not be a unit, and a takes the Euclid walk.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero tower element")
        return _inv_in(self)

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> dict:
        def poly_doc(p: Poly):
            return [
                {"exps": list(e), "coeff": str(c)}
                for e, c in sorted(p.terms().items())
            ]

        return {
            "gens": [g.label for g in self.ctx.gens],
            "vars": list(self.ctx.var_names),
            "terms": [
                {"exps": list(e), "num": poly_doc(c.num), "den": poly_doc(c.den)}
                for e, c in sorted(self.coeffs.items())
            ],
        }


def _coprime(f: Poly, g: Poly, degrees=None) -> bool:
    """gcd(f, g) = 1, the one coprimality test.  A common factor of
    nonconstant f and g involves only their shared variables (read off
    `degrees`, the pair (f.degrees(), g.degrees()), computed when not
    given), so when f or g has a constant coefficient over them
    (`_modgcd._constant_coefficient`; the 1 of an edge polynomial
    against another edge at one endpoint) no gcd runs."""
    if f.is_constant() or g.is_constant():  # gcd(0, h) = h
        return not (f.is_zero() or g.is_zero()) or f.gcd(g).is_one()
    df, dg = degrees or (f.degrees(), g.degrees())
    shared = df.keys() & dg.keys()
    return (_constant_coefficient(f.ints, shared, df) or _constant_coefficient(g.ints, shared, dg)
            or f.gcd(g).is_one())


def _same_ctx(a: TowerElement, b: TowerElement) -> None:
    if a.ctx is not b.ctx:
        raise ValueError("elements of two different tower contexts: embed one into the other's first")


def _monomial_power(a: TowerElement, n: int) -> TowerElement:
    """(c·Y^e)^n for a one-term element and an integer n other than 0 and
    1, in closed form: c^n · prod_i A_i^q_i · Y^r with q_i, r_i =
    divmod(n·e_i, N_i).  n = -1 is the inverse.

    With c = u/d in lowest terms and m = |n|, c^n = t^m / b^m with
    (t, b) = (u, d) for n > 0 and (d, u) for n < 0, and t^m and b^m are
    coprime.  Every q_i has the sign of n, so the A_i^|q_i| sit on one
    side of the bar with u^m (above it for n > 0, below it for n < 0) and
    face d^m alone.  Cancelling them against d^m (`_cancel_powers`, gcds
    of the bases only) before any is multiplied out therefore leaves the
    coefficient in lowest terms.  A zero A_i with q_i != 0 makes Y_i
    nilpotent: the power is zero for n > 0, and n < 0 raises
    SingularMultiplication with a's to_json() form as its counterexample.

    When a carries a power-product form (e, c, k, x), the power's form is
    (r, c^n, n·k + q, n·x), and nothing is expanded.
    """
    ctx = a.ctx
    if a._pp is not None:  # a coprime base has no zero A_i
        e, c, k, x = a._pp
        exps, ks = [], []
        for N, y, z in zip(ctx.gen_degrees, e, k):
            q, r = divmod(n * y, N)
            exps.append(r)
            ks.append(n * z + q)
        return _from_form(ctx, tuple(exps), ctx.field.pow(c, n), tuple(ks), tuple(n * y for y in x))
    (e, c), = a.coeffs.items()
    m = abs(n)
    exps, folds, index = [], [], {}
    for i, k in enumerate(e):
        q, r = divmod(n * k, ctx.gen_degrees[i])
        exps.append(r)
        if q:
            A = ctx.gen_poly(i)
            if A.is_zero():
                if n > 0:
                    return ctx.zero()
                raise SingularMultiplication(
                    "nontrivial gcd with the defining polynomial: zero divisor found",
                    counterexample=a.to_json(),
                )
            folds.append((A, abs(q)))
            index[id(A)] = i
    dens = [] if c.den.is_one() else [(c.den, m)]
    folds, dens = _cancel_powers(folds, dens)
    u_side = c.num**m
    for f, q in folds:
        # an A_i that nothing cancelled takes its cached power
        i = index.get(id(f))
        u_side = u_side * (f**q if i is None else ctx.gen_poly_power(i, q))
    d_side = None
    for d, k in dens:
        d_side = d**k if d_side is None else d_side * d**k
    if d_side is None:
        d_side = Poly.one(ctx.field, ctx.nvars)
    num, den = (u_side, d_side) if n > 0 else (d_side, u_side)
    return TowerElement(ctx, {tuple(exps): RatFunc._raw(num, den)})


def _expand(ctx: TowerContext, c, k, x) -> RatFunc:
    """The coefficient c·prod A_i^k_i·prod X_j^x_j of a power-product
    form, as c·prod_(k_i > 0) A_i^k_i·prod_(x_j > 0) X_j^x_j over the
    powers of negative exponent, from the cached A_i powers.  On a coprime
    base this is in lowest terms: the A_i and the X_j of the form are
    pairwise coprime (see `TowerElement`), so no irreducible factor can
    divide both sides.  The denominator is monic, a product of monic
    polynomials, so the pair is canonical as it stands: no gcd and no
    rescaling."""
    F, n = ctx.field, ctx.nvars
    up, down = tuple(y if y > 0 else 0 for y in x), tuple(-y if y < 0 else 0 for y in x)
    num, den = _poly(F, n, F.one, {up: 1}, up, False), _poly(F, n, F.one, {down: 1}, down, False)
    for i, y in enumerate(k):
        if y > 0:
            num = ctx.gen_poly_power(i, y) if num.is_one() else num * ctx.gen_poly_power(i, y)
        elif y < 0:
            den = ctx.gen_poly_power(i, -y) if den.is_one() else den * ctx.gen_poly_power(i, -y)
    out = object.__new__(RatFunc)
    out.num, out.den = num.scale(c), den
    return out


def _from_form(ctx: TowerContext, e: tuple, c, k: tuple, x: tuple) -> TowerElement:
    """The one-term element c·prod A_i^k_i·prod X_j^x_j · Y^e, built from
    its form; its coefficient is expanded when first read."""
    out = object.__new__(TowerElement)
    out.ctx, out._pp = ctx, (e, c, k, x)
    return out


def _monomial_root(a: TowerElement, beta: tuple, shift: list, p: int) -> TowerElement | None:
    """The candidate p-th root c'·Y^beta of one-term a = c·Y^alpha with
    p·beta_i = alpha_i + shift_i·N_i, so that c'^p must be the target
    c·prod A_i^-shift_i; None when the target has no p-th root, or when a
    shift needs a zero A_i (the candidate's p-th power is then 0, not a).

    With a power-product form (alpha, c, k, x) the target's form is
    (c, k - shift, x), by subtraction.  An X_j of the form is irreducible
    and divides no A_i, so the target's X_j-adic value is x_j, and p
    must divide it.  When p also divides every k_i - shift_i, the target
    is a p-th power exactly when the constant c is, and the root's form
    is (beta, c^(1/p), (k - shift)/p, x/p), with c^(1/p) from the prime
    field (`CoeffField.pth_root`).  Otherwise (an A_i may itself be a
    p-th power, as z^5 is) the expanded target is peeled
    (`RatFunc.pth_root`), as it is without a form, where the target is
    the coefficient divided by each A_i^shift_i.  Either way the root is
    the one whose leading coefficient is the prime field's root of the
    target's, since every A_i is monic."""
    ctx = a.ctx
    if a._pp is not None:
        _, c, k, x = a._pp
        if any(y % p for y in x):
            return None
        k = [y - s for y, s in zip(k, shift)]
        if not any(y % p for y in k):
            root = ctx.field.pth_root(c, p)
            return None if root is None else _from_form(ctx, beta, root, tuple(y // p for y in k),
                                                        tuple(y // p for y in x))
        target = _expand(ctx, c, k, x)
    else:
        if any(s and ctx.gen_poly(i).is_zero() for i, s in enumerate(shift)):
            return None
        (target,) = a.coeffs.values()
        for i, s in enumerate(shift):
            if s:
                target = target / RatFunc.from_poly(ctx.gen_poly_power(i, s))
    root = target.pth_root(p)
    return None if root is None else TowerElement(ctx, {beta: root})


def _cancel_powers(nums: list, dens: list) -> tuple[list, list]:
    """prod a^q / prod d^m in lowest terms, for lists of (Poly, exponent)
    pairs: the same quotient as two such lists whose bases are pairwise
    coprime across the bar.

    A numerator piece a^q meets each denominator entry d^m in turn.  With
    h = gcd(a, d), a = h·a' and d = h·d', where a' and d' are coprime;
    h^min(q, m) cancels, a'^q goes on to the next entry, d^m becomes
    d'^m, and the surplus power of h stays on its side: as a new
    denominator entry at the end of the list, which every piece still
    moving meets, or as a numerator piece that starts again at d'.  A
    piece coprime to d is coprime to its divisors h and d', so no entry
    is revisited.  Each split lowers sum(exponent·degree) over both lists
    by 2·min(q, m)·deg(h), so the loop ends.  The gcds are of the bases,
    never of their powers or products.
    """
    dens = list(dens)
    out = []
    stack = [(a, q, 0) for a, q in nums]
    while stack:
        a, q, j = stack.pop()
        while j < len(dens) and not a.is_constant():
            d, m = dens[j]
            h, a, d = a.cofactors(d)
            if not h.is_one():
                c = min(q, m)
                dens[j] = (d, m)
                if m > c:
                    dens.append((h, m - c))
                if q > c:
                    stack.append((h, q - c, j))
            j += 1
        out.append((a, q))
    return out, dens


def _reduce(ctx: TowerContext, raw: dict) -> TowerElement:
    """Fold exponents e >= N_i back into the basis range using A_i powers."""
    out: dict = {}
    for e, c in raw.items():
        if c.is_zero():
            continue
        exps = list(e)
        extra: Poly | None = None
        for i in range(len(ctx.gens)):
            n = ctx.gen_degrees[i]
            if exps[i] >= n:
                q, r = divmod(exps[i], n)
                exps[i] = r
                pw = ctx.gen_poly_power(i, q)
                extra = pw if extra is None else extra * pw
        if extra is not None:
            c = c.scale_poly(extra)
        key = tuple(exps)
        prev = out.get(key)
        out[key] = c if prev is None else prev + c
    return TowerElement(ctx, out)


# ---------------------------------------------------------------------------
# Generators and embeddings
# ---------------------------------------------------------------------------


def generator_vertex(ctx: TowerContext, v: str, i: int) -> TowerElement:
    """x_v^i = X_v^(p_0^(d_v - i))."""
    d = ctx.vertex_depths[v]
    if i > d or i < 0:
        raise DepthExceeded(f"vertex root {i} exceeds depth {d}")
    power = ctx.chain_prime ** (d - i)
    return ctx.from_poly(Poly.var(ctx.field, ctx.nvars, ctx.var_index[v], power))


def generator_edge(ctx: TowerContext, e, i: int) -> TowerElement:
    """x_e^i = Y_e^(prime^(d_e - i)); for i = 0 this reduces to A_e."""
    label = e if isinstance(e, str) else edge_label(e)
    gi = ctx.gen_index[label]
    g = ctx.gens[gi]
    if i > g.depth or i < 0:
        raise DepthExceeded(f"edge root {i} exceeds depth {g.depth}")
    exps = [0] * len(ctx.gens)
    exps[gi] = g.prime ** (g.depth - i)
    if not ctx.coprime_base():
        return _reduce(ctx, {tuple(exps): RatFunc.one(ctx.field, ctx.nvars)})
    k = [0] * len(exps)  # Y^N folds into A at i = 0
    if i == 0:
        exps[gi], k[gi] = 0, 1
    return _from_form(ctx, tuple(exps), ctx.field.one, tuple(k), (0,) * ctx.nvars)


def embed(a: TowerElement, target: TowerContext) -> TowerElement:
    """The injective homomorphism into a deeper truncation:
    X_v -> X_v^(p_0^delta_v), Y_e -> Y_e^(prime^delta_e)."""
    src = a.ctx
    if src.family_key() != target.family_key():
        raise ProfileNotLarger("target tower is from a different family")
    deltas_v = []
    for v in src.var_names:
        d = target.vertex_depths[v] - src.vertex_depths[v]
        if d < 0:
            raise ProfileNotLarger(f"vertex depth of {v} shrinks")
        deltas_v.append(src.chain_prime**d)
    deltas_e = []
    for gs, gt in zip(src.gens, target.gens):
        d = gt.depth - gs.depth
        if d < 0:
            raise ProfileNotLarger(f"edge depth of {gs.label} shrinks")
        deltas_e.append(gs.prime**d)
    factors = tuple(deltas_v)
    # e_i < p^d gives e_i·p^δ < p^(d+δ), the target's N_i, and distinct
    # keys stay distinct, so nothing folds or merges
    return TowerElement(target, {
        tuple(x * f for x, f in zip(e, deltas_e)): c.stretch(factors) for e, c in a.coeffs.items()
    })


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def _split_top(a: TowerElement) -> dict[int, TowerElement]:
    """View an element as a polynomial in the last generator with
    coefficients in the sub-tower."""
    ctx = a.ctx
    j = len(ctx.gens) - 1
    sub = ctx.sub_context(j)
    out: dict[int, dict] = {}
    for e, c in a.coeffs.items():
        out.setdefault(e[j], {})[e[:j]] = c
    return {k: TowerElement(sub, v) for k, v in out.items()}


def _join_top(ctx: TowerContext, tpoly: dict[int, TowerElement]) -> TowerElement:
    out: dict = {}
    for k, elem in tpoly.items():
        for e, c in elem.coeffs.items():
            out[e + (k,)] = c
    return TowerElement(ctx, out)


def _inv_in(a: TowerElement) -> TowerElement:
    """inv() of a nonzero element: one term by `_monomial_power`, two
    terms by `_binomial_inverse` where its closed form applies, anything
    else by `_euclid_inverse`."""
    if a._pp is not None or len(a.coeffs) == 1:
        return _monomial_power(a, -1)
    if len(a.coeffs) == 2:
        x = _binomial_inverse(a)
        if x is not None:
            return x
    return _euclid_inverse(a)


def _euclid_inverse(a: TowerElement) -> TowerElement:
    """One level of inv(): extended Euclid in K[T]/(T^n - A), K the
    sub-tower of a's lower generators, tracking only a's cofactor s
    (s*a = r mod T^n - A); leading coefficients are inverted by
    `_inv_in` in K."""
    ctx = a.ctx
    j = len(ctx.gens) - 1
    sub = ctx.sub_context(j)
    # r0 = T^n - A, built by subtraction because A may be zero
    r0, s0 = {ctx.gen_degrees[j]: sub.one()}, {}
    _sub_shifted(r0, sub.one(), 0, {0: sub.from_poly(ctx.gen_poly(j))})
    r1, s1 = _split_top(a), {0: sub.one()}
    while max(r1) > 0:
        _divide(r0, r1, _inv_in(r1[max(r1)]), s0, s1)
        if not r0:
            raise SingularMultiplication(
                "nontrivial gcd with the defining polynomial: zero divisor found",
                counterexample=a.to_json(),
            )
        r0, s0, r1, s1 = r1, s1, r0, s0
    r_inv = _inv_in(r1[0])
    return _join_top(ctx, {k: v * r_inv for k, v in s1.items()})


def _binomial_inverse(a: TowerElement) -> TowerElement | None:
    """(m0 + m1)^-1 = m0^-1 · (1 - w^L)^-1 · sum_(j < L) w^j with
    w = -m1/m0 and L the order of w's exponents; see `inv`.  None where
    the closed form does not apply: a zero A_i under a's generators, or
    1 - w^L = 0.  When the coefficients' numerators and denominators and
    the A_i under a are pairwise coprime, `_binomial_by_bases` forms the
    terms without a gcd; otherwise term j + 1 is term j times w.  Two A_i
    are coprime without a test when either is coprime to every other
    (`TowerContext.coprime_to_others`, one pass per context).  (The
    by-bases products also hold unreduced, but where the pieces share a
    factor they grow with L before their one gcd per term, and that is
    slower than reducing as the terms go.)"""
    ctx = a.ctx
    e0, e1 = sorted(a.coeffs)
    gens = [i for i, (k0, k1) in enumerate(zip(e0, e1)) if k0 or k1]
    if any(ctx.gen_poly(i).is_zero() for i in gens):
        return None
    L = 1
    for i in gens:
        n = ctx.gen_degrees[i]
        L = math.lcm(L, n // math.gcd(n, e1[i] - e0[i]))
    c0, c1 = a.coeffs[e0], a.coeffs[e1]
    p0, q0, p1, q1 = c0.num, c0.den, c1.num, c1.den
    A = [ctx.gen_poly(i) for i in gens]
    rows = ctx.coprime_to_others()
    pairs = [(p0, p1), (p0, q1), (q0, p1), (q0, q1)]
    pairs += [(f, A[x]) for x in range(len(A)) for f in (p0, q0, p1, q1)]
    pairs += [(A[y], A[x]) for x in range(len(A)) for y in range(x)
              if not (rows[gens[x]] or rows[gens[y]])]
    if all(_coprime(f, g) for f, g in pairs):
        return _binomial_by_bases(ctx, e0, e1, gens, L, p0, q0, p1, q1)
    m0_inv = _monomial_power(TowerElement(ctx, {e0: c0}), -1)
    w = -(TowerElement(ctx, {e1: c1}) * m0_inv)
    (delta, wc), = w.coeffs.items()
    v = _monomial_power(w, L).base_value()
    if v.is_one():
        return None
    # v = n/d in lowest terms, so (d - n)/d is too
    (e, c), = m0_inv.coeffs.items()
    c = c * RatFunc._raw(v.den, v.den - v.num)
    exps = list(e)
    out = {}
    for j in range(L):
        if j:
            c = c * wc
            for i in gens:
                exps[i] += delta[i]
                if exps[i] >= ctx.gen_degrees[i]:
                    exps[i] -= ctx.gen_degrees[i]
                    c = c.scale_poly(ctx.gen_poly(i))
        out[tuple(exps)] = c
    return TowerElement(ctx, out)


def _binomial_by_bases(ctx, e0, e1, gens, L, p0, q0, p1, q1) -> TowerElement | None:
    """`_binomial_inverse` for m0 = (p0/q0)·Y^e0 and m1 = (p1/q1)·Y^e1
    whose bases p0, q0, p1, q1 and A_i (i in gens) are pairwise coprime.

    With s = e1 - e0 and Q_i = L·s_i/N_i, w = -(p1·q0)/(q1·p0)·Y^s and
    w^L = (-p1·q0)^L · prod A_i^Q_i / (q1·p0)^L = n/d in lowest terms.
    Term j of the inverse, m0^-1 · w^j · d/(d - n), is

        (-q0·p1)^j·q0 · (p0·q1)^(L-1-j)·q1 · prod A_i^x_ij / (d - n)

    at Y^r, with x_ij = floor((j·s_i - e0_i)/N_i) + max(-Q_i, 0) and
    r_i = (j·s_i - e0_i) mod N_i; an A_i with x_ij < 0 goes below the
    bar.  A factor of d - n dividing a base of n or d would divide both,
    so d - n is coprime to every base that occurs in w^L, and an A_i that
    does not (s_i = 0) has x_ij = -1 for every j, below the bar with
    d - n.  So every term is in lowest terms as it stands, and none
    takes a gcd."""
    N = {i: ctx.gen_degrees[i] for i in gens}
    Q = {i: L * (e1[i] - e0[i]) // N[i] for i in gens}
    n = (-(p1 * q0)) ** L
    d = (q1 * p0) ** L
    for i in gens:
        if Q[i] > 0:
            n = n * ctx.gen_poly_power(i, Q[i])
        elif Q[i] < 0:
            d = d * ctx.gen_poly_power(i, -Q[i])
    D = d - n
    if D.is_zero():
        return None
    tail, pq = [q1], p0 * q1  # tail[k] = (p0·q1)^k·q1
    for _ in range(L - 1):
        tail.append(tail[-1] * pq)
    head, step = q0, -(q0 * p1)  # head = (-q0·p1)^j·q0
    exps = [0] * len(e0)
    out = {}
    for j in range(L):
        if j:
            head = head * step
        num, den = head * tail[L - 1 - j], D
        for i in gens:
            x, exps[i] = divmod(j * (e1[i] - e0[i]) - e0[i], N[i])
            x += max(-Q[i], 0)
            if x > 0:
                num = num * ctx.gen_poly_power(i, x)
            elif x < 0:
                den = den * ctx.gen_poly_power(i, -x)
        out[tuple(exps)] = RatFunc._raw(num, den)
    return TowerElement(ctx, out)


def _divide(r0: dict, r1: dict, lc_inv: TowerElement, s0=None, s1=None) -> None:
    """r0 := r0 mod r1 in place, lc_inv the inverse of r1's leading
    coefficient; when s1 is given, s0 -= q*s1 for the same quotient q."""
    d1 = max(r1)
    tail = {d: v for d, v in r1.items() if d < d1}
    while r0 and max(r0) >= d1:
        d0 = max(r0)
        c = r0.pop(d0) * lc_inv
        _sub_shifted(r0, c, d0 - d1, tail)
        if s1 is not None:
            _sub_shifted(s0, c, d0 - d1, s1)


def _sub_shifted(acc: dict, c: TowerElement, k: int, poly: dict) -> None:
    """acc -= c * T^k * poly, in place, on {degree: sub-tower element}."""
    for d, v in poly.items():
        w = acc.get(d + k)
        w = -(c * v) if w is None else w - c * v
        if w.is_zero():
            acc.pop(d + k, None)
        else:
            acc[d + k] = w


# ---------------------------------------------------------------------------
# Norms
# ---------------------------------------------------------------------------


def field_norm(a: TowerElement, sub: TowerContext) -> TowerElement:
    """Norm to a shallower truncation by transitivity, one pure step
    low[T]/(T^m - t) at a time: the deeper root T of each generator whose
    depth drops, then the deeper X_v of each such vertex.  A step whose T
    does not occur in the element defers a power m to the end; vertex
    steps clear denominators first, N(P/d) = N(P)/N(d).
    """
    ctx = a.ctx
    if ctx.family_key() != sub.family_key():
        raise ProfileNotSmaller("sub tower is from a different family")
    grown = [v for v in ctx.var_names if sub.vertex_depths[v] > ctx.vertex_depths[v]]
    grown += [g.label for g, h in zip(ctx.gens, sub.gens) if h.depth > g.depth]
    if grown:
        raise ProfileNotSmaller(f"depth of {grown[0]} grows")
    if a.is_zero():
        return sub.zero()
    power = 1
    for i, (g, h) in enumerate(zip(ctx.gens, sub.gens)):
        if h.depth == g.depth:
            continue
        low = a.ctx.with_depths({}, {g.label: h.depth})
        m = g.prime ** (g.depth - h.depth)
        parts = {r: TowerElement(low, v) for r, v in _split_at(a.coeffs.items(), i, m).items()}
        if set(parts) == {0}:
            a, power = parts[0], power * m
        else:
            a = _resultant(low, m, generator_edge(low, g.label, h.depth), parts)
    for iv, v in enumerate(ctx.var_names):
        d = sub.vertex_depths[v]
        if d == ctx.vertex_depths[v]:
            continue
        low = a.ctx.with_depths({v: d}, {})
        m = ctx.chain_prime ** (ctx.vertex_depths[v] - d)
        denom = Poly.one(ctx.field, ctx.nvars)
        for c in a.coeffs.values():
            denom = denom * denom.cofactors(c.den)[2]
        num = _split_var(low, {e: c.scale_poly(denom).num for e, c in a.coeffs.items()}, iv, m)
        den = _split_var(low, {(0,) * len(ctx.gens): denom}, iv, m)
        if set(num) == set(den) == {0}:
            a, power = num[0] / den[0], power * m
        else:
            t = generator_vertex(low, v, d)
            a = _resultant(low, m, t, num) / _resultant(low, m, t, den)
    return TowerElement(sub, a.coeffs) ** power


def _split_at(items, pos: int, m: int) -> dict[int, dict]:
    """Split {tuple key: value} items by key[pos] mod m:
    {residue: {key with key[pos] // m in place: value}}."""
    out: dict = {}
    for key, val in items:
        q, r = divmod(key[pos], m)
        out.setdefault(r, {})[key[:pos] + (q,) + key[pos + 1 :]] = val
    return out


def _split_var(low: TowerContext, polys: dict, iv: int, m: int) -> dict[int, TowerElement]:
    """An element with polynomial coefficients {generator exponents: Poly}
    as a polynomial in T = X_iv over low, where X_iv^(qm + r) = T^r X'^q."""
    out: dict = {}
    for e, p in polys.items():
        for r, terms in _split_at(p.terms().items(), iv, m).items():
            out.setdefault(r, {})[e] = RatFunc.from_poly(Poly(low.field, low.nvars, terms))
    return {r: TowerElement(low, v) for r, v in out.items()}


def _resultant(low: TowerContext, m: int, t: TowerElement, a: dict) -> TowerElement:
    """Res_T(T^m - t, a(T)), the norm of nonzero a = {degree < m: element
    of low} in low[T]/(T^m - t), from the remainder sequence:
    Res(r0, r1) = (-1)^(d0 d1) lc(r1)^(d0 - d2) Res(r1, r0 mod r1),
    Res(r0, c) = c^deg(r0) for a constant c, and 0 at a zero remainder."""
    r0, r1, res = {m: low.one()}, dict(a), low.one()
    _sub_shifted(r0, low.one(), 0, {0: t})
    while max(r1) > 0:
        d0, d1 = max(r0), max(r1)
        lc = r1[d1]
        _divide(r0, r1, _inv_in(lc))
        if not r0:
            return low.zero()
        res = res * lc ** (d0 - max(r0))
        if d0 * d1 % 2:
            res = -res
        r0, r1 = r1, r0
    return res * r1[0] ** max(r0)


# ---------------------------------------------------------------------------
# Samplers and smoke checks
# ---------------------------------------------------------------------------


def random_nonzero_element(
    ctx: TowerContext,
    rng: random.Random,
    max_terms: int = 3,
    allow_denominator: bool = True,
) -> TowerElement:
    """A sparse random nonzero element: a few generator monomials, each
    exponent below 4, with small rational-function coefficients; a zero
    sum is drawn again."""
    for _ in range(50):
        x = ctx.zero()
        for _ in range(rng.randint(1, max_terms)):
            exps = tuple(rng.randrange(min(ctx.gen_degrees[i], 4)) for i in range(len(ctx.gens)))
            x = x + TowerElement(ctx, {exps: _random_ratfunc(ctx, rng, allow_denominator)})
        if not x.is_zero():
            return x
    raise AssertionError("sampler kept producing zero")  # pragma: no cover


def _random_ratfunc(ctx, rng, allow_denominator: bool) -> RatFunc:
    num = _random_small_poly(ctx, rng)
    while num.is_zero():
        num = _random_small_poly(ctx, rng)
    if allow_denominator and rng.random() < 0.3 and ctx.nvars:
        den = _random_small_poly(ctx, rng)
        while den.is_zero():
            den = _random_small_poly(ctx, rng)
        return RatFunc(num, den)
    return RatFunc.from_poly(num)


def _random_small_poly(ctx, rng) -> Poly:
    F, n = ctx.field, ctx.nvars
    acc = Poly.zero(F, n)
    for _ in range(rng.randint(1, 2)):
        c = F.of_int(rng.choice((-2, -1, 1, 2, 3)))
        if n and rng.random() < 0.7:
            i = rng.randrange(n)
            acc = acc + Poly.var(F, n, i, rng.randint(1, 2)).scale(c)
        else:
            acc = acc + Poly.const(F, n, c)
    return acc


def random_single_level_element(ctx: TowerContext, rng: random.Random) -> TowerElement:
    """1 + a sparse element supported on one generator level.

    Inverting a generic mixed-level element of a large tower is an
    intrinsically huge exact object; these samples keep inverse
    round-trips affordable at every dimension while still crossing a
    defining relation.  The level is drawn among generators of degree
    above 1; with none, the sample lies in the base field.
    """
    levels = [i for i in range(len(ctx.gens)) if ctx.gen_degrees[i] > 1]
    gi = levels[rng.randrange(len(levels))] if levels else None
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * len(ctx.gens)
        if gi is not None:
            exps[gi] = rng.randrange(1, min(ctx.gen_degrees[gi], 6))
        part = _random_ratfunc(ctx, rng, allow_denominator=False)
        key = tuple(exps)
        prev = coeffs.get(key)
        coeffs[key] = part if prev is None else prev + part
    return TowerElement(ctx, coeffs) + ctx.one()


def random_structured_monomial(ctx: TowerContext, rng: random.Random, p: int | None = None) -> TowerElement:
    """unit * product of generator powers; when p is one of the tower
    primes the generator family matches it (the classified shape)."""
    out = ctx.one() if rng.random() < 0.5 else ctx.constant(-1)
    if p is None or p == ctx.chain_prime:
        for v in ctx.var_names:
            if rng.random() < 0.7:
                i = rng.randint(0, ctx.vertex_depths[v])
                m = rng.choice((-2, -1, 1, 2))
                out = out * generator_vertex(ctx, v, i) ** m
    if p is None or p != ctx.chain_prime:
        choices = [g for g in ctx.gens if p is None or g.prime == p]
        for g in choices:
            if rng.random() < 0.7:
                i = rng.randint(0, g.depth)
                m = rng.choice((-2, -1, 1, 2))
                out = out * generator_edge(ctx, g.label, i) ** m
    return out


def primality_smoke(ctx: TowerContext, trials: int = 200, seed: int = 0,
                    invert: bool = True) -> dict:
    """Multiply random nonzero pairs and (optionally) invert random
    nonzero elements; any zero product or singular inversion is a
    counterexample entry.  With more than one generator of degree above
    1 the inverted samples come from `random_single_level_element`, whose
    inverses stay affordable; such towers therefore do not invert
    mixed-level elements or elements with a denominator here.
    """
    rng = random.Random(seed)
    failures = []
    products = inversions = 0
    single_level = sum(ctx.gen_degrees[i] > 1 for i in range(len(ctx.gens))) > 1
    for t in range(trials):
        a = random_nonzero_element(ctx, rng)
        b = random_nonzero_element(ctx, rng)
        if (a * b).is_zero():
            failures.append({"trial": t, "kind": "zero-product"})
        products += 1
        if invert and t % 2 == 0:
            try:
                if single_level:
                    c = random_single_level_element(ctx, rng)
                else:
                    c = random_nonzero_element(ctx, rng, max_terms=2)
                if not (c * c.inv()).is_one():
                    failures.append({"trial": t, "kind": "bad-inverse"})
            except SingularMultiplication as exc:
                failures.append({"trial": t, "kind": "singular", "detail": str(exc)})
            inversions += 1
    return {
        "trials": trials,
        "products": products,
        "inversions": inversions,
        "failures": failures,
        "pass": not failures,
    }


def check_irreducible_radical(ctx: TowerContext, generator: str, p: int) -> bool:
    """X^p - g is irreducible over the tower iff g has no p-th root
    (odd p), for g the deepest root of a vertex name or a generator
    label; delegates the root decision and demands a verdict."""
    from .roots import pth_root  # roots imports this module

    if generator in ctx.var_index:
        g = generator_vertex(ctx, generator, ctx.vertex_depths[generator])
    else:
        g = generator_edge(ctx, generator, ctx.gens[ctx.gen_index[generator]].depth)
    res = pth_root(g, p)
    if res.outcome == "root":
        return False
    if res.outcome == "no":
        return True
    raise UnknownResult(f"p-th root decision for p={p} returned Unknown")
