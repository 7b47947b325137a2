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

Inversion walks the generator levels with extended Euclid against each
defining polynomial T^N - A; a nontrivial gcd on the way would exhibit a
zero divisor and aborts with the offending factor preserved.  Norms to a
shallower truncation go down one pure step T^m = t at a time (a deeper
generator root, then a deeper vertex root) and take each step's norm as
the resultant Res_T(T^m - t, a(T)), read off the same remainder sequence.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .coeffs import CoeffField, is_prime
from .errors import (
    DepthExceeded,
    InvalidInput,
    ProfileNotLarger,
    ProfileNotSmaller,
    SingularMultiplication,
    SpecInvalid,
    TooLarge,
)
from .graphs import ColoredGraph, check_star_coloring
from .polynomials import Poly
from .ratfunc import RatFunc

DEFAULT_DIMENSION_CAP = 2000


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
        cap: int = DEFAULT_DIMENSION_CAP,
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
            if not isinstance(d, int) or d < 0:
                raise InvalidInput(f"depth of {name} must be an integer >= 0, got {d!r}")
        self.cap = cap
        self.colored_graph = colored_graph
        self.dimension = 1
        for g in self.gens:
            self.dimension *= g.prime**g.depth
            if self.dimension > cap:
                raise TooLarge(f"basis dimension exceeds cap {cap}")
        self._gen_polys = [self._build_gen_poly(g) for g in self.gens]
        self._gen_pow_cache: dict = {}
        self._sub_cache: dict = {}

    # -- structure -----------------------------------------------------------

    def gen_degree(self, i: int) -> int:
        g = self.gens[i]
        return g.prime**g.depth

    def gen_poly(self, i: int) -> Poly:
        return self._gen_polys[i]

    def gen_poly_power(self, i: int, k: int) -> Poly:
        key = (i, k)
        cached = self._gen_pow_cache.get(key)
        if cached is None:
            cached = self._gen_polys[i] ** k
            self._gen_pow_cache[key] = cached
        return cached

    def gen_support_vars(self, i: int) -> set[int]:
        return self._gen_polys[i].variables_used()

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
        return TowerContext(
            self.char, self.var_names, self.chain_prime, vd, gens, self.cap, self.colored_graph
        )

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
                self.cap,
                self.colored_graph,
            )
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
        if r.is_zero():
            return self.zero()
        zero_exp = (0,) * len(self.gens)
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
    cap: int = DEFAULT_DIMENSION_CAP,
    primes: tuple | None = None,
) -> TowerContext:
    """Tower context over a star-colored graph.

    For each edge e = {s, t} of color l the defining relation is
    Y_e^(p_{l+1}^d_e) = X_s^(p_0^d_s) + X_t^(p_0^d_t) + 1.

    The coloring must be a star coloring: that backs the classification
    arguments, not the arithmetic.
    """
    bad = [c for c, rep in check_star_coloring(cg).items() if not rep["ok"]]
    if bad:
        raise InvalidInput(f"coloring is not a star coloring; failing colors {bad}")
    if primes is None:
        primes = choose_primes(char, cg.color_count)
    if len(primes) < cg.color_count + 1:
        raise InvalidInput("need one prime per color plus the chain prime")
    verts = sorted(cg.vertices)
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
    return TowerContext(char, verts, primes[0], vd, gens, cap, colored_graph=cg)


def radical_extend(
    spec: RadicalSpec,
    char: int = 0,
    z_depth: int = 1,
    depths=1,
    cap: int = DEFAULT_DIMENSION_CAP,
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
        poly = Poly(field, 1, {(k,): field.of_int(c) if isinstance(c, int) else field.of_fraction(c)
                               for k, c in enumerate(coeffs)})
        if poly.is_zero() or poly.is_constant():
            raise SpecInvalid(f"T_{v} must be nonconstant")
        if poly.min_degree_in(0) > 0:
            raise SpecInvalid(f"T_{v} must not be divisible by X")
        if not poly.gcd(poly.derivative(0)).is_one():
            raise SpecInvalid(f"T_{v} must be separable")
        upolys[v] = poly
    labels = sorted(upolys)
    for i, v in enumerate(labels):
        for w in labels[i + 1 :]:
            if not upolys[v].gcd(upolys[w]).is_one():
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
    return TowerContext(char, ("z",), spec.p, {"z": z_depth}, gens, cap)


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------


class TowerElement:
    """Canonical form: {reduced generator exponent vector: RatFunc}."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: TowerContext, coeffs: dict):
        self.ctx = ctx
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}

    # -- basic views -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

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
        out = set()
        for e, c in self.coeffs.items():
            out |= c.variables_used()
            for i, k in enumerate(e):
                if k:
                    out |= self.ctx.gen_support_vars(i)
        return out

    def __eq__(self, other):
        if not isinstance(other, TowerElement):
            return NotImplemented
        _same_ctx(self, other)
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
        raw: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                c = c1 * c2
                prev = raw.get(e)
                raw[e] = c if prev is None else prev + c
        return _reduce(self.ctx, raw)

    def __pow__(self, n: int) -> "TowerElement":
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
        """Field inverse by extended Euclid against each defining polynomial.

        Level by level from the top generator down, the remainder sequence
        of T^N - A and the element (a polynomial in T over the lower
        levels) runs until a constant remainder r; the tracked cofactor
        times r^-1 is the inverse.  A zero remainder of positive degree
        before that means a nontrivial gcd with T^N - A, so the tower has
        a zero divisor: SingularMultiplication is raised, carrying the
        to_json() form of the element being inverted at that level as its
        counterexample.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero tower element")
        return _inv_in(self.ctx, self)

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


def _same_ctx(a: TowerElement, b: TowerElement) -> None:
    if a.ctx is not b.ctx:
        raise ValueError("elements of two different tower contexts: embed one into the other's first")


def _reduce(ctx: TowerContext, raw: dict) -> TowerElement:
    """Fold exponents e >= N_i back into the basis range using A_i powers."""
    out: dict = {}
    for e, c in raw.items():
        if c.is_zero():
            continue
        exps = list(e)
        extra: Poly | None = None
        for i in range(len(ctx.gens)):
            n = ctx.gen_degree(i)
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
    return _reduce(ctx, {tuple(exps): RatFunc.one(ctx.field, ctx.nvars)})


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
    out: dict = {}
    for e, c in a.coeffs.items():
        e2 = tuple(x * f for x, f in zip(e, deltas_e))
        out[e2] = c.stretch(factors)
    return _reduce(target, out)


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


def _inv_in(ctx: TowerContext, a: TowerElement) -> TowerElement:
    """One level of inv(): extended Euclid in K[T]/(T^n - A), K the
    sub-tower of the lower generators, tracking only a's cofactor s
    (s*a = r mod T^n - A); leading coefficients are inverted by
    recursion into K."""
    if not ctx.gens:
        return ctx.from_ratfunc(a.base_value().inv())
    j = len(ctx.gens) - 1
    sub = ctx.sub_context(j)
    # r0 = T^n - A, built by subtraction because A may be zero
    r0, s0 = {ctx.gen_degree(j): sub.one()}, {}
    _sub_shifted(r0, sub.one(), 0, {0: sub.from_poly(ctx.gen_poly(j))})
    r1, s1 = _split_top(a), {0: sub.one()}
    while max(r1) > 0:
        _divide(r0, r1, _inv_in(sub, r1[max(r1)]), s0, s1)
        if not r0:
            raise SingularMultiplication(
                "nontrivial gcd with the defining polynomial: zero divisor found",
                counterexample=a.to_json(),
            )
        r0, s0, r1, s1 = r1, s1, r0, s0
    r_inv = _inv_in(sub, r1[0])
    return _join_top(ctx, {k: v * r_inv for k, v in s1.items()})


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
        _divide(r0, r1, _inv_in(low, lc))
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


def random_element(
    ctx: TowerContext,
    rng: random.Random,
    max_terms: int = 3,
    allow_denominator: bool = True,
) -> TowerElement:
    """A sparse random element: a few generator monomials, each exponent
    below 4, with small rational-function coefficients."""
    n_terms = rng.randint(1, max_terms)
    out = ctx.zero()
    for _ in range(n_terms):
        exps = tuple(
            rng.randrange(min(ctx.gen_degree(i), 4)) for i in range(len(ctx.gens))
        )
        out = out + TowerElement(ctx, {exps: _random_ratfunc(ctx, rng, allow_denominator)})
    return out


def random_nonzero_element(ctx, rng, max_terms: int = 3, allow_denominator: bool = True):
    for _ in range(50):
        x = random_element(ctx, rng, max_terms, allow_denominator)
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
    defining relation.
    """
    gi = rng.randrange(len(ctx.gens)) if ctx.gens else 0
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        exps = [0] * len(ctx.gens)
        if ctx.gens:
            exps[gi] = rng.randrange(1, min(ctx.gen_degree(gi), 6))
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
    counterexample entry.
    """
    rng = random.Random(seed)
    failures = []
    products = inversions = 0
    for t in range(trials):
        a = random_nonzero_element(ctx, rng)
        b = random_nonzero_element(ctx, rng)
        if (a * b).is_zero():
            failures.append({"trial": t, "kind": "zero-product"})
        products += 1
        if invert and t % 2 == 0:
            try:
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


def check_irreducible_radical(ctx: TowerContext, generator, p: int) -> bool:
    """X^p - g is irreducible over the tower iff g has no p-th root
    (odd p); delegates the root decision and demands a verdict."""
    from .errors import UnknownResult
    from .roots import pth_root

    if isinstance(generator, str) and generator in ctx.var_index:
        g = generator_vertex(ctx, generator, ctx.vertex_depths[generator])
    elif isinstance(generator, TowerElement):
        g = generator
    else:
        label = generator if isinstance(generator, str) else edge_label(generator)
        g = generator_edge(ctx, label, ctx.gens[ctx.gen_index[label]].depth)
    res = pth_root(g, p, ctx)
    if res.outcome == "root":
        return False
    if res.outcome == "no":
        return True
    raise UnknownResult(f"p-th root decision for p={p} returned Unknown")
