"""Decision procedures for p-th roots and p-high elements.

The root procedure is sound by construction and complete only on
structured elements:

  (i)   structured extraction: a single-monomial canonical form is solved
        exactly.  The exponent congruences per generator leave one free
        digit in F_p for each generator whose degree p divides; the
        degree valuations deg_{X_j} of the coefficient fix those digits
        by one linear system over F_p (unique in a star-coloured tower,
        see `_structured_root`), row-reduced once per tower and prime
        (`_root_plan`).  The coefficient's root comes from
        exponent subtraction and division when the element carries a
        power-product form, and otherwise from a rational function p-th
        root (`fieldtower._monomial_root`).  Any witness is re-verified
        by exponentiation, once, before it is returned; on a witness and
        an element that both carry forms, that check compares the forms
        and expands no coefficient;
  (ii)  valuation filter: certified places whose value groups are pinned
        down (unramified chain-variable places, and defining-polynomial
        places that are provably totally ramified at one level) give
        divisibility obstructions that can never reject a true power,
        read off the tower context's record of its A_i (no divisions);
  (iii) specialization: the element is pushed into a small prime field
        F_q with consistently chosen root values; a defined nonzero image
        that fails the p-th power test is recorded as a refutation.  The
        arithmetic runs on discrete logs over the generator of F_q^* and
        the exp/log tables that `_modgcd._power_tables(q, 1)` builds, the
        ones behind the gcd's image fields.  When no admissible prime
        exists for the tower's degrees the stage answers Unknown with
        that reason.

Everything else is an explicit Unknown.  Places whose extension values
are not forced are marked ambiguous and carry no information.  Every
decision is made in the element's own tower, `a.ctx`.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from itertools import compress
from operator import mul

from ._modgcd import _power_tables
from .coeffs import is_prime, padic_val
from .errors import BadPrime, ZeroInput
from .fieldtower import (
    TowerContext,
    TowerElement,
    _monomial_root,
    embed,
    random_nonzero_element,
    random_structured_monomial,
)
from .polynomials import Poly
from .ratfunc import RatFunc

_MAX_CANDIDATES = 512
_DLOG_TABLE_CAP = 1_000_000


# ---------------------------------------------------------------------------
# Valuations on the rational function field
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValuationPlace:
    """A place of the rational function field.

    kind "var":  order of vanishing at X_var = 0.
    kind "irr":  multiplicity of an irreducible polynomial g.
    kind "deg":  the degree place in one variable.
    """

    kind: str
    var: int | None = None
    poly: Poly | None = None
    label: str = ""


def g_adic_valuation(f: RatFunc, place: ValuationPlace) -> int:
    if f.is_zero():
        raise ZeroInput("valuation of 0 is undefined")
    if place.kind == "var":
        return f.num.min_degree_in(place.var) - f.den.min_degree_in(place.var)
    if place.kind == "irr":
        return f.num.multiplicity_of(place.poly) - f.den.multiplicity_of(place.poly)
    if place.kind == "deg":
        return f.den.degree_in(place.var) - f.num.degree_in(place.var)
    raise ValueError(f"unknown place kind {place.kind!r}")


@dataclass(frozen=True)
class CertifiedPlace:
    """A place together with the forced value data on the tower.

    `denominator` is the exact denominator of the value group of every
    valuation extension: 1 for chain-variable places (all defining
    polynomials are units there, so the whole tower is unramified), and
    N_i for the place at an irreducible defining polynomial A_i (value
    1, totally ramified at that one level, units elsewhere).  `ramified`
    is that i (value 1/N_i), or None; other generators have value 0.
    """

    place: ValuationPlace
    ramified: int | None
    denominator: int


def certified_places(ctx: TowerContext) -> list[CertifiedPlace]:
    """The tower's places, built at first use and kept on the context.
    X_j = 0 is unramified when every A_i has a term free of X_j (edge
    polynomials have constant term 1), which the context records
    (`TowerContext.dividing_vars`); a zero A_i leaves no such place.
    A_i = 0 is totally ramified at generator i when N_i > 1 and A_i is
    certified irreducible (`_capelli_irreducible`) and coprime to every
    other A_j (`TowerContext.coprime_to_others`): for irreducible A_i
    and nonzero A_j that says A_i does not divide A_j, and a zero A_j is
    coprime to no nonconstant polynomial."""
    cached = getattr(ctx, "_certified_places", None)
    if cached is not None:
        return cached
    polys, columns = [ctx.gen_poly(gi) for gi in range(len(ctx.gens))], ctx.gen_var_degrees()
    bad = ctx.dividing_vars()
    out = [] if any(A.is_zero() for A in polys) else [
        CertifiedPlace(ValuationPlace(kind="var", var=i, label=f"X:{v}"), None, 1)
        for v, i in ctx.var_index.items() if i not in bad
    ]
    rows = ctx.coprime_to_others()
    for gi, (g, A) in enumerate(zip(ctx.gens, polys)):
        N = ctx.gen_degrees[gi]
        if N > 1 and rows[gi] and _capelli_irreducible(A, columns[gi]):
            out.append(CertifiedPlace(ValuationPlace(kind="irr", poly=A, label=f"A:{g.label}"), gi, N))
    ctx._certified_places = out
    return out


def _capelli_irreducible(A: Poly, degrees: dict) -> bool:
    """Certify irreducibility for binomial-in-one-variable shapes
    c*X^m + B (B free of X, c a nonzero constant, m odd): X^m = b is
    irreducible iff b is not a q-th power for each prime q dividing m.
    Returns False (no certificate) for any other shape.  `degrees` is
    A.degrees(), the variables tried (a `gen_var_degrees` column)."""
    F = A.field
    for v in sorted(degrees):
        coeffs = A.coeffs_in(v)
        m = len(coeffs) - 1
        if m == 0:
            continue
        if any(not coeffs[k].is_zero() for k in range(1, m)):
            continue
        top = coeffs[m]
        if not top.is_constant():
            continue
        B = coeffs[0]
        if B.is_zero():
            continue
        if m == 1:
            return True  # linear with constant leading coefficient, primitive
        if m % 2 == 0:
            continue  # stay clear of the 4 | m exception
        c = top.constant_value()
        b = B.scale(-F.inv(c))
        if all(b.pth_root(q) is None for q in range(3, m + 1, 2) if m % q == 0 and is_prime(q)):
            return True
    return False


@dataclass
class PlaceValue:
    label: str
    value: Fraction | None
    exact: bool
    denominator: int


def valuation_vector(a: TowerElement) -> list[PlaceValue]:
    """Forced valuations of `a` at every certified place of its tower.

    A term's value is v(coefficient) + sum of exponent * v(generator);
    the element's value is the unique minimum when there is one, and an
    inexact lower bound (marked ambiguous) otherwise.  A power-product
    form c·prod A_i^k_i·prod X_j^x_j·Y^e has value k_i + e_i/N_i at the
    place of A_i (which divides no other A_j and no X_j of the form) and
    x_j at X_j = 0 (where every A_i is a unit).  Otherwise v_(A_i) is
    found by trial division, but only of a side (numerator or
    denominator) whose degree in each variable of A_i reaches A_i's: a
    side of lower degree cannot be divisible by A_i.
    """
    if a.is_zero():
        raise ZeroInput("valuation of 0 is undefined")
    places = certified_places(a.ctx)
    if a._pp is not None:
        e, _, k, x = a._pp
        return [PlaceValue(cp.place.label, Fraction(x[cp.place.var]) if cp.ramified is None else
                           k[cp.ramified] + Fraction(e[cp.ramified], cp.denominator), True, cp.denominator)
                for cp in places]
    columns = a.ctx.gen_var_degrees()
    terms = [(e, c, [(side, side.degrees()) for side in (c.num, c.den)]) for e, c in a.coeffs.items()]
    out = []
    for cp in places:
        i = cp.ramified
        if i is None:
            term_values = [Fraction(g_adic_valuation(c, cp.place)) for _, c, _ in terms]
        else:
            term_values = [Fraction(e[i], cp.denominator) + sum(
                sign * side.multiplicity_of(cp.place.poly)
                for sign, (side, degs) in zip((1, -1), sides)
                if all(degs.get(j, 0) >= d for j, d in columns[i].items())) for e, _, sides in terms]
        lo = min(term_values)
        exact = term_values.count(lo) == 1
        out.append(PlaceValue(label=cp.place.label, value=lo, exact=exact, denominator=cp.denominator))
    return out


# ---------------------------------------------------------------------------
# Root results
# ---------------------------------------------------------------------------


@dataclass
class RootResult:
    outcome: str  # "root" | "no" | "unknown"
    witness: TowerElement | None = None
    certificate: dict | None = None
    note: str = ""

    def to_json(self) -> dict:
        doc = {"outcome": self.outcome, "note": self.note}
        if self.witness is not None:
            doc["witness"] = self.witness.to_json()
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc


@dataclass(frozen=True)
class _RootPlan:
    """What `_structured_root` needs of one tower and one prime p, which
    no element changes: per generator, with N_i = `ctx.gen_degrees[i]`,
    (g_i = gcd(p, N_i), N_i/g_i, the inverse of p/g_i mod N_i/g_i) in
    `steps`; the generators with g_i = p in `unknowns`; the X_j of their
    `gen_var_degrees` columns in `rows`; and the elimination of the
    system's left side over those columns (`_eliminate`), whose
    right-hand sides are linear forms in the rhs_j of those X_j."""

    steps: tuple
    unknowns: tuple
    rows: frozenset
    pivots: dict
    checks: list


def _root_plan(ctx: TowerContext, p: int) -> _RootPlan:
    """The plan of (ctx, p), built at first use and kept on the context."""
    plan = ctx.root_plans.get(p)
    if plan is None:
        steps, unknowns = [], []
        for i, n in enumerate(ctx.gen_degrees):
            g = math.gcd(p, n)
            steps.append((g, n // g, pow(p // g, -1, n // g)))
            if g == p:
                unknowns.append(i)
        columns, rows = ctx.gen_var_degrees(), {}  # X_j -> {column: deg_j}
        for col, i in enumerate(unknowns):
            for j, d in columns[i].items():
                rows.setdefault(j, {})[col] = d
        pivots, checks = _eliminate([(row, {j: 1}) for j, row in rows.items()], p)
        plan = ctx.root_plans[p] = _RootPlan(tuple(steps), tuple(unknowns), frozenset(rows), pivots, checks)
    return plan


def _structured_root(a: TowerElement, p: int) -> TowerElement | None:
    """Roots of single-monomial elements c * Y^alpha, found by one linear
    solve over F_p and verified by exponentiation.

    A root is a monomial r * Y^beta with p*beta_i = alpha_i + s_i*n_i,
    where n_i is the degree of generator i and the shift s_i >= 0 folds
    Y_i^(s_i*n_i) back into A_i^s_i; then r^p must equal the target
    c * prod A_i^(-s_i).  With g_i = gcd(p, n_i), a generator with
    g_i = 1 has one exponent beta_i; one with g_i = p has the p exponents
    base_i + t_i*n_i/p, t_i in F_p, and its shift is shift0_i + t_i.

    Every degree deg_{X_j} is a valuation on the base field, and a p-th
    power's value is divisible by p.  So the target can be a p-th power
    only when, for every variable X_j,

        sum_i t_i deg_j(A_i) = deg_j(c) - sum_i shift0_i deg_j(A_i)  (mod p).

    With a power-product form c = c0·prod A_i^k_i·prod X_j^x_j, deg_j(c)
    is x_j + sum_i k_i·deg_j(A_i), read off the `gen_var_degrees` columns.

    The left side depends only on the tower and p, so it is row-reduced
    once (`_root_plan`), recording which combination of right-hand sides
    each pivot and each vanishing row takes; per element only the
    right-hand side is built and the combinations are applied
    (`_solutions`).  When the system is inconsistent no exponent vector
    can work, and otherwise each point of its affine solution set, in
    lexicographic order of the exponent vectors, goes through the
    coefficient root (`fieldtower._monomial_root`) and the exact check
    `cand**p == a`.  With a power-product form, the target's exponents
    are k - shift and x, by subtraction; when p divides them all, the
    root is c0^(1/p)·prod A_i^((k_i - shift_i)/p)·prod X_j^(x_j/p), found
    by division, and otherwise the target is expanded and peeled (or
    refused, when p does not divide an x_j).  Such a root carries a
    form, so `cand**p` is exponent arithmetic and `==` compares the two
    forms (see `TowerElement`), expanding nothing.  Without a form the
    target is c divided by each A_i^shift_i, and a shift that needs a
    zero A_i is skipped, since that candidate's p-th power is 0.
    `_MAX_CANDIDATES` bounds the solution set, not the p^k vectors the
    congruences allow.  In a tower from
    `build_tower` the set has at most one point: each colour has its own
    prime, so the unknowns of prime p are the edges of one star forest,
    and the column of edge {s, t} is p0^d_s, p0^d_t at its two endpoints,
    units mod p since the chain prime p0 differs from p.  A forest's
    incidence matrix has full column rank, so the solution is unique.
    """
    if a._pp is None and len(a.coeffs) != 1:
        return None
    ctx = a.ctx
    plan = _root_plan(ctx, p)
    if a._pp is not None:  # deg_j(c) = x_j + sum_i k_i·deg_j(A_i)
        alpha, _, k, x = a._pp
        rhs = dict(compress(enumerate(x), x))
    else:
        (alpha, c), = a.coeffs.items()
        k, rhs = None, c.num.degrees()
        for j, d in c.den.degrees().items():
            rhs[j] = rhs.get(j, 0) - d
    beta0, shift0 = [], []
    columns = ctx.gen_var_degrees()
    for i, (y, n, (g, n_red, inv)) in enumerate(zip(alpha, ctx.gen_degrees, plan.steps)):
        if y % g:
            return None
        b = (y // g) * inv % n_red
        s = (p * b - y) // n
        beta0.append(b)
        shift0.append(s)
        m = (k[i] if k else 0) - s
        if m:
            for j, d in columns[i].items():
                rhs[j] = rhs.get(j, 0) + m * d
    if any(r % p for j, r in rhs.items() if j not in plan.rows):
        return None
    solutions = _solutions(plan.pivots, plan.checks, len(plan.unknowns), p, rhs)
    if solutions is None:
        return None
    for t in solutions:
        beta, shift = list(beta0), list(shift0)
        for i, ti in zip(plan.unknowns, t):
            beta[i] += ti * (ctx.gen_degrees[i] // p)
            shift[i] += ti
        cand = _monomial_root(a, tuple(beta), shift, p)
        if cand is not None and cand**p == a:
            return cand
    return None


def _eliminate(equations, p: int) -> tuple[dict, list]:
    """Gauss-Jordan elimination mod p of sparse equations (row, r), the
    one elimination routine, with each right-hand side r a linear form
    {label: coefficient} in values read later.  Returns (pivots, checks):
    `pivots` maps a pivot column to its row without the pivot
    (coefficient 1) and its right-hand side form, and no pivot row holds
    another pivot column; `checks` holds the forms of the rows that
    vanished, each of which must take the value 0 for a solution to
    exist."""
    pivots: dict[int, tuple[dict, dict]] = {}
    checks = []
    for row, r in equations:
        row = {k: v % p for k, v in row.items() if v % p}
        for k in [k for k in row if k in pivots]:
            f = row.pop(k)
            prow, pr = pivots[k]
            for kk, v in prow.items():
                row[kk] = (row.get(kk, 0) - f * v) % p
            r = _combine(r, -f, pr, p)
        row = {k: v for k, v in row.items() if v}
        if not row:
            if any(v % p for v in r.values()):
                checks.append(r)
            continue
        k0 = min(row)
        inv = pow(row.pop(k0), -1, p)
        row = {k: v * inv % p for k, v in row.items()}
        r = _combine({}, inv, r, p)
        for k, (prow, pr) in pivots.items():
            f = prow.pop(k0, 0)
            if f:
                for kk, v in row.items():
                    prow[kk] = (prow.get(kk, 0) - f * v) % p
                pivots[k] = ({kk: v for kk, v in prow.items() if v}, _combine(pr, -f, r, p))
        pivots[k0] = (row, r)
    return pivots, checks


def _combine(u: dict, f: int, v: dict, p: int) -> dict:
    """The linear form u + f·v mod p, without zero coefficients."""
    out = dict(u)
    for j, c in v.items():
        out[j] = (out.get(j, 0) + f * c) % p
    return {j: c for j, c in out.items() if c}


def _solutions(pivots: dict, checks: list, n: int, p: int, values: dict) -> list[tuple] | None:
    """The solutions in F_p^n of an eliminated system (`_eliminate`) once
    its labels take `values` (a missing label is 0), in lexicographic
    order; None when a check fails or when there are more than
    `_MAX_CANDIDATES`."""
    def value(form):
        return sum(c * values.get(j, 0) for j, c in form.items()) % p

    if any(map(value, checks)):
        return None
    free = [k for k in range(n) if k not in pivots]
    if p ** len(free) > _MAX_CANDIDATES:
        return None
    rhs = {k: value(pr) for k, (_, pr) in pivots.items()}
    out = []
    for values_free in itertools.product(range(p), repeat=len(free)):
        t = [0] * n
        for k, v in zip(free, values_free):
            t[k] = v
        for k, (prow, _) in pivots.items():
            t[k] = (rhs[k] - sum(v * t[kk] for kk, v in prow.items())) % p
        out.append(tuple(t))
    out.sort()
    return out


def pth_root(a: TowerElement, p: int, *, seed: int = 0) -> RootResult:
    """Three-stage p-th root decision in `a`'s own tower; see the module
    docstring.  `_structured_root` returns only a verified witness."""
    if a.is_zero():
        return RootResult(outcome="root", witness=a.ctx.zero(), note="zero")
    w = _structured_root(a, p)
    if w is not None:
        return RootResult(outcome="root", witness=w, note="structured extraction")
    for pv in valuation_vector(a):
        if not pv.exact:
            continue
        scaled = pv.value * pv.denominator
        assert scaled.denominator == 1
        if scaled.numerator % p != 0:
            return RootResult(
                outcome="no",
                certificate={
                    "kind": "valuation",
                    "place": pv.label,
                    "value": str(pv.value),
                    "value_group_denominator": pv.denominator,
                    "prime": p,
                },
                note=f"value {pv.value} at {pv.label} is not divisible by {p}",
            )
    if a.ctx.char == 0:
        try:
            rep = specialization_refute(a, p, seed=seed)
        except BadPrime as exc:
            return RootResult(outcome="unknown", note=str(exc))
        if rep["refuted"]:
            return RootResult(
                outcome="no",
                certificate={"kind": "specialization", **{k: rep[k] for k in ("q", "point")}},
                note="specialization refutation",
            )
    return RootResult(outcome="unknown", note="no decision within budget")


# ---------------------------------------------------------------------------
# Specialization
# ---------------------------------------------------------------------------


def _specialization_primes(ctx: TowerContext, p: int, count: int) -> list[int]:
    """Smallest `count` primes q = 1 mod L = lcm(p, all generator degrees).

    Several primes are needed: a rational constant can accidentally be a
    p-th power mod the first q while failing at the next one.  Only
    `_DLOG_TABLE_CAP` = 10^6 bounds the scan: it caps the q - 1 entries
    of each q's exp/log tables (`_modgcd._power_tables(q, 1)`), and so
    the scan's steps: L >= 2; q passes 10^6 within 200,000 steps if
    L >= 5, and four primes come within 10 steps if L = 2, 3, 4
    (3 5 7 11, 7 13 19 31, 5 13 17 29).
    """
    L = math.lcm(p, *ctx.gen_degrees)
    out = []
    q = L + 1
    while len(out) < count and q <= _DLOG_TABLE_CAP:
        if is_prime(q):
            out.append(q)
        q += L
    if not out:
        raise BadPrime(f"no admissible specialization prime below {_DLOG_TABLE_CAP}")
    return out


def _value_at(f: Poly, logs: list, q: int, exp: list) -> int | None:
    """f (characteristic 0) mod q at the point of F_q^* whose coordinates
    are exp[logs[j]], or None when f's content denominator vanishes mod q."""
    d = f.content.denominator % q
    if d == 0:
        return None
    acc = sum(c * exp[sum(map(mul, e, logs)) % (q - 1)] for e, c in f.ints.items())
    return acc * f.content.numerator * pow(d, -1, q) % q


def _image(a: TowerElement, logs: list, q: int, exp: list, log: list) -> tuple[int, list] | None:
    """(image of a, logs of the generators' roots) at the point whose
    coordinates have logs `logs`; None when a generator's root does not
    exist there or the image is undefined or zero."""
    ctx = a.ctx
    roots = []
    for i in range(len(ctx.gens)):
        val = _value_at(ctx.gen_poly(i), logs, q, exp)
        if not val or log[val] % ctx.gen_degrees[i]:
            return None
        roots.append(log[val] // ctx.gen_degrees[i])
    image = 0
    for exps, c in a.coeffs.items():
        num = _value_at(c.num, logs, q, exp)
        den = _value_at(c.den, logs, q, exp)
        if num is None or not den:
            return None
        image += num * exp[sum(map(mul, exps, roots)) % (q - 1)] * pow(den, -1, q)
    image %= q
    return (image, roots) if image else None


def specialization_refute(a: TowerElement, p: int, seed: int = 0) -> dict:
    """Push `a` into F_q at random points (24 over four primes q, at
    least 6 for each) with consistent root values and test
    p-th-power-ness by the (q-1)/p power map.

    F_q^* is cyclic with the generator and exp/log tables of
    `_modgcd._power_tables(q, 1)`, so the point's coordinates are held as
    logs.  A generator of degree N has a root at the point exactly when
    N divides the log of A_i(point) (N divides q - 1), and the root taken
    is the one whose log is that log over N.  A term's generator monomial
    is then one table lookup.

    Requires a characteristic-0 tower.  A defined nonzero image that is
    not a p-th power refutes; if every attempted point is consistent the
    report says so without claiming a proof.
    """
    ctx = a.ctx
    if ctx.char != 0:
        raise ValueError("specialization targets need a characteristic-0 tower")
    primes = _specialization_primes(ctx, p, count=4)
    rng = random.Random(seed)
    per_q = max(6, 24 // len(primes))
    points_tried = 0
    consistent = 0
    for q in primes:
        _, exp, log = _power_tables(q, 1)
        for _ in range(per_q):
            for _retry in range(20):
                point = [rng.randrange(1, q) for _ in range(ctx.nvars)]
                found = _image(a, [log[x] for x in point], q, exp, log)
                if found is None:
                    continue
                image, roots = found
                points_tried += 1
                if pow(image, (q - 1) // p, q) != 1:
                    return {
                        "refuted": True,
                        "q": q,
                        "point": {"vars": point, "roots": [exp[r] for r in roots], "image": image},
                        "points_tried": points_tried,
                    }
                consistent += 1
                break
    return {
        "refuted": False,
        "q": primes[0],
        "point": None,
        "points_tried": points_tried,
        "consistent_points": consistent,
    }


# ---------------------------------------------------------------------------
# p-high elements
# ---------------------------------------------------------------------------


@dataclass
class PHighResult:
    verdict: str  # "true" | "false" | "unknown"
    depth_reached: int
    chain: list = dataclass_field(default_factory=list)
    certificate: dict | None = None


def is_p_high(a: TowerElement, p: int, depth_budget: int = 3, seed: int = 0) -> PHighResult:
    """Iterated p-th root extraction, deepening the tower when the
    current truncation runs out of room.

    true: the budget was reached with a root at every stage inside the
    grown tower.  false: some stage was refused with a certificate (the
    verdict is about the budget-grown truncation).  unknown otherwise.
    """
    ctx = a.ctx
    has_chain = p == ctx.chain_prime or any(g.prime == p for g in ctx.gens)
    cur = a
    chain = [a]
    deepened = 0
    found = 0
    while found < depth_budget:
        res = pth_root(cur, p, seed=seed + found)
        if res.outcome == "root":
            cur = res.witness
            chain.append(cur)
            found += 1
            continue
        if has_chain and deepened < depth_budget:
            grown = cur.ctx.deepen(
                vertex_delta=1 if p == ctx.chain_prime else 0,
                edge_delta=1 if p != ctx.chain_prime else 0,
                only_prime=p,
            )
            deeper = embed(cur, grown)
            res2 = pth_root(deeper, p, seed=seed + found)
            deepened += 1
            if res2.outcome == "root":
                cur = res2.witness
                chain.append(cur)
                found += 1
                continue
            res = res2
        if res.outcome == "no":
            return PHighResult(
                verdict="false", depth_reached=found, chain=chain, certificate=res.certificate
            )
        return PHighResult(verdict="unknown", depth_reached=found, chain=chain)
    return PHighResult(verdict="true", depth_reached=found, chain=chain)


# ---------------------------------------------------------------------------
# Classification of structured elements
# ---------------------------------------------------------------------------


@dataclass
class PHighForm:
    """unit * product of vertex roots^m * product of edge roots^m."""

    unit: object
    vertex_part: dict  # vertex -> (depth_index, exponent)
    edge_part: dict    # generator label -> (depth_index, exponent)


def classify_p_high(a: TowerElement, p: int) -> tuple[PHighForm | None, str]:
    """Syntactic monomial classification.

    Returns (form, "") when the canonical form is unit * generator
    monomial matching the p-family (vertex roots for the chain prime,
    same-prime edge roots otherwise) with a p-high unit; otherwise
    (None, reason).
    """
    ctx = a.ctx
    if a.is_zero():
        return None, "zero"
    if len(a.coeffs) != 1:
        return None, "not a monomial"
    (alpha, c), = a.coeffs.items()
    num, den = c.num, c.den
    a_pows = []
    for i in range(len(ctx.gens)):
        A = ctx.gen_poly(i)
        kn = num.multiplicity_of(A)
        kd = den.multiplicity_of(A)
        if kn:
            num = num.divexact(A**kn)
        if kd:
            den = den.divexact(A**kd)
        a_pows.append(kn - kd)
    num_terms, den_terms = num.terms(), den.terms()
    if len(num_terms) != 1 or len(den_terms) != 1:
        return None, "coefficient is not a monomial"
    (en, cn), = num_terms.items()
    (ed, cd), = den_terms.items()
    unit = ctx.field.div(cn, cd)
    vertex_exps = [x - y for x, y in zip(en, ed)]
    gen_exps = [alpha[i] + ctx.gen_degrees[i] * a_pows[i] for i in range(len(ctx.gens))]

    vertex_part = {}
    for v, i in ctx.var_index.items():
        z = vertex_exps[i]
        if z == 0:
            continue
        d = ctx.vertex_depths[v]
        val = padic_val(abs(z), ctx.chain_prime)
        n = d - min(val, d)
        m = z // ctx.chain_prime ** (d - n)
        vertex_part[v] = (n, m)
    edge_part = {}
    for i, g in enumerate(ctx.gens):
        w = gen_exps[i]
        if w == 0:
            continue
        val = padic_val(abs(w), g.prime)
        n = g.depth - min(val, g.depth)
        m = w // g.prime ** (g.depth - n)
        edge_part[g.label] = (n, m)

    if p == ctx.chain_prime:
        if edge_part:
            return None, "edge roots present in a chain-prime classification"
    else:
        if vertex_part:
            return None, "vertex roots present in an edge-prime classification"
        bad = [lbl for lbl in edge_part if ctx.gens[ctx.gen_index[lbl]].prime != p]
        if bad:
            return None, f"edge roots with a different prime: {bad}"
        colors = {ctx.gens[ctx.gen_index[lbl]].color for lbl in edge_part}
        if len(colors) > 1:
            return None, "edge roots of mixed colors"
    if not ctx.field.is_p_high(unit, p):
        return None, "unit is not p-high in the prime field"
    return PHighForm(unit=unit, vertex_part=vertex_part, edge_part=edge_part), ""


def q_high_descends(ctx: TowerContext, q: int, samples: int = 20, seed: int = 0) -> dict:
    """For a prime q outside the tower primes, sampled non-base elements
    must never verify as q-high within two roots; base constants follow
    the prime-field rule."""
    if q == ctx.chain_prime or any(g.prime == q for g in ctx.gens):
        raise ValueError("q must differ from all tower primes")
    rng = random.Random(seed)
    results = {"true": 0, "false": 0, "unknown": 0}
    violations = []
    for t in range(samples):
        x = (
            random_structured_monomial(ctx, rng)
            if t % 2 == 0
            else random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        )
        if x.is_base():
            continue
        res = is_p_high(x, q, depth_budget=2, seed=seed + t)
        results[res.verdict] += 1
        if res.verdict == "true":
            violations.append(x.to_json())
    base_ok = is_p_high(ctx.one(), q, depth_budget=2).verdict == "true"
    return {
        "q": q,
        "samples": results,
        "violations": violations,
        "base_one_is_high": base_ok,
        "pass": not violations and base_ok,
    }
