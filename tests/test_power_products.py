"""One-term tower elements against a recorded corpus of canonical forms.

`power_product_corpus.json` holds, for one-term elements over K2, P3, K3,
the shared-factor tower and Y^5 = z^5 in characteristics 0, 2 and 5, the
canonical forms of a**n (n in -7..7 outside {0, 1}), of a.inv(), of a·a
and of a times each generator's deepest root Y_i, and of the results of
pth_root(a**p, p) and of a refused pth_root(a**p * Y, p) for the chain
prime (Y the first vertex's deepest root) and each generator prime p.
Most elements are products of constants and edge or vertex generator
powers; some have a coefficient that is not such a product.
Every form is compared part by part (content, integer part, cached
leading exponent) with `assert_same_form`.  Elements built from
constants and generators hold only their power-product form until their
coefficients are read, so writing the corpus also checks the lazy
expansion.  Further tests check the readers of forms (==, hash,
valuation_vector, the structured roots) against the same elements
rebuilt from their expanded coefficients (`plain`), and the structured
root's per-tower plan against the system built for each element alone
(`per_element_root`).

    PYTHONPATH=src python3 tests/test_power_products.py > tests/power_product_corpus.json

rewrites the corpus from the checkout's code.
"""
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from graphfield import fieldtower, roots
from graphfield.coeffs import CoeffField
from graphfield.fieldtower import (
    RadicalGen,
    RadicalSpec,
    TowerContext,
    TowerElement,
    _from_form,
    build_tower,
    generator_edge,
    generator_vertex,
    radical_extend,
    random_structured_monomial,
)
from graphfield.graphs import Graph, greedy_star_coloring
from graphfield.polynomials import Poly, _poly
from graphfield.ratfunc import RatFunc
from graphfield.roots import (
    _root_plan,
    _structured_root,
    certified_places,
    pth_root,
    valuation_vector,
)

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_fieldtower import assert_same_form, one_term, tower  # noqa: E402
from test_roots import affine_solutions  # noqa: E402

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    given = None

CORPUS = Path(__file__).resolve().parent / "power_product_corpus.json"
# the shared-factor tower and Y^5 = z^5 have a generator of degree 5,
# inseparable in characteristic 5
TOWERS = [(name, char) for name in ("K2", "P3", "K3", "shared", "y5_z5") for char in (0, 2, 5)
          if char != 5 or name in ("K2", "P3", "K3")]
POWERS = [n for n in range(-7, 8) if n not in (0, 1)]
CONSTANTS = {0: (-1, 2, Fraction(-3, 2)), 2: (1,), 5: (2, 3, 4)}
# (level, exponent) of each generator's edge root, None where it is absent
SHAPES = {
    "K2": [((0, 1),), ((0, -1),), ((0, 2),), ((0, -2),), ((1, 1),), ((1, -1),), ((1, 2),), ((1, -2),)],
    "P3": [((0, -1), (0, -2)), ((0, 1), (1, 2)), ((1, -1), (0, 2)), ((1, 1), (1, 1)),
           ((0, -1), None), (None, (1, -2))],
    "K3": [((0, 1), None, None), (None, (0, -1), (1, 1)), ((1, 2), (1, -1), (1, 1)),
           ((0, -1), (1, 1), None)],
    "shared": [((0, 1), (1, 1)), ((1, -1), (0, -1)), ((1, 2), None)],
    "y5_z5": [((0, 1),), ((0, -1),), ((1, 2),)],
}
# (level, exponent) of each vertex's root, None where it is absent; each
# shape gives a vertex element and, times the edge shape of its index, a
# vertex × edge element
VERTEX_SHAPES = {
    "K2": [((1, 1), None), ((0, -1), (1, 2)), ((1, -2), (0, 1))],
    "P3": [((1, 1), None, (0, -1)), (None, (1, -2), None), ((0, 2), (1, 1), (1, -1))],
    "K3": [((1, -1), (0, 1), None), (None, None, (1, 2)), ((1, 1), (1, 1), (1, 1))],
    "shared": [((1, 1),), ((0, -1),)],
    "y5_z5": [((0, 1),), ((0, -2),)],
}


def context(name, char):
    if name == "y5_z5":
        # not a field: Y - z divides zero, but z^5 is monic, so its single
        # defining polynomial is a coprime base
        c = tuple(map(CoeffField(char).of_int, (0, 0, 0, 0, 0, 1)))
        return TowerContext(char, ("z",), 3, {"z": 0}, [RadicalGen("t:v", 5, 1, ("tpoly", "z", c))])
    if name == "star":
        # four prime-5 generators of depth 1 at the centre c
        g = Graph(["a", "b", "c", "d", "e"], [("c", "a"), ("c", "b"), ("c", "d"), ("c", "e")])
        return build_tower(greedy_star_coloring(g), char=char)
    if name == "free":
        # two prime-5 generators over the one variable: two unknowns, one
        # equation, so every solvable system has 5 solutions
        spec = RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0, "w": 0},
                           polys={"v": (1, 1), "w": (1, 1, 1)})
        return radical_extend(spec, char=char, z_depth=1, depths=1)
    return tower(name, char)


def elements(ctx, name):
    """The corpus's one-term elements of ctx: a constant times a product
    of edge generator powers for each shape, one element built directly
    from a rational-function coefficient, then for each vertex shape a
    constant times a product of vertex generator powers, alone and times
    an edge shape's product."""
    consts = CONSTANTS[ctx.char]

    def constant(j):
        c = ctx.field.of_fraction(Fraction(consts[j % len(consts)]))
        return ctx.from_ratfunc(RatFunc.const(ctx.field, ctx.nvars, c))

    def edges(a, shape):
        for g, part in zip(ctx.gens, shape):
            if part is not None:
                level, m = part
                a = a * generator_edge(ctx, g.label, level) ** m
        return a

    out = [edges(constant(j), shape) for j, shape in enumerate(SHAPES[name])]
    F, n = ctx.field, ctx.nvars
    num = Poly.var(F, n, 0) + Poly.const(F, n, F.of_int(2))
    den = Poly.var(F, n, n - 1, 2) + Poly.const(F, n, F.of_int(3))
    exps = tuple(min(ctx.gen_degrees[i] - 1, 2) for i in range(len(ctx.gens)))
    out.append(TowerElement(ctx, {exps: RatFunc(num, den)}))
    for j, shape in enumerate(VERTEX_SHAPES[name]):
        a = constant(j + 1)
        for v, part in zip(ctx.var_names, shape):
            if part is not None:
                level, m = part
                a = a * generator_vertex(ctx, v, level) ** m
        out += [a, edges(a, SHAPES[name][j])]
    return out


def primes(ctx) -> list:
    """The chain prime and the generator primes of ctx."""
    return sorted({ctx.chain_prime} | {g.prime for g in ctx.gens})


def deepest_root(ctx, p):
    """The first vertex's deepest root for the chain prime, else the first
    generator of prime p's."""
    if p == ctx.chain_prime:
        v = ctx.var_names[0]
        return generator_vertex(ctx, v, ctx.vertex_depths[v])
    return next(generator_edge(ctx, g.label, g.depth) for g in ctx.gens if g.prime == p)


def form_doc(x: TowerElement) -> list:
    def poly_doc(p):
        kind = "Fraction" if isinstance(p.content, Fraction) else "int"
        return {"content": [kind, str(p.content)], "ints": sorted([list(e), c] for e, c in p.ints.items())}

    return [{"exps": list(e), "num": poly_doc(c.num), "den": poly_doc(c.den)}
            for e, c in sorted(x.coeffs.items())]


def from_doc(ctx, doc) -> TowerElement:
    def poly(d):
        kind, text = d["content"]
        content = Fraction(text) if kind == "Fraction" else int(text)
        return _poly(ctx.field, ctx.nvars, content, {tuple(e): c for e, c in d["ints"]}, None, False)

    out = TowerElement(ctx, {})
    out.coeffs = {tuple(t["exps"]): RatFunc._raw(poly(t["num"]), poly(t["den"])) for t in doc}
    return out


def root_doc(res) -> dict:
    return {"outcome": res.outcome, "note": res.note, "certificate": res.certificate,
            "witness": None if res.witness is None else form_doc(res.witness)}


def cases(ctx, a):
    """(label, result) for every operation the corpus records on a."""
    for n in POWERS:
        yield f"pow:{n}", a**n
    yield "inv", a.inv()
    yield "square", a * a
    for g in ctx.gens:
        yield f"times:{g.label}", a * generator_edge(ctx, g.label, g.depth)
    for p in primes(ctx):
        y = deepest_root(ctx, p)
        b = a**p
        yield f"root:{p}", pth_root(b, p)
        yield f"refusal:{p}", pth_root(b * y, p)


def document() -> list:
    out = []
    for name, char in TOWERS:
        ctx = context(name, char)
        for k, a in enumerate(elements(ctx, name)):
            ops = {}
            for label, res in cases(ctx, a):
                ops[label] = form_doc(res) if isinstance(res, TowerElement) else root_doc(res)
            out.append({"tower": name, "char": char, "element": k, "form": form_doc(a), "ops": ops})
    return out


@pytest.fixture(scope="module")
def recorded():
    return {(c["tower"], c["char"], c["element"]): c for c in json.loads(CORPUS.read_text())}


@pytest.mark.parametrize("name, char", TOWERS)
def test_one_term_forms_match_the_recorded_corpus(name, char, recorded):
    ctx = context(name, char)
    items = elements(ctx, name)
    assert len(items) == len(SHAPES[name]) + 1 + 2 * len(VERTEX_SHAPES[name])
    for k, a in enumerate(items):
        case = recorded[(name, char, k)]
        assert_same_form(a, from_doc(ctx, case["form"]))
        for label, res in cases(ctx, a):
            want = case["ops"][label]
            if isinstance(res, TowerElement):
                assert_same_form(res, from_doc(ctx, want)), label
                continue
            assert (res.outcome, res.note, res.certificate) == (want["outcome"], want["note"], want["certificate"])
            assert (res.witness is None) == (want["witness"] is None), label
            if res.witness is not None:
                assert_same_form(res.witness, from_doc(ctx, want["witness"]))
    # every element's round trip finds its root
    ops = [recorded[(name, char, k)]["ops"] for k in range(len(items))]
    assert all(o[label]["outcome"] == "root" for o in ops for label in o if label.startswith("root:"))


def plain(x: TowerElement) -> TowerElement:
    """x without its power-product form."""
    return TowerElement(x.ctx, x.coeffs)


def form_value(x: TowerElement) -> RatFunc:
    """c·prod A_i^k_i·prod X_j^x_j of x's form (e, c, k, x), by repeated
    reduced rational-function products and quotients."""
    _, c, k, xs = x._pp
    F, n = x.ctx.field, x.ctx.nvars
    out = RatFunc.const(F, n, c)
    for f, m in [(x.ctx.gen_poly(i), y) for i, y in enumerate(k)] + [(Poly.var(F, n, j), y) for j, y in enumerate(xs)]:
        f = RatFunc.from_poly(f)
        for _ in range(abs(m)):
            out = out * f if m > 0 else out / f
    return out


# the towers whose one-term elements carry forms: the shared-factor tower
# is not a coprime base
FORM_TOWERS = [t for t in TOWERS if t[0] != "shared"]


def variants(x: TowerElement) -> list:
    """Elements whose forms share x's k but differ in e, in c or in one
    vertex exponent x_j."""
    if x._pp is None:
        return []
    e, c, k, xs = x._pp
    ctx, out = x.ctx, []
    for i in range(len(e)):
        if ctx.gen_degrees[i] > 1:
            e2 = e[:i] + ((e[i] + 1) % ctx.gen_degrees[i],) + e[i + 1:]
            out.append(_from_form(ctx, e2, c, k, xs))
    for d in (-1, 2):
        c2 = ctx.field.mul(c, ctx.field.of_int(d))
        if c2 != c and c2:
            out.append(_from_form(ctx, e, c2, k, xs))
    for j in range(ctx.nvars):
        if j not in ctx.dividing_vars():
            out.append(_from_form(ctx, e, c, k, xs[:j] + (xs[j] + 1,) + xs[j + 1:]))
    return out


def check_readers(xs: list) -> None:
    """The readers of forms agree with the expanded coefficients: ==,
    hash and dict lookup, valuation_vector and the structured roots of x
    and of x^p for each generator prime p."""
    ctx = xs[0].ctx
    plains = [plain(x) for x in xs]
    table = {px: j for j, px in enumerate(plains)}
    for x, px in zip(xs, plains):
        assert hash(x) == hash(px)
        assert plains[table[x]] == px
        assert valuation_vector(x) == valuation_vector(px)
        for p in primes(ctx):
            for y, py in ((x, px), (x**p, px**p)):
                got, want = _structured_root(y, p), _structured_root(py, p)
                assert (got is None) == (want is None)
                if got is not None:
                    assert_same_form(got, want)
        for y, py in zip(xs, plains):
            assert (x == y) == (px == py)


@pytest.mark.parametrize("name, char", FORM_TOWERS)
def test_form_readers_agree_with_the_expanded_coefficients(name, char):
    ctx = context(name, char)
    items = elements(ctx, name)
    xs = [y for x in items for y in [x, *variants(x)]]
    assert sum(x._pp is not None for x in xs) > sum(x._pp is not None for x in items)
    check_readers(xs)


@pytest.mark.parametrize("name, char", [(n, c) for n in ("K2", "P3", "K3") for c in (0, 2, 5)])
def test_edge_round_trips_expand_nothing(name, char, monkeypatch):
    # b**p and pth_root(b**p, p), its re-check cand**p == a included, run
    # on forms alone; the coefficients read afterwards are the canonical
    # forms that the same operations give without forms
    ctx = context(name, char)
    calls = []
    expand = fieldtower._expand
    monkeypatch.setattr(fieldtower, "_expand", lambda *args: calls.append(args) or expand(*args))
    cases = []
    for p in sorted({g.prime for g in ctx.gens}):
        for k, level in enumerate((0, 1)):
            b = ctx.constant(-1 if k else 1)
            for j, g in enumerate(ctx.gens):
                if g.prime == p:
                    b = b * generator_edge(ctx, g.label, level) ** (j % 2 + 1 if k else -1)
            a = b**p
            res = pth_root(a, p)
            assert res.outcome == "root"
            cases.append((p, b, a, res.witness))
    assert calls == []
    for p, b, a, w in cases:
        ref = pth_root(plain(b) ** p, p)
        assert_same_form(a, plain(b) ** p)
        assert_same_form(w, ref.witness)
    assert calls  # reading the coefficients went through the wrapper


@pytest.mark.parametrize("name, char", [(n, c) for n in ("K2", "P3", "K3") for c in (0, 2, 5)])
def test_chain_round_trips_expand_and_peel_nothing(name, char, monkeypatch):
    # a chain-prime monomial's round trip and its refusal against the
    # deepest vertex root read vertex exponents: no coefficient is
    # expanded and no polynomial p-th root is taken
    ctx = context(name, char)
    p0, rng = ctx.chain_prime, random.Random(f"chain:{name}:{char}")
    certified_places(ctx)  # the places' setup peels once per tower
    calls = []
    expand, peel = fieldtower._expand, Poly.pth_root
    monkeypatch.setattr(fieldtower, "_expand", lambda *args: calls.append("expand") or expand(*args))
    monkeypatch.setattr(Poly, "pth_root", lambda *args: calls.append("peel") or peel(*args))
    cases = []
    for _ in range(6):
        b = random_structured_monomial(ctx, rng, p0)
        assert b._pp is not None
        a = b**p0
        res, no = pth_root(a, p0), pth_root(a * deepest_root(ctx, p0), p0)
        assert res.outcome == "root" and res.witness**p0 == a and res.witness._pp is not None
        assert no.outcome == "no"
        cases.append((b, a, res.witness))
    assert calls == []
    for b, a, w in cases:
        assert_same_form(a, plain(b) ** p0)
        assert_same_form(w, pth_root(plain(b) ** p0, p0).witness)


@pytest.mark.parametrize("char", [0, 2])
def test_vertex_exponents_only_on_variables_that_divide_no_defining_polynomial(char):
    # over Y^5 = z^5, X_z divides A, so z's powers keep their expanded
    # coefficients and no form anywhere holds an exponent of X_z
    ctx = context("y5_z5", char)
    assert ctx.dividing_vars() == {0}
    assert generator_vertex(ctx, "z", 0)._pp is None
    results = [res for a in elements(ctx, "y5_z5") for _, res in cases(ctx, a)]
    forms = [x._pp for x in results if isinstance(x, TowerElement) and x._pp is not None]
    forms += [r.witness._pp for r in results if isinstance(r, roots.RootResult)
              and r.witness is not None and r.witness._pp is not None]
    assert forms and all(x == (0,) for *_, x in forms)
    # over K2 both chain variables are atoms: x_s^1 = X_s^(p0^(d_s - 1))
    ctx = context("K2", char)
    assert ctx.dividing_vars() == frozenset()
    e, c, k, x = generator_vertex(ctx, "s", 1)._pp
    assert (c, k, x) == (ctx.field.one, (0,), (ctx.chain_prime ** (ctx.vertex_depths["s"] - 1), 0))


# -- root plans ----------------------------------------------------------------

PLAN_TOWERS = [(n, c) for n in ("K2", "P3", "K3") for c in (0, 2, 5)] + [
    ("y5_z5", 0), ("y5_z5", 2), ("star", 0), ("free", 0), ("free", 2)]


def per_element_root(a: TowerElement, p: int):
    """`_structured_root` with its system built for a alone, from the
    degrees of a's expanded coefficient, and solved by
    `affine_solutions`: (the solutions, the (beta, shift) candidates
    tried in order, the root or None)."""
    ctx, columns = a.ctx, a.ctx.gen_var_degrees()
    (alpha, c), = a.coeffs.items()
    rhs = c.num.degrees()
    for j, d in c.den.degrees().items():
        rhs[j] = rhs.get(j, 0) - d
    beta0, shift0, unknowns = [], [], []
    for i, y in enumerate(alpha):
        n = ctx.gen_degrees[i]
        g = math.gcd(p, n)
        if y % g:
            return None, [], None
        b = (y // g) * pow(p // g, -1, n // g) % (n // g)
        s = (p * b - y) // n
        beta0.append(b)
        shift0.append(s)
        for j, d in columns[i].items():
            rhs[j] = rhs.get(j, 0) - s * d
        if g == p:
            unknowns.append(i)
    equations = {j: ({}, r) for j, r in rhs.items()}
    for col, i in enumerate(unknowns):
        for j, d in columns[i].items():
            equations.setdefault(j, ({}, 0))[0][col] = d
    solutions = affine_solutions(equations.values(), len(unknowns), p)
    tried = []
    for t in solutions or ():
        beta, shift = list(beta0), list(shift0)
        for i, ti in zip(unknowns, t):
            beta[i] += ti * (ctx.gen_degrees[i] // p)
            shift[i] += ti
        tried.append((tuple(beta), shift))
        cand = fieldtower._monomial_root(a, tuple(beta), shift, p)
        if cand is not None and cand**p == a:
            return solutions, tried, cand
    return solutions, tried, None


@pytest.mark.parametrize("name, char", PLAN_TOWERS)
def test_root_plans_match_the_per_element_system(name, char, monkeypatch):
    # the plan's solutions, the candidates tried and the root agree with
    # the system built and solved for each element alone, for elements
    # with and without forms, their p-th powers and those times a root
    ctx = context(name, char)
    rng = random.Random(f"plan:{name}:{char}")
    solved, tried = [], []
    solutions, monomial_root = roots._solutions, roots._monomial_root
    monkeypatch.setattr(roots, "_solutions", lambda *args: solved.append(solutions(*args)) or solved[-1])
    monkeypatch.setattr(roots, "_monomial_root",
                        lambda a, beta, shift, p: tried.append((beta, list(shift))) or monomial_root(a, beta, shift, p))
    found = set()
    for p in primes(ctx):
        bs = [random_structured_monomial(ctx, rng, q) for q in (None, None, p, p)] + [one_term(ctx, rng)]
        for b in bs:
            for a in (b, b**p, b**p * deepest_root(ctx, p)):
                want_solutions, want_tried, want = per_element_root(plain(a), p)
                for y in (a, plain(a)):
                    solved.clear()
                    tried.clear()
                    got = _structured_root(y, p)
                    assert (solved[-1] if solved else None) == want_solutions
                    assert tried == want_tried
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert_same_form(got, want)
                found.add(len(want_solutions or ()))
    assert 1 in found
    if name == "free":
        assert 5 in found


def test_root_plans_are_kept_per_context_and_per_prime():
    ctx = context("K3", 0)
    assert ctx.root_plans == {}
    b = random_structured_monomial(ctx, random.Random(3))
    for p in primes(ctx):
        assert _structured_root(b**p, p) is not None
        assert _root_plan(ctx, p) is ctx.root_plans[p]
    assert sorted(ctx.root_plans) == primes(ctx)
    assert len({id(plan) for plan in ctx.root_plans.values()}) == len(primes(ctx))
    sub = ctx.sub_context(2)
    deeper = ctx.deepen(vertex_delta=1)
    for other in (sub, deeper):
        assert other.root_plans == {}
        c = random_structured_monomial(other, random.Random(4))
        for p in primes(other):
            assert _structured_root(c**p, p) is not None
            plan = other.root_plans[p]
            assert plan is not ctx.root_plans[p]
            assert [g * n_red for g, n_red, _ in plan.steps] == list(other.gen_degrees)
    assert ctx.sub_context(2) is sub and sub.root_plans is not ctx.root_plans


if given is not None:
    STEPS = st.one_of(
        st.tuples(st.just("edge"), st.integers(0, 2), st.integers(0, 1), st.sampled_from((-2, -1, 1, 2))),
        st.tuples(st.just("pow"), st.sampled_from((-3, -2, -1, 2, 3))),
        st.tuples(st.just("inv")),
        st.tuples(st.just("root"), st.integers(0, 2)),
    )

    @settings(max_examples=100, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from([t for t in TOWERS if t[0] != "shared"]), st.integers(0, 2),
           st.lists(STEPS, min_size=1, max_size=4))
    def test_carried_forms_expand_to_their_coefficients(tower_char, const, steps):
        # each step runs on the element with its form and on the same
        # element without one (today's path); the results agree part by
        # part, and a carried form is the coefficient's factorisation
        ctx = context(*tower_char)
        consts = CONSTANTS[ctx.char]
        c = ctx.field.of_fraction(Fraction(consts[const % len(consts)]))
        x = ctx.from_ratfunc(RatFunc.const(ctx.field, ctx.nvars, c))
        assert x._pp is not None
        for step in steps:
            g = ctx.gens[step[1] % len(ctx.gens)] if step[0] in ("edge", "root") else None
            if step[0] == "edge":
                y = generator_edge(ctx, g.label, step[2]) ** step[3]
                got, want = x * y, plain(x) * plain(y)
            elif step[0] == "pow":
                got, want = x ** step[1], plain(x) ** step[1]
            elif step[0] == "inv":
                got, want = x.inv(), plain(x).inv()
            else:
                res, ref = pth_root(x**g.prime, g.prime), pth_root(plain(x) ** g.prime, g.prime)
                assert res.outcome == ref.outcome == "root"
                got, want = res.witness, ref.witness
            assert_same_form(got, want)
            assert want._pp is None
            # a form passes through products and powers; a root found by
            # peeling (over Y^5 = z^5, z^5 is a fifth power) carries none
            assert got._pp is not None or step[0] == "root" or x._pp is None
            if got._pp is not None:
                (c,) = got.coeffs.values()
                assert form_value(got) == c
            x = got

    @settings(max_examples=40, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from(FORM_TOWERS), st.integers(0, 2), st.lists(STEPS, min_size=1, max_size=4))
    def test_form_readers_agree_along_random_steps(tower_char, const, steps):
        # the elements met along a random walk of products, powers,
        # inverses and roots, and their variants in e and c
        ctx = context(*tower_char)
        consts = CONSTANTS[ctx.char]
        c = ctx.field.of_fraction(Fraction(consts[const % len(consts)]))
        xs = [ctx.from_ratfunc(RatFunc.const(ctx.field, ctx.nvars, c))]
        for step in steps:
            x = xs[-1]
            g = ctx.gens[step[1] % len(ctx.gens)] if step[0] in ("edge", "root") else None
            if step[0] == "edge":
                xs.append(x * generator_edge(ctx, g.label, step[2]) ** step[3])
            elif step[0] == "pow":
                xs.append(x ** step[1])
            elif step[0] == "inv":
                xs.append(x.inv())
            else:
                xs.append(pth_root(x**g.prime, g.prime).witness)
        check_readers([y for x in xs for y in [x, *variants(x)]])
else:  # pragma: no cover
    @pytest.mark.skip(reason="needs hypothesis")
    def test_carried_forms_expand_to_their_coefficients():
        pass

    @pytest.mark.skip(reason="needs hypothesis")
    def test_form_readers_agree_along_random_steps():
        pass


if __name__ == "__main__":
    json.dump(document(), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
