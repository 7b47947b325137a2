"""Root decisions: valuations, the three-stage procedure, p-high logic."""
import itertools
import math
import random
import gc
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from graphfield.errors import BadPrime, ZeroInput
from graphfield.fieldtower import (
    RadicalGen,
    RadicalSpec,
    TowerContext,
    build_tower,
    generator_edge,
    generator_vertex,
    radical_extend,
    random_nonzero_element,
    random_structured_monomial,
)
from graphfield.graphs import (
    Graph,
    cayley_structure,
    code_structure,
    greedy_star_coloring,
    transform,
)
from graphfield.groups import Perm, closure
from graphfield.polynomials import Poly
from graphfield.ratfunc import RatFunc
from graphfield.roots import (
    _MAX_CANDIDATES,
    ValuationPlace,
    _capelli_irreducible,
    _eliminate,
    _solutions,
    _structured_root,
    certified_places,
    classify_p_high,
    g_adic_valuation,
    is_p_high,
    pth_root,
    q_high_descends,
    specialization_refute,
    valuation_vector,
)
from graphfield.coeffs import CoeffField, is_prime

Q = CoeffField(0)


def k2_ctx():
    g = Graph(["s", "t"], [("s", "t")])
    return build_tower(greedy_star_coloring(g), char=0)


# -- valuations -----------------------------------------------------------------


def test_g_adic_examples():
    x = Poly.var(Q, 2, 0)
    one = Poly.one(Q, 2)
    f = RatFunc(x * x, x + one)
    assert g_adic_valuation(f, ValuationPlace(kind="var", var=0)) == 2
    g = RatFunc(one, x + one)
    assert g_adic_valuation(g, ValuationPlace(kind="irr", poly=x + one)) == -1
    h = RatFunc(x, x * x + one)
    assert g_adic_valuation(h, ValuationPlace(kind="deg", var=0)) == 1


def test_g_adic_zero_rejected():
    with pytest.raises(ZeroInput):
        g_adic_valuation(RatFunc.zero(Q, 2), ValuationPlace(kind="var", var=0))


def test_valuation_is_multiplicative_random():
    rng = random.Random(0)
    place = ValuationPlace(kind="var", var=0)
    for _ in range(20):
        def rand_rf():
            num = Poly(Q, 2, {(rng.randint(0, 3), rng.randint(0, 2)): Fraction(rng.choice((1, 2, -1)))})
            den = Poly(Q, 2, {(rng.randint(0, 2), 0): Fraction(1)})
            return RatFunc(num, den)

        f, g = rand_rf(), rand_rf()
        if f.is_zero() or g.is_zero():
            continue
        assert g_adic_valuation(f * g, place) == g_adic_valuation(f, place) + g_adic_valuation(g, place)
        if not (f + g).is_zero():
            assert g_adic_valuation(f + g, place) >= min(
                g_adic_valuation(f, place), g_adic_valuation(g, place)
            )


def test_valuation_vector_examples():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    vec = {pv.label: pv for pv in valuation_vector(xs0)}
    assert vec["X:s"].value == 3 and vec["X:s"].exact
    assert vec["X:t"].value == 0
    xe0 = generator_edge(ctx, "e:s,t", 0)
    vec2 = {pv.label: pv for pv in valuation_vector(xe0)}
    assert vec2["X:s"].value == 0 and vec2["X:t"].value == 0
    assert vec2["A:e:s,t"].value == 1
    xe1 = generator_edge(ctx, "e:s,t", 1)
    vec3 = {pv.label: pv for pv in valuation_vector(xe1)}
    assert vec3["A:e:s,t"].value == Fraction(1, 5)
    assert vec3["A:e:s,t"].denominator == 5


def test_valuation_vector_multiplicative_on_monomials():
    ctx = k2_ctx()
    rng = random.Random(1)
    for _ in range(10):
        a = random_structured_monomial(ctx, rng)
        b = random_structured_monomial(ctx, rng)
        va = {p.label: p.value for p in valuation_vector(a)}
        vb = {p.label: p.value for p in valuation_vector(b)}
        vab = {p.label: p.value for p in valuation_vector(a * b)}
        for k in vab:
            assert vab[k] == va[k] + vb[k]


# -- pth_root ----------------------------------------------------------------------


def test_pth_root_defining_relation():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    r = pth_root(xs0, 3)
    assert r.outcome == "root"
    assert r.witness == generator_vertex(ctx, "s", 1)


def test_pth_root_valuation_refusals():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    for p in (2, 5):
        r = pth_root(xs0, p)
        assert r.outcome == "no"
        assert r.certificate["kind"] == "valuation"
    deepest = generator_vertex(ctx, "s", 1)
    r = pth_root(deepest, 3)
    assert r.outcome == "no" and r.certificate["kind"] == "valuation"
    edge_deepest = generator_edge(ctx, "e:s,t", 1)
    r = pth_root(edge_deepest, 5)
    assert r.outcome == "no" and r.certificate["kind"] == "valuation"


def test_pth_root_specialization_refusals():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    r = pth_root(xs0 + ctx.one(), 3)
    assert r.outcome == "no"
    r2 = pth_root(ctx.constant(2), 3)
    assert r2.outcome == "no"
    assert r2.certificate["kind"] == "specialization"


TOWERS = {
    "K2": (["s", "t"], [("s", "t")]),
    "P3": (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "K3": (["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
}


def test_pth_root_never_rejects_true_powers():
    # b**p is never refused: b runs over every vertex and edge generator
    # at levels 0 and 1 with exponents -1 and 2, for every tower prime p,
    # and over random structured monomials
    rng = random.Random(2)
    for char in (0, 2):
        for vs, es in TOWERS.values():
            ctx = build_tower(greedy_star_coloring(Graph(vs, es)), char=char)
            primes = sorted({ctx.chain_prime} | {g.prime for g in ctx.gens})
            gens = [generator_vertex(ctx, v, i) for v in vs for i in (0, 1)]
            gens += [generator_edge(ctx, g.label, i) for g in ctx.gens for i in (0, 1)]
            for p in primes:
                powers = [x**k for x in gens for k in (-1, 2)]
                powers += [random_structured_monomial(ctx, rng, p=p) for _ in range(4)]
                for b in powers:
                    a = b**p
                    r = pth_root(a, p)
                    assert r.outcome == "root", (char, vs, p, b)
                    assert r.witness**p == a


def affine_solutions(equations, n: int, p: int) -> list[tuple] | None:
    """All t in F_p^n with sum_k row[k]*t_k = r (mod p) for every sparse
    equation (row, r), in lexicographic order; None when there is none or
    when there are more than `_MAX_CANDIDATES`: `_eliminate` with the
    equations' indices as labels, then `_solutions` with their r."""
    equations = list(equations)
    pivots, checks = _eliminate([(row, {x: 1}) for x, (row, _) in enumerate(equations)], p)
    return _solutions(pivots, checks, n, p, {x: r for x, (_, r) in enumerate(equations)})


def test_affine_solutions_match_brute_force():
    rng = random.Random(4)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randint(0, 4)
        equations = [
            ({k: rng.randint(-6, 6) for k in range(n) if rng.random() < 0.6}, rng.randint(-6, 6))
            for _ in range(rng.randint(0, 5))
        ]
        expected = [
            t
            for t in itertools.product(range(p), repeat=n)
            if all((sum(v * t[k] for k, v in row.items()) - r) % p == 0 for row, r in equations)
        ]
        capped = expected if 0 < len(expected) <= _MAX_CANDIDATES else None
        assert affine_solutions(equations, n, p) == capped


def test_pth_root_past_the_old_candidate_cap():
    # the star c-{a,b,d,e} has four prime-5 generators of depth 1, so a
    # monomial's exponent congruences alone leave 5^4 = 625 candidates
    g = Graph(["a", "b", "c", "d", "e"], [("c", "a"), ("c", "b"), ("c", "d"), ("c", "e")])
    ctx = build_tower(greedy_star_coloring(g), char=0)
    assert [(gen.prime, gen.depth) for gen in ctx.gens] == [(5, 1)] * 4
    b = ctx.one()
    for gen in ctx.gens:
        b = b * generator_edge(ctx, gen.label, 1)
    a = b**5
    r = pth_root(a, 5)
    assert r.outcome == "root"
    assert r.witness**5 == a


@lru_cache(maxsize=1)
def sym2_chain_tower():
    s2 = closure([Perm.from_cycles(2, [(0, 1)])])
    return build_tower(transform(code_structure(cayley_structure(s2))), char=0, cap=math.inf)


def test_structured_root_on_the_sym2_chain_tower():
    # the 487-vertex chain transform of S2 has 196 generators of prime 7
    ctx = sym2_chain_tower()
    assert (ctx.nvars, len(ctx.gens)) == (487, 882)
    sevens = [gen.label for gen in ctx.gens if gen.prime == 7]
    assert len(sevens) == 196
    b = generator_edge(ctx, sevens[0], 1) * generator_edge(ctx, sevens[1], 1)
    a = b**7
    start = time.perf_counter()
    w = _structured_root(a, 7)
    assert time.perf_counter() - start < 1.0
    assert w is not None and w**7 == a


def test_pth_root_without_a_specialization_prime_is_unknown():
    # q = 1 mod lcm(5, 11^4) = 73,205 has no prime up to the bound
    # _DLOG_TABLE_CAP = 10^6 on q, so stage (iii) cannot run
    g = Graph(["s", "t"], [("s", "t")])
    ctx = build_tower(greedy_star_coloring(g), char=0, primes=(3, 11), edge_depths=4, cap=20000)
    a = generator_vertex(ctx, "s", 1) + ctx.one()
    with pytest.raises(BadPrime):
        specialization_refute(a, 5)
    r = pth_root(a, 5)
    assert r.outcome == "unknown"
    assert "no admissible specialization prime" in r.note


def _mod_q(x: Fraction, q: int) -> int:
    assert x.denominator % q
    return x.numerator * pow(x.denominator, -1, q) % q


def _rational_value(f: Poly, point: list) -> Fraction:
    return sum((c * math.prod(x**k for x, k in zip(point, e)) for e, c in f.terms().items()), Fraction(0))


def _check_specialization_certificate(a, p: int, cert: dict) -> None:
    """Re-derive a specialization certificate of `a` with exact rationals."""
    ctx, q, point = a.ctx, cert["q"], cert["point"]
    xs, etas = point["vars"], point["roots"]
    assert is_prime(q) and (q - 1) % p == 0
    assert len(xs) == ctx.nvars and all(0 < x < q for x in xs)
    assert len(etas) == len(ctx.gens)
    for i, eta in enumerate(etas):
        assert pow(eta, ctx.gen_degrees[i], q) == _mod_q(_rational_value(ctx.gen_poly(i), xs), q)
    image = 0
    for exps, c in a.coeffs.items():
        value = _mod_q(_rational_value(c.num, xs) / _rational_value(c.den, xs), q)
        image += value * math.prod(pow(eta, k, q) for eta, k in zip(etas, exps))
    assert image % q == point["image"]
    assert pow(point["image"], (q - 1) // p, q) != 1


def test_specialization_certificates_recheck_with_rationals():
    # every specialization refusal on K2 and P3 names a point, roots of
    # the defining relations there, and an image that is not a p-th power
    rng = random.Random(0)
    checked = with_den = with_fraction = 0
    for name in ("K2", "P3"):
        ctx = build_tower(greedy_star_coloring(Graph(*TOWERS[name])), char=0)
        vertex = generator_vertex(ctx, ctx.var_names[0], 0)
        corpus = [vertex, vertex + ctx.one(), ctx.constant(2),
                  ctx.from_ratfunc(RatFunc.const(Q, ctx.nvars, Fraction(2, 5))),
                  (vertex + ctx.constant(3)) * ctx.from_ratfunc(RatFunc.const(Q, ctx.nvars, Fraction(1, 7)))]
        # the p-high corpus of `verify --suite roots`, and elements with denominators
        corpus += [random_nonzero_element(ctx, rng, max_terms=3, allow_denominator=False) for _ in range(15)]
        corpus += [random_nonzero_element(ctx, rng, max_terms=3) for _ in range(15)]
        for i, a in enumerate(corpus):
            for p in sorted({2, ctx.chain_prime} | {g.prime for g in ctx.gens}):
                r = pth_root(a, p, seed=i)
                if r.outcome != "no" or r.certificate["kind"] != "specialization":
                    continue
                _check_specialization_certificate(a, p, r.certificate)
                checked += 1
                with_den += any(not c.den.is_one() for c in a.coeffs.values())
                with_fraction += any(c.num.content.denominator != 1 for c in a.coeffs.values())
    assert checked >= 50 and with_den >= 5 and with_fraction >= 5, (checked, with_den, with_fraction)


def test_specialization_refute_consistency_on_powers():
    ctx = k2_ctx()
    b = generator_vertex(ctx, "s", 1)
    a = b**3
    rep = specialization_refute(a, 3, seed=0)
    assert not rep["refuted"]


def test_pth_root_negative_exponent_monomials():
    ctx = k2_ctx()
    xe1 = generator_edge(ctx, "e:s,t", 1)
    a = xe1 ** (-5)
    r = pth_root(a, 5)
    assert r.outcome == "root"
    assert r.witness**5 == a


def test_pth_root_p3_squared_defining_polynomials():
    # b = A_{a,b}^2 A_{b,c}^2 (both level-0 edge roots squared) and its
    # inverse, round-tripped through b^5 in the char-0 P3 tower
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    ctx = build_tower(greedy_star_coloring(g), char=0)
    b = ctx.one()
    for gen in ctx.gens:
        if gen.prime == 5:
            b = b * generator_edge(ctx, gen.label, 0) ** 2
    for x in (b, b.inv()):
        a = x**5
        r = pth_root(a, 5)
        assert r.outcome == "root"
        assert r.witness**5 == a


# -- p-high -------------------------------------------------------------------------


def test_is_p_high_base_examples():
    ctx = k2_ctx()
    assert is_p_high(ctx.one(), 3).verdict == "true"
    assert is_p_high(ctx.one(), 2).verdict == "true"
    assert is_p_high(ctx.constant(-1), 3).verdict == "true"
    assert is_p_high(ctx.constant(2), 3).verdict == "false"


def test_is_p_high_generators():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    xe0 = generator_edge(ctx, "e:s,t", 0)
    assert is_p_high(xs0, 3, depth_budget=3).verdict == "true"
    assert is_p_high(xe0, 5, depth_budget=3).verdict == "true"
    assert is_p_high(xs0, 5, depth_budget=2).verdict == "false"
    assert is_p_high(xe0, 3, depth_budget=2).verdict == "false"
    assert is_p_high(xs0 + ctx.one(), 3, depth_budget=2).verdict == "false"


def test_classify_examples():
    ctx = k2_ctx()
    xs1 = generator_vertex(ctx, "s", 1)
    xt0 = generator_vertex(ctx, "t", 0)
    form, _ = classify_p_high(xs1 * xt0, 3)
    assert form is not None
    assert form.vertex_part == {"s": (1, 1), "t": (0, 1)}
    assert form.unit == Fraction(1)

    xe0 = generator_edge(ctx, "e:s,t", 0)
    form2, _ = classify_p_high(ctx.constant(-1) * xe0 * xe0, 5)
    assert form2 is not None
    assert form2.edge_part == {"e:s,t": (0, 2)}
    assert form2.unit == Fraction(-1)

    form3, why3 = classify_p_high(generator_vertex(ctx, "s", 0) + xt0, 3)
    assert form3 is None and "monomial" in why3

    form4, why4 = classify_p_high(ctx.constant(2), 3)
    assert form4 is None and "unit" in why4

    # family mismatch: edge roots cannot appear in a chain-prime form
    form5, why5 = classify_p_high(xe0, 3)
    assert form5 is None


def test_classify_agrees_with_is_p_high_on_corpus():
    ctx = k2_ctx()
    rng = random.Random(3)
    for p in (3, 5):
        for i in range(12):
            m = random_structured_monomial(ctx, rng, p=p)
            if m.is_base() and m.base_value().is_constant():
                continue
            form, _ = classify_p_high(m, p)
            assert form is not None
            assert is_p_high(m, p, depth_budget=2, seed=i).verdict == "true"
    refuted = 0
    for i in range(15):
        a = random_nonzero_element(ctx, rng, max_terms=3, allow_denominator=False)
        form, _ = classify_p_high(a, 3)
        if form is not None:
            continue
        v = is_p_high(a, 3, depth_budget=2, seed=100 + i).verdict
        assert v in ("false", "unknown")
        refuted += v == "false"
    assert refuted >= 10


def test_q_high_descends():
    ctx = k2_ctx()
    rep = q_high_descends(ctx, 2, samples=10, seed=0)
    assert rep["pass"]
    assert rep["base_one_is_high"]
    with pytest.raises(ValueError):
        q_high_descends(ctx, 5, samples=2)


def test_root_result_json_payloads():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    doc = pth_root(xs0, 3).to_json()
    assert doc["outcome"] == "root" and "witness" in doc
    doc2 = pth_root(xs0, 2).to_json()
    assert doc2["outcome"] == "no"
    assert doc2["certificate"]["kind"] == "valuation"
    assert doc2["certificate"]["place"] == "X:s"
    doc3 = pth_root(ctx.constant(2), 3).to_json()
    assert doc3["certificate"]["kind"] == "specialization"
    assert "point" in doc3["certificate"] and "q" in doc3["certificate"]


def test_char2_valuation_refusals():
    g = Graph(["s", "t"], [("s", "t")])
    ctx = build_tower(greedy_star_coloring(g), char=2)
    xs0 = generator_vertex(ctx, "s", 0)
    r = pth_root(xs0, ctx.chain_prime)
    assert r.outcome == "root"
    r2 = pth_root(xs0, 7)  # not a tower prime: valuation obstruction
    assert r2.outcome == "no" and r2.certificate["kind"] == "valuation"


def test_pth_root_zero_and_unknown_exits():
    ctx = k2_ctx()
    r = pth_root(ctx.zero(), 3)
    assert r.outcome == "root" and r.witness.is_zero() and r.witness.ctx is ctx
    # char 2 runs no specialization stage, and 1 + X_{s,1} has no
    # certified valuation obstruction: the decision stays open
    g = Graph(["s", "t"], [("s", "t")])
    ctx2 = build_tower(greedy_star_coloring(g), char=2)
    r2 = pth_root(generator_vertex(ctx2, "s", 1) + ctx2.one(), 3)
    assert r2.outcome == "unknown"
    assert r2.witness is None and r2.certificate is None


def test_pth_root_over_a_zero_defining_polynomial():
    # Y^5 = 0: a shifted candidate would need A^-1 = 0^-1, and no place
    # can be certified where a generator is nilpotent; every call answers
    # a RootResult, and every root carries a witness of a
    ctx = TowerContext(0, ("z",), 3, {"z": 0},
                       [RadicalGen("t:v", 5, 1, ("tpoly", "z", (Fraction(0), Fraction(0))))])
    z = generator_vertex(ctx, "z", 0)
    y = generator_edge(ctx, "t:v", 1)
    assert certified_places(ctx) == []
    outcomes = []
    for a in (ctx.constant(2), z, y * z, ctx.constant(32), z**5, ctx.one()):
        r = pth_root(a, 5)
        outcomes.append(r.outcome)
        assert r.outcome != "root" or r.witness**5 == a
    assert outcomes == ["unknown"] * 3 + ["root"] * 3


def test_char3_behavior_recorded():
    # positive characteristic: run the machinery and record outcomes
    # (no exactness asserted for the specialization-free stages)
    g = Graph(["s", "t"], [("s", "t")])
    ctx = build_tower(greedy_star_coloring(g), char=3)
    xs0 = generator_vertex(ctx, "s", 0)
    r = pth_root(xs0, ctx.chain_prime)
    assert r.outcome == "root"
    r2 = pth_root(xs0, 2)
    assert r2.outcome in ("no", "unknown")


# -- certified places against the pairwise-divisibility definition -------------


def reference_places(ctx):
    """(label, ramified generator, denominator) of each certified place by
    the definition that `certified_places` first used: X_j = 0 when every
    A_i is nonzero with a term free of X_j; A_i = 0 when N_i > 1, A_i is
    Capelli-certified and divides no other A_j, where A_i | 0 counts as
    dividing."""
    A = [ctx.gen_poly(i) for i in range(len(ctx.gens))]
    out = [(f"X:{v}", None, 1) for v, j in ctx.var_index.items()
           if all(not f.is_zero() and f.min_degree_in(j) == 0 for f in A)]
    for i, f in enumerate(A):
        others = [g for j, g in enumerate(A) if j != i]
        if (ctx.gen_degrees[i] > 1 and _capelli_irreducible(f, f.degrees())
                and all(not g.is_zero() and g.multiplicity_of(f) == 0 for g in others)):
            out.append((f"A:{ctx.gens[i].label}", i, ctx.gen_degrees[i]))
    return out


def zero_and_irreducible_tower():
    # Y_u^5 = 0 and Y_v^7 = 1 + z: A_v is irreducible and A_v | A_u = 0
    return TowerContext(0, ("z",), 3, {"z": 0}, [
        RadicalGen("t:u", 5, 1, ("tpoly", "z", (Fraction(0),))),
        RadicalGen("t:v", 7, 1, ("tpoly", "z", (Fraction(1), Fraction(1)))),
    ])


def oracle_towers():
    graphs = {"K2": ("st", ["st"]), "P3": ("abc", ["ab", "bc"]), "K3": ("abc", ["ab", "bc", "ac"])}
    for name, (vs, es) in graphs.items():
        for char in (0, 2, 5):
            g = greedy_star_coloring(Graph(list(vs), [tuple(e) for e in es]))
            yield f"{name}:{char}", build_tower(g, char=char)
    for char in (0, 2):
        c = CoeffField(char).of_int
        yield f"shared:{char}", TowerContext(char, ("z",), 3, {"z": 1}, [
            RadicalGen("t:u", 5, 1, ("tpoly", "z", (c(0), c(1)))),
            RadicalGen("t:v", 7, 1, ("tpoly", "z", (c(0), c(1), c(1)))),
        ])
        for name, top in (("y5_z5", 1), ("y5_0", 0)):
            coeffs = tuple(map(c, (0, 0, 0, 0, 0, top)))
            yield f"{name}:{char}", TowerContext(char, ("z",), 3, {"z": 0},
                                                 [RadicalGen("t:v", 5, 1, ("tpoly", "z", coeffs))])
    yield "zero_and_irreducible", zero_and_irreducible_tower()
    spec = RadicalSpec(p=3, branch_primes=(5, 7), partition={"a": 0, "b": 1},
                       polys={"a": (1, 1), "b": (2, 0, 1)})
    yield "radical_extend", radical_extend(spec)


def test_certified_places_match_the_pairwise_divisibility_definition():
    seen = set()
    for name, ctx in oracle_towers():
        got = [(cp.place.label, cp.ramified, cp.denominator) for cp in certified_places(ctx)]
        assert got == reference_places(ctx), name
        seen.update(kind for kind, _, _ in got)
    # both kinds of place occur, and some towers lose a defining-polynomial place
    assert any(label.startswith("X:") for label in seen) and any(label.startswith("A:") for label in seen)


def test_pth_root_over_a_zero_and_an_irreducible_defining_polynomial():
    # certified_places divided the zero A_u by A_v and raised "zero
    # polynomial"; A_v divides 0, so it has no place, and nor does z
    ctx = zero_and_irreducible_tower()
    assert certified_places(ctx) == []
    r = pth_root(generator_vertex(ctx, "z", 0), 5)
    assert r.outcome == "unknown" and r.witness is None and r.certificate is None


def test_certified_places_on_the_sym2_chain_tower():
    # 487 chain-variable places and one place per generator: every edge
    # polynomial is Capelli-certified and coprime to the other 881
    ctx = sym2_chain_tower()
    places = certified_places(ctx)
    assert len(places) == 487 + 882 == 1369
    v = ctx.var_names[0]
    r = pth_root(generator_vertex(ctx, v, 0), 2)
    assert r.outcome == "no"
    assert r.certificate["kind"] == "valuation" and r.certificate["place"] == f"X:{v}"


def test_valuations_of_a_vertex_monomial_take_no_trial_division(monkeypatch):
    # every edge polynomial of the sym:2 chain tower has two variables, and
    # x_v^0 = X_v^m (and its denominator 1) has degree 0 in at least one
    # of them, so none of the 882 places divides: before the degree test
    # this took two multiplicity_of calls per place, 1,764 divisions
    ctx = sym2_chain_tower()
    certified_places(ctx)
    calls = []
    divexact = Poly.divexact
    monkeypatch.setattr(Poly, "divexact", lambda f, g: calls.append(g) or divexact(f, g))
    v = ctx.var_names[1]
    assert pth_root(generator_vertex(ctx, v, 0), 2).outcome == "no"
    assert len(calls) == 0
    # a side that reaches an A_i's degrees is still divided
    A = ctx.gen_poly(0)
    values = {pv.label: pv.value for pv in valuation_vector(ctx.from_poly(A * A))}
    assert values[f"A:{ctx.gens[0].label}"] == 2
    assert len(calls) == 3  # A^2 / A, A / A, then 1 / A fails


def test_specialization_keeps_no_large_prime_table():
    # K2 with an edge of degree 113^2 specializes over q = 127,691 alone;
    # its exp/log tables (about 13 MiB) outlived the call in the cache
    g = Graph(["s", "t"], [("s", "t")])
    ctx = build_tower(greedy_star_coloring(g), char=0, primes=(3, 113), edge_depths=2, cap=20000)
    a = generator_vertex(ctx, "s", 1) + ctx.one()
    gc.collect()
    tracemalloc.start()
    try:
        rep = specialization_refute(a, 5)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["q"] == 127691
    assert retained < 2**20
