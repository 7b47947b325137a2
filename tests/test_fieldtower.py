"""Tower arithmetic: construction, canonical forms, inversion, embedding,
norms, and the generic radical extension."""
import random
from fractions import Fraction

import pytest

from graphfield.coeffs import CoeffField
from graphfield.errors import (
    DepthExceeded,
    InvalidInput,
    ProfileNotLarger,
    ProfileNotSmaller,
    SingularMultiplication,
    SpecInvalid,
    TooLarge,
)
from graphfield.fieldtower import (
    RadicalGen,
    RadicalSpec,
    TowerContext,
    TowerElement,
    build_tower,
    choose_primes,
    edge_label,
    embed,
    field_norm,
    generator_edge,
    generator_vertex,
    primality_smoke,
    radical_extend,
    random_nonzero_element,
    random_single_level_element,
    random_structured_monomial,
)
from graphfield import fieldtower
from graphfield.fieldtower import _binomial_inverse, _euclid_inverse
from graphfield.graphs import ColoredGraph, Graph, greedy_star_coloring, transform
from graphfield.polynomials import Poly
from graphfield.ratfunc import RatFunc


def k2_ctx(char=0, vdepth=1, edepth=1):
    g = Graph(["s", "t"], [("s", "t")])
    return build_tower(greedy_star_coloring(g), char=char, vertex_depths=vdepth, edge_depths=edepth)


def p3_ctx():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    return build_tower(greedy_star_coloring(g), char=0)


def test_choose_primes():
    assert choose_primes(0, 7) == (3, 5, 7, 11, 13, 17, 19, 23)
    assert choose_primes(3, 7) == (5, 7, 11, 13, 17, 19, 23, 29)
    assert choose_primes(7, 7) == (5, 11, 13, 17, 19, 23, 29, 31)


def test_build_tower_k2():
    ctx = k2_ctx()
    assert ctx.dimension == 5
    assert ctx.chain_prime == 3 and ctx.gens[0].prime == 5
    # the defining polynomial is X_s^3 + X_t^3 + 1
    A = ctx.gen_poly(0)
    F = ctx.field
    expected = (
        Poly.var(F, 2, 0, 3) + Poly.var(F, 2, 1, 3) + Poly.one(F, 2)
    )
    assert A == expected


def test_build_tower_dimensions():
    assert k2_ctx(edepth=2).dimension == 25
    assert k2_ctx(edepth=0).dimension == 1
    assert p3_ctx().dimension == 25


def test_negative_depths_rejected():
    g = greedy_star_coloring(Graph(["s", "t"], [("s", "t")]))
    with pytest.raises(InvalidInput):
        build_tower(g, vertex_depths=-1)
    with pytest.raises(InvalidInput):
        build_tower(g, vertex_depths={"s": 1, "t": -1})
    with pytest.raises(InvalidInput):
        build_tower(g, edge_depths=-1)
    with pytest.raises(InvalidInput):
        build_tower(g, edge_depths={"e:s,t": -1})
    spec = RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0}, polys={"v": (1, 1)})
    with pytest.raises(InvalidInput):
        radical_extend(spec, z_depth=-1)


def test_build_tower_input_errors():
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(InvalidInput, match="star coloring"):
        build_tower(ColoredGraph(tri, {e: 0 for e in tri.edges}, 1))
    with pytest.raises(InvalidInput, match="one prime per color"):
        build_tower(greedy_star_coloring(Graph(["s", "t"], [("s", "t")])), primes=(2,))


@pytest.mark.parametrize("primes", [(3, 5, 5, 5), (3, 3, 5, 7)])
def test_build_tower_refuses_repeated_primes(primes):
    # one prime per colour, and the chain prime apart from all of them
    tri = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(InvalidInput, match="pairwise distinct"):
        build_tower(greedy_star_coloring(tri), primes=primes)


def test_build_tower_cap():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(TooLarge):
        build_tower(greedy_star_coloring(g), char=0, edge_depths=3, cap=2000)


def test_build_tower_checks_a_cap_only_when_passed():
    # the tower of T(K2), the chain's own object, is far past the CLI's
    # default cap of 2,000; the library builds it unless a caller passes one
    cg = transform(Graph(["s", "t"], [("s", "t")]))
    ctx = build_tower(cg)
    assert ctx.dimension == 658_132_475
    with pytest.raises(TooLarge, match="basis dimension exceeds cap 2000"):
        build_tower(cg, cap=2000)
    assert build_tower(cg, cap=658_132_475).dimension == 658_132_475


def test_generator_relations():
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    xs1 = generator_vertex(ctx, "s", 1)
    xt0 = generator_vertex(ctx, "t", 0)
    xe0 = generator_edge(ctx, "e:s,t", 0)
    xe1 = generator_edge(ctx, "e:s,t", 1)
    assert xs1**3 == xs0
    assert xe1**5 == xe0
    assert xe0 == xs0 + xt0 + ctx.one()
    assert (xe0 - xs0 - xt0 - ctx.one()).is_zero()


def test_generator_depth_bounds():
    ctx = k2_ctx()
    with pytest.raises(DepthExceeded):
        generator_vertex(ctx, "s", 2)
    with pytest.raises(DepthExceeded):
        generator_edge(ctx, "e:s,t", 2)


def test_field_axioms_random():
    ctx = k2_ctx()
    rng = random.Random(0)
    for _ in range(15):
        a = random_nonzero_element(ctx, rng, max_terms=2)
        b = random_nonzero_element(ctx, rng, max_terms=2)
        c = random_nonzero_element(ctx, rng, max_terms=2)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a
        assert (a * a.inv()).is_one()


def test_canonical_equality():
    ctx = k2_ctx()
    rng = random.Random(1)
    a = random_nonzero_element(ctx, rng)
    b = random_nonzero_element(ctx, rng)
    assert (a - b).is_zero() == (a == b)
    assert (a - a).is_zero()


def test_inverse_examples():
    ctx = k2_ctx()
    xe0 = generator_edge(ctx, "e:s,t", 0)
    xe1 = generator_edge(ctx, "e:s,t", 1)
    one = ctx.one()
    assert (xe0.inv() * xe0).is_one()
    assert ((one + xe1).inv() * (one + xe1)).is_one()
    # (x_e^1)^5 multiplies back to the vertex relation
    xs0 = generator_vertex(ctx, "s", 0)
    xt0 = generator_vertex(ctx, "t", 0)
    prod = xe1 * xe1 * xe1 * xe1 * xe1
    assert prod == xs0 + xt0 + one


def y5_z5_ctx():
    # Y^5 = z^5 is not a field: Y - z divides zero
    return TowerContext(
        0, ("z",), 3, {"z": 0},
        [RadicalGen("t:v", 5, 1, ("tpoly", "z", tuple(Fraction(c) for c in (0, 0, 0, 0, 0, 1))))],
    )


def test_inverse_zero_divisor_keeps_witness():
    # Y - z divides zero, while Y^2 + z is a unit
    ctx = y5_z5_ctx()
    y = generator_edge(ctx, "t:v", 1)
    z = generator_vertex(ctx, "z", 0)
    with pytest.raises(SingularMultiplication) as info:
        (y - z).inv()
    assert info.value.counterexample is not None
    b = y * y + z
    assert (b * b.inv()).is_one()


def zero_poly_ctx():
    # a hand-built tower whose defining polynomial is zero: Y^5 = 0
    return TowerContext(0, ("z",), 3, {"z": 0},
                        [RadicalGen("t:v", 5, 1, ("tpoly", "z", (Fraction(0), Fraction(0))))])


@pytest.mark.parametrize("char", [0, 2])
def test_negative_powers_of_multi_term_elements(char):
    # an element of more than one term is inverted, then raised
    ctx = k2_ctx(char)
    xs, xt = generator_vertex(ctx, "s", 1), generator_vertex(ctx, "t", 1)
    y = generator_edge(ctx, "e:s,t", 1)
    one = ctx.one()
    for terms, a in ((2, xs + y), (3, one + xs * y + (xt + one) * y**3)):
        assert len(a.coeffs) == terms
        assert a ** -2 == a.inv() ** 2
        assert a ** -3 * a ** 3 == one


def test_zero_defining_polynomial_is_refused_by_the_one_term_inverse():
    ctx = zero_poly_ctx()
    y = generator_edge(ctx, "t:v", 1)
    z = generator_vertex(ctx, "z", 0)
    assert (y**5).is_zero() and (y**7).is_zero() and (y * y * y * y * y).is_zero()
    with pytest.raises(SingularMultiplication) as info:
        (y * z).inv()
    assert info.value.counterexample == (y * z).to_json()
    with pytest.raises(SingularMultiplication, match="nontrivial gcd with the defining polynomial") as info:
        y ** -3
    assert info.value.counterexample == y.to_json()
    assert z.inv() * z == ctx.one()


def tower(name, char):
    if name == "shared":
        # Y_u^5 = z and Y_v^7 = z + z^2 share the factor z, so a power's
        # cancellation meets a gcd of two defining polynomials
        c = CoeffField(char).of_int
        return TowerContext(char, ("z",), 3, {"z": 1}, [
            RadicalGen("t:u", 5, 1, ("tpoly", "z", (c(0), c(1)))),
            RadicalGen("t:v", 7, 1, ("tpoly", "z", (c(0), c(1), c(1)))),
        ])
    vs, es = {"K2": ("st", ["st"]), "P3": ("abc", ["ab", "bc"]), "K3": ("abc", ["ab", "bc", "ac"])}[name]
    return build_tower(greedy_star_coloring(Graph(list(vs), [tuple(e) for e in es])), char=char)


def one_term(ctx, rng):
    """c·Y^e with a rational-function c whose denominator may hold
    defining polynomials and chain variables."""
    a = random_nonzero_element(ctx, rng, max_terms=1) * random_structured_monomial(ctx, rng)
    assert len(a.coeffs) == 1
    return a


def assert_same_form(x, y):
    """Equal elements, compared part by part: the content, the integer
    part and the cached leading exponent of every numerator and
    denominator."""
    assert x.coeffs.keys() == y.coeffs.keys()
    for e, c in x.coeffs.items():
        d = y.coeffs[e]
        for p, q in ((c.num, d.num), (c.den, d.den)):
            assert type(p.content) is type(q.content) and p.content == q.content
            assert p.ints == q.ints
            assert p._top() == max(p.ints, key=lambda k: (sum(k), k))


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("name", ["K2", "P3", "K3", "shared"])
def test_one_term_power_matches_repeated_products(name, char):
    ctx = tower(name, char)
    rng = random.Random(f"{name}:{char}")
    top = max(ctx.gen_degrees[i] for i in range(len(ctx.gens)))
    for _ in range(6 if name == "shared" else 2):
        a = one_term(ctx, rng)
        inv = a.inv()
        assert (a * inv).is_one()
        want, want_inv = a, inv
        for n in range(2, 2 * top + 2):
            want, want_inv = want * a, want_inv * inv
            assert_same_form(a**n, want)
            assert_same_form(a ** -n, want_inv)


@pytest.mark.parametrize("char", [0, 2])
@pytest.mark.parametrize("name", ["K2", "P3"])
def test_one_term_inverse_matches_the_euclid_path(name, char, monkeypatch):
    # `_euclid_inverse` runs the remainder sequence of the top level on a
    # one-term element that involves the top generator: on K2 throughout,
    # on P3 at the top level, with the lower level's leading coefficients
    # inverted in closed form
    euclid = count_calls(monkeypatch, "_euclid_inverse")
    ctx = tower(name, char)
    rng = random.Random(f"{name}:{char}")
    top = len(ctx.gens) - 1
    n_max = 2 * max(ctx.gen_degrees[i] for i in range(len(ctx.gens))) + 1
    for _ in range(4):
        a = one_term(ctx, rng)
        while not next(iter(a.coeffs))[top]:
            a = one_term(ctx, rng)
        x = fieldtower._euclid_inverse(a)
        assert (a * x).is_one()
        assert_same_form(a.inv(), x)
        for n in range(1, n_max + 1):
            assert_same_form(a ** -n, x**n)
    # only the oracle took the Euclid walk
    assert len(euclid) == 4


def two_term(ctx, rng, plain, top=4):
    """c0·Y^e0 + c1·Y^e1, e0 != e1, exponents below min(N_i, top).  Unless
    plain, a coefficient is a random rational function, divided by a
    defining polynomial or by 1 + a chain variable four times in ten;
    plain coefficients are small constants."""
    F = ctx.field
    while True:
        e0, e1 = (tuple(rng.randrange(min(ctx.gen_degrees[i], top)) for i in range(len(ctx.gens)))
                  for _ in range(2))
        if e0 != e1:
            break
    coeffs = {}
    for e in (e0, e1):
        if plain:
            c = RatFunc.const(F, ctx.nvars, F.of_int(rng.choice((1, -1, 3))))
        else:
            (c,) = random_nonzero_element(ctx, rng, max_terms=1).coeffs.values()
            if rng.random() < 0.4:
                den = rng.choice([ctx.gen_poly(i) for i in range(len(ctx.gens))]
                                 + [Poly.var(F, ctx.nvars, rng.randrange(ctx.nvars), 1) + Poly.one(F, ctx.nvars)])
                c = c * RatFunc(Poly.one(F, ctx.nvars), den)
        coeffs[e] = c
    return TowerElement(ctx, coeffs)


def count_calls(monkeypatch, name):
    """A list that records each call of fieldtower.<name>."""
    calls, original = [], getattr(fieldtower, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fieldtower, name, spy)
    return calls


@pytest.mark.parametrize("char", [0, 2, 5])
@pytest.mark.parametrize("name", ["K2", "P3", "K3"])
def test_two_term_inverse_matches_the_euclid_path(name, char, monkeypatch):
    by_bases = count_calls(monkeypatch, "_binomial_by_bases")
    ctx = tower(name, char)
    rng = random.Random(f"two-term:{name}:{char}")
    # K3 inverses of mixed-level elements with rational coefficients take
    # seconds each, so its draws have constant coefficients and exponents 0 or 1
    count, plain, top = {"K2": (10, False, 4), "P3": (6, False, 4), "K3": (6, True, 2)}[name]
    mixed = negative = denominator = False
    for _ in range(count):
        a = two_term(ctx, rng, plain, top)
        e0, e1 = sorted(a.coeffs)
        denominator |= any(not c.den.is_one() for c in a.coeffs.values())
        mixed |= sum(k0 != k1 for k0, k1 in zip(e0, e1)) > 1
        negative |= any(k1 < k0 for k0, k1 in zip(e0, e1))
        x = _binomial_inverse(a)
        assert x is not None
        assert_same_form(x, _euclid_inverse(a))
    # the draws cover exponent differences with more than one nonzero
    # coordinate and with a negative one, coefficients with denominators,
    # and both ways of forming the terms
    assert mixed == negative == (name != "K2")
    assert denominator == (not plain)
    # (the Euclid walk's inverses one level down call it too)
    top = sum(args[0] is ctx for args in by_bases)
    assert 0 < top <= count and (top < count) == (not plain)


def test_two_term_inverse_of_a_mixed_level_k3_element(monkeypatch):
    # draw 3 of ROADMAP item 5's K3 probe: -Y^(0,3,2) + Y^(1,3,0); w has
    # exponents (1, 0, 5), so L = lcm(5, 7) = 35 terms
    by_bases = count_calls(monkeypatch, "_binomial_by_bases")
    ctx = tower("K3", 0)
    one = RatFunc.one(ctx.field, ctx.nvars)
    a = TowerElement(ctx, {(0, 3, 2): -one, (1, 3, 0): one})
    x = _binomial_inverse(a)
    assert len(x.coeffs) == 35 and len(by_bases) == 1
    assert_same_form(x, _euclid_inverse(a))


def test_two_term_inverse_falls_back_where_the_closed_form_does_not_apply(monkeypatch):
    # over Y^5 = z^5, y - z has 1 - w^5 = 0, so the Euclid walk raises
    # with its witness; y^2 + z has 1 - w^5 = 1 + z^5 and takes the closed
    # form.  z and A = z^5 share a factor, so both go term by term.
    by_bases = count_calls(monkeypatch, "_binomial_by_bases")
    ctx = y5_z5_ctx()
    y = generator_edge(ctx, "t:v", 1)
    z = generator_vertex(ctx, "z", 0)
    assert _binomial_inverse(y - z) is None
    with pytest.raises(SingularMultiplication, match="nontrivial gcd with the defining polynomial") as info:
        (y - z).inv()
    assert info.value.counterexample == (y - z).to_json()
    b = y * y + z
    x = _binomial_inverse(b)
    assert x is not None and (b * x).is_one()
    assert_same_form(x, _euclid_inverse(b))
    assert_same_form(b.inv(), x)
    assert not by_bases
    # over Y^5 = 1 the pieces of 1 - y and 1 + y are constants, so both
    # take `_binomial_by_bases`: 1 - y has 1 - w^5 = 0 and 1 + y has 2
    ctx = TowerContext(0, ("z",), 3, {"z": 0}, [RadicalGen("t:v", 5, 1, ("tpoly", "z", (Fraction(1),)))])
    y = generator_edge(ctx, "t:v", 1)
    one = ctx.one()
    assert _binomial_inverse(one - y) is None
    with pytest.raises(SingularMultiplication, match="nontrivial gcd") as info:
        (one - y).inv()
    assert info.value.counterexample == (one - y).to_json()
    x = _binomial_inverse(one + y)
    assert_same_form(x, _euclid_inverse(one + y))
    assert x == (one - y + y * y - y * y * y + y * y * y * y) * ctx.constant(2).inv()
    assert len(by_bases) == 3
    # over Y^5 = 0 every two-term element takes the Euclid walk
    ctx = zero_poly_ctx()
    y = generator_edge(ctx, "t:v", 1)
    z = generator_vertex(ctx, "z", 0)
    one = ctx.one()
    for a in (one + y, z + y, y + y * y, z * y + y * y * y):
        assert _binomial_inverse(a) is None
    assert (one + y).inv() == one - y + y * y - y * y * y + y * y * y * y
    for a in (y + y * y, z * y + y * y * y):
        with pytest.raises(SingularMultiplication, match="nontrivial gcd") as info:
            a.inv()
        assert info.value.counterexample == a.to_json()


def test_char3_tower():
    ctx = k2_ctx(char=3)
    assert ctx.chain_prime == 5  # 3 is excluded as the characteristic
    rng = random.Random(2)
    for _ in range(5):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        assert (a * a.inv()).is_one()


def test_char2_tower():
    ctx = k2_ctx(char=2)
    assert choose_primes(2, 1) == (3, 5)
    assert ctx.chain_prime == 3 and ctx.dimension == 5
    xs0 = generator_vertex(ctx, "s", 0)
    xt0 = generator_vertex(ctx, "t", 0)
    xe0 = generator_edge(ctx, "e:s,t", 0)
    assert xe0 == xs0 + xt0 + ctx.one()
    rng = random.Random(8)
    for _ in range(5):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        assert (a * a.inv()).is_one()


def test_inverse_char5_k2_depth2_sample():
    # t + ((t + 4)/(s^2 + t^2))·Y^2; its inverse runs dozens of gcds over
    # F_5 in one and two variables, most of them coprime
    ctx = k2_ctx(char=5, vdepth=2)
    rng = random.Random(51)
    for _ in range(5):
        a = random_nonzero_element(ctx, rng, max_terms=3)
    assert (a * a.inv()).is_one()


def test_inverse_char2_k3_two_terms():
    # 1 + X0^2·Y^3 + X2·Y^5, Y the degree-7 root of edge e:b,c: its
    # inverse runs dozens of trivariate gcds over F_2 of degree up to 44
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    ctx = build_tower(greedy_star_coloring(g), char=2)
    a = random_single_level_element(ctx, random.Random(5))
    assert len(a.coeffs) == 3
    assert (a * a.inv()).is_one()


def test_single_level_sampler_skips_degree_one_generators():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    ctx = build_tower(
        greedy_star_coloring(g), char=0, vertex_depths=0,
        edge_depths={"e:a,b": 1, "e:a,c": 0, "e:b,c": 1},
    )
    flat = ctx.gens.index(next(gen for gen in ctx.gens if gen.label == "e:a,c"))
    rng = random.Random(0)
    for _ in range(40):
        a = random_single_level_element(ctx, rng)
        assert all(exps[flat] == 0 for exps in a.coeffs)
    only_flat = build_tower(greedy_star_coloring(g), char=0, vertex_depths=1, edge_depths=0)
    a = random_single_level_element(only_flat, random.Random(0))
    assert all(exps == (0, 0, 0) for exps in a.coeffs)


def test_embed_homomorphism():
    ctx = k2_ctx()
    deeper = ctx.deepen(vertex_delta=1, edge_delta=1)
    rng = random.Random(3)
    for _ in range(8):
        a = random_nonzero_element(ctx, rng, max_terms=2)
        b = random_nonzero_element(ctx, rng, max_terms=2)
        assert embed(a + b, deeper) == embed(a, deeper) + embed(b, deeper)
        assert embed(a * b, deeper) == embed(a, deeper) * embed(b, deeper)
    assert embed(ctx.one(), deeper).is_one()
    assert embed(generator_vertex(ctx, "s", 0), deeper) == generator_vertex(deeper, "s", 0)
    # distinct generators stay distinct
    assert embed(generator_vertex(ctx, "s", 0), deeper) != embed(
        generator_vertex(ctx, "t", 0), deeper
    )


def test_arithmetic_combines_one_context_only():
    ctx = k2_ctx()
    left, right = ctx.deepen(vertex_delta=1), ctx.deepen(vertex_delta=1)
    x = generator_vertex(left, "s", 1)
    y = generator_vertex(right, "s", 1)
    z = generator_vertex(ctx, "t", 0)
    for a, b in ((x, y), (x, z), (z, x)):
        for op in (lambda: a + b, lambda: a - b, lambda: a * b, lambda: a / b, lambda: a == b):
            with pytest.raises(ValueError, match="embed"):
                op()
    assert x == embed(y, left)
    assert x + embed(y, left) == x * left.constant(2)
    assert embed(z, right) * y == generator_vertex(right, "t", 0) * y


def test_embed_rejects_shrinking():
    ctx = k2_ctx()
    shallower = ctx.with_depths({"s": 0, "t": 0}, {})
    a = generator_vertex(ctx, "s", 0)
    with pytest.raises(ProfileNotLarger):
        embed(a, shallower)


def test_embed_rejects_another_family_and_a_shrinking_edge():
    ctx = k2_ctx()
    a = generator_vertex(ctx, "s", 0)
    with pytest.raises(ProfileNotLarger, match="different family"):
        embed(a, k2_ctx(char=3))
    with pytest.raises(ProfileNotLarger, match="edge depth of e:s,t shrinks"):
        embed(a, ctx.with_depths({}, {"e:s,t": 0}))


def test_field_norm_rejects_another_family_and_a_growing_depth():
    ctx = k2_ctx()
    a = generator_vertex(ctx, "s", 0)
    with pytest.raises(ProfileNotSmaller, match="different family"):
        field_norm(a, k2_ctx(char=3))
    with pytest.raises(ProfileNotSmaller, match="depth of s grows"):
        field_norm(a, ctx.deepen(vertex_delta=1))
    with pytest.raises(ProfileNotSmaller, match="depth of e:s,t grows"):
        field_norm(a, ctx.with_depths({}, {"e:s,t": 2}))


def test_algebraic_independence_bounded_search():
    # no nonzero small-coefficient polynomial of total degree <= 3
    # annihilates the bottom vertex roots
    ctx = k2_ctx()
    xs0 = generator_vertex(ctx, "s", 0)
    xt0 = generator_vertex(ctx, "t", 0)
    from itertools import product

    for coeffs in product((-1, 0, 1), repeat=9):
        if not any(coeffs):
            continue
        acc = ctx.zero()
        i = 0
        for dx in range(3):
            for dy in range(3):
                if coeffs[i]:
                    acc = acc + (xs0**dx) * (xt0**dy) * ctx.constant(coeffs[i])
                i += 1
        assert not acc.is_zero()


def test_norm_companion_example():
    # Q(z0)(z1) with z1^3 = z0: the norm of z1 down to Q(z0) is z0
    single = TowerContext(0, ("z",), 3, {"z": 1}, [])
    sub = single.with_depths({"z": 0}, {})
    z1 = generator_vertex(single, "z", 1)
    assert field_norm(z1, sub) == generator_vertex(sub, "z", 0)


def test_norm_of_base_is_power():
    ctx = k2_ctx()
    sub = ctx.with_depths({"s": 1, "t": 1}, {"e:s,t": 0})
    c = ctx.constant(7)
    assert field_norm(c, sub) == sub.constant(7**5)


def test_norm_multiplicative():
    ctx = k2_ctx()
    sub = ctx.with_depths({"s": 1, "t": 1}, {"e:s,t": 0})
    rng = random.Random(4)
    for _ in range(4):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        b = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        assert field_norm(a * b, sub) == field_norm(a, sub) * field_norm(b, sub)


def test_norm_of_zero_and_of_zero_divisor():
    ctx = k2_ctx()
    assert field_norm(ctx.zero(), ctx.with_depths({"s": 0, "t": 0}, {"e:s,t": 0})).is_zero()
    # Res_T(T^5 - z^5, T - z) = 0: the remainder sequence ends at a zero
    # remainder of positive degree, and the norm is zero, not an error
    ctx = y5_z5_ctx()
    y = generator_edge(ctx, "t:v", 1)
    z = generator_vertex(ctx, "z", 0)
    assert field_norm(y - z, ctx.with_depths({}, {"t:v": 0})).is_zero()


def test_norm_p3_properties():
    ctx = p3_ctx()
    sub = ctx.with_depths({}, {g.label: 0 for g in ctx.gens})
    # a root witness: N(w)^5 = N(w^5)
    w = ctx.one() + generator_edge(ctx, "e:a,b", 1)
    assert field_norm(w, sub) ** 5 == field_norm(w**5, sub)
    rng = random.Random(7)
    for _ in range(3):
        a = random_single_level_element(ctx, rng)
        assert field_norm(a.inv(), sub) == field_norm(a, sub).inv()
    # down to the base, N(1 + X_a) = (1 + X_a^3)^(3 * 3 * 5 * 5): the
    # step for a gives 1 + X_a^3, every other step a power
    base = ctx.with_depths({v: 0 for v in ctx.var_names}, {g.label: 0 for g in ctx.gens})
    x = ctx.one() + generator_vertex(ctx, "a", 1)
    assert field_norm(x, base) == (base.one() + generator_vertex(base, "a", 0)) ** 225


def test_radical_extension():
    spec = RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0}, polys={"v": (1, 1)})
    ctx = radical_extend(spec, char=0, z_depth=1, depths=1)
    assert ctx.dimension == 5
    t1 = generator_edge(ctx, "t:v", 1)
    z0 = generator_vertex(ctx, "z", 0)
    assert t1**5 == z0 + ctx.one()
    rng = random.Random(5)
    for _ in range(5):
        a = random_nonzero_element(ctx, rng, max_terms=2)
        assert (a * a.inv()).is_one()


def test_radical_spec_rejects_a_denominator_the_characteristic_divides():
    assert CoeffField(0).of_fraction(Fraction(1, 2)) == Fraction(1, 2)
    assert CoeffField(3).of_fraction(Fraction(1, 2)) == 2
    ctx = radical_extend(
        RadicalSpec(p=2, branch_primes=(5,), partition={"v": 0}, polys={"v": (1, Fraction(1, 2))}),
        char=3,
    )
    assert ctx.gen_poly(0) == Poly(ctx.field, 1, {(0,): 1, (2,): 2})  # 1 + z/2 with z = X^2
    for char, p, q in ((3, 2, 5), (5, 3, 2)):
        for c in (Fraction(1, char), Fraction(2, char)):
            spec = RadicalSpec(p=p, branch_primes=(q,), partition={"v": 0}, polys={"v": (1, c)})
            with pytest.raises(SpecInvalid, match="denominator"):
                radical_extend(spec, char=char)


def test_radical_spec_validation():
    with pytest.raises(SpecInvalid):
        radical_extend(RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0}, polys={"v": (5,)}))
    with pytest.raises(SpecInvalid):
        radical_extend(RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0}, polys={"v": (0, 1)}))
    with pytest.raises(SpecInvalid):
        # (X+1)^2 is not separable
        radical_extend(RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0}, polys={"v": (1, 2, 1)}))
    with pytest.raises(SpecInvalid):
        radical_extend(
            RadicalSpec(
                p=3,
                branch_primes=(5, 7),
                partition={"v": 0, "w": 1},
                polys={"v": (1, 1), "w": (2, 3, 1)},
            )
        )
    with pytest.raises(SpecInvalid):
        radical_extend(RadicalSpec(p=4, branch_primes=(5,), partition={"v": 0}, polys={"v": (1, 1)}))
    with pytest.raises(SpecInvalid):
        # a product of two primes near 2^31 and 2^40: rejected without trial division
        radical_extend(
            RadicalSpec(p=(2**31 - 1) * (2**40 - 87), branch_primes=(5,), partition={"v": 0}, polys={"v": (1, 1)})
        )


def test_radical_extension_matches_single_vertex_step():
    # T_v(X) = X + c + 1 reproduces the per-vertex extension step of the
    # graph tower: same defining polynomial family, same arithmetic
    spec = RadicalSpec(p=3, branch_primes=(5,), partition={"v": 0}, polys={"v": (2, 1)})
    ctx = radical_extend(spec, char=0, z_depth=1, depths=1)
    A = ctx.gen_poly(0)
    F = ctx.field
    assert A == Poly.var(F, 1, 0, 3) + Poly.const(F, 1, F.of_int(2))


def test_primality_smoke():
    ctx = k2_ctx()
    rep = primality_smoke(ctx, trials=30, seed=0)
    assert rep["pass"] and rep["failures"] == []
    flat = k2_ctx(edepth=0)  # polynomial ring over a field
    rep2 = primality_smoke(flat, trials=20, seed=1)
    assert rep2["pass"]


def test_structured_monomial_sampler_shape():
    ctx = k2_ctx()
    rng = random.Random(6)
    from graphfield.roots import classify_p_high

    for _ in range(20):
        m = random_structured_monomial(ctx, rng, p=3)
        if m.is_base() and m.base_value().is_constant():
            continue
        form, why = classify_p_high(m, 3)
        assert form is not None, why


def test_serialization_roundtrip_shape():
    ctx = k2_ctx()
    rng = random.Random(7)
    a = random_nonzero_element(ctx, rng)
    doc = a.to_json()
    assert doc["gens"] == ["e:s,t"]
    assert doc["vars"] == ["s", "t"]
    assert all(set(t) == {"exps", "num", "den"} for t in doc["terms"])


def test_edge_label_helper():
    assert edge_label(frozenset(("t", "s"))) == "e:s,t"
