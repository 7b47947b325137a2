"""Tower arithmetic: construction, canonical forms, inversion, embedding,
norms, and the generic radical extension."""
import random
from fractions import Fraction

import pytest

from graphfield.errors import (
    DepthExceeded,
    InvalidInput,
    ProfileNotLarger,
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
from graphfield.graphs import ColoredGraph, Graph, greedy_star_coloring
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


def test_build_tower_cap():
    g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    with pytest.raises(TooLarge):
        build_tower(greedy_star_coloring(g), char=0, edge_depths=3, cap=2000)


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
    single = TowerContext(0, ("z",), 3, {"z": 1}, [], cap=10)
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
