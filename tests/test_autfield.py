"""Graph symmetries acting on the tower: sigma, supports, the codec."""
import random
from collections import Counter
from itertools import combinations, groupby, permutations
from math import factorial, prod

import pytest

from graphfield.autfield import (
    FieldAut,
    apply,
    encode_element,
    minimal_support,
    sigma,
    verify_edge_image,
    verify_injectivity_sigma,
)
from graphfield.errors import ColorViolation
from graphfield.fieldtower import (
    TowerElement,
    build_tower,
    edge_label,
    generator_edge,
    generator_vertex,
    random_nonzero_element,
)
from graphfield.graphs import Graph, GraphAut, graph_auts, greedy_star_coloring, transform


def k2_plus_ctx():
    cg = transform(Graph(["s", "t"], [("s", "t")]))
    att = {e for e in cg.edges if any(v.startswith("1:") for v in e)}
    depths = {edge_label(e): (1 if e in att else 0) for e in cg.edges}
    return cg, build_tower(cg, char=0, vertex_depths=1, edge_depths=depths, cap=3000)


def k3_plus_ctx():
    cg = transform(Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]))
    # depth on the z-a inner edges: one per gadget copy, an Aut-closed orbit
    depths = {}
    for e in cg.edges:
        a, b = sorted(e)
        inner = a.startswith("2:") and b.startswith("2:")
        za = inner and {a.rsplit(":", 1)[1], b.rsplit(":", 1)[1]} == {"z", "a"}
        depths[edge_label(e)] = 1 if za else 0
    return cg, build_tower(cg, char=0, vertex_depths=1, edge_depths=depths, cap=3000)


def test_sigma_identity_and_swap():
    cg, ctx = k2_plus_ctx()
    auts = graph_auts(cg)
    ident = next(p for p in auts if p.is_identity())
    assert sigma(ident, ctx).is_identity()
    swap = next(p for p in auts if not p.is_identity())
    al = sigma(swap, ctx)
    xs0 = generator_vertex(ctx, "1:s", 0)
    xt0 = generator_vertex(ctx, "1:t", 0)
    assert apply(al, xs0) == xt0


def test_sigma_is_group_homomorphism():
    cg, ctx = k2_plus_ctx()
    auts = graph_auts(cg)
    for a in auts:
        for b in auts:
            lhs = sigma(a.compose(b), ctx)
            rhs = sigma(a, ctx).compose(sigma(b, ctx))
            assert lhs.vertex_map == rhs.vertex_map


def test_sigma_injectivity_reports():
    for maker, order in ((k2_plus_ctx, 2), (k3_plus_ctx, 6)):
        cg, ctx = maker()
        rep = verify_injectivity_sigma(ctx)
        assert rep["pass"] and rep["aut_count"] == order


def test_sigma_rejects_color_breaking_maps():
    cg, ctx = k2_plus_ctx()
    ks = sorted(cg.vertices)
    vm = {v: v for v in cg.vertices}
    inner = [v for v in ks if v.startswith("2:")]
    vm[inner[0]], vm[inner[1]] = vm[inner[1]], vm[inner[0]]
    with pytest.raises((ColorViolation, ValueError)):
        FieldAut(ctx, vm)


def test_sigma_relation_substitution():
    cg, ctx = k2_plus_ctx()
    swap = next(p for p in graph_auts(cg) if not p.is_identity())
    al = sigma(swap, ctx)
    # the image of every defining relation is the image edge's relation
    for e in cg.edges:
        xe0 = generator_edge(ctx, edge_label(e), 0)
        img = apply(al, xe0)
        assert img == generator_edge(ctx, edge_label(swap.apply_edge(e)), 0)


def test_apply_fixes_prime_field_and_commutes_with_embed():
    cg, ctx = k2_plus_ctx()
    swap = next(p for p in graph_auts(cg) if not p.is_identity())
    al = sigma(swap, ctx)
    assert apply(al, ctx.constant(7)) == ctx.constant(7)
    from graphfield.fieldtower import embed
    deeper = ctx.deepen(vertex_delta=1)
    al_deep = sigma(swap, deeper)
    rng = random.Random(9)
    for _ in range(5):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        assert embed(apply(al, a), deeper) == apply(al_deep, embed(a, deeper))


def test_apply_refuses_another_towers_element():
    from graphfield.fieldtower import embed
    cg, ctx = k2_plus_ctx()
    swap = next(p for p in graph_auts(cg) if not p.is_identity())
    al = sigma(swap, ctx)
    other = ctx.deepen(vertex_delta=1)
    # X_{1:s,2} of the deeper tower is a cube root of X_{1:s,1}; read in
    # ctx it would be taken for X_{1:s,1} itself
    with pytest.raises(ValueError):
        apply(al, generator_vertex(other, "1:s", 2))
    x = generator_vertex(ctx, "1:s", 1)
    with pytest.raises(ValueError):
        apply(al, embed(x, other))
    assert apply(sigma(swap, other), embed(x, other)) == embed(apply(al, x), other)


def test_apply_ring_homomorphism_random():
    cg, ctx = k2_plus_ctx()
    swap = next(p for p in graph_auts(cg) if not p.is_identity())
    al = sigma(swap, ctx)
    rng = random.Random(0)
    for _ in range(10):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        b = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        assert apply(al, a * b) == apply(al, a) * apply(al, b)
        assert apply(al, a + b) == apply(al, a) + apply(al, b)
    assert apply(al, ctx.one()).is_one()


def test_edge_image_property():
    for maker in (k2_plus_ctx, k3_plus_ctx):
        cg, ctx = maker()
        for phi in graph_auts(cg):
            rep = verify_edge_image(sigma(phi, ctx))
            assert rep["pass"], rep


def test_edge_image_is_linear(monkeypatch):
    """Each vertex generator's image is found by one lookup, not a scan."""
    cg, ctx = k3_plus_ctx()
    alphas = [sigma(phi, ctx) for phi in graph_auts(cg)]
    calls = 0
    eq = TowerElement.__eq__

    def counting_eq(self, other):
        nonlocal calls
        calls += 1
        return eq(self, other)

    monkeypatch.setattr(TowerElement, "__eq__", counting_eq)
    for alpha in alphas:
        calls = 0
        assert verify_edge_image(alpha)["pass"]
        assert calls <= 2 * len(cg.edges)


def test_minimal_support():
    cg, ctx = k2_plus_ctx()
    xs0 = generator_vertex(ctx, "1:s", 0)
    assert minimal_support(xs0) == {"1:s"}
    att_edges = [e for e in cg.edges if any(v.startswith("1:") for v in e)]
    e = sorted(att_edges, key=lambda e: sorted(e))[0]
    xe0 = generator_edge(ctx, edge_label(e), 0)
    assert minimal_support(xe0) == set(e)
    s, t = sorted(e)
    diff = xe0 - generator_vertex(ctx, s, 0) - ctx.one()
    assert minimal_support(diff) == {t}
    assert diff == generator_vertex(ctx, t, 0)
    assert minimal_support(ctx.zero()) == set()


def test_minimal_support_submultiplicative():
    cg, ctx = k2_plus_ctx()
    rng = random.Random(1)
    for _ in range(10):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        b = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        prod = a * b
        if prod.is_zero():
            continue
        assert minimal_support(prod) <= minimal_support(a) | minimal_support(b)


def test_codec_injective_on_random_pairs():
    cg, ctx = k2_plus_ctx()
    rng = random.Random(2)
    seen = {}
    for _ in range(400):
        a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
        key = encode_element(a).sequences
        if key in seen:
            assert seen[key] == a
        seen[key] = a


def test_codec_equivariance():
    for maker in (k2_plus_ctx, k3_plus_ctx):
        cg, ctx = maker()
        rng = random.Random(3)
        for phi in graph_auts(cg):
            al = sigma(phi, ctx)
            for _ in range(10):
                a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
                assert encode_element(apply(al, a)) == encode_element(a).relabel(phi.mapping)


def test_codec_shape():
    cg, ctx = k2_plus_ctx()
    xs0 = generator_vertex(ctx, "1:s", 0)
    code = encode_element(xs0)
    # the numerator atom X_{1:s}^3: three copies of 1:s, then runs from
    # each neighbour; the denominator 1: four copies per directed edge
    num = [seq for seq in code.sequences if seq[2] != seq[3]]
    neighbours = cg.graph.neighbors("1:s")
    for seq in num:
        assert seq[:3] == ("1:s",) * 3 and seq[3] in neighbours
    assert {seq[3] for seq in num} == neighbours and len(num) == len(neighbours)
    den = code.sequences.difference(num)
    assert all(seq[:4] == (seq[0],) * 4 for seq in den) and len(den) == 2 * len(cg.edges)
    assert {(seq[0], seq[4]) for seq in den} == {
        (v, u) for v in cg.vertices for u in cg.graph.neighbors(v)
    }
    assert encode_element(ctx.zero()).sequences == frozenset()
    assert encode_element(ctx.constant(5)) != encode_element(ctx.constant(7))
    assert code.to_json() == sorted(list(s) for s in code.sequences)


def test_codec_sequences_are_short_for_small_data():
    """A one-vertex atom's data is carried by runs, never by a repetition
    count exponential in its bits."""
    cg, ctx = k2_plus_ctx()
    a = generator_vertex(ctx, "1:s", 1) ** 9 * ctx.constant(-7) / ctx.constant(5)
    code = encode_element(a)
    assert code.sequences and all(len(seq) < 100 for seq in code.sequences)


def test_codec_refuses_a_vertex_without_neighbours():
    """An isolated vertex carries no sequence, so its atoms would vanish:
    (-70/51)·X_c^9 and (-90/51)·X_c^9 would get one code."""
    ctx = build_tower(greedy_star_coloring(Graph(["a", "b", "c"], [("a", "b")])))
    xc = generator_vertex(ctx, "c", ctx.vertex_depths["c"]) ** 9
    for n in (-70, -90):
        with pytest.raises(ValueError):
            encode_element(xc * ctx.constant(n) / ctx.constant(51))


def _all_orderings_code(a) -> frozenset:
    """The codec that emits every atom of two or more vertices once per
    ordering of them, written out bit by bit (char 0)."""
    ctx = a.ctx
    cg = ctx.colored_graph
    neighbors = {v: sorted(cg.graph.neighbors(v)) for v in cg.vertices}
    ends = [frozenset(g.recipe[1:]) for g in ctx.gens]

    def stream(values):
        bits = []
        for z in values:
            body = [int(b) for b in bin(z + 1)[2:]]
            bits += [0] * (len(body) - 1) + body
        return bits

    def runs(first, second, bits):
        seq = []
        for i, b in enumerate(bits):
            seq += [(first, second)[i % 2]] * (b + 1)
        return tuple(seq)

    out = set()
    for exps, c in a.coeffs.items():
        for role, poly in ((0, c.num), (1, c.den)):
            for mono, q in poly.terms().items():
                verts = {ctx.var_names[i] for i, k in enumerate(mono) if k}
                for i, k in enumerate(exps):
                    if k:
                        verts |= ends[i]
                n = q.numerator
                head = [role, 2 * n if n >= 0 else -2 * n - 1, q.denominator]
                if not verts:
                    bits = stream(head)
                    for v in cg.vertices:
                        for u in neighbors[v]:
                            out.add((v,) * 4 + runs(u, v, bits))
                elif len(verts) == 1:
                    (v,) = verts
                    bits = stream(head + [mono[ctx.var_index[v]]])
                    for u in neighbors[v]:
                        out.add((v,) * 3 + runs(u, v, bits))
                else:
                    pair_exp = {ends[i]: k for i, k in enumerate(exps) if k and ends[i] <= verts}
                    for order in permutations(sorted(verts)):
                        tail = [mono[ctx.var_index[v]] for v in order]
                        tail += [pair_exp.get(frozenset(p), 0) for p in combinations(order, 2)]
                        out.add(order + runs(order[0], order[1], stream(head + tail)))
    return frozenset(out)


def _decode_ordered(seq) -> tuple:
    """(order, head, {vertex: exponent}, {pair: generator exponent})
    carried by a sequence of an atom of two or more vertices, where head
    is (side, coefficient numerator, coefficient denominator)."""
    k = seq.index(seq[0], 1)
    order = seq[:k]
    bits = "".join("01"[len(list(run)) - 1] for _, run in groupby(seq[k:]))
    values, i = [], 0
    while i < len(bits):
        zeros = bits.index("1", i) - i
        values.append(int(bits[i + zeros : i + 2 * zeros + 1], 2) - 1)
        i += 2 * zeros + 1
    vexp = dict(zip(order, values[3 : 3 + k]))
    pair_exp = dict(zip(map(frozenset, combinations(order, 2)), values[3 + k :]))
    return order, tuple(values[:3]), vexp, pair_exp


def _refined_colours(vexp: frozenset, pair_exp: frozenset) -> dict:
    """The refined colour of each vertex of an atom.

    A colour starts as the vertex's own exponent.  Each round makes it the
    pair (its colour, the sorted (colour, pair exponent) of every other
    vertex of the atom), until the number of colours stops growing."""
    colour = dict(vexp)
    pair = dict(pair_exp)
    while True:
        new = {
            v: (
                colour[v],
                tuple(sorted((colour[u], pair[frozenset((u, v))]) for u in colour if u != v)),
            )
            for v in colour
        }
        if len(set(new.values())) == len(set(colour.values())):
            return colour
        colour = new


def _atom_orderings(sequences) -> dict:
    """{(head, vertex exponents, pair exponents): [order, ...]} over the
    sequences of atoms with two or more vertices."""
    atoms = {}
    for seq in sequences:
        if seq[0] != seq[1]:
            order, head, vexp, pair_exp = _decode_ordered(seq)
            key = (head, frozenset(vexp.items()), frozenset(pair_exp.items()))
            atoms.setdefault(key, []).append(order)
    return atoms


def _check_against_reference(code: frozenset, full: frozenset):
    """The codec against the all-orderings code: the same sequences for
    atoms of at most one vertex, the same atoms otherwise, and for each
    atom of two or more vertices the orderings that list the classes of
    the reference refinement as contiguous blocks, in one block order
    shared by all of them, with every order inside the blocks."""
    assert code <= full
    assert {s for s in code if s[0] == s[1]} == {s for s in full if s[0] == s[1]}
    atoms = _atom_orderings(code)
    assert atoms.keys() == _atom_orderings(full).keys()
    for (_, vexp, pair_exp), orders in atoms.items():
        colour = _refined_colours(vexp, pair_exp)
        block_orders = set()
        for order in orders:
            blocks = tuple(c for c, _ in groupby(colour[v] for v in order))
            assert len(set(blocks)) == len(blocks)
            block_orders.add(blocks)
        assert len(block_orders) == 1
        sizes = Counter(colour.values()).values()
        assert len(orders) == prod(map(factorial, sizes))


def test_codec_matches_bitwise_reference():
    for maker in (k2_plus_ctx, k3_plus_ctx):
        cg, ctx = maker()
        v = sorted(ctx.var_names)[0]
        big = ctx.constant(-(10**9))
        samples = [ctx.constant(5), big, generator_vertex(ctx, v, 0) * big]
        rng = random.Random(4)
        for i in range(6):
            samples.append(
                random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=(i % 2 == 0))
            )
        for a in samples:
            _check_against_reference(encode_element(a).sequences, _all_orderings_code(a))


def test_codec_tie_handling():
    """Tied vertices are emitted in every order; vertices that refinement
    tells apart are emitted in one."""
    cg, ctx = k2_plus_ctx()
    x = {v: generator_vertex(ctx, v, 1) for v in ctx.var_names}
    tied = ["1:s", "1:t", "2:s|t:a", "2:s|t:b"]
    same = x[tied[0]] * x[tied[1]] * x[tied[2]] * x[tied[3]]
    # 1:s and 1:t share their exponent, and only 1:s meets the generator
    edge = "e:1:s,2:s|t:z"
    split = x["1:t"] * x["1:s"] * generator_edge(ctx, edge, 1)
    for a, verts, count in (
        (same, set(tied), 24),
        (split, {"1:s", "1:t", "2:s|t:z"}, 1),
    ):
        code = encode_element(a)
        assert len([seq for seq in code.sequences if set(seq) == verts]) == count
        for phi in graph_auts(cg):
            assert encode_element(apply(sigma(phi, ctx), a)) == code.relabel(phi.mapping)
