"""The symmetry workload: the graph side of the chain.

A block transforms every connected graph on at most 6 vertices and
computes the automorphism group of the result, encodes elements of the
criterion-6 towers together with their images under every automorphism,
and computes Aut(PSL(2, q)) for small q.  The seed draws the
coefficients of the tower elements.  Graphs and groups keep their
labels: relabelling them at random moved the cost of the automorphism
searches by up to 40% (PSL(2, 7)) and made runs on different seeds
disagree by more than any bound worth having.
"""
from __future__ import annotations

import itertools
import random

from common import Op, element_shape, realize

CODEC_BASES = {
    "K2": (["s", "t"], [("s", "t")]),
    "K3": (["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
}
CODEC_ELEMENTS = {"K2": 16, "K3": 6}  # per block
PSL_QS = (3, 4, 5, 7)  # Aut(PSL(2, 8)) alone takes about 11 s


class SymmetryWorkload:
    block_seconds = 4.4

    def setup_calls(self, gf) -> tuple[list, dict]:
        corpus = [g for n in range(1, 7) for g in gf.graphs.connected_graphs_up_to_iso(n)]
        groups = {q: gf.groups.psl2(q) for q in PSL_QS}
        return corpus, groups

    def build(self, gf, seed: str, blocks: int) -> tuple[list[Op], list[Op]]:
        corpus, groups = self.setup_calls(gf)
        codec = {name: codec_context(gf, *graph) for name, graph in CODEC_BASES.items()}
        shapes = {name: [element_shape(ctx, random.Random(f"codec-shapes:{name}:{i}"))
                         for i in range(CODEC_ELEMENTS[name])]
                  for name, (ctx, _) in codec.items()}
        aut_counts = {}
        seen_codes = {}
        rng = random.Random(seed)
        ops = [op for _ in range(blocks)
               for op in self._block(gf, corpus, groups, codec, shapes, aut_counts, seen_codes, rng)]
        warm_shapes = {name: s[:2] for name, s in shapes.items()}
        warm = self._block(gf, corpus[:31], {3: groups[3]}, codec, warm_shapes, {}, {},
                           random.Random("warm-up:" + seed))
        return ops, warm

    def _block(self, gf, corpus, groups, codec, shapes, aut_counts, seen_codes, rng) -> list[Op]:
        ops = [corpus_op(gf, g, aut_counts) for g in corpus]
        for name, (ctx, auts) in codec.items():
            for shape in shapes[name]:
                ops.append(codec_op(gf, ctx, auts, realize(gf, ctx, shape, rng), seen_codes))
        for q, G in groups.items():
            ops.append(aut_group_op(gf, q, G))
        rng.shuffle(ops)
        return ops


def codec_context(gf, vertices, edges):
    """The criterion-6 tower over transform(base): vertex depth 1; edge
    depth 1 on the attachment edges of a one-edge base, else on the z-a
    edge of every gadget copy; with every non-identity automorphism."""
    base = gf.Graph(vertices, edges)
    cg = gf.transform(base)
    depths = {}
    for e in cg.edges:
        a, b = sorted(e)
        if len(base.vertices) == 2:
            depths[gf.edge_label(e)] = int(a.startswith("1:") or b.startswith("1:"))
        else:
            inner = a.startswith("2:") and b.startswith("2:")
            za = inner and {a.rsplit(":", 1)[1], b.rsplit(":", 1)[1]} == {"z", "a"}
            depths[gf.edge_label(e)] = int(za)
    ctx = gf.build_tower(cg, char=0, vertex_depths=1, edge_depths=depths, cap=3000)
    auts = [(phi, gf.autfield.sigma(phi, ctx)) for phi in gf.graph_auts(cg) if not phi.is_identity()]
    return ctx, auts


def brute_force_aut_count(g) -> int:
    """|Aut(g)| by trying every permutation of the vertices."""
    vs = sorted(g.vertices)
    index = {v: i for i, v in enumerate(vs)}
    edges = [tuple(index[v] for v in e) for e in g.edges]
    edge_set = {frozenset(e) for e in edges}
    return sum(
        all(frozenset((perm[a], perm[b])) in edge_set for a, b in edges)
        for perm in itertools.permutations(range(len(vs)))
    )


# -- operations ------------------------------------------------------------


def corpus_op(gf, g, aut_counts) -> Op:
    def run():
        return gf.graphs.aut_graph(gf.graphs.transform(g), max_vertices=128)

    def check(group) -> bool:
        if id(g) not in aut_counts:
            aut_counts[id(g)] = brute_force_aut_count(g)
        return group.order == aut_counts[id(g)]

    return Op("transform_aut_graph", run, check)


def codec_op(gf, ctx, auts, x, seen_codes) -> Op:
    def run():
        encode, apply = gf.autfield.encode_element, gf.autfield.apply
        return [encode(x)] + [encode(apply(alpha, x)) for _, alpha in auts]

    def check(codes) -> bool:
        code = codes[0]
        if any(img != code.relabel(phi.mapping) for (phi, _), img in zip(auts, codes[1:])):
            return False
        other = seen_codes.setdefault((id(ctx), code), x)
        return other is x or other == x

    return Op("codec", run, check)


def aut_group_op(gf, q: int, G) -> Op:
    f = next(f for p in range(2, q + 1) for f in range(1, 8) if p**f == q)
    expected = f * q * (q * q - 1)  # |PGammaL(2, q)|

    def run():
        return gf.groups.aut_group(G)

    def check(aut) -> bool:
        return aut.group.order == expected

    return Op("aut_group", run, check)
