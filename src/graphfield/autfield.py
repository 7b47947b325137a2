"""From graph symmetries to field symmetries: the substitution
homomorphism out of Aut(Gamma), its verification, minimal supports, and
an order-free injective element encoding.

The encoding maps a tower element to a finite set of finite vertex
sequences.  No global vertex order is ever consulted: the participating
vertices of every atom of the canonical form are ordered by the graph
side's colour refinement (`graphs._refined`) on the atom's own
exponents, and the atom is emitted once per ordering of the ties that
remain; an atom of at most one vertex is emitted once per directed edge
leaving its carrier vertices.  All numeric data is packed positionally
into the repetitions of the trailing runs, so a sequence grows linearly
with its atom's data bits.  The orderings depend only on data that
relabelling leaves unchanged, so the set is canonical and relabelling
vertices permutes it elementwise.  The graph must have no vertex without
a neighbour.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

from .errors import ColorViolation
from .fieldtower import TowerContext, TowerElement, edge_label, generator_vertex
from .graphs import GraphAut, _cells, _refined, graph_auts


class FieldAut:
    """The substitution X_s -> X_phi(s), Y_e -> Y_phi(e) induced by a
    color-preserving graph automorphism with matching root depths.

    The checks make phi a coloured-graph automorphism with d_phi(v) =
    d_v, and give e and phi(e) one prime and one depth.  What is left of
    "Y_e^N = A_e goes to phi(e)'s relation" is A_e(X_phi) = A_phi(e), a
    check of recipes: A_e = X_s^(p0^d_s) + X_t^(p0^d_t) + 1 is fixed by
    its recipe ("edge", s, t), d_s, d_t and p0, so with invariant depths
    A_e(X_phi) is the polynomial of ("edge", *sorted((phi(s), phi(t)))).
    With u != v, X_u^a + X_v^b + 1 names its endpoints, which an edge
    recipe lists sorted (`build_tower`), so A_phi(e) is that polynomial
    exactly when phi(e) has that recipe.
    """

    def __init__(self, ctx: TowerContext, vertex_map: dict):
        if ctx.colored_graph is None:
            raise ValueError("field automorphisms need a graph-built tower")
        cg = ctx.colored_graph
        aut = GraphAut(vertex_map)
        if set(vertex_map.keys()) != set(cg.vertices):
            raise ValueError("vertex map must be a bijection of the graph vertices")
        for e in cg.edges:
            img = aut.apply_edge(e)
            if img not in cg.edges:
                raise ValueError("vertex map is not a graph automorphism")
            if cg.colors[img] != cg.colors[e]:
                raise ColorViolation(f"edge {sorted(e)} changes color under the map")
        if any(ctx.vertex_depths[v] != ctx.vertex_depths[w] for v, w in vertex_map.items()):
            raise ValueError("vertex depths are not invariant under the map")
        self.ctx = ctx
        self.vertex_map = dict(vertex_map)
        self.var_perm = [ctx.var_index[vertex_map[v]] for v in ctx.var_names]
        self.gen_perm = []
        for g in ctx.gens:
            _, s, t = g.recipe
            img = sorted((vertex_map[s], vertex_map[t]))
            j = ctx.gen_index[edge_label(img)]
            h = ctx.gens[j]
            if h.depth != g.depth or h.prime != g.prime:
                raise ValueError("edge depths are not invariant under the map")
            if h.recipe != ("edge", *img):
                raise ValueError("substitution breaks a defining relation")
            self.gen_perm.append(j)

    def compose(self, other: "FieldAut") -> "FieldAut":
        return FieldAut(self.ctx, {v: self.vertex_map[w] for v, w in other.vertex_map.items()})

    def is_identity(self) -> bool:
        return all(v == w for v, w in self.vertex_map.items())

    def __repr__(self):
        moved = {v: w for v, w in self.vertex_map.items() if v != w}
        return f"FieldAut({moved or 'id'})"


def sigma(phi: GraphAut, ctx: TowerContext) -> FieldAut:
    """The field automorphism induced by a colored-graph automorphism."""
    return FieldAut(ctx, phi.mapping)


def apply(alpha: FieldAut, a: TowerElement) -> TowerElement:
    """Apply the substitution and re-canonicalize (a ring homomorphism).
    `a` must lie in alpha's own tower: `ValueError` otherwise."""
    ctx = alpha.ctx
    if a.ctx is not ctx:
        raise ValueError("element of another tower context: embed it into alpha's tower first")
    out = {}
    for exps, c in a.coeffs.items():
        new_exps = [0] * len(exps)
        for i, k in enumerate(exps):
            new_exps[alpha.gen_perm[i]] = k
        out[tuple(new_exps)] = c.permute_vars(alpha.var_perm)
    return TowerElement(ctx, out)


def verify_edge_image(alpha: FieldAut) -> dict:
    """Every edge's bottom generators must map to the bottom generators of
    an edge of the same color, in alpha's own tower.  alpha is applied
    once per vertex generator, and each image is found by one dict
    lookup."""
    ctx = alpha.ctx
    cg = ctx.colored_graph
    vertex_gens = {v: generator_vertex(ctx, v, 0) for v in ctx.var_names}
    by_gen = {g: v for v, g in vertex_gens.items()}
    image = {v: by_gen.get(apply(alpha, g)) for v, g in vertex_gens.items()}
    failures = []
    for e in sorted(cg.edges, key=lambda e: sorted(e)):
        s, t = sorted(e)
        img_s, img_t = image[s], image[t]
        if img_s is None or img_t is None:
            failures.append({"edge": [s, t], "reason": "image is not a vertex generator"})
            continue
        img_edge = frozenset((img_s, img_t))
        if img_edge not in cg.edges:
            failures.append({"edge": [s, t], "reason": "image pair is not an edge"})
        elif cg.colors[img_edge] != cg.colors[e]:
            failures.append({"edge": [s, t], "reason": "image edge has a different color"})
    return {"checked": len(cg.edges), "failures": failures, "pass": not failures}


def verify_injectivity_sigma(ctx: TowerContext) -> dict:
    """sigma is injective: distinct graph automorphisms give distinct
    substitutions, witnessed on the bottom vertex generators."""
    auts = graph_auts(ctx.colored_graph)
    vertex_gens = [generator_vertex(ctx, v, 0) for v in ctx.var_names]
    images = []
    for phi in auts:
        alpha = sigma(phi, ctx)
        images.append(tuple(apply(alpha, g) for g in vertex_gens))
    distinct = len(set(images))
    return {
        "aut_count": len(auts),
        "distinct_images": distinct,
        "pass": distinct == len(auts),
    }


def minimal_support(a: TowerElement) -> set:
    """The least vertex set Y with a in the subtower over Y, read off the
    canonical form."""
    if a.is_zero():
        return set()
    ctx = a.ctx
    return {ctx.var_names[i] for i in a.support_vars()}


# ---------------------------------------------------------------------------
# The order-free codec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Code:
    """A finite set of finite vertex-label sequences."""

    sequences: frozenset

    def to_json(self) -> list:
        return sorted(list(s) for s in self.sequences)

    def relabel(self, mapping: dict) -> "Code":
        return Code(frozenset(tuple(mapping[v] for v in seq) for seq in self.sequences))


def _zigzag(n: int) -> int:
    return 2 * n if n >= 0 else -2 * n - 1


def _gamma_bits(z: int) -> str:
    """Elias-gamma bits of z >= 0 (self-delimiting), as a 0/1 string."""
    body = bin(z + 1)[2:]
    return "0" * (len(body) - 1) + body


def _stream_bits(values) -> str:
    return "".join([_gamma_bits(z) for z in values])


@lru_cache(maxsize=1 << 16)
def _run_pattern(bits: str) -> itemgetter:
    """The run layout of a bit stream: bit i becomes bit+1 copies of slot
    i mod 2.  Every gamma code holds a 1, so a nonempty stream has at
    least two slots and the getter always returns a tuple."""
    slots = []
    for i, b in enumerate(bits):
        slots.append(i & 1)
        if b == "1":
            slots.append(i & 1)
    return itemgetter(*slots)


def _bit_runs(first: str, second: str, bits: str) -> tuple:
    """Carry a bit stream as runs of length bit+1 alternating labels."""
    return _run_pattern(bits)((first, second))


def encode_element(a: TowerElement) -> Code:
    """The injective, automorphism-equivariant code of an element.

    Atoms are the (generator exponents, numerator/denominator side,
    monomial, coefficient) quadruples of the canonical form.  Each atom
    is emitted once per local choice -- an invariant ordering of its own
    vertices, or a directed edge (v, u) when only one vertex (or none)
    participates -- so the resulting set never consults a global vertex
    order:

      two or more vertices: <pi_0, ..., pi_j> then the data bits carried
        by runs alternating pi_0 / pi_1 (the repeated pi_0 marks where
        the distinct-label prefix ends), for every ordering that lists
        the cells in order and permutes the vertices within each cell.
        The cells are `graphs._refined` on the atom as a graph: its
        vertices keyed by their variable exponents, an edge coloured by
        each nonzero pair generator exponent.  They read only
        exponents and counts, never a vertex name;
      at most one vertex: 4 - |verts| copies of a carrier v, then the
        data bits carried by runs alternating u / v, for every neighbour
        u of v; the carrier is the atom's vertex, or every graph vertex
        for a prime-field constant.  So a one-vertex sequence starts with
        exactly three copies of v, a constant's with exactly four, and a
        sequence of two or more vertices with two distinct labels.

    Data bits are Elias-gamma streams of the side, the coefficient, the
    participating variable exponents in prefix order, and the generator
    exponents per position pair.  A vertex without a neighbour would
    carry no sequence, so the graph must have none: `ValueError`
    otherwise.
    """
    ctx = a.ctx
    cg = ctx.colored_graph
    if cg is None:
        raise ValueError("the codec is defined for graph-built towers")
    if not cg.edges or not all(map(cg.graph.degree, cg.vertices)):
        raise ValueError("the codec needs a graph with edges and no vertex without a neighbour")
    gen_endpoints = [frozenset(g.recipe[1:]) for g in ctx.gens]
    sequences = set()
    for exps, c in a.coeffs.items():
        for role, poly in ((0, c.num), (1, c.den)):
            for mono, q in poly.terms().items():
                verts = {ctx.var_names[i] for i, k in enumerate(mono) if k}
                for i, k in enumerate(exps):
                    if k:
                        verts |= gen_endpoints[i]
                qn, qd = _coeff_to_pair(ctx, q)
                if len(verts) <= 1:
                    bits = _stream_bits([role, qn, qd] + [mono[ctx.var_index[v]] for v in verts])
                    lead = 4 - len(verts)
                    for v in verts or cg.vertices:
                        for u in cg.graph.neighbors(v):
                            sequences.add((v,) * lead + _bit_runs(u, v, bits))
                else:
                    head = _stream_bits((role, qn, qd))
                    vlist = sorted(verts)
                    k = len(vlist)
                    pos = {v: i for i, v in enumerate(vlist)}
                    vexp = [mono[ctx.var_index[v]] for v in vlist]
                    # the atom as a graph on positions: adj[i][j] is the
                    # generator exponent on the pair {vlist[i], vlist[j]},
                    # absent when 0
                    adj: list[dict[int, int]] = [{} for _ in range(k)]
                    for gi, ends in enumerate(gen_endpoints):
                        if exps[gi] and ends <= verts:
                            i, j = (pos[v] for v in ends)
                            adj[i][j] = adj[j][i] = exps[gi]
                    vbits = [_gamma_bits(x) for x in vexp]
                    pbits = [[_gamma_bits(adj[i].get(j, 0)) for j in range(k)] for i in range(k)]
                    pairs = list(combinations(range(k), 2))
                    cells = _cells(_refined(vexp, adj)[0])
                    for choice in product(*(permutations(cell) for cell in cells)):
                        idx = [i for part in choice for i in part]
                        order = tuple(vlist[i] for i in idx)
                        tail = [vbits[i] for i in idx]
                        tail += [pbits[idx[i1]][idx[i2]] for i1, i2 in pairs]
                        bits = head + "".join(tail)
                        sequences.add(order + _bit_runs(order[0], order[1], bits))
    return Code(frozenset(sequences))


def _coeff_to_pair(ctx, q) -> tuple[int, int]:
    if ctx.field.char == 0:
        return _zigzag(q.numerator), q.denominator
    return int(q), 1
