"""Graphs: the edge gadget, the transform, star colorings, structure codes.

The oracle for automorphism counts on small graphs is brute force over
all vertex permutations, independent of the search tree; on larger ones
it is networkx, where installed.
"""
import hashlib
import json
import random
from itertools import permutations, product

import pytest

from graphfield.errors import Disconnected, InvalidInput, NotFromTransform
from graphfield.graphs import (
    ColoredGraph,
    FiniteStructure,
    Graph,
    GraphAut,
    aut_graph,
    cayley_structure,
    check_star_coloring,
    code_structure,
    connected_graphs_up_to_iso,
    gadget,
    gadget_prime_edges,
    graph_auts,
    graph_from_json,
    graph_to_json,
    greedy_star_coloring,
    lift_aut,
    original_graph,
    restrict_aut,
    transform,
)
from graphfield.groups import Perm, closure


def brute_aut_count(g) -> int:
    """Independent oracle: count automorphisms by trying all bijections."""
    graph = g.graph if isinstance(g, ColoredGraph) else g
    colors = g.colors if isinstance(g, ColoredGraph) else None
    verts = sorted(graph.vertices)
    count = 0
    for img in permutations(verts):
        m = dict(zip(verts, img))
        ok = True
        for e in graph.edges:
            a, b = tuple(e)
            ie = frozenset((m[a], m[b]))
            if ie not in graph.edges or (colors is not None and colors[ie] != colors[e]):
                ok = False
                break
        if ok:
            count += 1
    return count


def structure_auts(s: FiniteStructure) -> list[dict]:
    """Independent oracle: structure automorphisms by trying every
    permutation of the universe."""
    uni = list(s.universe)
    rels = [set(tuples) for _, tuples in s.all_relations()]
    out = []
    for img in permutations(uni):
        m = dict(zip(uni, img))
        if all(tuple(m[x] for x in t) in tset for tset in rels for t in tset):
            out.append(m)
    return out


def K(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])


def path(n):
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


# -- gadget -------------------------------------------------------------------


def _induces_matching(graph, vs) -> bool:
    return all(len(graph.neighbors(v) & vs) <= 1 for v in vs)


def test_gadget_shape():
    g = gadget()
    assert len(g.vertices) == 6
    assert len(g.edges) == 9
    vals = {v: g.degree(v) for v in g.vertices}
    assert vals == {"x": 2, "y": 2, "z": 4, "a": 4, "b": 3, "c": 3}
    assert frozenset(("x", "y")) not in g.edges
    # rigidity: in the transform the original vertices are exactly the
    # vertices whose neighbourhood induces a matching, so no automorphism
    # of the bare output trades an original vertex for a gadget interior
    for base in (path(3), K(3)):
        cg = transform(base)
        matching = {v for v in cg.vertices if _induces_matching(cg.graph, cg.graph.neighbors(v))}
        assert matching == {f"1:{x}" for x in base.vertices}


def test_gadget_aut_is_xy_swap():
    g = gadget()
    assert brute_aut_count(g) == 2
    group = aut_graph(g)
    assert group.order == 2
    swap = next(p for p in group.elements if not p.is_identity())
    verts = group.points
    mapping = {verts[i]: verts[swap(i)] for i in range(6)}
    assert mapping == {"x": "y", "y": "x", "z": "a", "a": "z", "b": "c", "c": "b"}


def test_gadget_prime_has_seven_edges():
    prime = gadget_prime_edges()
    assert len(prime) == 7
    assert all("y" not in e for e in prime)


def test_aut_graph_examples():
    assert aut_graph(K(3)).order == 6
    assert aut_graph(path(3)).order == 2


def test_aut_graph_long_path():
    # deeper than the interpreter's recursion limit: the search keeps its
    # own stack
    assert aut_graph(path(1200), max_vertices=1200).order == 2


def _cycle(n, prefix="v"):
    vs = [f"{prefix}{i}" for i in range(n)]
    return [(vs[i], vs[(i + 1) % n]) for i in range(n)], vs


def _cayley_z4z4(steps):
    vs = {(a, b): f"p{a}{b}" for a, b in product(range(4), repeat=2)}
    edges = {
        frozenset((vs[a, b], vs[(a + da) % 4, (b + db) % 4]))
        for (a, b) in vs
        for da, db in steps
    }
    return Graph(vs.values(), edges)


def _known_graphs():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    petersen = Graph([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)], outer + inner + spokes)
    shrikhande = _cayley_z4z4([(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)])
    rook = _cayley_z4z4([(d, 0) for d in (1, 2, 3)] + [(0, d) for d in (1, 2, 3)])
    cube = Graph(
        [f"q{i}" for i in range(8)],
        [(f"q{i}", f"q{i ^ (1 << k)}") for i in range(8) for k in range(3) if i < i ^ (1 << k)],
    )
    c4, v4 = _cycle(4, "a")
    c8, v8 = _cycle(8, "b")
    return {
        "petersen": (petersen, 120),
        "shrikhande": (shrikhande, 192),
        "k4xk4": (rook, 1152),
        "q3": (cube, 48),
        # two components: the search must reject the subtrees that would
        # trade a 4-cycle vertex for an 8-cycle one
        "c4+c8": (Graph(v4 + v8, c4 + c8), 128),
    }


@pytest.mark.parametrize("name", sorted(_known_graphs()))
def test_aut_graph_known_orders(name):
    g, order = _known_graphs()[name]
    group = aut_graph(g)
    assert group.order == order
    nx = pytest.importorskip("networkx")
    h = nx.Graph([tuple(e) for e in g.edges])
    matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
    assert sum(1 for _ in matcher.isomorphisms_iter()) == order


def test_aut_graph_chain_transforms_within_the_default_budget():
    # group -> Cayley structure -> code graph -> coloured transform; the
    # former search ran out of its node budget on all three
    s2 = closure([Perm.from_cycles(2, [(0, 1)])])
    a3 = closure([Perm.from_cycles(3, [(0, 1, 2)])])
    s3 = closure([Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])])
    for group, size in ((s2, 487), (a3, 1097), (s3, 4775)):
        cg = transform(code_structure(cayley_structure(group)))
        assert len(cg.vertices) == size
        assert aut_graph(cg, max_vertices=size).order == group.order


def test_graph_auts_is_bounded_by_the_node_budget_alone():
    # the 487-vertex chain transform of S2 is past aut_graph's default
    # vertex bound
    s2 = closure([Perm.from_cycles(2, [(0, 1)])])
    cg = transform(code_structure(cayley_structure(s2)))
    auts = graph_auts(cg)
    assert len(auts) == 2 and all(phi.is_automorphism_of(cg) for phi in auts)


def _corpus_transforms():
    return [transform(g) for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]


def test_aut_graph_is_label_invariant_on_the_corpus():
    # renaming the vertices reorders every cell, so a refinement that read
    # vertex numbers would prune differently; the group, conjugated back,
    # must not change
    for k, cg in enumerate(_corpus_transforms()):
        group = aut_graph(cg, max_vertices=128)
        verts = group.points
        expected = {tuple(verts[p(i)] for i in range(len(verts))) for p in group.elements}
        for seed in range(2):
            names = [f"w{i}" for i in range(len(verts))]
            random.Random(f"{k}:{seed}").shuffle(names)
            rename = dict(zip(verts, names))
            back = dict(zip(names, verts))
            edges = [frozenset(rename[v] for v in e) for e in cg.edges]
            colors = {frozenset(rename[v] for v in e): c for e, c in cg.colors.items()}
            relabelled = aut_graph(ColoredGraph(Graph(names, edges), colors, cg.color_count), max_vertices=128)
            assert relabelled.order == group.order
            pts = relabelled.points
            index = {v: i for i, v in enumerate(pts)}
            got = {
                tuple(back[pts[p(index[rename[v]])]] for v in verts)
                for p in relabelled.elements
            }
            assert got == expected


def test_aut_graph_generators_are_automorphisms():
    graphs_ = _corpus_transforms() + [g for g, _ in _known_graphs().values()]
    for g in graphs_:
        group = aut_graph(g, max_vertices=128)
        verts = group.points
        for p in group.generators:
            assert GraphAut({verts[i]: verts[p(i)] for i in range(len(verts))}).is_automorphism_of(g)


# -- transform ----------------------------------------------------------------


def test_transform_k2_is_gadget():
    cg = transform(K(2))
    assert len(cg.vertices) == 6
    assert len(cg.edges) == 9
    # isomorphic to the gadget (brute force over bijections)
    g = gadget()
    gv = sorted(g.vertices)
    cv = sorted(cg.vertices)
    found = False
    for img in permutations(cv):
        m = dict(zip(gv, img))
        if all(frozenset((m[a], m[b])) in cg.edges for a, b in (tuple(e) for e in g.edges)):
            found = True
            break
    assert found
    assert aut_graph(cg).order == 2
    assert brute_aut_count(cg.graph) == 2


def test_transform_sizes():
    for g in (K(2), path(3), K(3), K(4)):
        cg = transform(g)
        assert len(cg.vertices) == len(g.vertices) + 4 * len(g.edges)
        assert cg.color_count == 7


def test_transform_rejects_disconnected():
    g = Graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(Disconnected):
        transform(g)


def test_transform_star_coloring_k2():
    rep = check_star_coloring(transform(K(2)))
    assert all(rep[c]["ok"] for c in range(7))


def test_transform_star_coloring_defect_on_larger_graphs():
    # A gadget whose attachment vertices x and y are twins puts the
    # subdivision of the input into one attachment class as soon as a
    # vertex has degree >= 2.  With N(x) and N(y) disjoint, every edge of
    # an attachment class has exactly one original endpoint and its
    # interior endpoint meets no other edge of the class, so the class
    # components are stars centred at original vertices.
    base = path(3)
    cg = transform(base)
    rep = check_star_coloring(cg)
    assert all(rep[c]["ok"] for c in range(7))
    originals = {f"1:{x}" for x in base.vertices}
    for c in (0, 1):
        cls = cg.color_class(c)
        for e in cls:
            assert len(e & originals) == 1
            (leaf,) = e - originals
            assert sum(1 for f in cls if leaf in f) == 1
        # the middle vertex of the path centres a star with two leaves
        assert sum(1 for e in cls if "1:v1" in e) == 2
    assert not cg.color_class(5) and not cg.color_class(6)


def test_transform_aut_preserves_colors():
    # automorphisms of the bare graph already preserve the coloring; on a
    # cycle every vertex but the b and c copies has degree 4, so the bare
    # search must still tell the original vertices from z and a
    c5 = Graph([f"v{i}" for i in range(5)], [(f"v{i}", f"v{(i + 1) % 5}") for i in range(5)])
    for base in (path(3), c5):
        cg = transform(base)
        bare = aut_graph(cg.graph)
        assert bare.order == aut_graph(base).order
        for p in bare.elements:
            verts = bare.points
            phi = GraphAut({verts[i]: verts[p(i)] for i in range(len(verts))})
            assert phi.is_automorphism_of(cg)


def test_restrict_and_lift_roundtrip():
    g = path(3)
    cg = transform(g)
    for psi in graph_auts(g):
        assert restrict_aut(cg, lift_aut(cg, psi)) == psi
    # the two groups have equal order and restriction is a bijection
    ups = graph_auts(cg)
    downs = {restrict_aut(cg, phi) for phi in ups}
    assert len(downs) == len(ups) == aut_graph(g).order


def test_restrict_is_homomorphism():
    g = K(3)
    cg = transform(g)
    ups = graph_auts(cg)
    for a in ups:
        for b in ups:
            assert restrict_aut(cg, a.compose(b)) == restrict_aut(cg, a).compose(
                restrict_aut(cg, b)
            )


def test_original_graph_roundtrip():
    g = K(3)
    assert original_graph(transform(g)) == g
    plain = greedy_star_coloring(g)
    with pytest.raises(NotFromTransform):
        original_graph(plain)


# -- star colorings -------------------------------------------------------------


def test_star_check_triangle_fails():
    g = K(3)
    colors = {e: 0 for e in g.edges}
    rep = check_star_coloring(ColoredGraph(g, colors, 1))
    assert not rep[0]["ok"]
    assert len(rep[0]["witness"]) == 3


def test_star_check_star_passes():
    center = "c"
    leaves = [f"l{i}" for i in range(5)]
    g = Graph([center] + leaves, [(center, x) for x in leaves])
    rep = check_star_coloring(ColoredGraph(g, {e: 0 for e in g.edges}, 1))
    assert rep[0]["ok"]


def test_greedy_star_coloring_valid():
    for g in (K(2), path(3), K(3), K(4)):
        cg = greedy_star_coloring(g)
        assert all(r["ok"] for r in check_star_coloring(cg).values())


# -- structures ------------------------------------------------------------------


def test_code_structure_pure_set():
    s = FiniteStructure(universe=("a", "b", "c"), relations={}, unary_functions={})
    g = code_structure(s)
    assert g.is_connected()
    assert aut_graph(g, max_vertices=200).order == 6 == len(structure_auts(s))


def test_code_structure_linear_order_rigid():
    s = FiniteStructure(
        universe=("a", "b"), relations={"lt": {("a", "b")}}, unary_functions={}
    )
    g = code_structure(s)
    assert g.is_connected()
    assert aut_graph(g, max_vertices=200).order == 1 == len(structure_auts(s))


def test_code_structure_tags_do_not_collide_with_universe_names():
    # "a.t.1" once named both the universe vertex of "a.t.1" and the first
    # tag vertex of "a", which made the pure set on it rigid
    for universe in (("a", "b"), ("a", "a.t.1"), ("a", "t_a.1")):
        g = code_structure(FiniteStructure(universe, {}, {}))
        assert len(g.vertices) == 11
        assert aut_graph(g).order == 2


def test_cayley_structure_z3():
    z3 = closure([Perm.from_cycles(3, [(0, 1, 2)])])
    s = cayley_structure(z3)
    assert len(structure_auts(s)) == 3
    g = code_structure(s)
    assert aut_graph(g, max_vertices=600).order == 3


def test_cayley_structure_trivial_and_z2():
    triv = closure([Perm.identity(1)])
    s = cayley_structure(triv)
    assert len(s.universe) == 1
    assert len(structure_auts(s)) == 1
    z2 = closure([Perm.from_cycles(2, [(0, 1)])])
    s2 = cayley_structure(z2)
    assert len(structure_auts(s2)) == 2
    assert aut_graph(code_structure(s2), max_vertices=300).order == 2


def test_cayley_structure_s3():
    s3 = closure([Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])])
    s = cayley_structure(s3)
    assert len(s.universe) == 6
    assert len(structure_auts(s)) == 6


def test_code_structure_restriction_realizes_iso():
    # graph automorphisms restricted to the tagged universe vertices are
    # exactly the structure automorphisms
    s = FiniteStructure(("a", "b", "c"), {"cyc": {("a", "b"), ("b", "c"), ("c", "a")}}, {})
    g = code_structure(s)
    group = aut_graph(g, max_vertices=600)
    verts = group.points
    restricted = set()
    for p in group.elements:
        m = {}
        for i, v in enumerate(verts):
            if v.startswith("e_") and "." not in v:
                m[v[2:]] = verts[p(i)][2:]
        restricted.add(tuple(sorted(m.items())))
    expected = {tuple(sorted(a.items())) for a in structure_auts(s)}
    assert restricted == expected


def test_code_graph_of_z2_goes_through_the_transform():
    # the code graph's labels avoid the characters the transform reserves
    z2 = closure([Perm.from_cycles(2, [(0, 1)])])
    g = code_structure(cayley_structure(z2))
    cg = transform(g)
    assert len(cg.vertices) == 487
    assert original_graph(cg) == g


def test_code_structure_matches_structure_aut_on_corpus():
    corpus = [
        FiniteStructure(("a", "b", "c", "d"), {}, {}),
        FiniteStructure(("a", "b", "c"), {"r": {("a", "b")}}, {}),
        FiniteStructure(("a", "b", "c"), {"cyc": {("a", "b"), ("b", "c"), ("c", "a")}}, {}),
        FiniteStructure(("a", "b"), {}, {"f": {"a": "b", "b": "a"}}),
        FiniteStructure(("a", "b", "c"), {"loop": {("a",)}}, {}),
    ]
    for s in corpus:
        g = code_structure(s)
        assert g.is_connected()
        assert aut_graph(g, max_vertices=600).order == len(structure_auts(s))


# -- corpus enumeration ------------------------------------------------------------


def test_connected_graph_counts():
    # numbers of isomorphism types of connected graphs on n vertices
    assert [len(connected_graphs_up_to_iso(n)) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


# sha256 of the representatives' sorted edge lists, in output order, as
# the pairwise isomorphism scan produced them: the least edge mask of each
# class, masks read with bit k for the k-th pair of combinations(range(n), 2)
_CORPUS_DIGESTS = {
    1: "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05",
    2: "b23aa4f5049afa1f62cc7f442b26bbc1f3a6423608b9812d792ca3e90fc62e2b",
    3: "96003ad4c5bf7e7599e3d075146744efbf8d67e329771e2278b8a591d72a193c",
    4: "1e7723b35b24a8db266b11597f3e82d234805587d4311395f331a84404f833f0",
    5: "643a950a14ce5411284be6d5261390f27f4956db14a3ad627e4bb6414d413f94",
    6: "4d067d766351e2217f3c190ac45f2f0430cc611fed1141df56181e935257f189",
}


@pytest.mark.parametrize("n", sorted(_CORPUS_DIGESTS))
def test_corpus_representatives_golden(n):
    reps = connected_graphs_up_to_iso(n)
    assert all(g.vertices == {f"v{i}" for i in range(n)} for g in reps)
    doc = json.dumps([sorted(sorted(e) for e in g.edges) for g in reps])
    assert hashlib.sha256(doc.encode()).hexdigest() == _CORPUS_DIGESTS[n]


# -- JSON ---------------------------------------------------------------------------


def test_graph_json_roundtrip():
    g = K(3)
    assert graph_from_json(graph_to_json(g)) == g
    cg = transform(K(2))
    doc = json.loads(graph_to_json(cg))
    assert set(doc) == {"vertices", "edges", "colors", "color_count"}
    back = graph_from_json(graph_to_json(cg))
    assert back.graph == cg.graph and back.colors == cg.colors


def test_graph_to_json_refuses_comma_labels():
    # the colour keys of the edges a,b-c and a-b,c would both read "a,b,c"
    g = Graph(["a,b", "c", "a", "b,c"], [("a,b", "c"), ("a", "b,c")])
    cg = ColoredGraph(g, {frozenset(("a,b", "c")): 0, frozenset(("a", "b,c")): 1}, 2)
    with pytest.raises(InvalidInput):
        graph_to_json(cg)


def test_structure_json_roundtrip():
    from graphfield.graphs import structure_from_json, structure_to_json

    s = FiniteStructure(
        ("a", "b"), {"r": {("a", "b")}}, {"f": {"a": "b", "b": "a"}}
    )
    back = structure_from_json(structure_to_json(s))
    assert back.universe == s.universe
    assert back.relations == {"r": {("a", "b")}}
    assert back.unary_functions == s.unary_functions


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{bad", id="malformed-json"),
        pytest.param("{}", id="no-universe"),
        pytest.param('{"universe": ["a", "b"], "functions": {"f": {"a": "b"}}}', id="partial-function"),
        pytest.param('{"universe": ["a"], "relations": {"r": 5}}', id="relation-not-a-list"),
    ],
)
def test_structure_from_json_input_errors(text):
    from graphfield.graphs import structure_from_json

    with pytest.raises(InvalidInput):
        structure_from_json(text)
