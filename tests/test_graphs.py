"""Graphs: the edge gadget, the transform, star colorings, structure codes.

The oracle for automorphism counts on small graphs is brute force over
all vertex permutations, independent of the search tree; on larger ones
it is networkx, where installed.
"""
import hashlib
import json
import random
import sys
import time
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from graphfield import autfield, graphs
from graphfield.errors import BudgetExceeded, Disconnected, InvalidInput, NotFromTransform, TooLarge
from graphfield.fieldtower import random_nonzero_element
from graphfield.graphs import (
    DEFAULT_AUT_NODE_BUDGET,
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
    _aut_generators,
    _degree_triangles,
    _equitable,
    _individualise,
    _refined,
    _target_cell,
)
from graphfield.groups import DEFAULT_CLOSURE_CAP, Perm, closure

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_autfield import k2_plus_ctx, k3_plus_ctx  # noqa: E402


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


def test_graph_refuses_loops_and_undeclared_endpoints():
    for edge in (frozenset({"a"}), ("a", "a"), ["a"], ("a", "b", "c")):
        with pytest.raises(ValueError):
            Graph(["a", "b", "c"], [edge])
    for edge in (frozenset({"a", "z"}), ("a", "z")):
        with pytest.raises(ValueError, match="not a declared vertex"):
            Graph(["a", "b"], [edge])
    with pytest.raises(ValueError, match="must be a string"):
        Graph(["a", 1], [frozenset({"a", 1})])
    g = Graph(["a", "b", "c"], [frozenset({"a", "b"}), ("b", "c"), ["c", "a"]])
    assert g.edges == {frozenset({"a", "b"}), frozenset({"b", "c"}), frozenset({"a", "c"})}


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
    # group -> Cayley structure -> code graph -> coloured transform, with
    # no vertex bound; the former search ran out of its node budget on all three
    s2 = closure([Perm.from_cycles(2, [(0, 1)])])
    a3 = closure([Perm.from_cycles(3, [(0, 1, 2)])])
    s3 = closure([Perm.from_cycles(3, [(0, 1)]), Perm.from_cycles(3, [(0, 1, 2)])])
    for group, size in ((s2, 487), (a3, 1097), (s3, 4775)):
        cg = transform(code_structure(cayley_structure(group)))
        assert len(cg.vertices) == size
        assert aut_graph(cg).order == group.order


@pytest.mark.parametrize("name, nodes", [("petersen", 15), ("transform(K6)", 21)])
def test_aut_graph_node_budget_refusal_points(name, nodes):
    g = _known_graphs()["petersen"][0] if name == "petersen" else transform(K(6))
    size = len(g.vertices)
    assert aut_graph(g, node_budget=nodes, max_vertices=size).order == (120 if name == "petersen" else 720)
    with pytest.raises(BudgetExceeded) as exc:
        aut_graph(g, node_budget=nodes - 1, max_vertices=size)
    assert (exc.value.what, exc.value.budget) == ("aut_graph search nodes", nodes - 1)


def test_aut_graph_vertex_bound_refusal_point():
    g = _known_graphs()["petersen"][0]
    with pytest.raises(BudgetExceeded) as exc:
        aut_graph(g, max_vertices=len(g.vertices) - 1)
    assert (exc.value.what, exc.value.budget) == ("aut_graph vertex bound", 9)


def _star(leaves):
    return Graph(["c"] + [f"l{i}" for i in range(leaves)], [("c", f"l{i}") for i in range(leaves)])


def test_aut_graph_refuses_to_list_a_group_past_the_closure_cap():
    # the search counts |Aut K_{1,9}| = 9! in a few dozen nodes; listing
    # the elements took 1.7 s and 127 MiB, and K_{1,10} ten times that
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded) as exc:
        aut_graph(_star(9))
    assert time.perf_counter() - t0 < 1
    assert (exc.value.what, exc.value.budget) == ("group closure", DEFAULT_CLOSURE_CAP)
    assert aut_graph(_star(7)).order == 5040


def test_graph_auts_is_bounded_by_the_node_budget_alone():
    # the 487-vertex chain transform of S2, with no vertex bound
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


def test_structure_refuses_elements_equal_or_equal_as_strings():
    # "e_1" once named the vertex of both 1 and "1", so the code graph had
    # the swap as an automorphism while the structure is rigid
    for universe in ((1, "1"), ("a", "a"), (1, 1.0), (1, True)):
        with pytest.raises(ValueError, match="distinct"):
            FiniteStructure(universe=universe, relations={"R": {(1,)}}, unary_functions={})
    s = FiniteStructure(universe=(1, "2"), relations={"R": {(1,)}}, unary_functions={})
    assert aut_graph(code_structure(s)).order == 1 == len(structure_auts(s))


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
    # (OEIS A001349); n = 7 is the one corpus whose masks take three bytes
    assert [len(connected_graphs_up_to_iso(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_connected_graphs_refuse_more_than_seven_vertices():
    # 2^28 edge masks at n = 8: refused before the seen-array is allocated
    with pytest.raises(TooLarge, match="at most 7 vertices"):
        connected_graphs_up_to_iso(8)


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
        pytest.param('{"universe": "ab"}', id="universe-not-a-list"),
        pytest.param('{"universe": [1, "1"]}', id="universe-equal-as-strings"),
        pytest.param('{"universe": ["a", "a"]}', id="universe-repeated"),
        pytest.param('{"universe": ["a", "b"], "functions": {"f": {"a": "b", "b": "a", "a": "a"}}}',
                     id="function-key-twice"),
        pytest.param('{"universe": ["a"], "universe": ["a", "b"]}', id="top-level-key-twice"),
    ],
)
def test_structure_from_json_input_errors(text):
    from graphfield.graphs import structure_from_json

    with pytest.raises(InvalidInput):
        structure_from_json(text)


# -- refinement against the former routine ----------------------------------------
#
# `equitable_reference` is `graphs._equitable` as it was before its fast
# paths for singleton splitters, one-vertex splits and two-vertex cells,
# kept verbatim: it reads `wadj` as (neighbour, weight) pair lists, which
# `_pairs` makes from the dicts `_refined` now builds.  The fast paths
# must give its traces, partitions and so the search's generators exactly.


def equitable_reference(part, stack: list[int], wadj, expect=None):
    """Refine `part` in place to the coarsest equitable partition finer
    than it, splitting the cells against the splitter cells on `stack`.

    For each vertex the neighbours in the splitter are counted per edge
    colour, packed into one int by the weights of `wadj`; each touched
    cell splits, in order of position, into fragments sorted by that
    count.  A split cell that was not waiting as a splitter queues all its
    fragments but its first largest one (Junttila & Kaski, ALENEX 2007).
    Returns the trace, one (cell start, fragment sizes, fragment counts)
    per split, or None as soon as it departs from `expect`.
    """
    elems, cell_of, end = part
    queued = set(stack)
    trace = []
    cells = len(set(cell_of))
    # a discrete partition splits no further
    while stack and cells < len(elems):
        s = stack.pop()
        queued.discard(s)
        count: dict[int, int] = {}
        for w in elems[s:end[s]]:
            for u, weight in wadj[w]:
                count[u] = count.get(u, 0) + weight
        touched = [t for t in {cell_of[u] for u in count} if end[t] - t > 1]
        touched.sort()
        for t in touched:
            frags: dict[int, list[int]] = {}
            for u in elems[t:end[t]]:
                frags.setdefault(count.get(u, 0), []).append(u)
            if len(frags) == 1:
                continue
            keys = sorted(frags)
            parts = [frags[k] for k in keys]
            sizes = tuple(map(len, parts))
            entry = (t, sizes, tuple(keys))
            if expect is not None and (len(trace) == len(expect) or expect[len(trace)] != entry):
                return None
            trace.append(entry)
            cells += len(parts) - 1
            starts = []
            a = t
            for f in parts:
                starts.append(a)
                b = a + len(f)
                elems[a:b] = f
                for u in f:
                    cell_of[u] = a
                end[a] = b
                a = b
            if t in queued:
                new = starts[1:]
            else:
                largest = sizes.index(max(sizes))
                new = starts[:largest] + starts[largest + 1:]
            stack.extend(new)
            queued.update(new)
    if expect is not None and len(trace) != len(expect):
        return None
    return trace



def _pairs(wadj: list[dict]) -> list[list[tuple[int, int]]]:
    return [list(nb.items()) for nb in wadj]


def _adjacency(g) -> list[dict[int, int]]:
    """The {neighbour: colour} dicts that `aut_graph` searches, on the
    sorted vertex list."""
    graph, colors = (g.graph, g.colors) if isinstance(g, ColoredGraph) else (g, None)
    index = {v: i for i, v in enumerate(sorted(graph.vertices))}
    adj = [{} for _ in index]
    for e in graph.edges:
        a, b = (index[v] for v in e)
        adj[a][b] = adj[b][a] = colors[e] if colors is not None else 0
    return adj


def _relabelled(adj: list[dict], rng: random.Random) -> list[dict]:
    new = list(range(len(adj)))
    rng.shuffle(new)
    out = [{} for _ in adj]
    for x, nb in enumerate(adj):
        out[new[x]] = {new[y]: c for y, c in nb.items()}
    return out


def _start(keys: list, adj: list[dict]):
    """The cells of equal keys and the packed weights, as `_refined`
    builds them before it refines, and the cell starts it stacks."""
    n = len(adj)
    shift = max(1, n.bit_length())
    wadj = [{u: 1 << (shift * c) for u, c in nb.items()} for nb in adj]
    elems = sorted(range(n), key=keys.__getitem__)
    cell_of = [0] * n
    end = [0] * n
    starts = []
    for i, v in enumerate(elems):
        if i == 0 or keys[v] != keys[elems[i - 1]]:
            starts.append(i)
        cell_of[v] = starts[-1]
        end[starts[-1]] = i + 1
    return (elems, cell_of, end), starts, wadj


def _refine_both(part, stack: list[int], wadj: list[dict], pairs, expect=None):
    """`_equitable` and the reference on copies of `part`: the same trace
    and the same elems, cell_of and end.  Returns the refined copy and
    the trace."""
    mine = tuple(list(x) for x in part)
    theirs = tuple(list(x) for x in part)
    got = _equitable(mine, list(stack), wadj, expect)
    want = equitable_reference(theirs, list(stack), pairs, expect)
    assert got == want
    if got is not None:
        assert mine == theirs
    return mine, got


def _first_path_nodes(adj: list[dict]) -> tuple:
    """The root refinement and every child of each first-path node, each
    refined by both routines.  Returns the children as (node before
    refinement, target cell, trace), and the weights in both forms."""
    keys = _degree_triangles(adj)
    part, starts, wadj = _start(keys, adj)
    pairs = _pairs(wadj)
    part, _ = _refine_both(part, starts, wadj, pairs)
    assert _refined(keys, adj) == (part, wadj)
    children = []
    t = _target_cell(part)
    while t is not None:
        level = []
        for v in part[0][t:part[2][t]]:
            node = _individualise(part, t, v)
            refined, trace = _refine_both(node, [t], wadj, pairs)
            children.append((node, t, trace))
            level.append(refined)
        part = level[0]
        t = _target_cell(part)
    return children, wadj, pairs


_CHAIN_GROUPS = {
    "sym:2": [Perm.from_cycles(2, [(0, 1)])],
    "alt:3": [Perm.from_cycles(3, [(0, 1, 2)])],
}


def _code_graph(name: str) -> Graph:
    """The code graph of the Cayley structure of a small group."""
    return code_structure(cayley_structure(closure(_CHAIN_GROUPS[name])))


def _search(adj: list[dict]) -> tuple:
    # a random graph with few edges permutes its isolated vertices in every
    # way, and its search takes more nodes than the default budget
    gens, order = _aut_generators(adj, 10 * DEFAULT_AUT_NODE_BUDGET)
    return [p.images for p in gens], order


def _search_with_reference(adj: list[dict], monkeypatch) -> tuple:
    """`_aut_generators` with the reference in place of `_equitable`."""
    converted = {}

    def reference(part, stack, wadj, expect=None):
        if id(wadj) not in converted:
            converted[id(wadj)] = (wadj, _pairs(wadj))
        return equitable_reference(part, stack, converted[id(wadj)][1], expect)

    with monkeypatch.context() as m:
        m.setattr(graphs, "_equitable", reference)
        return _search(adj)


def _random_coloured(rng: random.Random) -> list[dict]:
    """A random graph on 6 to 40 vertices with up to three edge colours."""
    n = rng.randint(6, 40)
    p = rng.random() * 0.5
    colours = rng.randint(1, 3)
    adj = [{} for _ in range(n)]
    for x, y in combinations(range(n), 2):
        if rng.random() < p:
            adj[x][y] = adj[y][x] = rng.randrange(colours)
    return adj


def _split_kind(sizes: tuple, keys: tuple) -> str:
    if len(sizes) == 2 and sizes[1] == 1 and keys[0] == 0:
        return "one-vertex"
    return "two-vertex" if sizes == (1, 1) else "general"


def test_equitable_matches_the_reference_on_the_search_nodes(monkeypatch):
    # the root and every first-path child of the corpus transforms, of two
    # relabellings of each, of the sym:2 chain transform and of random
    # coloured graphs; then the search's generators with either routine,
    # not only its order.  The random graphs split a queued fragment of a
    # general split before it is popped, which the others rarely do
    rng = random.Random(36)
    corpus = [_adjacency(cg) for cg in _corpus_transforms()]
    relabelled = [_relabelled(adj, rng) for adj in corpus for _ in range(2)]
    chain = [_adjacency(transform(_code_graph("sym:2")))]
    rng = random.Random(1)
    randoms = [_random_coloured(rng) for _ in range(300)]
    kinds = set()
    for adj in corpus + relabelled + chain + randoms:
        children, _, _ = _first_path_nodes(adj)
        kinds |= {_split_kind(sizes, keys) for _, _, trace in children for _, sizes, keys in trace}
        assert _search(adj) == _search_with_reference(adj, monkeypatch)
    assert kinds == {"one-vertex", "two-vertex", "general"}


def test_equitable_matches_the_reference_on_the_codec_atoms(monkeypatch):
    # the atom graphs that encode_element refines on the criterion-6
    # towers, for random elements and their images
    atoms = []
    refined = autfield._refined

    def record(keys, adj):
        atoms.append((list(keys), [dict(nb) for nb in adj]))
        return refined(keys, adj)

    monkeypatch.setattr(autfield, "_refined", record)
    for maker in (k2_plus_ctx, k3_plus_ctx):
        cg, ctx = maker()
        rng = random.Random(6)
        auts = [autfield.sigma(phi, ctx) for phi in graph_auts(cg)]
        for _ in range(6):
            a = random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
            for al in auts:
                autfield.encode_element(autfield.apply(al, a))
    assert len(atoms) > 50
    for keys, adj in atoms:
        part, starts, wadj = _start(keys, adj)
        _refine_both(part, starts, wadj, _pairs(wadj))


def test_equitable_leaves_a_perturbed_trace_like_the_reference():
    # one entry of a child's expected trace changed, or the trace cut
    # short or extended: both routines give None
    for adj in [_adjacency(cg) for cg in _corpus_transforms()[::7]] + [_adjacency(transform(_code_graph("sym:2")))]:
        children, wadj, pairs = _first_path_nodes(adj)
        for node, t, trace in children[:12]:
            assert _refine_both(node, [t], wadj, pairs, trace)[1] == trace
            for i, (s, sizes, keys) in enumerate(trace):
                for entry in (
                    (s + 1, sizes, keys),
                    (s, sizes + (0,), keys),
                    (s, sizes, keys[:1]),
                    (s, sizes, tuple(k + 1 for k in keys)),
                ):
                    expect = trace[:i] + [entry] + trace[i + 1:]
                    assert _refine_both(node, [t], wadj, pairs, expect)[1] is None
            for expect in (trace[:-1], trace + [(0, (1, 1), (0, 1))]):
                assert _refine_both(node, [t], wadj, pairs, expect)[1] is None


def test_the_leaf_check_alone_decides_without_refinement(monkeypatch):
    # with a refinement that splits nothing, every leaf has the first
    # path's empty traces, and only the leaf check tells the automorphisms
    # from the other vertex maps
    monkeypatch.setattr(graphs, "_equitable", lambda part, stack, wadj, expect=None: [])
    small = [g for n in range(2, 6) for g in connected_graphs_up_to_iso(n)]
    for g in small + [greedy_star_coloring(g) for g in small]:
        assert _aut_generators(_adjacency(g), 10 * DEFAULT_AUT_NODE_BUDGET)[1] == brute_aut_count(g)


def test_transform_output_equals_the_checked_constructors():
    # transform builds its output without the public constructors' checks
    bases = [g for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]
    for base in bases + [_code_graph("sym:2"), _code_graph("alt:3")]:
        cg = transform(base)
        checked = ColoredGraph(Graph(cg.vertices, cg.edges), cg.colors, cg.color_count)
        assert cg.graph == checked.graph
        assert (cg.colors, cg.color_count) == (checked.colors, checked.color_count)
        assert type(cg.vertices) is type(cg.edges) is frozenset
        assert all(type(e) is frozenset and len(e) == 2 for e in cg.colors)


def refinement_document() -> list[dict]:
    """The root and first-path traces, the generator images and the order
    of the search on each corpus transform and on the sym:2 chain
    transform."""
    doc = []
    for cg in _corpus_transforms() + [transform(_code_graph("sym:2"))]:
        adj = _adjacency(cg)
        part, starts, wadj = _start(_degree_triangles(adj), adj)
        traces = [_equitable(part, starts, wadj)]
        t = _target_cell(part)
        while t is not None:
            part = _individualise(part, t, part[0][t])
            traces.append(_equitable(part, [t], wadj))
            t = _target_cell(part)
        gens, order = _aut_generators(adj, DEFAULT_AUT_NODE_BUDGET)
        doc.append({"traces": traces, "generators": [p.images for p in gens], "order": order})
    return doc


if __name__ == "__main__":
    # the refinement must not depend on str hashing, which orders the
    # adjacency dicts: compare the output under two PYTHONHASHSEED values
    json.dump(refinement_document(), sys.stdout, separators=(",", ":"))
    sys.stdout.write("\n")
