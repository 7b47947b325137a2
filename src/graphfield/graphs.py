"""Finite graphs, edge-colored graphs, their automorphism groups, the
edge-gadget transform with its 7-color star decomposition, and the coding
of finite structures as graphs.

The transform colors each gadget edge by its orbit under the gadget's
only symmetry (x y)(z a)(b c); since x and y share no neighbour, every
color class is a disjoint union of stars and every automorphism of the
bare output preserves the colors.

Vertex labels are strings throughout; the transform tags its output
vertices inside the label ("1:x", "2:a|b:w") so the original graph and
the gadget copies stay recoverable.

Automorphism groups come from one individualisation–refinement search
(`_aut_generators`): it refines ordered partitions to equitable ones with
one routine (`_equitable`), finds a strong generating set along its first
path, pruning with the orbits of the generators found so far, and counts
the group's order; `aut_graph` materialises the elements by one closure.
A `Graph` builds its adjacency once, on first use.  The corpus of
connected graphs on up to 6 vertices needs no isomorphism test: it keeps
the least edge mask of each orbit of S_n on the masks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, permutations

from .errors import BudgetExceeded, Disconnected, InvalidInput, NotFromTransform
from .groups import Perm, PermGroup, closure

DEFAULT_VERTEX_BOUND = 64
# individualise-and-refine nodes: a node that refines the 4,775-vertex
# chain transform of S3 to a discrete partition takes about 35 ms, so the
# whole budget runs out there in about 11 s
DEFAULT_AUT_NODE_BUDGET = 300


def _edge(a: str, b: str) -> frozenset:
    if a == b:
        raise ValueError(f"loop at {a!r}")
    return frozenset((a, b))


class Graph:
    """A finite simple graph with string vertex labels."""

    def __init__(self, vertices, edges):
        self.vertices = frozenset(vertices)
        es = set()
        for e in edges:
            pair = tuple(e)
            if len(pair) != 2:
                raise ValueError(f"edge {e!r} is not a 2-set")
            es.add(_edge(*pair))
        self.edges = frozenset(es)
        for e in self.edges:
            for v in e:
                if v not in self.vertices:
                    raise ValueError(f"edge endpoint {v!r} is not a declared vertex")
        for v in self.vertices:
            if not isinstance(v, str):
                raise ValueError(f"vertex label {v!r} must be a string")
        self._adj = None

    def _neighbour_sets(self) -> dict:
        """Each vertex's neighbours, built once, on first use."""
        if self._adj is None:
            adj: dict = {v: set() for v in self.vertices}
            for e in self.edges:
                a, b = tuple(e)
                adj[a].add(b)
                adj[b].add(a)
            self._adj = {v: frozenset(nb) for v, nb in adj.items()}
        return self._adj

    def neighbors(self, v: str) -> frozenset:
        return self._neighbour_sets().get(v, frozenset())

    def degree(self, v: str) -> int:
        return len(self.neighbors(v))

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in self.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class ColoredGraph:
    """A graph with a total edge coloring into color_count classes."""

    def __init__(self, graph: Graph, colors: dict, color_count: int):
        self.graph = graph
        self.colors = {frozenset(e): c for e, c in colors.items()}
        self.color_count = color_count
        if set(self.colors.keys()) != set(graph.edges):
            raise ValueError("coloring must assign exactly the edges of the graph")
        for c in self.colors.values():
            if not (0 <= c < color_count):
                raise ValueError(f"color {c} out of range 0..{color_count - 1}")

    @property
    def vertices(self):
        return self.graph.vertices

    @property
    def edges(self):
        return self.graph.edges

    def color_class(self, c: int) -> set:
        return {e for e, col in self.colors.items() if col == c}

    def __repr__(self):
        return f"ColoredGraph({len(self.vertices)} vertices, {len(self.edges)} edges, {self.color_count} colors)"


class GraphAut:
    """A vertex bijection that is an automorphism of a (colored) graph."""

    def __init__(self, mapping: dict):
        self.mapping = dict(mapping)
        if set(self.mapping.keys()) != set(self.mapping.values()):
            raise ValueError("mapping is not a bijection of the vertex set")

    def __call__(self, v: str) -> str:
        return self.mapping[v]

    def apply_edge(self, e: frozenset) -> frozenset:
        a, b = tuple(e)
        return _edge(self.mapping[a], self.mapping[b])

    def compose(self, other: "GraphAut") -> "GraphAut":
        # (self . other)(v) = self(other(v))
        return GraphAut({v: self.mapping[w] for v, w in other.mapping.items()})

    def is_identity(self) -> bool:
        return all(v == w for v, w in self.mapping.items())

    def is_automorphism_of(self, g) -> bool:
        graph, colors = _unwrap(g)
        if set(self.mapping.keys()) != set(graph.vertices):
            return False
        for e in graph.edges:
            img = self.apply_edge(e)
            if img not in graph.edges:
                return False
            if colors is not None and colors[img] != colors[e]:
                return False
        return True

    def __eq__(self, other):
        return isinstance(other, GraphAut) and self.mapping == other.mapping

    def __hash__(self):
        return hash(frozenset(self.mapping.items()))

    def __repr__(self):
        moved = {v: w for v, w in self.mapping.items() if v != w}
        return f"GraphAut({moved or 'id'})"


def _unwrap(g):
    if isinstance(g, ColoredGraph):
        return g.graph, g.colors
    return g, None


# ---------------------------------------------------------------------------
# Automorphism search
# ---------------------------------------------------------------------------


def aut_graph(
    g,
    node_budget: int = DEFAULT_AUT_NODE_BUDGET,
    max_vertices: int = DEFAULT_VERTEX_BOUND,
) -> PermGroup:
    """All automorphisms of a graph or colored graph, as a PermGroup on
    the sorted vertex list (color-preserving when colored).

    `_aut_generators` finds a strong generating set and the group's
    order by individualisation and refinement; one closure of those
    generators gives the elements, and it must reach exactly that order.
    Each individualise-and-refine node, the root included, costs one of
    `node_budget` units; running out raises BudgetExceeded.
    """
    graph, colors = _unwrap(g)
    verts = sorted(graph.vertices)
    n = len(verts)
    if n > max_vertices:
        raise BudgetExceeded("aut_graph vertex bound", max_vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for e in graph.edges:
        a, b = tuple(e)
        c = colors[e] if colors is not None else 0
        adj[index[a]][index[b]] = c
        adj[index[b]][index[a]] = c

    gens, order = _aut_generators(adj, node_budget)
    try:
        elements = closure(gens, cap=order, degree=n).elements
    except BudgetExceeded:
        elements = None
    if elements is None or len(elements) != order:
        raise AssertionError(f"the generators do not close to the {order} automorphisms the search counted")
    return PermGroup(n, gens, elements, points=verts)


def _degree_triangles(adj: list[dict]) -> list[tuple[int, int]]:
    """Each vertex's degree and the number of edges among its neighbours."""
    return [
        (len(nb), sum(1 for u in nb for w in nb if u < w and w in adj[u]))
        for nb in adj
    ]


# An ordered partition of range(n) is a triple (elems, cell_of, end): the
# vertices in one list whose cells are contiguous segments, each cell named
# by its start index, cell_of[v] the start of v's cell and end[s] the end
# of the cell that starts at s.  Every choice below reads positions, sizes
# and neighbour counts, never vertex numbers, so the partitions reached
# from an automorphic image of a node are the images of the partitions
# reached from the node: the pruning in _aut_generators rests on that.


def _equitable(part, stack: list[int], wadj, expect=None):
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


def _refined(keys: list, adj: list[dict[int, int]]):
    """The coarsest equitable partition of the graph given as {neighbour:
    colour} dicts that is finer than the cells of equal `keys`, and the
    packed edge weights.  The cells start in increasing key order, all on
    the splitter stack of `_equitable`, so the result reads only keys,
    positions and counts: relabelling the vertices relabels its cells."""
    n = len(adj)
    shift = max(1, n.bit_length())
    # a neighbour of colour c adds 1 << (shift * c) to a vertex's count,
    # so the per-colour counts, each below n, never carry into each other
    wadj = [[(u, 1 << (shift * c)) for u, c in nb.items()] for nb in adj]
    elems = sorted(range(n), key=keys.__getitem__)
    cell_of = [0] * n
    end = [0] * n
    starts = []
    for i, v in enumerate(elems):
        if i == 0 or keys[v] != keys[elems[i - 1]]:
            starts.append(i)
        cell_of[v] = starts[-1]
        end[starts[-1]] = i + 1
    part = (elems, cell_of, end)
    _equitable(part, starts, wadj)
    return part, wadj


def _cells(part) -> list[list[int]]:
    """The cells of an ordered partition, in order."""
    elems, _, end = part
    cells = []
    s = 0
    while s < len(elems):
        cells.append(elems[s:end[s]])
        s = end[s]
    return cells


def _target_cell(part) -> int | None:
    """The start of the first smallest non-singleton cell, or None when
    the partition is discrete."""
    _, _, end = part
    best = None
    s = 0
    while s < len(end):
        size = end[s] - s
        if size > 1 and (best is None or size < end[best] - best):
            best = s
        s = end[s]
    return best


def _individualise(part, t: int, v: int):
    """A copy of `part` with v split off, as a singleton first, from the
    cell that starts at t."""
    elems, cell_of, end = (list(x) for x in part)
    e = end[t]
    rest = [u for u in elems[t:e] if u != v]
    elems[t] = v
    elems[t + 1:e] = rest
    cell_of[v] = t
    end[t] = t + 1
    for u in rest:
        cell_of[u] = t + 1
    end[t + 1] = e
    return elems, cell_of, end


def _orbit(v: int, gens) -> set[int]:
    orbit = {v}
    todo = [v]
    while todo:
        x = todo.pop()
        for g in gens:
            y = g.images[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _aut_generators(adj: list[dict[int, int]], budget: int) -> tuple[list[Perm], int]:
    """A strong generating set of the colour-preserving automorphisms of
    the graph given as {neighbour: colour} dicts, and the group's order.

    Individualisation and refinement (McKay & Piperno, "Practical graph
    isomorphism II", J. Symb. Comput. 2014): the root partition is
    `_refined` from `_degree_triangles`, each node individualises one
    vertex of its target cell and refines.  The first path takes the
    first vertex of each target cell down to a discrete leaf.  Going back up, from the deepest
    level to the root, every target-cell vertex w outside the orbit of the
    first-path vertex v under the generators found so far (all fix the
    first path above this level) has its subtree searched for a leaf whose
    traces match the first path at every depth and whose map from the
    first leaf is an automorphism.  Such a map, which sends v to w, is a
    new generator; a w without one is rejected with its whole orbit.  The
    order is the product of the orbit lengths.
    """
    n = len(adj)
    left = budget

    def spend():
        nonlocal left
        left -= 1
        if left < 0:
            raise BudgetExceeded("aut_graph search nodes", budget)

    spend()
    part, wadj = _refined(_degree_triangles(adj), adj)

    # the first path: (partition, target cell start) per level, and the
    # trace that individualising the target's first vertex produced
    path = []
    traces = []
    t = _target_cell(part)
    while t is not None:
        path.append((part, t))
        part = _individualise(part, t, part[0][t])
        spend()
        traces.append(_equitable(part, [t], wadj))
        t = _target_cell(part)
    first_leaf = part[0]

    def leaf_automorphism(node, t: int, w: int, level: int) -> Perm | None:
        # depth-first through the subtree below w, one frame per node: its
        # partition, its target cell, its untried children and its level
        stack = [(node, t, iter((w,)), level)]
        while stack:
            node, t, children, d = stack[-1]
            u = next(children, None)
            if u is None:
                stack.pop()
                continue
            child = _individualise(node, t, u)
            spend()
            if _equitable(child, [t], wadj, traces[d]) is None:
                continue
            if d + 1 == len(path):
                images = [0] * n
                for x, y in zip(first_leaf, child[0]):
                    images[x] = y
                if all(adj[images[x]].get(images[y]) == c for x in range(n) for y, c in adj[x].items()):
                    return Perm(images)
                continue
            # equal traces leave the same cells as on the first path
            t2 = path[d + 1][1]
            stack.append((child, t2, iter(child[0][t2:child[2][t2]]), d + 1))
        return None

    gens: list[Perm] = []
    order = 1
    for level in reversed(range(len(path))):
        node, t = path[level]
        cell = node[0][t:node[2][t]]
        orbit = _orbit(cell[0], gens)
        rejected: set[int] = set()
        for w in cell[1:]:
            if w in orbit or w in rejected:
                continue
            g = leaf_automorphism(node, t, w, level)
            if g is None:
                rejected |= _orbit(w, gens)
            else:
                gens.append(g)
                orbit = _orbit(cell[0], gens)
        order *= len(orbit)
    return gens, order


def graph_auts(g) -> list[GraphAut]:
    """aut_graph, converted to explicit vertex mappings; only the search
    node budget bounds it."""
    group = aut_graph(g, max_vertices=len(g.vertices))
    verts = group.points
    out = []
    for p in group.sorted_elements():
        out.append(GraphAut({verts[i]: verts[p(i)] for i in range(len(verts))}))
    return out


# ---------------------------------------------------------------------------
# The edge gadget and the transform
# ---------------------------------------------------------------------------

_GADGET_VERTICES = ("x", "y", "z", "a", "b", "c")
_GADGET_EDGES = (
    ("x", "z"),
    ("x", "b"),
    ("y", "a"),
    ("y", "c"),
    ("z", "a"),
    ("z", "b"),
    ("z", "c"),
    ("a", "b"),
    ("a", "c"),
)
# the gadget's only non-identity automorphism, (x y)(z a)(b c)
_GADGET_SWAP = {"x": "y", "y": "x", "z": "a", "a": "z", "b": "c", "c": "b"}
# fixed order used to enumerate the edges of the gadget minus y
_GADGET_ORDER = {"x": 0, "z": 1, "a": 2, "b": 3, "c": 4}
_INTERNAL = ("z", "a", "b", "c")


def gadget() -> Graph:
    """The fixed 6-vertex auxiliary graph whose only symmetry is the swap
    (x y)(z a)(b c).

    The attachment vertices x and y share no neighbour (N(x) = {z, b},
    N(y) = {a, c}), so the swap moves every interior vertex too.
    """
    return Graph(_GADGET_VERTICES, [_edge(*e) for e in _GADGET_EDGES])


def gadget_prime_edges() -> list[frozenset]:
    """Edges of the gadget with y removed, in the fixed enumeration order."""
    prime = [e for e in (_edge(*p) for p in _GADGET_EDGES) if "y" not in e]
    prime.sort(key=lambda e: tuple(sorted(_GADGET_ORDER[v] for v in e)))
    return prime


N_COLORS = len(gadget_prime_edges())  # 7


def _gadget_edge_colors() -> dict:
    """Color of each gadget edge: the gadget_prime_edges() index of the
    first member of its orbit under the swap.  The five orbits take colors
    0..4; colors 5 and 6 stay empty."""
    index = {e: i for i, e in enumerate(gadget_prime_edges())}
    colors = {}
    for u, w in _GADGET_EDGES:
        orbit = (_edge(u, w), _edge(_GADGET_SWAP[u], _GADGET_SWAP[w]))
        colors[orbit[0]] = min(index[e] for e in orbit if e in index)
    return colors


_GADGET_COLORS = _gadget_edge_colors()


# ":" and "|" tag the transform's output labels, and "," joins the
# endpoints of an edge in a JSON colour key (graph_to_json)
_SEP_CHARS = (":", "|", ",")


def transform(g: Graph) -> ColoredGraph:
    """Replace every edge of a connected graph by a gadget copy, colored
    by the swap orbits of the gadget edges.

    The copy over edge {s, t} glues x to the sorted-first endpoint s and
    y to t.  Each edge takes the color of its orbit under the gadget's
    swap (see _gadget_edge_colors), so every automorphism of the bare
    output preserves the colors.  Every class is a union of stars: the
    attachment classes 0 and 1 are stars centred at original vertices,
    the interior classes 2..4 hold at most two disjoint edges per copy,
    and classes 5 and 6 are empty.

    Output vertices: "1:x" for original vertices x and "2:s|t:w" for the
    gadget interior w in the copy over edge {s, t}.
    """
    if not g.vertices:
        raise Disconnected("transform needs a nonempty graph")
    if not g.is_connected():
        raise Disconnected("transform needs a connected graph")
    for v in g.vertices:
        if any(ch in v for ch in _SEP_CHARS):
            raise InvalidInput(f"vertex label {v!r} contains a reserved character")

    vertices = {f"1:{x}" for x in g.vertices}
    edges = set()
    colors = {}
    for e in g.edges:
        s, t = sorted(e)
        place = {w: f"2:{s}|{t}:{w}" for w in _INTERNAL}
        vertices.update(place.values())
        place["x"] = f"1:{s}"
        place["y"] = f"1:{t}"
        for u, w in _GADGET_EDGES:
            ed = _edge(place[u], place[w])
            edges.add(ed)
            colors[ed] = _GADGET_COLORS[_edge(u, w)]
    return ColoredGraph(Graph(vertices, edges), colors, N_COLORS)


def _parse_transform_label(label: str):
    if label.startswith("1:"):
        return ("orig", label[2:])
    if label.startswith("2:"):
        rest = label[2:]
        pair, _, w = rest.rpartition(":")
        s, _, t = pair.partition("|")
        if w and s and t:
            return ("inner", _edge(s, t), w)
    return None


def original_graph(cg: ColoredGraph) -> Graph:
    """Recover the input graph from a transform output."""
    vertices = set()
    edges = set()
    for v in cg.vertices:
        parsed = _parse_transform_label(v)
        if parsed is None:
            raise NotFromTransform(f"vertex {v!r} lacks the transform tagging")
        if parsed[0] == "orig":
            vertices.add(parsed[1])
        else:
            edges.add(parsed[1])
    return Graph(vertices, edges)


def restrict_aut(cg: ColoredGraph, phi: GraphAut) -> GraphAut:
    """Restrict an automorphism of a transform output to the original graph."""
    gamma = original_graph(cg)
    mapping = {}
    for x in gamma.vertices:
        img = phi(f"1:{x}")
        parsed = _parse_transform_label(img)
        if parsed is None or parsed[0] != "orig":
            raise NotFromTransform("automorphism does not preserve the original-vertex tag class")
        mapping[x] = parsed[1]
    psi = GraphAut(mapping)
    if not psi.is_automorphism_of(gamma):
        raise AssertionError("restriction is not an automorphism")  # pragma: no cover
    return psi


def lift_aut(cg: ColoredGraph, psi: GraphAut) -> GraphAut:
    """The unique lift of an original-graph automorphism to the transform.

    The copy over {s, t} goes to the copy over {psi(s), psi(t)}; when psi
    reverses the sorted order of the endpoints, the interior vertices
    move by the gadget's swap, since x is glued to the sorted-first one.
    """
    mapping = {}
    for v in cg.vertices:
        parsed = _parse_transform_label(v)
        if parsed is None:
            raise NotFromTransform(f"vertex {v!r} lacks the transform tagging")
        if parsed[0] == "orig":
            mapping[v] = f"1:{psi(parsed[1])}"
        else:
            _, e, w = parsed
            s, t = sorted(e)
            ps, pt = psi(s), psi(t)
            if ps > pt:
                ps, pt, w = pt, ps, _GADGET_SWAP[w]
            mapping[v] = f"2:{ps}|{pt}:{w}"
    phi = GraphAut(mapping)
    if not phi.is_automorphism_of(cg.graph):
        raise AssertionError("lift is not an automorphism")  # pragma: no cover
    return phi


# ---------------------------------------------------------------------------
# Star colorings
# ---------------------------------------------------------------------------


def is_star(edges) -> bool:
    """A nonempty edge set is a star iff some vertex lies on every edge."""
    edges = list(edges)
    if len(edges) <= 1:
        return True
    common = set(edges[0])
    for e in edges[1:]:
        common &= e
        if not common:
            return False
    return True


def check_star_coloring(cg: ColoredGraph) -> dict:
    """Per color: is the induced subgraph a disjoint union of stars?

    Returns {color: {"ok": bool, "witness": [...] }}, with a failed
    component's edges as the witness.
    """
    report = {}
    for c in range(cg.color_count):
        class_edges = cg.color_class(c)
        ok = True
        witness = None
        for comp in _edge_components(class_edges):
            if not is_star(comp):
                ok = False
                witness = sorted(sorted(e) for e in comp)
                break
        report[c] = {"ok": ok, "witness": witness}
    return report


def _edge_components(edges) -> list[list[frozenset]]:
    edges = list(edges)
    parent: dict = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        for v in e:
            parent.setdefault(v, v)
    for e in edges:
        a, b = tuple(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict = {}
    for e in edges:
        r = find(next(iter(e)))
        groups.setdefault(r, []).append(e)
    return list(groups.values())


def greedy_star_coloring(g: Graph) -> ColoredGraph:
    """A small star coloring: each edge takes the least color whose class
    stays a disjoint union of stars."""
    colors = {}
    classes: list[set] = []
    for e in sorted(g.edges, key=lambda e: sorted(e)):
        placed = False
        for c, cls in enumerate(classes):
            trial = cls | {e}
            if all(is_star(comp) for comp in _edge_components(trial)):
                cls.add(e)
                colors[e] = c
                placed = True
                break
        if not placed:
            classes.append({e})
            colors[e] = len(classes) - 1
    return ColoredGraph(g, colors, max(1, len(classes)))


# ---------------------------------------------------------------------------
# Finite structures and their graph codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteStructure:
    """A finite universe with named relations and unary functions."""

    universe: tuple
    relations: dict
    unary_functions: dict

    def __post_init__(self):
        uni = set(self.universe)
        for name, tuples in self.relations.items():
            arities = {len(t) for t in tuples}
            if len(arities) > 1:
                raise ValueError(f"relation {name!r} has mixed arities")
            for t in tuples:
                if not t:
                    raise ValueError(f"relation {name!r} contains an empty tuple")
                for x in t:
                    if x not in uni:
                        raise ValueError(f"tuple entry {x!r} outside the universe")
        for name, fn in self.unary_functions.items():
            if set(fn.keys()) != uni or any(v not in uni for v in fn.values()):
                raise ValueError(f"function {name!r} is not a total map on the universe")

    def all_relations(self) -> list[tuple[str, list[tuple]]]:
        """Relations plus functions-as-binary-relations, sorted by name."""
        items = [(f"R.{n}", sorted(ts)) for n, ts in self.relations.items()]
        items += [
            (f"F.{n}", sorted((x, fn[x]) for x in fn))
            for n, fn in self.unary_functions.items()
        ]
        return sorted(items)


def _pendant_path(vertices: set, edges: set, base: str, prefix: str, length: int):
    prev = base
    for i in range(1, length + 1):
        v = f"{prefix}.{i}"
        vertices.add(v)
        edges.add(_edge(prev, v))
        prev = v


def code_structure(s: FiniteStructure) -> Graph:
    """A connected graph whose automorphism group is Aut(s).

    Universe elements become vertices joined to an apex; each relation
    tuple gets a spine path whose vertices point at the tuple entries.
    Pendant paths of pairwise distinct lengths tag the apex (2), the
    universe vertices (3), the tuple positions (5, 7, 9, ...) and the
    relation names (6, 8, 10, ...), so no tag class can map to another.
    (The apex tag must stay shorter than a universe vertex plus its tag,
    or the whole branch could trade places with it.)

    Vertex x of the universe is "e_x" and its tag path "t_x.1".."t_x.3";
    no other label starts with "e_" or "t_", and the tag index after the
    last "." holds no ".", so distinct elements never share a vertex.
    """
    vertices: set = set()
    edges: set = set()

    def uvert(x) -> str:
        # no ":", "|" or ",", which the transform reserves
        return f"e_{x}"

    apex = "apex"
    vertices.add(apex)
    _pendant_path(vertices, edges, apex, "apex.t", 2)
    for x in s.universe:
        vertices.add(uvert(x))
        edges.add(_edge(apex, uvert(x)))
        _pendant_path(vertices, edges, uvert(x), f"t_{x}", 3)

    for j, (name, tuples) in enumerate(s.all_relations()):
        rel_tag = 6 + 2 * j
        for t_idx, tup in enumerate(tuples):
            spine = [f"r{j}.{t_idx}.s{i}" for i in range(len(tup))]
            vertices.update(spine)
            for i in range(len(spine) - 1):
                edges.add(_edge(spine[i], spine[i + 1]))
            for i, x in enumerate(tup):
                edges.add(_edge(spine[i], uvert(x)))
                _pendant_path(vertices, edges, spine[i], f"{spine[i]}.p", 5 + 2 * i)
            _pendant_path(vertices, edges, spine[0], f"r{j}.{t_idx}.rt", rel_tag)

    return Graph(vertices, edges)


def cayley_structure(group: PermGroup) -> FiniteStructure:
    """The right-translation structure of a finite group: one unary
    function per element g sending x to x*g."""
    elems = group.sorted_elements()
    index = {x: i for i, x in enumerate(elems)}
    universe = tuple(f"g{i}" for i in range(len(elems)))
    functions = {}
    for i, g in enumerate(elems):
        functions[f"m{i}"] = {f"g{j}": f"g{index[x * g]}" for j, x in enumerate(elems)}
    return FiniteStructure(universe=universe, relations={}, unary_functions=functions)


# ---------------------------------------------------------------------------
# Graph corpus enumeration (used by acceptance checks)
# ---------------------------------------------------------------------------


def connected_graphs_up_to_iso(n: int) -> list[Graph]:
    """All isomorphism types of connected graphs on exactly n vertices,
    labelled v0..v{n-1}; meant for n <= 6.

    The edge masks are scanned in increasing order.  A mask not seen yet
    is the least of its orbit under S_n, and its whole orbit is marked
    seen through one edge-bit table per vertex permutation (n! tables);
    the mask's graph is kept when it is connected (orderly generation:
    Read, "Every one a winner", 1978; McKay, "Isomorph-free exhaustive
    generation", 1998).
    """
    labels = [f"v{i}" for i in range(n)]
    pairs = list(combinations(range(n), 2))
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    # tables[s][k]: the bit of the image of edge k under permutation s
    tables = [[bit[min(p[i], p[j]), max(p[i], p[j])] for i, j in pairs] for p in permutations(range(n))]
    seen = bytearray(1 << len(pairs))
    out: list[Graph] = []
    for mask in range(1 << len(pairs)):
        if seen[mask]:
            continue
        ks = [k for k in range(len(pairs)) if mask >> k & 1]
        for table in tables:
            seen[sum(table[k] for k in ks)] = 1
        g = Graph(labels, [_edge(labels[pairs[k][0]], labels[pairs[k][1]]) for k in ks])
        if g.is_connected():
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# JSON interfaces
# ---------------------------------------------------------------------------


def _edge_key(e: frozenset) -> str:
    return ",".join(sorted(e))


def graph_to_json(g, pretty: bool = False) -> str:
    graph, colors = _unwrap(g)
    doc: dict = {
        "vertices": sorted(graph.vertices),
        "edges": sorted(sorted(e) for e in graph.edges),
    }
    if colors is not None:
        bad = sorted(v for v in graph.vertices if "," in v)
        if bad:
            raise InvalidInput(f"vertex label {bad[0]!r} contains ',', which joins colour-key endpoints")
        doc["colors"] = {_edge_key(e): c for e, c in sorted(colors.items(), key=lambda kv: _edge_key(kv[0]))}
        doc["color_count"] = g.color_count
    return json.dumps(doc, indent=2 if pretty else None, sort_keys=True)


def graph_from_json(text: str):
    try:
        doc = json.loads(text)
        graph = Graph(doc["vertices"], [tuple(e) for e in doc["edges"]])
        if "colors" in doc:
            colors = {frozenset(k.split(",")): v for k, v in doc["colors"].items()}
            count = doc.get("color_count", (max(colors.values()) + 1) if colors else 1)
            return ColoredGraph(graph, colors, count)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInput(f"malformed graph JSON: {exc!r}") from exc
    return graph


def structure_to_json(s: FiniteStructure) -> str:
    doc = {
        "universe": list(s.universe),
        "relations": {n: sorted(list(t) for t in ts) for n, ts in s.relations.items()},
        "functions": {n: dict(sorted(fn.items())) for n, fn in s.unary_functions.items()},
    }
    return json.dumps(doc, sort_keys=True)


def structure_from_json(text: str) -> FiniteStructure:
    try:
        doc = json.loads(text)
        return FiniteStructure(
            universe=tuple(doc["universe"]),
            relations={n: {tuple(t) for t in ts} for n, ts in doc.get("relations", {}).items()},
            unary_functions={n: dict(fn) for n, fn in doc.get("functions", {}).items()},
        )
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInput(f"malformed structure JSON: {exc!r}") from exc
