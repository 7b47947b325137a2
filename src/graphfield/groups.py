"""Finite permutation groups: closures, normalizers, automorphism groups,
automorphism/normalizer towers, PSL/PGL/PGammaL over small fields, and
semidirect products.

Groups are always materialized as explicit element sets; subgroup
equality is element-set equality.  A `PermGroup`'s generators generate
its elements: every builder here keeps that, code that builds one
directly must too, and the code here reads the generators instead of
deriving a generating set again; `semidirect` takes the embedded
generators of N and H.  Everything here is exhaustive search tuned
only as far as desk scale requires.

`closure` builds a group by Dimino's coset enumeration, and a product
of permutations is one C-level gather over the image tuple.

Automorphisms and isomorphisms of abstract groups come from one
depth-first search over generator images (`_isomorphisms`), which
charges each prefix to its `Budget`.  The preamble before it, the
conjugacy classes and the choice of generators, charges fixed counts to
the same budget, so the node budget is the only limit on either search:
2·|G|·|gens| for the classes, even when the group holds them already,
and |gens|·|closure| for each closure of the generator choice.  These
are the product counts of an uncached class walk and of a breadth-first
closure; the charges keep those counts rather than the products made
now, so every refusal happens where it did.  `find_isomorphism` runs it from
G to H and stops at the first tuple that extends to an isomorphism.
`aut_group` runs it from G to G and gives the full check to one tuple
per orbit of the automorphisms found so far; the automorphisms that
passed generate Aut(G), and its element set comes from their closure.

PSL, PGL and PGammaL(2, q), q a prime power with |PGL(2, q)| within
`DEFAULT_CLOSURE_CAP` (q <= 27), permute the q + 1 points of the
projective line over GF(q), the `_modgcd` image field GF(p^k) whose
elements are the ints below q; this module has no field arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter

from ._modgcd import _image_field
from .errors import (
    Budget,
    BudgetExceeded,
    NotAnAction,
    NotCenterless,
    NotPrimePower,
    NotSubgroup,
)

DEFAULT_CLOSURE_CAP = 20000
DEFAULT_AUT_NODE_BUDGET = 2_000_000


class Perm:
    """A permutation of {0, ..., n-1}, stored as its image tuple.

    Composition is right-to-left: (p * q)(x) = p(q(x)).  The constructor
    refuses images that are not a permutation of range(n); products and
    inverses, permutations by construction, skip that check.
    """

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        self.images = tuple(images)
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"images {self.images!r} are not a permutation of range({len(self.images)})")
        self._hash = hash(self.images)

    @staticmethod
    def identity(n: int) -> "Perm":
        return _perm(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Perm":
        images = list(range(n))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                images[x] = cyc[(i + 1) % len(cyc)]
        return Perm(images)

    def to_cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                seen.add(start)
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        # one C-level gather; below degree 2, itemgetter returns a scalar
        # or raises, and the only permutation is the identity
        if len(other.images) > 1:
            return _perm(itemgetter(*other.images)(self.images))
        return _perm(tuple(self.images[x] for x in other.images))

    def inv(self) -> "Perm":
        out = [0] * len(self.images)
        for i, x in enumerate(self.images):
            out[x] = i
        return _perm(tuple(out))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inv() ** (-n)
        acc = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.to_cycles()))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other: "Perm"):
        return self.images < other.images

    def __repr__(self):
        cycles = self.to_cycles()
        if not cycles:
            return "Perm(id)"
        return "Perm(" + "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) + ")"


_new_perm = object.__new__  # a module global: cheaper to call than object.__new__


def _perm(images: tuple) -> Perm:
    """The Perm with this image tuple, which must be a permutation of
    range(len(images)), without the constructor's check."""
    p = _new_perm(Perm)
    p.images = images
    p._hash = hash(images)
    return p


class PermGroup:
    """A materialized permutation group.  Invariant: `generators`
    generate `elements` (the trivial group may have none); every builder
    keeps it, and code that builds a `PermGroup` directly must too.
    `points` optionally labels the permuted domain (e.g. graph vertices
    or group-element indices); it is cosmetic.  The elements are frozen,
    so `conjugacy_classes` computes the classes once and keeps them here.
    """

    def __init__(self, degree: int, generators, elements, points=None):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = frozenset(elements)
        self.points = tuple(points) if points is not None else None
        self._classes: tuple[frozenset, ...] | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains_group(self, other: "PermGroup") -> bool:
        return other.elements <= self.elements

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def is_abelian(self) -> bool:
        return all(a * b == b * a for a in self.generators for b in self.generators)

    def sorted_elements(self) -> list[Perm]:
        return sorted(self.elements)

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"


def closure(gens, cap: int = DEFAULT_CLOSURE_CAP, degree: int | None = None) -> PermGroup:
    """Materialize the group generated by `gens` by Dimino's coset
    enumeration (G. Butler, *Fundamental Algorithms for Permutation
    Groups*, LNCS 559, 1991, ch. 7).

    The generators join one at a time; one already in H, the group of
    those before it, is skipped.  Otherwise <H, s> is a union of right
    cosets H·r: starting from r = 1, each representative r and each
    generator t so far give r·t, and when r·t is new its coset H·(r·t)
    is added and r·t becomes a representative.  The union contains 1 and
    is closed under right products by the generators, so it is the group.
    That takes about |G| + (cosets·generators) products, against the
    |G|·|gens| of a breadth-first walk.  Raises BudgetExceeded("group
    closure", cap) exactly when the group has more than `cap` elements
    (an addition that would pass `cap` is refused before it is made).
    """
    gens = list(gens)
    if degree is None:
        if not gens:
            raise ValueError("need a degree for the trivial group")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators of mixed degree")
    ident = Perm.identity(degree)
    elements = {ident}
    added: list[Perm] = []
    for s in gens:
        if s in elements:
            continue
        added.append(s)
        subgroup = list(elements)
        reps = [ident]
        for r in reps:
            for t in added:
                rt = r * t
                if rt not in elements:
                    if len(elements) + len(subgroup) > cap:
                        raise BudgetExceeded("group closure", cap)
                    elements.update([h * rt for h in subgroup])
                    reps.append(rt)
    return PermGroup(degree, gens, elements)


def greedy_generators(elements, degree: int) -> list[Perm]:
    """A small (not minimal) generating set for a materialized group.

    Raises ValueError unless the closure of the generators is exactly
    `elements`, so a set that is not a group is refused.
    """
    target = set(elements)
    gens: list[Perm] = []
    have = {Perm.identity(degree)}
    for x in sorted(target, key=lambda p: (-p.order(), p.images)):
        if x in have:
            continue
        gens.append(x)
        try:
            have = set(closure(gens, cap=len(target) + 1, degree=degree).elements)
        except BudgetExceeded:
            have = None  # the generators make more elements than the set has
            break
        if len(have) == len(target):
            break
    if have != target:
        raise ValueError(f"{len(target)} permutations of degree {degree} are not closed under products")
    return gens or [Perm.identity(degree)]


def subgroup(G: PermGroup, elements) -> PermGroup:
    elements = frozenset(elements)
    gens = greedy_generators(elements, G.degree)
    return PermGroup(G.degree, gens, elements, points=G.points)


def normalizer(G: PermGroup, H: PermGroup) -> PermGroup:
    """{g in G : g H g^-1 = H}."""
    if not G.contains_group(H):
        raise NotSubgroup("H is not a subgroup of G")
    out = set()
    for g in G.elements:
        ginv = g.inv()
        if all((g * h * ginv) in H.elements for h in H.generators):
            out.add(g)
    return subgroup(G, out)


def centralizer(G: PermGroup, S) -> PermGroup:
    """Elements of G commuting with every element of S."""
    S = list(S.generators if isinstance(S, PermGroup) else S)
    out = {g for g in G.elements if all(g * s == s * g for s in S)}
    return subgroup(G, out)


def center(G: PermGroup) -> PermGroup:
    return centralizer(G, G)


def _conjugation_orbits(G: PermGroup, xs):
    """The orbits under conjugation by G of the elements xs, in order,
    skipping elements that lie in an orbit already yielded."""
    gen_invs = [(g, g.inv()) for g in G.generators]
    seen = set()
    for x in xs:
        if x in seen:
            continue
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop()
            for g, gi in gen_invs:
                z = g * y * gi
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        seen |= orbit
        yield orbit


def conjugacy_classes(G: PermGroup) -> list[frozenset]:
    """The classes in the order of their least elements, computed once
    per group."""
    if G._classes is None:
        G._classes = tuple(frozenset(orbit) for orbit in _conjugation_orbits(G, G.sorted_elements()))
    return list(G._classes)


def normal_closure(G: PermGroup, seed_elements) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements."""
    conj_gens = set().union(*_conjugation_orbits(G, seed_elements))
    return closure(sorted(conj_gens), cap=G.order + 1, degree=G.degree)


def is_simple(G: PermGroup) -> bool:
    """Exhaustive: no single nontrivial element has a proper normal closure."""
    if G.order == 1:
        return False
    ident = G.identity()
    for cls in conjugacy_classes(G):
        rep = next(iter(cls))
        if rep == ident:
            continue
        if normal_closure(G, [rep]).order != G.order:
            return False
    return True


# ---------------------------------------------------------------------------
# Automorphism groups of abstract finite groups
# ---------------------------------------------------------------------------


@dataclass
class AutGroup:
    """Aut(G) realized on the sorted element list of G.

    `domain` is the sorted element list; automorphisms are permutations
    of its indices.  `inner` maps each g in G to conjugation-by-g as such
    an index permutation.
    """

    group: PermGroup
    domain: tuple
    index: dict
    inner: dict


def _element_invariants(G: PermGroup):
    inv = {}
    for cls in conjugacy_classes(G):  # conjugates share an order
        inv.update(dict.fromkeys(cls, (next(iter(cls)).order(), len(cls))))
    return inv


def _charged_invariants(G: PermGroup, budget: Budget):
    """_element_invariants(G), after charging 2·|G|·|generators| units to
    `budget`: the products of one walk over the conjugacy classes, charged
    even when G holds its classes already, so refusals do not move."""
    budget.charge(2 * G.order * len(G.generators))
    return _element_invariants(G)


def _choose_generators(G: PermGroup, invariants, budget: Budget) -> list[Perm]:
    """A small generating set biased toward elements with rare invariants,
    preferring a 2-element set when one exists.  A partner x of g1 that
    lies in a proper <g1, x'> found before is skipped: <g1, x> is proper.
    Each closure of gens charges |gens|·|closure| units to `budget`: the
    products of a breadth-first closure, not the fewer that Dimino's
    makes, kept so that every refusal happens where it did."""
    if G.order == 1:
        return [G.identity()]

    def close(gens) -> PermGroup:
        group = closure(gens, cap=G.order + 1, degree=G.degree)
        budget.charge(len(gens) * group.order)
        return group

    domain = G.sorted_elements()
    pool_size = {}
    for x in domain:
        pool_size[invariants[x]] = pool_size.get(invariants[x], 0) + 1
    by_rarity = sorted(
        (x for x in domain if not x.is_identity()),
        key=lambda x: (pool_size[invariants[x]], x.images),
    )
    g1 = by_rarity[0]
    have = close([g1])
    proper = set(have.elements)  # the union of the proper <g1, x> found so far
    for x in by_rarity:
        if x in proper:
            continue
        pair = close([g1, x])
        if pair.order == G.order:
            return [g1, x]
        proper |= pair.elements
    gens = [g1]
    for x in by_rarity:
        if x in have.elements:
            continue
        gens.append(x)
        have = close(gens)
        if have.order == G.order:
            return gens
    return gens


def _hom_from_generator_images(G: PermGroup, H: PermGroup, gens, images, budget: Budget) -> dict | None:
    """Extend gens -> images to an isomorphism G -> H, or None.

    Elements are reached breadth-first by right-multiplying with
    generators; any inconsistency between two derivations kills the
    candidate immediately.  Each product pair costs one node of `budget`,
    which every candidate of one search shares.
    """
    charge = budget.charge
    phi = {G.identity(): H.identity()}
    queue = [G.identity()]
    pairs = list(zip(gens, images))
    while queue:
        nxt = []
        for x in queue:
            fx = phi[x]
            for g, h in pairs:
                charge()
                y = x * g
                fy = fx * h
                known = phi.get(y)
                if known is None:
                    phi[y] = fy
                    nxt.append(y)
                elif known != fy:
                    return None
        queue = nxt
    if len(phi) != G.order or len(set(phi.values())) != H.order:
        return None  # gens failed to generate, or the image is a proper subgroup
    if any(v not in H.elements for v in phi.values()):
        return None
    return phi


def _isomorphisms(G: PermGroup, H: PermGroup, gens, inv_G, inv_H, budget: Budget, visit) -> None:
    """Call visit(images, extend) on each tuple of images in H for `gens`
    that passes the pair-product check, until visit returns True.

    Images are chosen depth first, one generator position at a time, from
    the elements of H with that generator's (order, class size)
    invariant.  A prefix is cut as soon as the product of two chosen
    images, in either order, has another invariant than the product of
    their generators.  Each prefix costs one node of the caller's
    `budget`; extend(images) runs _hom_from_generator_images on a tuple
    and draws on the same budget, so visit decides which tuples get that
    check.
    """
    domain_H = H.sorted_elements()
    pools = [[y for y in domain_H if inv_H[y] == inv_G[g]] for g in gens]
    pair_inv = [[inv_G[a * b] for b in gens] for a in gens]
    chosen: list[Perm] = []

    def extend(images) -> dict | None:
        return _hom_from_generator_images(G, H, gens, images, budget)

    def descend(i: int) -> bool:
        if i == len(gens):
            return visit(tuple(chosen), extend)
        for y in pools[i]:
            budget.charge()
            if all(inv_H[x * y] == pair_inv[j][i] and inv_H[y * x] == pair_inv[i][j]
                   for j, x in enumerate(chosen)):
                chosen.append(y)
                if descend(i + 1):
                    return True
                chosen.pop()
        return False

    descend(0)


def aut_group(G: PermGroup, node_budget: int = DEFAULT_AUT_NODE_BUDGET) -> AutGroup:
    """All automorphisms of G: the search of _isomorphisms with H = G,
    checking one image tuple per orbit of the automorphisms found.

    Aut(G) acts on the image tuples of the chosen generators by
    t -> a∘t, and t extends to an automorphism exactly when a∘t does, so
    the tuples that extend form the one orbit Aut·gens.  The visitor keeps
    A, the closure of the automorphisms verified so far, as permutations
    of the indices of G's sorted elements.  A tuple in A·gens is a known
    automorphism and is skipped; a tuple in A·r, for a tuple r that was
    checked and rejected, is rejected too; any other tuple gets the full
    _hom_from_generator_images check, and if it passes, its map joins A's
    generators and A is closed again.  When the search ends every tuple
    that extends lies in A·gens, so A is Aut(G), generated by the verified
    automorphisms in the order found (none when Aut(G) is trivial).
    `node_budget` is the one limit: the conjugacy classes and the
    generator choice before the search charge it the fixed counts of
    the module docstring, the search charges each node, and A holds at most
    node_budget // |G| elements; running out raises BudgetExceeded, and
    when A outgrows its bound the error names "automorphisms held" and
    that bound.

    `inner` is built by a walk over the generators of G, since
    conjugation by x·g is conjugation by x after conjugation by g.
    """
    budget = Budget("automorphism search", node_budget)
    domain = tuple(G.sorted_elements())
    index = {x: i for i, x in enumerate(domain)}
    ident = Perm.identity(len(domain))
    invariants = _charged_invariants(G, budget)
    gens = _choose_generators(G, invariants, budget)
    base = tuple(index[g] for g in gens)
    found: list[Perm] = []
    autos = frozenset([ident])
    known = {base}
    rejected_reps: list[tuple] = []
    rejected: set[tuple] = set()

    def orbit(t: tuple) -> set[tuple]:
        return {tuple(a.images[i] for i in t) for a in autos}

    def visit(images, extend) -> bool:
        nonlocal autos, known, rejected
        t = tuple(index[y] for y in images)
        if t in known or t in rejected:
            return False
        phi = extend(images)
        if phi is None:
            rejected_reps.append(t)
            rejected |= orbit(t)
            return False
        found.append(Perm([index[phi[x]] for x in domain]))
        try:
            autos = closure(found, cap=node_budget // G.order, degree=len(domain)).elements
        except BudgetExceeded as exc:
            raise BudgetExceeded(f"{budget.what}: automorphisms held", node_budget // G.order) from exc
        known = orbit(base)
        rejected = set().union(*map(orbit, rejected_reps))
        return False

    _isomorphisms(G, G, gens, invariants, invariants, budget, visit)
    group = PermGroup(len(domain), found, autos)

    conj = {G.identity(): ident}
    steps = []
    for g in gens:
        gi = g.inv()
        steps.append((g, Perm([index[g * x * gi] for x in domain])))
    queue = [G.identity()]
    for x in queue:
        for g, cg in steps:
            y = x * g
            if y not in conj:
                conj[y] = conj[x] * cg
                queue.append(y)
    inner = {g: conj[g] for g in domain}
    return AutGroup(group=group, domain=domain, index=index, inner=inner)


def find_isomorphism(G: PermGroup, H: PermGroup, node_budget: int = DEFAULT_AUT_NODE_BUDGET):
    """An explicit isomorphism G -> H as a dict, or None: the first tuple
    of the search shared with aut_group that extends to an isomorphism.
    Both groups' conjugacy classes and the generator choice are charged
    to `node_budget` as in aut_group."""
    if G.order != H.order:
        return None
    budget = Budget("isomorphism search", node_budget)
    found: list[dict] = []

    def stop(images, extend) -> bool:
        phi = extend(images)
        if phi is None:
            return False
        found.append(phi)
        return True

    inv_G = _charged_invariants(G, budget)
    inv_H = _charged_invariants(H, budget)
    gens = _choose_generators(G, inv_G, budget)
    _isomorphisms(G, H, gens, inv_G, inv_H, budget, stop)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------


@dataclass
class TowerReport:
    """A stabilized (or budget-cut) tower.

    chain_orders includes the repeated fixpoint entry, so the last two
    orders are equal iff `stabilized`.  For normalizer towers the actual
    subgroups are kept; for automorphism towers the stage groups are.
    """

    kind: str
    chain_orders: list[int]
    tau: int | None
    stabilized: bool
    stages: list[PermGroup] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "stages": [
                {"stage": i, "order": o, "stabilized": self.stabilized and i >= len(self.chain_orders) - 2}
                for i, o in enumerate(self.chain_orders)
            ],
            "tau": self.tau,
            "stabilized": self.stabilized,
        }


def normalizer_tower(G: PermGroup, H: PermGroup, max_steps: int = 10) -> TowerReport:
    """Iterate H -> N_G(H) until it stabilizes."""
    if not G.contains_group(H):
        raise NotSubgroup("H is not a subgroup of G")
    chain = [H]
    for _ in range(max_steps):
        nxt = normalizer(G, chain[-1])
        if nxt.elements == chain[-1].elements:
            # the fixpoint stage is the group before it, whose conjugacy
            # classes may be computed already
            chain.append(chain[-1])
            return TowerReport(
                kind="normalizer",
                chain_orders=[g.order for g in chain],
                tau=len(chain) - 2,
                stabilized=True,
                stages=chain,
            )
        chain.append(nxt)
    raise BudgetExceeded("normalizer tower steps", max_steps)


def automorphism_tower(G: PermGroup, max_steps: int = 10) -> TowerReport:
    """Iterate G -> Aut(G) with the inner embedding until Aut = Inn."""
    if center(G).order != 1:
        raise NotCenterless("automorphism towers need a centerless base group")
    stages = [G]
    orders = [G.order]
    for step in range(max_steps):
        A = aut_group(stages[-1])
        orders.append(A.group.order)
        if A.group.order == stages[-1].order:
            # Inn has index 1, so Aut = Inn and the tower is done
            stages.append(A.group)
            return TowerReport(
                kind="automorphism",
                chain_orders=orders,
                tau=step,
                stabilized=True,
                stages=stages,
            )
        stages.append(A.group)
    raise BudgetExceeded("automorphism tower steps", max_steps)


# ---------------------------------------------------------------------------
# Projective groups over GF(q)
# ---------------------------------------------------------------------------


def _gf(q: int):
    """GF(q) as the `_modgcd` image field GF(p^k), p the least divisor
    of q; its elements are the ints below q.  q is refused first when
    |PGL(2, q)| = q^3 - q, the number of matrices `_projective_group`
    turns into permutations, exceeds `DEFAULT_CLOSURE_CAP`."""
    if q**3 - q > DEFAULT_CLOSURE_CAP:
        raise BudgetExceeded(f"PGL(2, {q})", DEFAULT_CLOSURE_CAP)
    if q >= 2:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k = next(k for k in range(1, q) if p**k >= q)
        if p**k == q:
            return _image_field(p, k)
    raise NotPrimePower(f"q = {q} is not a prime power")


def _projective_line(q: int):
    """GF(q), the points of its projective line and their index: (1, 0),
    then (x, 1) with x ordered by its base-p digits, low digit first."""
    F = _gf(q)
    xs = sorted(range(q), key=lambda x: [x // F.p**i % F.p for i in range(F.k)])
    points = [(1, 0)] + [(x, 1) for x in xs]
    return F, points, {pt: i for i, pt in enumerate(points)}


def _point_perm(F, points, index, f) -> Perm:
    """The permutation of `points` induced by the map f on GF(q)^2."""
    out = []
    for u, v in points:
        u, v = f(u, v)
        out.append(index[(F.mul(u, F.inv(v)), 1) if v else (1, 0)])
    return Perm(out)


def _projective_group(q: int, det_one: bool) -> PermGroup:
    """PGL(2, q), or PSL(2, q) when det_one, with one matrix per element:
    the one whose first nonzero entry is 1, so its first row is (1, b)
    or (0, 1).  Such a matrix is a multiple of one of determinant 1
    exactly when its determinant is a square."""
    F, points, index = _projective_line(q)
    add, mul = F.add, F.mul
    squares = {mul(x, x) for x in range(1, q)}
    normalised = [(1, b, c, d) for b, c, d in product(range(q), repeat=3)]
    normalised += [(0, 1, c, d) for c, d in product(range(q), repeat=2)]
    perms = set()
    for a, b, c, d in normalised:
        det = F.sub(mul(a, d), mul(b, c))
        if det and (det in squares or not det_one):
            perms.add(_point_perm(F, points, index, lambda u, v: (
                add(mul(a, u), mul(b, v)), add(mul(c, u), mul(d, v)))))
    expected = (q**3 - q) // (math.gcd(2, q - 1) if det_one else 1)
    assert len(perms) == expected, f"{len(perms)} elements for q = {q}, expected {expected}"
    gens = greedy_generators(perms, len(points))
    return PermGroup(len(points), gens, perms, points=[str(pt) for pt in points])


def psl2(q: int) -> PermGroup:
    """PSL(2, q) as permutations of the q+1 projective points."""
    return _projective_group(q, det_one=True)


def pgl2(q: int) -> PermGroup:
    return _projective_group(q, det_one=False)


def frobenius_point_perm(q: int) -> Perm:
    """The p-power Frobenius acting on the projective line of GF(q)."""
    F, points, index = _projective_line(q)
    return _point_perm(F, points, index, lambda u, v: (F.pow(u, F.p), F.pow(v, F.p)))


def pgammal2(q: int) -> PermGroup:
    """PGL(2, q) extended by the Frobenius field automorphisms."""
    pgl = pgl2(q)
    fr = frobenius_point_perm(q)
    k = _gf(q).k
    elements = set()
    f_power = Perm.identity(pgl.degree)
    for _ in range(k):
        elements |= {g * f_power for g in pgl.elements}
        f_power = f_power * fr
    expected = pgl.order * k
    assert len(elements) == expected, f"|PGammaL(2,{q})| = {len(elements)}, expected {expected}"
    gens = list(pgl.generators) + [fr]
    return PermGroup(pgl.degree, gens, elements, points=pgl.points)


# ---------------------------------------------------------------------------
# Semidirect products
# ---------------------------------------------------------------------------


@dataclass
class Semidirect:
    group: PermGroup
    n_embed: dict
    h_embed: dict


def semidirect(N: PermGroup, H: PermGroup, action: dict) -> Semidirect:
    """N x| H for a verified action H -> Aut(N).

    `action` maps each element of H to a dict sending each element of N
    to its image.  The product acts faithfully on (N elements) x (H
    points).
    """
    _verify_action(N, H, action)
    n_elems = N.sorted_elements()
    n_index = {x: i for i, x in enumerate(n_elems)}
    deg_h = H.degree
    degree = len(n_elems) * deg_h

    def pair_perm(n: Perm, h: Perm) -> Perm:
        alpha = action[h]
        out = [0] * degree
        for i, m in enumerate(n_elems):
            nm = n * alpha[m]
            base = n_index[nm] * deg_h
            for x in range(deg_h):
                out[i * deg_h + x] = base + h(x)
        return Perm(out)

    elements = {pair_perm(n, h) for n in N.elements for h in H.elements}
    if len(elements) != N.order * H.order:
        raise NotAnAction("semidirect product collapsed; action is not faithful enough")
    n_embed = {n: pair_perm(n, H.identity()) for n in N.elements}
    h_embed = {h: pair_perm(N.identity(), h) for h in H.elements}
    gens = [n_embed[n] for n in N.generators] + [h_embed[h] for h in H.generators]
    return Semidirect(group=PermGroup(degree, gens, elements), n_embed=n_embed, h_embed=h_embed)


def trivial_action(N: PermGroup, H: PermGroup) -> dict:
    ident = {n: n for n in N.elements}
    return {h: dict(ident) for h in H.elements}


def conjugation_action(N: PermGroup, H: PermGroup) -> dict:
    """Action by conjugation when N and H sit in a common symmetric group."""
    if N.degree != H.degree:
        raise NotAnAction("conjugation action needs equal degrees")
    out = {}
    for h in H.elements:
        hi = h.inv()
        mapping = {}
        for n in N.elements:
            img = h * n * hi
            if img not in N.elements:
                raise NotAnAction("H does not normalize N")
            mapping[n] = img
        out[h] = mapping
    return out


def _verify_action(N: PermGroup, H: PermGroup, action: dict):
    if set(action.keys()) != set(H.elements):
        raise NotAnAction("action must be defined on every element of H")
    for h, alpha in action.items():
        if set(alpha.keys()) != set(N.elements):
            raise NotAnAction("each automorphism must be defined on all of N")
        if set(alpha.values()) != set(N.elements):
            raise NotAnAction("action images must be bijections of N")
    # homomorphism property of each alpha_h, checked on generator pairs
    for h, alpha in action.items():
        for a in N.generators:
            for b in N.elements:
                if alpha[a * b] != alpha[a] * alpha[b]:
                    raise NotAnAction("alpha_h is not a homomorphism of N")
    # compatibility alpha_{h1 h2} = alpha_{h1} o alpha_{h2}
    for h1 in H.elements:
        for h2 in H.elements:
            a12 = action[h1 * h2]
            a1 = action[h1]
            a2 = action[h2]
            for n in N.generators:
                if a12[n] != a1[a2[n]]:
                    raise NotAnAction("action is not a homomorphism H -> Aut(N)")


# ---------------------------------------------------------------------------
# Verification reports for the tower correspondences
# ---------------------------------------------------------------------------


def verify_simple_tower(S: PermGroup, middle: str = "inn") -> dict:
    """Compare the automorphism tower of G with the normalizer tower of G
    inside Aut(S), for Inn(S) <= G <= Aut(S), over at most 6 steps.

    Returns a report with stagewise orders and explicit stage
    isomorphisms (as witness dictionaries).
    """
    if not is_simple(S) or S.is_abelian():
        raise ValueError("S must be simple and non-abelian")
    A = aut_group(S)
    aut_s = A.group
    if middle == "inn":
        # g -> inner[g] is a homomorphism, so S's generators map onto Inn(S)'s
        G = closure([A.inner[s] for s in S.generators], cap=aut_s.order, degree=aut_s.degree)
    elif middle == "aut":
        G = aut_s
    else:
        raise ValueError("middle must be 'inn' or 'aut'")

    aut_tower = automorphism_tower(G, max_steps=6)
    nor_tower = normalizer_tower(aut_s, G, max_steps=6)

    stage_checks = []
    n = min(len(aut_tower.stages), len(nor_tower.stages))
    for i in range(n):
        left = aut_tower.stages[i]
        right = nor_tower.stages[i]
        ok_order = left.order == right.order
        iso = find_isomorphism(left, right) if ok_order else None
        stage_checks.append(
            {"stage": i, "aut_order": left.order, "nor_order": right.order,
             "orders_match": ok_order, "isomorphic": iso is not None}
        )
    return {
        "tau_aut": aut_tower.tau,
        "tau_nor": nor_tower.tau,
        "tau_match": aut_tower.tau == nor_tower.tau,
        "stages": stage_checks,
        "pass": aut_tower.tau == nor_tower.tau
        and all(c["orders_match"] and c["isomorphic"] for c in stage_checks),
    }


def verify_van_der_waerden(q: int) -> dict:
    """Check Aut(PSL(2,q)) = PGammaL(2,q) acting by conjugation, with a
    trivial centralizer witnessing uniqueness.

    Conjugation is a homomorphism, so it is computed on the generators of
    PGammaL alone: each must map PSL onto itself, the image in Aut is the
    closure of their conjugation permutations, and the map is injective
    (the centralizer of PSL in PGammaL is trivial) exactly when that
    image has |PGammaL| elements.
    """
    psl = psl2(q)
    pgamma = pgammal2(q)
    A = aut_group(psl)

    conj_gens = []
    for gamma in pgamma.generators:
        gi = gamma.inv()
        images = [A.index.get(gamma * x * gi) for x in A.domain]
        if None in images:
            raise AssertionError("PSL is not normal in PGammaL")  # pragma: no cover
        conj_gens.append(Perm(images))
    image = closure(conj_gens, cap=pgamma.order, degree=len(A.domain)).elements
    injective = len(image) == pgamma.order
    image_is_aut = image == A.group.elements

    return {
        "q": q,
        "aut_order": A.group.order,
        "pgammal_order": pgamma.order,
        "orders_match": A.group.order == pgamma.order,
        "conjugation_injective": injective,
        "conjugation_image_is_aut": image_is_aut,
        "pass": A.group.order == pgamma.order and injective and image_is_aut,
    }


def verify_semidirect_tower(q: int, frob_power: int | None = None) -> dict:
    """Normalizer tower of G = PGL(2,q) x| H inside PGammaL(2,q), over at
    most 8 steps, compared stagewise against PGL(2,q) x| nor^alpha(H)
    computed in Aut(F_q)."""
    pgl = pgl2(q)
    pgamma = pgammal2(q)
    fr = frobenius_point_perm(q)
    frob_group = closure([fr], degree=pgl.degree)
    assert frob_group.order == _gf(q).k

    if frob_power is None:
        H = closure([Perm.identity(pgl.degree)], degree=pgl.degree)
    else:
        H = closure([fr**frob_power], degree=pgl.degree)
    if not frob_group.contains_group(H):
        raise NotSubgroup("H must come from the Frobenius group")

    # H normalises PGL, so PGL·H is the group their generators generate
    G = closure(pgl.generators + H.generators, cap=pgamma.order, degree=pgl.degree)
    centerless = center(G).order == 1

    left = normalizer_tower(pgamma, G, max_steps=8)
    right = normalizer_tower(frob_group, H, max_steps=8)

    stage_checks = []
    n = max(len(left.stages), len(right.stages))
    for i in range(n):
        ls = left.stages[min(i, len(left.stages) - 1)]
        rs = right.stages[min(i, len(right.stages) - 1)]
        predicted = frozenset(g * h for g in pgl.elements for h in rs.elements)
        stage_checks.append(
            {
                "stage": i,
                "left_order": ls.order,
                "predicted_order": len(predicted),
                "equal": ls.elements == predicted,
            }
        )
    return {
        "q": q,
        "centerless": centerless,
        "tau_left": left.tau,
        "tau_right": right.tau,
        "stages": stage_checks,
        "pass": centerless and all(c["equal"] for c in stage_checks),
    }
