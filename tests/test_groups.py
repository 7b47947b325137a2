"""Permutation-group engine: closures, normalizers, Aut, towers, PSL."""
import hashlib
import math
import random
import time
from itertools import product

import pytest

from graphfield import groups
from graphfield.errors import BudgetExceeded, NotCenterless, NotPrimePower, NotSubgroup
from graphfield.graphs import Graph, aut_graph
from graphfield._modgcd import _image_field
from graphfield.groups import (
    Perm,
    _gf,
    aut_group,
    automorphism_tower,
    center,
    centralizer,
    closure,
    conjugacy_classes,
    conjugation_action,
    find_isomorphism,
    frobenius_point_perm,
    greedy_generators,
    is_simple,
    normalizer,
    normalizer_tower,
    pgammal2,
    pgl2,
    psl2,
    semidirect,
    trivial_action,
    verify_semidirect_tower,
    verify_simple_tower,
    verify_van_der_waerden,
)


def sym(n):
    return closure([Perm.from_cycles(n, [(0, 1)]), Perm.from_cycles(n, [tuple(range(n))])])


def alt(n):
    return closure([Perm.from_cycles(n, [(i, i + 1, i + 2)]) for i in range(n - 2)])


def cyc(n):
    return closure([Perm.from_cycles(n, [tuple(range(n))])])


def z2_power(k):
    """Z2^k as k disjoint transpositions."""
    return closure([Perm.from_cycles(2 * k, [(2 * i, 2 * i + 1)]) for i in range(k)])


def z2_x_z4():
    return closure([Perm.from_cycles(6, [(0, 1)]), Perm.from_cycles(6, [(2, 3, 4, 5)])])


# -- basics ---------------------------------------------------------------------


def test_perm_algebra():
    p = Perm.from_cycles(4, [(0, 1, 2)])
    q = Perm.from_cycles(4, [(2, 3)])
    assert (p * q)(3) == p(q(3)) == p(2) == 0
    assert (p * p.inv()).is_identity()
    assert p.order() == 3
    assert Perm.from_cycles(3, [(0, 1)]).to_cycles() == [(0, 1)]


def test_closure_examples():
    assert closure([Perm.from_cycles(2, [(0, 1)])]).order == 2
    assert sym(3).order == 6
    assert psl2(5).order == 5 * 24 // 2 == 60


def test_perm_refuses_images_that_are_not_a_permutation():
    # before the check, Perm([0, 0]).order() and Perm([0, -1]).to_cycles()
    # never returned
    for images in ([0, 0], [0, -1], [1, 2], [0, 2, 2], [3]):
        with pytest.raises(ValueError):
            Perm(images)
    assert Perm([]).degree == 0 and Perm([1, 0]).order() == 2


@pytest.mark.parametrize("degree", [0, 1, 2, 66, 5000])
def test_product_composes_right_to_left(degree):
    rng = random.Random(degree)
    p, q = (Perm(rng.sample(range(degree), degree)) for _ in range(2))
    pq = p * q
    assert all(pq(x) == p(q(x)) for x in range(degree))
    same = Perm([p(q(x)) for x in range(degree)])
    assert pq == same and hash(pq) == hash(same)
    assert type(pq.images) is tuple and all(type(x) is int for x in pq.images)
    assert p.inv() * p == Perm.identity(degree) == p * p.inv()


def _bfs_closure(gens, degree: int, cap: int) -> set | None:
    """The reference closure: breadth-first products of every element with
    every generator, composed by a list comprehension; None past `cap`."""
    ident = Perm(range(degree))
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = Perm([x.images[i] for i in g.images])
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
        frontier = nxt
        if len(elements) > cap:
            return None
    return elements


def _random_generator_lists():
    """Seeded generator lists of degrees 1-9 with 1-4 generators, each
    moving at most 4 points, with the identity and repeats mixed in."""
    rng = random.Random(2027)
    cases = []
    for degree in range(1, 10):
        for count in range(1, 5):
            for _ in range(3):
                gens = []
                for _ in range(count):
                    support = rng.sample(range(degree), rng.randint(0, min(4, degree)))
                    images = list(range(degree))
                    for x, y in zip(support, rng.sample(support, len(support))):
                        images[x] = y
                    gens.append(Perm(images))
                cases.append(gens)
            cases.append(gens + [Perm.identity(degree)] + gens[:1])
    return cases


def test_closure_matches_breadth_first_reference():
    cap = 2000
    sizes = []
    for gens in _random_generator_lists():
        degree = gens[0].degree
        expected = _bfs_closure(gens, degree, cap)
        if expected is None:
            with pytest.raises(BudgetExceeded):
                closure(gens, cap=cap)
            continue
        G = closure(gens, cap=cap)
        assert G.elements == expected
        assert G.generators == tuple(gens)
        sizes.append(len(expected))
    assert len(sizes) > 100 and max(sizes) > 100  # the lists reach nontrivial groups
    for degree in (0, 1, 5):
        assert closure([], degree=degree).elements == {Perm.identity(degree)}


@pytest.mark.parametrize("build", [psl2, pgl2])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_closure_of_projective_generators_matches_reference(build, q):
    G = build(q)
    expected = _bfs_closure(G.generators, G.degree, G.order)
    assert closure(G.generators, degree=G.degree).elements == expected == G.elements


@pytest.mark.parametrize("build", [lambda: sym(4), lambda: alt(5), lambda: pgl2(5)])
def test_closure_refuses_exactly_past_the_cap(build):
    G = build()
    assert closure(G.generators, cap=G.order, degree=G.degree).elements == G.elements
    with pytest.raises(BudgetExceeded) as exc:
        closure(G.generators, cap=G.order - 1, degree=G.degree)
    assert (exc.value.what, exc.value.budget) == ("group closure", G.order - 1)


def test_normalizer_examples():
    s3 = sym(3)
    h = closure([Perm.from_cycles(3, [(0, 1)])])
    assert normalizer(s3, h).order == 2  # self-normalizing
    z4 = cyc(4)
    h2 = closure([Perm.from_cycles(4, [(0, 2)]) * Perm.from_cycles(4, [(1, 3)])])
    assert normalizer(z4, h2).order == z4.order  # abelian: everything normal
    s4 = sym(4)
    h3 = closure([Perm.from_cycles(4, [(0, 1)])])
    n = normalizer(s4, h3)
    assert n.order == 4
    assert Perm.from_cycles(4, [(2, 3)]) in n.elements


def test_normalizer_requires_subgroup():
    with pytest.raises(NotSubgroup):
        normalizer(alt(4), closure([Perm.from_cycles(4, [(0, 1)])]))


def test_normalizer_tower_s4():
    rep = normalizer_tower(sym(4), closure([Perm.from_cycles(4, [(0, 1)])]))
    assert rep.chain_orders == [2, 4, 8, 8]
    assert rep.tau == 2
    assert rep.stabilized
    # chain strictly increases until the fixpoint
    for a, b in zip(rep.chain_orders, rep.chain_orders[1:-1]):
        assert a < b


def test_normalizer_tower_normal_subgroup():
    rep = normalizer_tower(sym(3), alt(3))
    assert rep.tau <= 1 and rep.chain_orders[-1] == 6
    rep2 = normalizer_tower(sym(3), sym(3))
    assert rep2.tau == 0


def test_center_and_centralizer():
    assert center(sym(3)).order == 1
    assert center(cyc(5)).order == 5
    s3 = sym(3)
    c = centralizer(s3, closure([Perm.from_cycles(3, [(0, 1, 2)])]))
    assert c.order == 3


def test_is_simple():
    assert is_simple(alt(5))
    assert not is_simple(sym(4))
    assert not is_simple(cyc(6))
    assert not is_simple(psl2(3))  # alternating group of degree 4
    assert is_simple(psl2(4))


# -- automorphism groups ------------------------------------------------------------


def test_aut_group_cyclic5():
    assert aut_group(cyc(5)).group.order == 4


def test_aut_group_s3_is_inner():
    A = aut_group(sym(3))
    assert A.group.order == 6
    inner = {A.inner[g] for g in sym(3).elements}
    assert inner == set(A.group.elements)


def test_aut_group_a5():
    A = aut_group(alt(5))
    assert A.group.order == 120


def test_inner_embedding_is_homomorphism():
    G = sym(3)
    A = aut_group(G)
    for g in G.elements:
        for h in G.elements:
            assert A.inner[g * h] == A.inner[g] * A.inner[h]


def test_automorphism_tower_examples():
    assert automorphism_tower(sym(3)).tau == 0
    rep = automorphism_tower(alt(5))
    assert rep.tau == 1 and rep.chain_orders[:2] == [60, 120]
    assert automorphism_tower(sym(5)).tau == 0


def test_automorphism_tower_needs_centerless():
    with pytest.raises(NotCenterless):
        automorphism_tower(cyc(3))


def test_find_isomorphism():
    a = closure([Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    b = closure([Perm.from_cycles(5, [(0, 1, 2)]), Perm.from_cycles(5, [(3, 4)])])
    for G, H in ((a, b), (psl2(5), alt(5))):
        iso = find_isomorphism(G, H)
        assert iso is not None
        assert set(iso) == set(G.elements)
        assert set(iso.values()) == set(H.elements)
        assert all(iso[x * y] == iso[x] * iso[y] for x in G.elements for y in G.elements)
    assert find_isomorphism(sym(3), cyc(6)) is None


def test_searches_raise_budget_exceeded_with_their_labels():
    with pytest.raises(BudgetExceeded) as exc:
        aut_group(sym(4), node_budget=5)
    assert exc.value.what == "automorphism search"
    with pytest.raises(BudgetExceeded) as exc:
        find_isomorphism(sym(4), sym(4), node_budget=5)
    assert exc.value.what == "isomorphism search"
    square = Graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    with pytest.raises(BudgetExceeded) as exc:
        aut_graph(square, node_budget=5)
    assert exc.value.what == "aut_graph search nodes"
    assert exc.value.budget == 5


def test_searches_charge_the_preamble_to_their_budget(monkeypatch):
    # the classes of PSL(2, 7) cost 2 * 168 * 2 products and the generator
    # choice more: budgets below either run out before the search starts
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(groups, "_isomorphisms", no_search)
    G = psl2(7)
    classes = 2 * G.order * len(G.generators)
    for n in (classes - 1, classes + 1):
        for search, what in ((lambda: aut_group(G, node_budget=n), "automorphism search"),
                             (lambda: find_isomorphism(G, G, node_budget=n), "isomorphism search")):
            with pytest.raises(BudgetExceeded) as exc:
                search()
            assert exc.value.what == what
            assert exc.value.budget == n


def _exhaustive_aut(G):
    """Reference Aut(G) and inner map: every tuple of same-order images of
    the chosen generators gets the full homomorphism check."""
    gens = groups._choose_generators(G, groups._element_invariants(G), [10**9, 10**9], "reference")
    domain = G.sorted_elements()
    index = {x: i for i, x in enumerate(domain)}
    pools = [[y for y in domain if y.order() == g.order()] for g in gens]
    budget = [10**9, 10**9]
    autos = set()
    for images in product(*pools):
        phi = groups._hom_from_generator_images(G, G, gens, images, budget, "reference")
        if phi is not None:
            autos.add(Perm([index[phi[x]] for x in domain]))
    inner = {g: Perm([index[g * x * g.inv()] for x in domain]) for g in domain}
    return autos, inner


_ORACLE_GROUPS = {
    "cyc5": lambda: cyc(5),
    "sym3": lambda: sym(3),
    "sym4": lambda: sym(4),
    "alt5": lambda: alt(5),
    **{f"psl2_{q}": (lambda q=q: psl2(q)) for q in (2, 3, 4, 5, 7)},
    "z2^3": lambda: z2_power(3),
    "z2xz4": z2_x_z4,
}


def test_aut_group_matches_exhaustive_reference(monkeypatch):
    # aut_group checks one tuple per orbit of the automorphisms found; the
    # reference checks every tuple.  A tuple that is never checked but lies
    # in the orbit of a rejected one was skipped by the rejected-orbit branch.
    skipped_as_rejected = {}
    for name, build in _ORACLE_GROUPS.items():
        G = build()
        autos, inner = _exhaustive_aut(G)
        checked = {}
        accepted = []
        hom = groups._hom_from_generator_images

        def recording(G_, H, gens, images, budget, what):
            phi = hom(G_, H, gens, images, budget, what)
            checked[tuple(images)] = phi is not None
            if phi is not None:
                accepted.append(phi)
            return phi

        monkeypatch.setattr(groups, "_hom_from_generator_images", recording)
        A = aut_group(G)
        monkeypatch.undo()
        assert A.group.elements == autos, name
        assert A.inner == inner, name
        dom, idx = A.domain, A.index
        # the generators of Aut(G) are the verified automorphisms, in the order accepted
        assert list(A.group.generators) == [Perm([idx[phi[x]] for x in dom]) for phi in accepted], name
        assert closure(A.group.generators, degree=len(dom)).elements == autos, name
        skipped_as_rejected[name] = sum(
            len({tuple(dom[a(idx[y])] for y in r) for a in autos} - set(checked))
            for r, ok in checked.items() if not ok
        )
    assert skipped_as_rejected["z2^3"] > 0
    assert skipped_as_rejected["z2xz4"] > 0


def test_aut_group_psl27_checks_few_tuples(monkeypatch):
    calls = []
    hom = groups._hom_from_generator_images

    def counting(*args):
        calls.append(1)
        return hom(*args)

    monkeypatch.setattr(groups, "_hom_from_generator_images", counting)
    assert aut_group(psl2(7)).group.order == 336
    assert len(calls) <= 8


def test_aut_group_z2_cubed_is_gl32():
    assert aut_group(z2_power(3)).group.order == 168


def test_searches_stop_at_a_small_budget_on_z2_sixth():
    # every one of the 63 nonidentity elements is an image candidate for
    # each of the 6 generators, so the full tuples are far too many
    G = z2_power(6)
    for search, what in ((lambda: aut_group(G, node_budget=5), "automorphism search"),
                         (lambda: find_isomorphism(G, G, node_budget=5), "isomorphism search")):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc:
            search()
        assert time.perf_counter() - t0 < 1
        assert exc.value.what == what
        assert exc.value.budget == 5


def test_aut_group_closure_is_bounded_by_the_node_budget():
    # |Aut(Z2^3)| = 168 and |G| = 8: a budget of 8 * 168 nodes holds the
    # whole closure, one of 8 * 167 does not
    G = z2_power(3)
    assert aut_group(G, node_budget=8 * 168).group.order == 168
    with pytest.raises(BudgetExceeded) as exc:
        aut_group(G, node_budget=8 * 167)
    assert exc.value.what == "automorphism search: automorphisms held"
    assert exc.value.budget == 167
    assert exc.value.__cause__.what == "group closure"


# -- finite fields and projective groups -----------------------------------------------


def test_gfq_arithmetic():
    F = _gf(9)
    assert F is _image_field(3, 2)
    xs = range(F.q)
    assert len(xs) == 9
    for a in xs:
        if a:
            assert F.mul(a, F.inv(a)) == 1
    a = xs[5]
    assert F.pow(a, 9) == a  # Frobenius squared is the identity on GF(9)
    for q in (2, 3, 5, 7, 11, 13):
        F = _gf(q)
        assert (F.p, F.k) == (q, 1)
        for a in range(q):
            assert F.pow(a, q) == a and F.add(a, F.sub(0, a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1


def test_gfq_rejects_non_prime_powers():
    for build in (psl2, pgl2, pgammal2):
        for q in (0, 1, 6, 18):
            with pytest.raises(NotPrimePower):
                build(q)
    # prime powers past 16 build: GF(17) and GF(25) = GF(5^2)
    assert (_gf(17).p, _gf(17).k) == (17, 1) and (_gf(25).p, _gf(25).k) == (5, 2)


def test_projective_groups_past_sixteen():
    # |PSL(2, q)| = q(q^2 - 1)/gcd(2, q - 1) and |PGL(2, q)| = q(q^2 - 1)
    assert psl2(17).order == 2448
    assert pgl2(25).order == 15600


def test_gfq_refuses_q_whose_pgl2_exceeds_the_closure_cap():
    # |PGL(2, 27)| = 19656 is within the cap; |PGL(2, 32)| = 32736 is not,
    # and q is refused before it is factored
    assert _gf(27).q == 27
    for q in (32, 1000000007):
        with pytest.raises(BudgetExceeded):
            _gf(q)


def test_gfq_degree_is_found_without_floats(monkeypatch):
    def no_float(*args):
        raise AssertionError("math.log called")

    monkeypatch.setattr(math, "log", no_float)
    for q, pk in {4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 13: (13, 1)}.items():
        assert (_gf(q).p, _gf(q).k) == pk
    for q in (6, 12, 15):
        with pytest.raises(NotPrimePower):
            _gf(q)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _group_digest(G) -> str:
    return _digest((sorted(p.images for p in G.elements), [g.images for g in G.generators]))


# Digests of (psl2, pgl2, pgammal2, frobenius_point_perm), pinned from
# the earlier coefficient-tuple GF(q) of this module.  Its moduli agree
# with _modgcd's for these q, so the element sets and generator tuples
# must not move: the symmetry benchmark's aut_group search on PSL(2, q)
# depends on the labelling.
_PROJECTIVE_DIGESTS = {
    2: ("4a77e6e845170ec6", "4a77e6e845170ec6", "7c08a41c6d47a438", "eae0f06c46ca0f14"),
    3: ("4709706b065b6f17", "93bc06f3b019f05f", "dde73cb8fc243e8f", "c5c25158dde5b90a"),
    4: ("29557dcb7f02d2f7", "29557dcb7f02d2f7", "42839d13440b6ec9", "1ba911a61b755310"),
    5: ("429dd10192d508b7", "a0d10af9877af1ee", "3c398fdbba6aacf2", "3a06086c62e636d4"),
    7: ("c4eac0f68fcab80f", "3492abd959406760", "6ed189c46638602a", "71347777824d0062"),
    8: ("d644bd0ef64783f2", "d644bd0ef64783f2", "5024bb3330d97abc", "013d95551d78c99a"),
}


@pytest.mark.parametrize("q", sorted(_PROJECTIVE_DIGESTS))
def test_projective_groups_golden(q):
    got = (_group_digest(psl2(q)), _group_digest(pgl2(q)), _group_digest(pgammal2(q)),
           _digest(frobenius_point_perm(q).images))
    assert got == _PROJECTIVE_DIGESTS[q]


@pytest.mark.parametrize("build", [pgl2, psl2])
def test_projective_group_builds_each_element_once(build, monkeypatch):
    # one normalised matrix per element: the scalar multiples of a matrix
    # give the same point permutation and are not built again
    calls = []
    point_perm = groups._point_perm

    def counting(*args):
        calls.append(1)
        return point_perm(*args)

    monkeypatch.setattr(groups, "_point_perm", counting)
    G = build(9)
    assert len(calls) == G.order


@pytest.mark.parametrize("cycles", [
    pytest.param([[(0, 1, 2)]], id="closure-one-larger"),
    pytest.param([[(0, 1)], [(1, 2)]], id="closure-past-the-cap"),
])
def test_greedy_generators_rejects_non_group(cycles):
    # (0 1 2) generates 3 elements and (0 1), (1 2) generate 6, so neither
    # set with the identity added is a group
    elements = {Perm.identity(3)} | {Perm.from_cycles(3, c) for c in cycles}
    with pytest.raises(ValueError):
        greedy_generators(elements, 3)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_psl_orders(q):
    assert psl2(q).order == q * (q * q - 1) // math.gcd(2, q - 1)


def test_pgl_and_pgammal_orders():
    assert pgl2(5).order == 120
    assert pgammal2(4).order == 120
    assert pgammal2(9).order == 1440
    assert pgammal2(5).order == pgl2(5).order  # prime field: trivial Frobenius


def test_frobenius_normalizes_psl():
    fr = frobenius_point_perm(4)
    psl = psl2(4)
    fi = fr.inv()
    assert all((fr * x * fi) in psl.elements for x in psl.elements)


# -- semidirect products ------------------------------------------------------------


def test_semidirect_inverting_action_is_s3():
    n = cyc(3)
    h = closure([Perm.from_cycles(2, [(0, 1)])])
    flip = next(x for x in h.elements if not x.is_identity())
    action = trivial_action(n, h)
    action[flip] = {x: x.inv() for x in n.elements}
    sd = semidirect(n, h, action)
    assert sd.group.order == 6
    assert not sd.group.is_abelian()
    assert find_isomorphism(sd.group, sym(3)) is not None


def test_semidirect_trivial_action_commutes():
    n = cyc(3)
    h = closure([Perm.from_cycles(2, [(0, 1)])])
    sd = semidirect(n, h, trivial_action(n, h))
    assert sd.group.order == 6
    for a in sd.n_embed.values():
        for b in sd.h_embed.values():
            assert a * b == b * a


def test_semidirect_pgl4_frobenius():
    pgl = pgl2(4)
    fr = frobenius_point_perm(4)
    H = closure([fr], degree=pgl.degree)
    sd = semidirect(pgl, H, conjugation_action(pgl, H))
    pg = pgammal2(4)
    assert sd.group.order == pg.order == 120
    # same simple socle order on both sides
    assert is_simple(psl2(4))
    assert find_isomorphism(sd.group, pg) is not None


def test_semidirect_reads_generators(monkeypatch):
    # the embedded generators of N and H generate N x| H, and N's
    # generators suffice to check the action: nothing is derived again
    pgl = pgl2(4)
    H = closure([frobenius_point_perm(4)], degree=pgl.degree)
    action = conjugation_action(pgl, H)
    calls = []
    real = groups.greedy_generators
    monkeypatch.setattr(groups, "greedy_generators", lambda *a: calls.append(a) or real(*a))
    sd = semidirect(pgl, H, action)
    assert calls == []
    assert closure(sd.group.generators, degree=sd.group.degree).elements == sd.group.elements


# -- verification reports --------------------------------------------------------------


def test_verify_simple_tower_a5():
    rep = verify_simple_tower(alt(5), "inn")
    assert rep["pass"]
    assert rep["tau_aut"] == rep["tau_nor"] == 1
    orders = [c["aut_order"] for c in rep["stages"]]
    assert orders[:2] == [60, 120]


def test_verify_simple_tower_a5_from_aut():
    rep = verify_simple_tower(alt(5), "aut")
    assert rep["pass"]
    assert rep["tau_aut"] == 0


def test_verify_simple_tower_psl27():
    rep = verify_simple_tower(psl2(7), "inn")
    assert rep["pass"]
    assert rep["tau_aut"] == rep["tau_nor"] == 1
    assert [c["aut_order"] for c in rep["stages"]][:2] == [168, 336]


def test_verify_van_der_waerden_small():
    for q in (4, 5):
        rep = verify_van_der_waerden(q)
        assert rep["pass"], rep
        assert rep["aut_order"] == rep["pgammal_order"] == 120


def test_verify_semidirect_tower_q4():
    rep = verify_semidirect_tower(4, None)
    assert rep["pass"]
    assert rep["tau_left"] == 1
    assert [c["left_order"] for c in rep["stages"]][:2] == [60, 120]


def test_verify_semidirect_tower_q9_frobenius():
    rep = verify_semidirect_tower(9, 1)
    assert rep["pass"]
    assert rep["tau_left"] <= 1


def test_conjugacy_class_sizes_partition_the_group():
    g = sym(4)
    classes = conjugacy_classes(g)
    assert sum(len(c) for c in classes) == 24
    assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]


def test_conjugacy_classes_are_computed_once_per_group(monkeypatch):
    # verify_simple_tower(psl2(7)) computed them 10 times; the groups
    # whose classes it needs are S, Inn(S), the two stages above it and
    # the normalizer tower's one new stage
    walks = []
    orbits = groups._conjugation_orbits

    def counting(G, xs):
        if len(xs) == G.order:  # the walk of conjugacy_classes, not normal_closure's
            walks.append(G)
        return orbits(G, xs)

    monkeypatch.setattr(groups, "_conjugation_orbits", counting)
    g = sym(4)
    first = conjugacy_classes(g)
    first.pop()
    assert conjugacy_classes(g) == conjugacy_classes(sym(4)) and len(walks) == 2
    walks.clear()
    rep = verify_simple_tower(psl2(7), "inn")
    assert rep["pass"] and [c["aut_order"] for c in rep["stages"]] == [168, 336, 336]
    assert len(walks) == 5 == len({id(G) for G in walks})


def test_normalizer_tower_reuses_the_fixpoint_group():
    rep = normalizer_tower(sym(4), closure([Perm.from_cycles(4, [(0, 1)])]))
    assert rep.stages[-1] is rep.stages[-2]
    assert rep.chain_orders[-1] == rep.chain_orders[-2]


# -- generators kept by every builder --------------------------------------------------


def _generates(G) -> bool:
    return closure(G.generators, degree=G.degree).elements == G.elements


_BUILT_GROUPS = {
    "closure-redundant": lambda: closure([Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(0, 1, 2, 3)]),
                                          Perm.from_cycles(4, [(1, 2, 3)])]),
    "closure-trivial": lambda: closure([], degree=3),
    "subgroup": lambda: groups.subgroup(sym(4), alt(4).elements),
    "normalizer": lambda: normalizer(sym(4), closure([Perm.from_cycles(4, [(0, 1)])])),
    "centralizer": lambda: centralizer(sym(4), closure([Perm.from_cycles(4, [(0, 1)])])),
    "center-trivial": lambda: center(sym(4)),
    "center-z2xz4": lambda: center(z2_x_z4()),
    "aut-cyc2": lambda: aut_group(cyc(2)).group,
    "aut-cyc5": lambda: aut_group(cyc(5)).group,
    "aut-z2^3": lambda: aut_group(z2_power(3)).group,
    "aut-psl2_7": lambda: aut_group(psl2(7)).group,
    **{f"{build.__name__}_{q}": (lambda build=build, q=q: build(q))
       for build in (psl2, pgl2, pgammal2) for q in (2, 3, 4, 5, 7, 8, 9)},
    "semidirect-pgl4-frobenius": lambda: semidirect(
        pgl2(4), closure([frobenius_point_perm(4)]),
        conjugation_action(pgl2(4), closure([frobenius_point_perm(4)]))).group,
    "semidirect-trivial": lambda: semidirect(cyc(3), cyc(2), trivial_action(cyc(3), cyc(2))).group,
    "aut_graph-square": lambda: aut_graph(Graph(["a", "b", "c", "d"],
                                                [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])),
}


@pytest.mark.parametrize("name", sorted(_BUILT_GROUPS))
def test_every_builder_keeps_generators_that_generate(name):
    assert _generates(_BUILT_GROUPS[name]())


def test_trivial_aut_group_has_no_generators():
    A = aut_group(cyc(2))
    assert A.group.order == 1
    assert A.group.generators == ()
    assert A.group.is_abelian()
    assert conjugacy_classes(A.group) == [frozenset(A.group.elements)]
    assert center(A.group).order == 1


# Digests of _choose_generators' output, pinned before it skipped the
# partners that lie in a proper <g1, x> already found: the skip must not
# change the generators, so the tuples the searches visit stay the same.
_CHOSEN_DIGESTS = {
    **{f"psl2_{q}": (lambda q=q: psl2(q), digest) for q, digest in (
        (2, "7d879c5cd049a7dd"), (3, "44dc1893b46fb119"), (4, "2584c093ef226e46"), (5, "f69f53277fd23f00"),
        (7, "749ee3a85f709a49"), (8, "418df10aa2ee7849"), (9, "cdbbebdef1f69b7c"))},
    "pgl2_5": (lambda: pgl2(5), "d766584a46000459"),
    "pgammal2_4": (lambda: pgammal2(4), "c3e2ce94b7fe647a"),
    "z2^3": (lambda: z2_power(3), "c0639164d5fff0b4"),
    "z2xz4": (z2_x_z4, "ede230f21f830422"),
    "aut_psl2_7": (lambda: aut_group(psl2(7)).group, "453527dee2d4f1b8"),
}


@pytest.mark.parametrize("name", sorted(_CHOSEN_DIGESTS))
def test_choose_generators_golden(name):
    build, digest = _CHOSEN_DIGESTS[name]
    G = build()
    gens = groups._choose_generators(G, groups._element_invariants(G), [10**9, 10**9], "golden")
    assert _digest([g.images for g in gens]) == digest


def test_psl27_towers_derive_no_generating_sets(monkeypatch):
    # aut_group keeps the automorphisms it verified as Aut(G)'s generators,
    # and _choose_generators skips partners inside a proper <g1, x'>; trying
    # every partner costs 506 closures in verify_simple_tower(psl2(7))
    G = psl2(7)
    greedy_calls, choose_closures, inside = [], [], []
    greedy, choose, close = groups.greedy_generators, groups._choose_generators, groups.closure

    def counting_greedy(*args, **kwargs):
        greedy_calls.append(1)
        return greedy(*args, **kwargs)

    def choosing(*args):
        inside.append(1)
        try:
            return choose(*args)
        finally:
            inside.pop()

    def counting_closure(*args, **kwargs):
        if inside:
            choose_closures.append(1)
        return close(*args, **kwargs)

    monkeypatch.setattr(groups, "greedy_generators", counting_greedy)
    monkeypatch.setattr(groups, "_choose_generators", choosing)
    monkeypatch.setattr(groups, "closure", counting_closure)
    assert aut_group(G).group.order == 336
    assert greedy_calls == []
    assert verify_simple_tower(G, "inn")["pass"]
    assert len(choose_closures) <= 150
