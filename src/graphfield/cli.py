"""Command-line surface: transform graphs, build tower fields, run the
verification suites, and compute group towers.

Reports stream to stdout as JSON lines; a human summary goes to stderr.
Exit status: 0 when no report failed, 1 on any failure, 2 on usage,
input or budget errors.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass, field as dataclass_field

from . import autfield, coeffs, fieldtower, graphs, groups, roots
from .errors import BudgetExceeded, GraphFieldError, InvalidInput


@dataclass
class VerificationReport:
    check: str
    anchor: str
    status: str  # pass | fail | unknown
    details: dict = dataclass_field(default_factory=dict)
    elapsed: float = 0.0

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "anchor": self.anchor,
            "status": self.status,
            "details": self.details,
            "elapsed": round(self.elapsed, 3),
        }


class Runner:
    def __init__(self, sort_reports: bool = False):
        self.reports: list[VerificationReport] = []
        self.sort_reports = sort_reports

    def run(self, check: str, anchor: str, fn):
        t0 = time.perf_counter()
        try:
            ok, details = fn()
            status = "pass" if ok else "fail"
        except BudgetExceeded as exc:
            status, details = "unknown", {"budget": {"what": exc.what, "limit": exc.budget}}
        rep = VerificationReport(check, anchor, status, details, time.perf_counter() - t0)
        self.reports.append(rep)
        if not self.sort_reports:
            print(json.dumps(rep.to_json()), flush=True)
        return rep

    def finish(self) -> int:
        if self.sort_reports:
            for rep in sorted(self.reports, key=lambda r: (r.check, r.anchor)):
                print(json.dumps(rep.to_json()), flush=True)
        counts = {"pass": 0, "fail": 0, "unknown": 0}
        for rep in self.reports:
            counts[rep.status] += 1
        print(
            f"[summary] pass={counts['pass']} fail={counts['fail']} unknown={counts['unknown']}",
            file=sys.stderr,
        )
        for rep in self.reports:
            if rep.status == "fail":
                print(f"[fail] {rep.check}: {rep.details}", file=sys.stderr)
        return 1 if counts["fail"] else 0


# ---------------------------------------------------------------------------
# verify suites
# ---------------------------------------------------------------------------


def _suite_graphs(r: Runner, args):
    def gadget_exact():
        g = graphs.gadget()
        aut = graphs.aut_graph(g)
        prime = graphs.gadget_prime_edges()
        ok = len(g.vertices) == 6 and len(g.edges) == 9 and aut.order == 2 and len(prime) == 7
        return ok, {"vertices": len(g.vertices), "edges": len(g.edges), "aut": aut.order, "prime_edges": len(prime)}

    r.run("gadget-exactness", "graphs.gadget", gadget_exact)

    max_n = 4 if args.budget < 2 else 5
    corpus_graphs = []
    for n in range(1, max_n + 1):
        corpus_graphs.extend(graphs.connected_graphs_up_to_iso(n))

    def corpus():
        bad = []
        for g in corpus_graphs:
            cg = graphs.transform(g)
            if len(cg.vertices) != len(g.vertices) + 4 * len(g.edges):
                bad.append({"n": len(g.vertices), "reason": "size"})
                continue
            down = graphs.aut_graph(g)
            up = graphs.aut_graph(cg)
            if down.order != up.order:
                bad.append({"n": len(g.vertices), "reason": "aut-order"})
                continue
            for psi in graphs.graph_auts(g):
                if graphs.restrict_aut(cg, graphs.lift_aut(cg, psi)) != psi:
                    bad.append({"n": len(g.vertices), "reason": "roundtrip"})
                    break
        return not bad, {"graphs": len(corpus_graphs), "max_n": max_n, "failures": bad}

    r.run("transform-corpus", "graphs.transform", corpus)

    def star_classes():
        # every color class of the transform is a union of stars: the
        # attachment classes are centred at original vertices (see README)
        bad = 0
        for g in corpus_graphs:
            rep = graphs.check_star_coloring(graphs.transform(g))
            if not all(rep[c]["ok"] for c in range(7)):
                bad += 1
        return bad == 0, {"graphs": len(corpus_graphs), "non_star": bad}

    r.run("transform-star-classes", "graphs.check_star_coloring", star_classes)


def _suite_groups(r: Runner, args):
    def s4_chain():
        s4 = groups.closure(
            [groups.Perm.from_cycles(4, [(0, 1)]), groups.Perm.from_cycles(4, [(0, 1, 2, 3)])]
        )
        h = groups.closure([groups.Perm.from_cycles(4, [(0, 1)])])
        rep = groups.normalizer_tower(s4, h)
        ok = rep.chain_orders == [2, 4, 8, 8] and rep.tau == 2
        return ok, rep.to_json()

    r.run("normalizer-tower-s4", "groups.normalizer_tower", s4_chain)

    def a5_tower():
        a5 = groups.closure(
            [groups.Perm.from_cycles(5, [(0, 1, 2)]), groups.Perm.from_cycles(5, [(0, 1, 2, 3, 4)])]
        )
        rep = groups.automorphism_tower(a5)
        ok = rep.tau == 1 and rep.chain_orders[:2] == [60, 120]
        return ok, rep.to_json()

    r.run("automorphism-tower-a5", "groups.automorphism_tower", a5_tower)

    def psl_simplicity():
        flags = {}
        for q in (3, 4, 5):
            flags[q] = groups.is_simple(groups.psl2(q))
        ok = flags == {3: False, 4: True, 5: True}
        return ok, {
            "simple": {str(q): v for q, v in flags.items()},
            "note": "q=3 recorded as the documented small-field threshold discrepancy",
        }

    r.run("psl-simplicity", "groups.is_simple", psl_simplicity)

    def vdw():
        rep = groups.verify_van_der_waerden(4)
        return rep["pass"], rep

    r.run("aut-psl-conjugation-q4", "groups.verify_van_der_waerden", vdw)


def _field_contexts(char: int):
    k2 = graphs.Graph(["s", "t"], [("s", "t")])
    p3 = graphs.Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
    k3 = graphs.Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    out = []
    for name, g in (("K2", k2), ("P3", p3), ("K3", k3)):
        cg = graphs.greedy_star_coloring(g)
        out.append((name, fieldtower.build_tower(cg, char=char)))
    return out


def _suite_field(r: Runner, args):
    trials = 40 * args.budget
    inv_counts = {"K2": 20 * args.budget, "P3": 6 * args.budget, "K3": 3 * args.budget}
    for name, ctx in _field_contexts(args.char):
        expected_dim = 1
        for i in range(len(ctx.gens)):
            expected_dim *= ctx.gen_degrees[i]

        def dims(ctx=ctx, expected=expected_dim):
            return ctx.dimension == expected, {"dimension": ctx.dimension}

        r.run(f"tower-dimension-{name}", "fieldtower.build_tower", dims)

        def smoke(ctx=ctx, name=name):
            rep = fieldtower.primality_smoke(ctx, trials=trials, seed=args.seed, invert=(name == "K2"))
            return rep["pass"], rep

        r.run(f"primality-smoke-{name}", "fieldtower.primality_smoke", smoke)

        def inverses(ctx=ctx, name=name):
            rng = random.Random(args.seed + 1)
            n = inv_counts[name]
            for _ in range(n):
                if name == "K3":
                    a = fieldtower.random_single_level_element(ctx, rng)
                else:
                    a = fieldtower.random_nonzero_element(
                        ctx, rng, max_terms=2, allow_denominator=(name == "K2")
                    )
                if not (a * a.inv()).is_one():
                    return False, {"counterexample": a.to_json()}
            return True, {"inversions": n}

        r.run(f"inverse-roundtrip-{name}", "fieldtower.inv", inverses)


def _suite_roots(r: Runner, args):
    k2 = graphs.Graph(["s", "t"], [("s", "t")])
    ctx = fieldtower.build_tower(graphs.greedy_star_coloring(k2), char=0)
    p0, p1 = ctx.chain_prime, ctx.gens[0].prime

    def irreducible():
        a = fieldtower.check_irreducible_radical(ctx, "s", p0)
        b = fieldtower.check_irreducible_radical(ctx, "e:s,t", p1)
        return a and b, {"vertex_radical": a, "edge_radical": b}

    r.run("radical-irreducibility-K2", "fieldtower.check_irreducible_radical", irreducible)

    def no_other_roots():
        xs0 = fieldtower.generator_vertex(ctx, "s", 0)
        certs = {}
        for p in (2, p1):
            res = roots.pth_root(xs0, p)
            certs[p] = res.outcome
        ok = all(v == "no" for v in certs.values())
        return ok, {"outcomes": {str(k): v for k, v in certs.items()}}

    r.run("vertex-root-refusals", "roots.pth_root", no_other_roots)

    def p_high_corpus():
        rng = random.Random(args.seed)
        n = 10 * args.budget
        highs = refuted = unknown = 0
        for i in range(n):
            m = fieldtower.random_structured_monomial(ctx, rng, p=p0)
            if m.is_base() and m.base_value().is_constant():
                continue
            if roots.is_p_high(m, p0, depth_budget=2, seed=args.seed + i).verdict == "true":
                highs += 1
        for i in range(n):
            a = fieldtower.random_nonzero_element(ctx, rng, max_terms=3, allow_denominator=False)
            form, _ = roots.classify_p_high(a, p0)
            if form is not None:
                continue
            v = roots.is_p_high(a, p0, depth_budget=2, seed=args.seed + i).verdict
            if v == "false":
                refuted += 1
            elif v == "unknown":
                unknown += 1
            else:
                return False, {"violation": a.to_json()}
        return True, {"monomials_high": highs, "refuted": refuted, "unknown": unknown}

    r.run("p-high-classification", "roots.is_p_high", p_high_corpus)

    def q_high():
        rep = roots.q_high_descends(ctx, 2, samples=4 * args.budget, seed=args.seed)
        return rep["pass"], rep

    r.run("q-high-descent", "roots.q_high_descends", q_high)


def _suite_sigma(r: Runner, args):
    k2 = graphs.Graph(["s", "t"], [("s", "t")])
    cg = graphs.transform(k2)
    att = {e for e in cg.edges if any(v.startswith("1:") for v in e)}
    depths = {fieldtower.edge_label(e): (1 if e in att else 0) for e in cg.edges}
    ctx = fieldtower.build_tower(cg, char=0, vertex_depths=1, edge_depths=depths)

    def injective():
        rep = autfield.verify_injectivity_sigma(ctx)
        return rep["pass"], rep

    r.run("sigma-injectivity", "autfield.verify_injectivity_sigma", injective)

    def edge_images():
        bad = []
        for phi in graphs.graph_auts(cg):
            rep = autfield.verify_edge_image(autfield.sigma(phi, ctx))
            if not rep["pass"]:
                bad.append(rep)
        return not bad, {"failures": bad}

    r.run("sigma-edge-images", "autfield.verify_edge_image", edge_images)

    def psi_checks():
        rng = random.Random(args.seed)
        auts = graphs.graph_auts(cg)
        seen = {}
        for _ in range(100 * args.budget):
            a = fieldtower.random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
            key = autfield.encode_element(a).sequences
            if key in seen and not (seen[key] == a):
                return False, {"collision": a.to_json()}
            seen[key] = a
        for phi in auts:
            alpha = autfield.sigma(phi, ctx)
            for _ in range(10 * args.budget):
                a = fieldtower.random_nonzero_element(ctx, rng, max_terms=2, allow_denominator=False)
                lhs = autfield.encode_element(autfield.apply(alpha, a))
                if lhs != autfield.encode_element(a).relabel(phi.mapping):
                    return False, {"equivariance-violation": a.to_json()}
        return True, {"pairs": 100 * args.budget}

    r.run("psi-injective-equivariant", "autfield.encode_element", psi_checks)


_SUITES = {
    "graphs": _suite_graphs,
    "groups": _suite_groups,
    "field": _suite_field,
    "roots": _suite_roots,
    "sigma": _suite_sigma,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_transform(args) -> int:
    with open(args.infile) as fh:
        g = graphs.graph_from_json(fh.read())
    if isinstance(g, graphs.ColoredGraph):
        print("input already colored; expected a plain graph", file=sys.stderr)
        return 2
    cg = graphs.transform(g)
    runner = Runner(sort_reports=args.sorted)

    def clauses():
        size_ok = len(cg.vertices) == len(g.vertices) + 4 * len(g.edges)
        stars_ok = all(rep["ok"] for rep in graphs.check_star_coloring(cg).values())
        down = graphs.aut_graph(g, max_vertices=args.budget)
        up = graphs.aut_graph(cg, max_vertices=4 * args.budget)
        auts_ok = down.order == up.order
        roundtrip_ok = all(
            graphs.restrict_aut(cg, graphs.lift_aut(cg, psi)) == psi
            for psi in graphs.graph_auts(g)
        )
        ok = size_ok and stars_ok and auts_ok and roundtrip_ok
        return ok, {
            "vertices": len(cg.vertices),
            "aut_order": down.order,
            "size_ok": size_ok,
            "stars_ok": stars_ok,
            "aut_match": auts_ok,
            "roundtrip": roundtrip_ok,
        }

    runner.run("transform-clauses", "graphs.transform", clauses)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(graphs.graph_to_json(cg, pretty=True))
    return runner.finish()


def _parse_depth(text: str):
    """Uniform depth ('1') or per-generator JSON ('{"e:s,t": 2}')."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        depth = json.loads(text)
    except ValueError:
        depth = None
    if not isinstance(depth, dict):
        raise InvalidInput(f"--depth {text!r} is neither an integer nor a JSON object")
    return depth


def cmd_build_field(args) -> int:
    with open(args.infile) as fh:
        g = graphs.graph_from_json(fh.read())
    if not isinstance(g, graphs.ColoredGraph):
        g = graphs.greedy_star_coloring(g)
    depth = _parse_depth(args.depth)
    vdepth = depth if isinstance(depth, int) else {k: v for k, v in depth.items() if not k.startswith("e:")}
    edepth = depth if isinstance(depth, int) else {k: v for k, v in depth.items() if k.startswith("e:")}
    ctx = fieldtower.build_tower(
        g, char=args.char, vertex_depths=vdepth, edge_depths=edepth, cap=args.budget
    )
    runner = Runner(sort_reports=args.sorted)
    print(
        json.dumps({"summary": {"dimension": ctx.dimension, "vars": list(ctx.var_names),
                                "generators": [g_.label for g_ in ctx.gens]}}),
        flush=True,
    )

    def smoke():
        rep = fieldtower.primality_smoke(ctx, trials=args.trials, seed=args.seed)
        return rep["pass"], rep

    runner.run("primality-smoke", "fieldtower.primality_smoke", smoke)

    def irr():
        outcomes = {}
        for v in ctx.var_names:
            if ctx.vertex_depths[v] > 0:
                outcomes[f"X^{ctx.chain_prime}-{v}"] = fieldtower.check_irreducible_radical(
                    ctx, v, ctx.chain_prime
                )
        for gen in ctx.gens:
            if gen.depth > 0:
                outcomes[f"X^{gen.prime}-{gen.label}"] = fieldtower.check_irreducible_radical(
                    ctx, gen.label, gen.prime
                )
        return all(outcomes.values()), {"irreducible": outcomes}

    runner.run("radical-irreducibility", "fieldtower.check_irreducible_radical", irr)
    return runner.finish()


def cmd_verify(args) -> int:
    runner = Runner(sort_reports=args.sorted)
    suites = list(_SUITES) if args.suite == "all" else [args.suite]
    for name in suites:
        _SUITES[name](runner, args)
    return runner.finish()


_MIN_GROUP_PARAM = {"sym": 2, "alt": 3, "psl2": 2, "pgl2": 2}


def _parse_group(spec: str) -> groups.PermGroup:
    kind, _, param = spec.partition(":")
    try:
        n = int(param)
    except ValueError:
        n = -1  # below every minimum
    if kind not in _MIN_GROUP_PARAM or n < _MIN_GROUP_PARAM[kind]:
        raise InvalidInput(
            f"group {spec!r}: expected sym:n (n >= 2), alt:n (n >= 3), psl2:q or pgl2:q (q >= 2)"
        )
    if kind in ("psl2", "pgl2"):
        return groups.psl2(n) if kind == "psl2" else groups.pgl2(n)
    # refuse |sym:n| = 2·3···n or |alt:n| = 3···n over the cap before building
    order = 1
    for i in range(2 if kind == "sym" else 3, n + 1):
        order *= i
        if order > groups.DEFAULT_CLOSURE_CAP:
            raise BudgetExceeded("group closure", groups.DEFAULT_CLOSURE_CAP)
    if kind == "sym":
        # for n = 2 the n-cycle is the transposition, listed once
        cycles = dict.fromkeys([(0, 1), tuple(range(n))])
    else:
        cycles = [(i, i + 1, i + 2) for i in range(n - 2)]
    return groups.closure([groups.Perm.from_cycles(n, [c]) for c in cycles])


def _parse_cycles(text: str, degree: int) -> groups.Perm:
    cycles = []
    used: set = set()
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip().strip("()")
        if not chunk:
            continue
        try:
            cycle = tuple(int(x) for x in chunk.replace(",", " ").split())
        except ValueError:
            raise InvalidInput(f"cycle ({chunk}) is not a list of integers") from None
        if len(set(cycle) - used) != len(cycle) or not all(0 <= x < degree for x in cycle):
            raise InvalidInput(f"cycle ({chunk}) needs points in 0..{degree - 1} not used before")
        used |= set(cycle)
        cycles.append(cycle)
    return groups.Perm.from_cycles(degree, cycles)


def cmd_towers(args) -> int:
    G = _parse_group(args.group)
    if args.subgroup:
        h = _parse_cycles(args.subgroup, G.degree)
        H = groups.closure([h])
        rep = groups.normalizer_tower(G, H, max_steps=args.budget)
    else:
        rep = groups.automorphism_tower(G, max_steps=args.budget)
    print(json.dumps(rep.to_json()), flush=True)
    print(f"[summary] tau={rep.tau} stabilized={rep.stabilized}", file=sys.stderr)
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text}")
    return n


def _char(text: str) -> int:
    try:
        return coeffs.CoeffField(int(text)).char
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphfield", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    t = sub.add_parser("transform", help="gadget-transform a graph and verify the clauses")
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out", default=None)
    t.add_argument("--budget", type=_positive_int, default=64)
    t.add_argument("--sorted", action="store_true")
    t.set_defaults(fn=cmd_transform)

    b = sub.add_parser("build-field", help="build a tower field over a colored graph")
    b.add_argument("--in", dest="infile", required=True)
    b.add_argument("--char", type=_char, default=0)
    b.add_argument("--depth", default="1", help="uniform depth or per-generator JSON")
    b.add_argument("--trials", type=_positive_int, default=50)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--budget", type=_positive_int, default=2000)
    b.add_argument("--sorted", action="store_true")
    b.set_defaults(fn=cmd_build_field)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--budget", type=_positive_int, default=1)
    v.add_argument("--char", type=_char, default=0,
                   help="characteristic of the field suite; the other suites ignore it")
    v.add_argument("--sorted", action="store_true")
    v.set_defaults(fn=cmd_verify)

    w = sub.add_parser("towers", help="automorphism or normalizer tower of a group")
    w.add_argument("--group", required=True, help="sym:n | alt:n | psl2:q | pgl2:q")
    w.add_argument("--subgroup", default=None, help="cycles, e.g. '(0 1)(2 3)'")
    w.add_argument("--budget", type=_positive_int, default=10)
    w.set_defaults(fn=cmd_towers)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (GraphFieldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
