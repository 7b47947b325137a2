"""The tower workloads: root round trips, certified refusals and inverses
in the radical towers over K2, P3 and K3 (dimensions 5, 25 and 175).

A block is one fixed mix of operations.  Edge-prime round trips
enumerate their monomial shapes, and inverses use element shapes drawn
once from a fixed stream, because one shape can cost a thousand times
another: sampled shapes would make the seed, not the program, decide a
run's time.  The seed draws the rest: constants, signs, chain-prime
monomials, refusals, coefficients and the order of the operations.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from common import Op, element_shape, poly_shape, realize

TOWERS = {
    "K2": (["s", "t"], [("s", "t")]),
    "P3": (["a", "b", "c"], [("a", "b"), ("b", "c")]),
    "K3": (["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
}

EXPONENTS = (-2, -1, 1, 2)
EDGE_PRIME = {"K2": 5, "P3": 5, "K3": 7}  # K3's prime-5 pair costs what P3's does


@dataclass(frozen=True)
class Mix:
    """How many operations of each kind one block holds, per tower."""

    chain_round_trips: int
    refusals: int  # at each of the chain prime and the edge prime
    inverses: dict
    shape_stride: int  # 1 takes every edge shape, k every k-th


BLOCK = Mix(chain_round_trips=6, refusals=2, inverses={"K2": 6, "P3": 3, "K3": 3}, shape_stride=1)
WARM_UP = Mix(chain_round_trips=1, refusals=1, inverses={"K2": 1, "P3": 1, "K3": 1}, shape_stride=8)

# Round trips whose coefficient after powering exceeds 2^1024, on fixed
# inputs: (tower, vertex or edge label, generator level, decimal
# exponent of the constant, prime).  Each fails while coeffs._int_root
# estimates roots through a float.
LARGE_COEFFICIENT = (
    ("K2", "s", 1, 103, 3),
    ("P3", "b", 1, 103, 3),
    ("K3", "e:a,b", 1, 62, 5),
)


class TowerWorkload:
    def __init__(self, char: int, block_seconds: float):
        self.char = char
        self.block_seconds = block_seconds

    def setup_calls(self, gf) -> dict:
        return {
            name: gf.build_tower(gf.greedy_star_coloring(gf.Graph(vs, es)), char=self.char)
            for name, (vs, es) in TOWERS.items()
        }

    def build(self, gf, seed: str, blocks: int) -> tuple[list[Op], list[Op]]:
        """The timed operation list and a short warm-up list drawn from
        another seed."""
        ctxs = self.setup_calls(gf)
        rng = random.Random(seed)
        ops = [op for _ in range(blocks) for op in self._block(gf, ctxs, rng, BLOCK)]
        return ops, self._block(gf, ctxs, random.Random("warm-up:" + seed), WARM_UP)

    # -- one block -------------------------------------------------------

    def _block(self, gf, ctxs, rng, mix: Mix) -> list[Op]:
        ops = []
        for name, ctx in ctxs.items():
            p0, p = ctx.chain_prime, EDGE_PRIME[name]
            gens = [g for g in ctx.gens if g.prime == p]
            for _ in range(mix.chain_round_trips):
                ops.append(round_trip(gf, "chain_round_trip", self._chain_monomial(gf, ctx, rng), p0))
            for shape in edge_shapes(len(gens))[::mix.shape_stride]:
                # only a sign: the size of a constant moves the cost of
                # these large coefficient roots by up to half
                b = ctx.constant(rng.choice((-1, 1)))
                for g, part in zip(gens, shape):
                    if part is not None:
                        level, m = part
                        b = b * gf.generator_edge(ctx, g.label, level) ** m
                ops.append(round_trip(gf, "edge_round_trip", b, p))
            for _ in range(mix.refusals):
                v = rng.choice(ctx.var_names)
                x = gf.generator_vertex(ctx, v, ctx.vertex_depths[v])
                ops.append(refusal(gf, self._chain_monomial(gf, ctx, rng), x, p0))
            for _ in range(mix.refusals):
                b = self._unit(gf, ctx, rng)
                for g in gens:
                    if rng.random() < 0.7:
                        b = b * gf.generator_edge(ctx, g.label, g.depth) ** rng.choice((1, 2))
                g = rng.choice(gens)
                ops.append(refusal(gf, b, gf.generator_edge(ctx, g.label, g.depth), p))
            for shape in self._inverse_shapes(ctx, name)[:mix.inverses[name]]:
                ops.append(inverse(realize(gf, ctx, shape, rng)))
        if self.char == 0:
            for name, label, level, decimals, p in LARGE_COEFFICIENT:
                ctx = ctxs[name]
                if label in ctx.var_index:
                    g = gf.generator_vertex(ctx, label, level)
                else:
                    g = gf.generator_edge(ctx, label, level)
                op = round_trip(gf, "large_coefficient_round_trip", g * ctx.constant(10**decimals), p)
                ops.append(op)
        rng.shuffle(ops)
        return ops

    # -- samplers ----------------------------------------------------------

    def _unit(self, gf, ctx, rng):
        """A random nonzero constant: a small signed fraction in char 0,
        1 in char 2 (the only unit of the prime field)."""
        if self.char != 0:
            return ctx.one()
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
        return ctx.from_ratfunc(gf.RatFunc.const(ctx.field, ctx.nvars, q))

    def _chain_monomial(self, gf, ctx, rng):
        b = self._unit(gf, ctx, rng)
        for v in ctx.var_names:
            if rng.random() < 0.7:
                level = rng.randint(0, ctx.vertex_depths[v])
                b = b * gf.generator_vertex(ctx, v, level) ** rng.choice(EXPONENTS)
        return b

    def _inverse_shapes(self, ctx, name: str) -> list:
        """Fixed element shapes, like criterion 3's samples: one or two
        generator monomials in K2 (with denominators) and P3; c0 + c * Y_i^k
        on one generator level in K3."""
        rng = random.Random("inverse-shapes:" + name)
        count = BLOCK.inverses[name]
        if name != "K3":
            return [element_shape(ctx, rng, allow_denominator=(name == "K2")) for _ in range(count)]
        shapes = []
        for _ in range(count):
            i = rng.randrange(len(ctx.gens))
            exps = [0] * len(ctx.gens)
            exps[i] = rng.randrange(1, min(ctx.gen_degree(i), 6))
            shapes.append([((0,) * len(ctx.gens), [None], None),
                           (tuple(exps), poly_shape(ctx.nvars, rng), None)])
        return shapes


def edge_shapes(n_gens: int) -> list[tuple]:
    """Every monomial shape over n_gens edge generators of one prime, up to
    the order of the generators: each generator absent or taken at level
    0 or 1 to a power in EXPONENTS.  Each shape is used in one fixed
    order, because the order alone can double its cost.  Left out: the
    empty shape, and shapes whose level-0 exponents add up to 4 or more
    in absolute value (the product of two squared defining polynomials,
    3 to 4 s each in char 0, where every other shape takes under 1 s)."""
    parts = [None] + [(level, m) for level in (0, 1) for m in EXPONENTS]
    shapes = set()
    for combo in itertools.product(parts, repeat=n_gens):
        present = [part for part in combo if part is not None]
        if not present or abs(sum(m for level, m in present if level == 0)) >= 4:
            continue
        shapes.add(tuple(sorted(combo, key=repr)))
    return sorted(shapes, key=repr)


# -- operations ------------------------------------------------------------


def round_trip(gf, kind: str, b, p: int) -> Op:
    def run():
        a = b**p
        return a, gf.roots.pth_root(a, p)

    def check(out) -> bool:
        a, r = out
        return r.outcome == "root" and r.witness**p == a

    return Op(kind, run, check)


def refusal(gf, b, x, p: int) -> Op:
    def run():
        return gf.roots.pth_root(b**p * x, p)

    def check(r) -> bool:
        return r.outcome == "no" and r.certificate is not None

    return Op("refusal", run, check)


def inverse(a) -> Op:
    def check(inv) -> bool:
        return (a * inv).is_one()

    return Op("inverse", lambda: a.inv(), check)
