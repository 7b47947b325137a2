"""What the workload modules and the runner share."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One timed call into the program and the check of its answer.

    `run` is timed; `check` runs afterwards, untimed and untraced, and
    returns whether the answer is right.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


# -- sampled element shapes -----------------------------------------------
#
# An element's shape (which generator monomials, which variables and
# powers in each coefficient) is drawn once from a fixed stream; the run
# seed draws only the integer coefficients.  Costs of tower arithmetic
# depend on the shape by orders of magnitude and on small coefficients
# hardly at all, so every seed then costs about the same.


def poly_shape(nvars: int, rng) -> list:
    """One or two distinct terms, each X_i^k (k in {1, 2}) or the constant 1."""
    terms = {(rng.randrange(nvars), rng.randint(1, 2)) if rng.random() < 0.7 else None
             for _ in range(rng.randint(1, 2))}
    return sorted(terms, key=repr)


def element_shape(ctx, rng, allow_denominator: bool = False) -> list:
    """One or two distinct generator exponent vectors (each exponent below
    min(degree, 4), not all zero), each with a coefficient shape."""
    while True:
        exps = {tuple(rng.randrange(min(ctx.gen_degree(i), 4)) for i in range(len(ctx.gens)))
                for _ in range(rng.randint(1, 2))}
        if any(any(e) for e in exps):
            break
    return [(e, poly_shape(ctx.nvars, rng),
             poly_shape(ctx.nvars, rng) if allow_denominator and rng.random() < 0.3 else None)
            for e in sorted(exps)]


def realize(gf, ctx, shape, rng):
    """The element of the given shape with coefficients drawn from rng,
    each nonzero in the tower's characteristic, so it is never zero."""
    F, n = ctx.field, ctx.nvars
    values = [c for c in (-3, -2, -1, 1, 2, 3) if ctx.char == 0 or c % ctx.char]

    def poly(terms):
        acc = gf.Poly.zero(F, n)
        for term in terms:
            mono = gf.Poly.one(F, n) if term is None else gf.Poly.var(F, n, *term)
            acc = acc + mono.scale(F.of_int(rng.choice(values)))
        return acc

    out = ctx.zero()
    for exps, num, den in shape:
        coeff = gf.RatFunc.from_poly(poly(num)) if den is None else gf.RatFunc(poly(num), poly(den))
        out = out + gf.TowerElement(ctx, {exps: coeff})
    return out
