"""Modular multivariate gcd over the integers.

Polynomials are {exponent tuple: int} dicts.  The primitive remainder
sequence runs over F_p for a large word-size prime (so coefficients never
grow), the monic image is lifted with a leading-coefficient scale, and
the candidate is verified by exact trial division over the integers; a
failed verification moves to the next prime.  When the deg-lex leading
coefficients of both inputs survive mod p, a constant modular gcd proves
actual coprimality, so the "coprime" answer is sound as well.
"""
from __future__ import annotations

import math

from .coeffs import is_prime


def _gen_primes(limit: int = 16) -> tuple[int, ...]:
    """The `limit` largest primes up to 2^31 - 1, descending."""
    out = []
    n = 2147483647
    while len(out) < limit:
        if is_prime(n):
            out.append(n)
        n -= 2
    return tuple(out)


_PRIMES = _gen_primes()


def int_gcd(f: dict, g: dict) -> dict:
    """Primitive gcd of nonzero integer polynomial dicts.

    Images are combined by CRT until the symmetric lift divides both
    inputs; an unlucky prime (larger modular gcd) is discarded by
    comparing leading exponents.
    """
    if not f:
        return _strip_num(dict(g))
    if not g:
        return _strip_num(dict(f))
    cf = _num_content(f)
    cg = _num_content(g)
    c = math.gcd(cf, cg)
    fp = {e: v // cf for e, v in f.items()} if cf != 1 else f
    gp = {e: v // cg for e, v in g.items()} if cg != 1 else g
    nvars = len(next(iter(f)))
    unit = {(0,) * nvars: 1}
    if _is_constant(fp) or _is_constant(gp):
        return _scale(unit, c)
    lf = fp[max(fp, key=lambda t: (sum(t), t))]
    lg = gp[max(gp, key=lambda t: (sum(t), t))]
    lam = math.gcd(lf, lg)
    combined: dict | None = None
    modulus = 1
    best_lead = None
    for p in _PRIMES:
        if lf % p == 0 or lg % p == 0:
            continue
        try:
            h = _fp_gcd(_fp_norm(fp, p), _fp_norm(gp, p), p)
        except _Unlucky:
            continue
        if _is_constant(h):
            # sound: both leading terms survived mod p, so the true gcd
            # reduces faithfully and must itself be constant
            return _scale(unit, c)
        lead = max(h, key=lambda t: (sum(t), t))
        if best_lead is not None and (sum(lead), lead) > (sum(best_lead), best_lead):
            continue  # unlucky prime: modular gcd too large
        if best_lead is None or (sum(lead), lead) < (sum(best_lead), best_lead):
            best_lead = lead
            combined = None
            modulus = 1
        image = {e: v * (lam % p) % p for e, v in h.items()}
        if combined is None:
            combined, modulus = image, p
        else:
            combined = _crt(combined, modulus, image, p)
            modulus *= p
        cand = _strip_num(_symmetric_lift(combined, modulus))
        if divides(cand, fp) is not None and divides(cand, gp) is not None:
            return _scale(cand, c)
    raise ArithmeticError("modular gcd failed for all configured primes")  # pragma: no cover


def _crt(a: dict, m: int, b: dict, p: int) -> dict:
    """Coefficientwise Chinese remaindering (supports may differ)."""
    inv = pow(m % p, -1, p)
    out = {}
    for e in set(a) | set(b):
        av = a.get(e, 0)
        bv = b.get(e, 0)
        t = (bv - av) % p * inv % p
        out[e] = av + m * t
    return out


def divides(f: dict, g: dict) -> dict | None:
    """Exact quotient g / f with integer coefficients, or None when f does
    not divide g or the quotient is not integral."""
    le = max(f, key=lambda t: (sum(t), t))
    lc = f[le]
    quo: dict = {}
    rem = dict(g)
    while rem:
        re = max(rem, key=lambda t: (sum(t), t))
        qe = tuple(a - b for a, b in zip(re, le))
        qc, r = divmod(rem[re], lc)
        if r or any(x < 0 for x in qe):
            return None
        quo[qe] = qc
        for e2, c2 in f.items():
            e = tuple(a + b for a, b in zip(qe, e2))
            s = rem.get(e, 0) - qc * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quo


# -- integer helpers ---------------------------------------------------------


def _num_content(d: dict) -> int:
    g = 0
    for c in d.values():
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g or 1


def _strip_num(d: dict) -> dict:
    if not d:
        return d
    g = _num_content(d)
    le = max(d, key=lambda t: (sum(t), t))
    if d[le] < 0:
        g = -g
    if g == 1:
        return d
    return {e: c // g for e, c in d.items()}


def _scale(d: dict, c: int) -> dict:
    if c == 1:
        return d
    return {e: v * c for e, v in d.items()}


def _is_constant(d: dict) -> bool:
    return all(all(x == 0 for x in e) for e in d)


def _symmetric_lift(d: dict, p: int) -> dict:
    half = p // 2
    return {e: (c - p if c > half else c) for e, c in d.items() if c}


def _fp_norm(d: dict, p: int) -> dict:
    out = {}
    for e, c in d.items():
        c %= p
        if c:
            out[e] = c
    return out


# -- gcd over F_p by evaluation and interpolation ------------------------------
#
# Multivariate gcds reduce to univariate images: all variables but a
# fixed main variable are evaluated on a tensor grid, each univariate
# image gcd is normalized to the gcd of the evaluated leading
# coefficients (a scalar), and the grid is interpolated back.  A cheap
# probe decides coprimality first, which is the dominant case in
# rational-function normalization.

import random


class _Unlucky(Exception):
    pass


def _fp_vars(d: dict) -> set:
    out = set()
    for e in d:
        for i, x in enumerate(e):
            if x:
                out.add(i)
    return out


def _fp_deg(d: dict, v: int) -> int:
    return max((e[v] for e in d), default=-1)


def _fp_monic(d: dict, p: int) -> dict:
    if not d:
        return d
    le = max(d, key=lambda t: (sum(t), t))
    inv = pow(d[le], -1, p)
    if inv == 1:
        return d
    return {e: c * inv % p for e, c in d.items()}


def _fp_mul(a: dict, b: dict, p: int) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            s = (out.get(e, 0) + c1 * c2) % p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _fp_coeffs_in(d: dict, v: int) -> list[dict]:
    out: list[dict] = [{} for _ in range(_fp_deg(d, v) + 1)]
    for e, c in d.items():
        e2 = list(e)
        k = e2[v]
        e2[v] = 0
        out[k][tuple(e2)] = c
    return out


def _pow_table(t: int, maxk: int, p: int) -> list[int]:
    out = [1] * (maxk + 1)
    for i in range(1, maxk + 1):
        out[i] = out[i - 1] * t % p
    return out


def _fp_eval_one(d: dict, v: int, t: int, p: int) -> dict:
    """Substitute X_v = t (power table instead of repeated pow)."""
    if not d:
        return {}
    maxk = _fp_deg(d, v)
    if maxk <= 0:
        return dict(d)
    pows = _pow_table(t, maxk, p)
    out: dict = {}
    for e, c in d.items():
        k = e[v]
        if k:
            c = c * pows[k] % p
            if not c:
                continue
            e2 = list(e)
            e2[v] = 0
            e = tuple(e2)
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _fp_eval_many(d: dict, assign: dict, p: int) -> dict:
    """Substitute assign[v] = t for several variables."""
    out = d
    for v, t in assign.items():
        out = _fp_eval_one(out, v, t, p)
    return out


def _eval_grid(d: dict, eval_vars: list, coords: dict, p: int) -> dict:
    """Evaluate on the whole tensor grid by nested partial evaluation.

    Returns {point tuple: fully evaluated dict} where the point follows
    eval_vars order; partial results are shared across the grid."""
    grid = {(): d}
    for v in eval_vars:
        nxt = {}
        for prefix, partial in grid.items():
            for t in coords[v]:
                nxt[prefix + (t,)] = _fp_eval_one(partial, v, t, p)
        grid = nxt
    return grid


def _fp_univar_lists_gcd(a: list, b: list, p: int) -> list:
    """Monic gcd of coefficient lists (index = exponent)."""
    a, b = a[:], b[:]
    while True:
        while b and b[-1] == 0:
            b.pop()
        if not b:
            break
        inv = pow(b[-1], -1, p)
        while True:
            while a and a[-1] == 0:
                a.pop()
            if len(a) < len(b):
                break
            coef = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - coef * bc) % p
        a, b = b, a
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_to_list(d: dict, v: int) -> list:
    out = [0] * (_fp_deg(d, v) + 1)
    for e, c in d.items():
        out[e[v]] = c
    return out


def _fp_quotient(f: dict, g: dict, p: int) -> dict | None:
    """Exact quotient f / g over F_p, or None when g does not divide f."""
    le = max(g, key=lambda t: (sum(t), t))
    lc_inv = pow(g[le], -1, p)
    quo: dict = {}
    rem = dict(f)
    while rem:
        re = max(rem, key=lambda t: (sum(t), t))
        qe = tuple(a - b for a, b in zip(re, le))
        if any(x < 0 for x in qe):
            return None
        qc = rem[re] * lc_inv % p
        quo[qe] = qc
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(qe, e2))
            s = (rem.get(e, 0) - qc * c2) % p
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return quo


def _fp_content_in(d: dict, v: int, p: int) -> dict:
    acc: dict = {}
    for c in _fp_coeffs_in(d, v):
        if not c:
            continue
        acc = _fp_gcd(acc, c, p) if acc else _fp_monic(dict(c), p)
        if _is_constant(acc):
            break
    return acc


def _probe_degrees(f: dict, g: dict, common: set, p: int, rng) -> dict | None:
    """For each shared variable v, evaluate all the others and take a
    univariate gcd.  With the leading degrees preserved, the image degree
    is an upper bound for deg_v(gcd) that is exact off a thin bad set, so
    it doubles as a sound constant-gcd test and an interpolation bound
    hint (a too-small hint is caught by the division verification)."""
    all_vars = _fp_vars(f) | _fp_vars(g)
    profile = {}
    for v in common:
        others = [u for u in all_vars if u != v]
        got = None
        for _ in range(6):
            assign = {u: rng.randrange(1, p) for u in others}
            fv = _fp_eval_many(f, assign, p)
            gv = _fp_eval_many(g, assign, p)
            if _fp_deg(fv, v) != _fp_deg(f, v) or _fp_deg(gv, v) != _fp_deg(g, v):
                continue  # leading coefficient vanished; try another point
            h = _fp_univar_lists_gcd(_fp_to_list(fv, v), _fp_to_list(gv, v), p)
            got = len(h) - 1
            break
        if got is None:
            return None
        profile[v] = got
    return profile


def _fp_gcd(f: dict, g: dict, p: int) -> dict:
    """Monic gcd over F_p[X...]."""
    if not f:
        return _fp_monic(g, p)
    if not g:
        return _fp_monic(f, p)
    nvars = len(next(iter(f)))
    unit = {(0,) * nvars: 1}
    if _is_constant(f) or _is_constant(g):
        return unit
    used_f = _fp_vars(f)
    used_g = _fp_vars(g)
    used = used_f | used_g
    if len(used) == 1:
        v = next(iter(used))
        lst = _fp_univar_lists_gcd(_fp_to_list(f, v), _fp_to_list(g, v), p)
        out = {}
        for i, c in enumerate(lst):
            if c:
                e = [0] * nvars
                e[v] = i
                out[tuple(e)] = c
        return out
    rng = random.Random(0x5EED ^ p)
    common = used_f & used_g
    if not common:
        return unit  # a common divisor could not involve any variable
    profile = _probe_degrees(f, g, common, p, rng)
    if profile is not None and all(d == 0 for d in profile.values()):
        return unit
    m = min(common)
    # split off contents with respect to the main variable
    cont_f = _fp_content_in(f, m, p)
    cont_g = _fp_content_in(g, m, p)
    cont = _fp_gcd(cont_f, cont_g, p)
    pf = f if _is_constant(cont_f) else _fp_quotient(f, cont_f, p)
    pg = g if _is_constant(cont_g) else _fp_quotient(g, cont_g, p)
    prim = _fp_gcd_primitive(pf, pg, m, p, rng, profile or {})
    if _is_constant(prim):
        return cont
    if _is_constant(cont):
        return _fp_monic(prim, p)
    return _fp_monic(_fp_mul(cont, prim, p), p)


def _fp_gcd_primitive(f: dict, g: dict, m: int, p: int, rng, deg_hints: dict) -> dict:
    """gcd of m-primitive polynomials by univariate images on a tensor
    grid over the other variables.

    Grid sizes start from the probe-estimated gcd degrees (exact off a
    thin bad set) and escalate to the conservative bounds when the
    division verification rejects the interpolant.
    """
    nvars = len(next(iter(f)))
    unit = {(0,) * nvars: 1}
    used = (_fp_vars(f) | _fp_vars(g)) - {m}
    if not used:
        lst = _fp_univar_lists_gcd(_fp_to_list(f, m), _fp_to_list(g, m), p)
        if len(lst) <= 1:
            return unit
        out = {}
        for i, c in enumerate(lst):
            if c:
                e = [0] * nvars
                e[m] = i
                out[tuple(e)] = c
        return out
    lc_f = _fp_coeffs_in(f, m)[-1]
    lc_g = _fp_coeffs_in(g, m)[-1]
    gamma = _fp_gcd(lc_f, lc_g, p)
    eval_vars = sorted(used)
    conservative = {
        v: min(_fp_deg(f, v), _fp_deg(g, v)) + _fp_deg(gamma, v) + 1 for v in eval_vars
    }
    hinted = {
        v: min(deg_hints.get(v, conservative[v]) + _fp_deg(gamma, v) + 1, conservative[v])
        for v in eval_vars
    }
    for attempt in range(25):
        bounds = hinted if attempt < 2 else conservative
        coords = {v: _distinct_coords(rng, bounds[v], p) for v in eval_vars}
        grid = _collect_images(f, g, lc_f, lc_g, gamma, m, eval_vars, coords, p)
        if grid is None:
            continue
        h = _tensor_interp(grid, eval_vars, coords, m, nvars, p)
        hc = _fp_content_in(h, m, p)
        if not _is_constant(hc):
            h = _fp_quotient(h, hc, p)
        if _fp_quotient(f, h, p) is not None and _fp_quotient(g, h, p) is not None:
            return _fp_monic(h, p)
    raise _Unlucky()


def _distinct_coords(rng, count: int, p: int) -> list:
    out = set()
    while len(out) < count:
        out.add(rng.randrange(1, p))
    return sorted(out)


def _collect_images(f, g, lc_f, lc_g, gamma, m, eval_vars, coords, p):
    """Univariate gcd images gamma(T) * monic(gcd(f_T, g_T)) on the grid,
    or None when a cell is degenerate or degrees disagree."""
    f_grid = _eval_grid(f, eval_vars, coords, p)
    g_grid = _eval_grid(g, eval_vars, coords, p)
    gam_grid = _eval_grid(gamma, eval_vars, coords, p)
    lcf_grid = _eval_grid(lc_f, eval_vars, coords, p)
    lcg_grid = _eval_grid(lc_g, eval_vars, coords, p)
    grid = {}
    deg_star = None
    for pt, fv in f_grid.items():
        if not lcf_grid[pt] or not lcg_grid[pt]:
            return None  # a leading coefficient vanished on the grid
        gam_val = gam_grid[pt]
        if not gam_val:
            return None
        gam = next(iter(gam_val.values()))
        gv = g_grid[pt]
        h = _fp_univar_lists_gcd(_fp_to_list(fv, m), _fp_to_list(gv, m), p)
        d = len(h) - 1
        if deg_star is None:
            deg_star = d
        if d != deg_star:
            return None  # mixed luck; retry with fresh coordinates
        grid[pt] = [c * gam % p for c in h]
    if deg_star == 0:
        for pt in grid:
            grid[pt] = [1]  # primitive parts are coprime
    return grid


def _tensor_interp(grid, eval_vars, coords, m, nvars, p):
    """Interpolate the grid of univariate images back into a polynomial.

    The innermost level works on raw coefficient lists (scalar Newton per
    coefficient); outer levels interpolate with polynomial values.
    """

    def poly_from_list(lst):
        out = {}
        for i, c in enumerate(lst):
            if c:
                e = [0] * nvars
                e[m] = i
                out[tuple(e)] = c
        return out

    def scalar_newton(ts, columns):
        # vector-valued Newton: divided differences per coefficient slot,
        # then Horner assembly into v-degree rows
        n = len(ts)
        width = max(len(c) for c in columns)
        divided = [col + [0] * (width - len(col)) for col in columns]
        for level in range(1, n):
            for i in range(n - 1, level - 1, -1):
                inv = pow((ts[i] - ts[i - level]) % p, -1, p)
                divided[i] = [
                    (a - b) * inv % p for a, b in zip(divided[i], divided[i - 1])
                ]
        acc = [divided[n - 1]]  # acc[d] = vector coefficient of v^d
        for i in range(n - 2, -1, -1):
            t = ts[i]
            new = [[0] * width for _ in range(len(acc) + 1)]
            for d, row in enumerate(acc):
                up = new[d + 1]
                low = new[d]
                for k, c in enumerate(row):
                    if c:
                        up[k] = (up[k] + c) % p
                        low[k] = (low[k] - t * c) % p
            base = new[0]
            for k, c in enumerate(divided[i]):
                if c:
                    base[k] = (base[k] + c) % p
            acc = new
        return acc  # acc[d] = coefficient list at var-degree d

    def rows_to_poly(rows, v):
        out = {}
        for d, row in enumerate(rows):
            for i, c in enumerate(row):
                if c:
                    e = [0] * nvars
                    e[m] = i
                    e[v] = d
                    out[tuple(e)] = c
        return out

    def rec(vs, prefix):
        if not vs:
            return poly_from_list(grid[prefix])
        v = vs[0]
        if len(vs) == 1:
            ts = coords[v]
            columns = [list(grid[prefix + (t,)]) for t in ts]
            return rows_to_poly(scalar_newton(ts, columns), v)
        pts = [(t, rec(vs[1:], prefix + (t,))) for t in coords[v]]
        return _newton_interp(pts, v, p)

    return rec(eval_vars, ())


def _newton_interp(points, v, p):
    """Newton interpolation in variable v with dict-poly values."""
    n = len(points)
    ts = [t for t, _ in points]
    divided = [dict(val) for _, val in points]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            inv = pow((ts[i] - ts[i - level]) % p, -1, p)
            num = _fp_sub(divided[i], divided[i - 1], p)
            divided[i] = {e: c * inv % p for e, c in num.items()}
    acc = divided[n - 1]
    for i in range(n - 2, -1, -1):
        acc = _fp_add(_linear_shift(acc, v, ts[i], p), divided[i], p)
    return acc


def _linear_shift(acc: dict, v: int, t: int, p: int) -> dict:
    """(X_v - t) * acc."""
    out: dict = {}
    for e, c in acc.items():
        e2 = list(e)
        e2[v] += 1
        key = tuple(e2)
        out[key] = (out.get(key, 0) + c) % p
        s = (out.get(e, 0) - c * t) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return {e: c for e, c in out.items() if c}


def _fp_add(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) + c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _fp_sub(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = (out.get(e, 0) - c) % p
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out
