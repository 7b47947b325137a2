"""The integer polynomial kernel and the modular gcd.

Polynomials here are term dicts {exponent tuple: int}, over Z when the
modulus r is 0 and over F_r when r > 0 (reduced once per output term).
`polynomials.Poly` keeps its coefficients in such a dict next to a
rational content, so products, exact division and p-th roots in every
characteristic run the loops below.

The gcd over Z takes images over F_p for large word-size primes (so
coefficients never grow; each image by evaluation and interpolation,
below), lifts the monic image with a leading-coefficient scale, and
verifies the candidate by exact trial division over the integers; a
failed verification moves to the next prime.  When the deg-lex leading
coefficients of both inputs survive mod p, a constant modular gcd proves
actual coprimality, so the "coprime" answer is sound as well.
"""
from __future__ import annotations

import heapq
import math
import random
from operator import add, neg, sub

# the 16 largest primes below 2^31, descending
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249,
)


def _deglex(e: tuple) -> tuple:
    return (sum(e), e)


def _mul_terms(a: dict, b: dict, r: int) -> dict:
    """Product of term dicts, reduced mod r when r > 0."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (e2, c2), = b.items()
        out = {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in a.items()}
    else:
        out = {}
        get = out.get
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    if r:
        return {e: c % r for e, c in out.items() if c % r}
    return {e: c for e, c in out.items() if c}


def _from_top(d: dict, heap: list):
    """Yield the exponents of d from the deg-lex top down.  `heap` holds
    the `_desc` keys of d's exponents; the caller may edit d below the
    exponent last yielded, and pushes the key of each exponent it adds."""
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[2]
        if e in d:
            yield e


def _desc(e: tuple) -> tuple:
    return (-sum(e), tuple(map(neg, e)), e)


def _divide_terms(f: dict, g: dict, r: int) -> dict | None:
    """Exact quotient f / g of term dicts (g nonzero), or None.  Over Z
    (r = 0) a quotient that is not integral counts as none."""
    le = max(g, key=_deglex)
    lc = g[le]
    lc_inv = pow(lc, -1, r) if r else None
    rest = [(e, c) for e, c in g.items() if e != le]
    rem = dict(f)
    heap = [_desc(e) for e in rem]
    quo = {}
    for e in _from_top(rem, heap):
        qe = tuple(map(sub, e, le))
        if min(qe, default=0) < 0:
            return None
        qc, m = (rem.pop(e) * lc_inv % r, 0) if r else divmod(rem.pop(e), lc)
        if m:
            return None
        quo[qe] = qc
        for e2, c2 in rest:
            t = tuple(map(add, qe, e2))
            s = rem.get(t, 0) - qc * c2
            if r:
                s %= r
            if not s:
                rem.pop(t, None)
                continue
            if t not in rem:
                heapq.heappush(heap, _desc(t))
            rem[t] = s
    return quo


def _root_terms(f: dict, top: tuple, rc: int, p: int, r: int) -> dict | None:
    """The p-th root of term dict f (mod r when r > 0) with leading term
    rc·X^(top/p), or None when f is no p-th power.

    With h the root so far, the next term t of the root satisfies
    lt(f - h^p) = p·lt(h)^(p-1)·t.  The powers h^j (j < p) and h^p - f
    are updated by expanding (h + t)^j, so h^p is never recomputed, and
    h^p - f = 0 is the exact check.  The terms found strictly decrease;
    since the lowest homogeneous part of h^p is that of h to the p-th
    power, no root term has total degree below mindeg(f)/p, and a
    candidate below that bound (or with a negative exponent, or not
    integral over Z) proves f is no p-th power.
    """
    low = -(-min(map(sum, f)) // p)
    h0 = tuple(x // p for x in top)
    powers = [{tuple(x * j for x in h0): rc**j % r if r else rc**j} for j in range(p)]
    powers.append({e: (-c) % r if r else -c for e, c in f.items() if e != top})
    shift = tuple(x * (p - 1) for x in h0)
    lead = p * rc ** (p - 1)
    lead_inv = pow(lead, -1, r) if r else None
    h = {h0: rc}
    heap = [_desc(e) for e in powers[p]]
    for e in _from_top(powers[p], heap):
        te = tuple(map(sub, e, shift))
        if min(te, default=0) < 0 or sum(te) < low:
            return None
        c = -powers[p][e]
        tc, m = (c * lead_inv % r, 0) if r else divmod(c, lead)
        if m:
            return None
        h[te] = tc
        tpow = [(tuple(x * i for x in te), tc**i) for i in range(p + 1)]
        # h^j += sum_i C(j, i) h^(j-i) t^i; j descends, so h^(j-i) is still old
        for j in range(p, 0, -1):
            acc = powers[j]
            for i in range(1, j + 1):
                ti, k = tpow[i][0], math.comb(j, i) * tpow[i][1]
                for e2, c2 in powers[j - i].items():
                    t = tuple(map(add, e2, ti))
                    s = acc.get(t, 0) + k * c2
                    if r:
                        s %= r
                    if not s:
                        acc.pop(t, None)
                        continue
                    if j == p and t not in acc:
                        heapq.heappush(heap, _desc(t))
                    acc[t] = s
    return h


def int_gcd(f: dict, g: dict) -> dict:
    """gcd of nonconstant primitive integer polynomial dicts, primitive
    with a positive leading coefficient.

    Images are combined by CRT until the symmetric lift divides both
    inputs; an unlucky prime (larger modular gcd) is discarded by
    comparing leading exponents.
    """
    unit = {(0,) * len(next(iter(f))): 1}
    lf = f[max(f, key=_deglex)]
    lg = g[max(g, key=_deglex)]
    lam = math.gcd(lf, lg)
    combined: dict | None = None
    modulus = 1
    best_lead = None
    for p in _PRIMES:
        if lf % p == 0 or lg % p == 0:
            continue
        try:
            h = _fp_gcd(_fp_norm(f, p), _fp_norm(g, p), p)
        except _Unlucky:
            continue
        if _is_constant(h):
            # sound: both leading terms survived mod p, so the true gcd
            # reduces faithfully and must itself be constant
            return unit
        lead = max(h, key=_deglex)
        if best_lead is not None and _deglex(lead) > _deglex(best_lead):
            continue  # unlucky prime: modular gcd too large
        if best_lead is None or _deglex(lead) < _deglex(best_lead):
            best_lead = lead
            combined = None
            modulus = 1
        image = {e: v * (lam % p) % p for e, v in h.items()}
        if combined is None:
            combined, modulus = image, p
        else:
            combined = _crt(combined, modulus, image, p)
            modulus *= p
        cand = _primitive(_symmetric_lift(combined, modulus))
        if _divide_terms(f, cand, 0) is not None and _divide_terms(g, cand, 0) is not None:
            return cand
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


# -- integer helpers ---------------------------------------------------------


def _primitive(d: dict) -> dict:
    """d over its content, with a positive leading coefficient."""
    g = math.gcd(*d.values())
    if d[max(d, key=_deglex)] < 0:
        g = -g
    return d if g == 1 else {e: c // g for e, c in d.items()}


def _is_constant(d: dict) -> bool:
    return all(all(x == 0 for x in e) for e in d)


def _symmetric_lift(d: dict, p: int) -> dict:
    half = p // 2
    return {e: (c - p if c > half else c) for e, c in d.items() if c}


def _fp_norm(d: dict, p: int) -> dict:
    return {e: c % p for e, c in d.items() if c % p}


# -- gcd over F_p by evaluation and interpolation ------------------------------
#
# Multivariate gcds reduce to univariate images: all variables but a
# fixed main variable are evaluated on a tensor grid, each univariate
# image gcd is normalized to the gcd of the evaluated leading
# coefficients (a scalar), and the grid is interpolated back.  A cheap
# probe decides coprimality first, which is the dominant case in
# rational-function normalization.


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
    le = max(d, key=_deglex)
    inv = pow(d[le], -1, p)
    if inv == 1:
        return d
    return {e: c * inv % p for e, c in d.items()}


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


def _from_list(lst: list, v: int, nvars: int) -> dict:
    """The univariate coefficient list lst (index = exponent) in X_v."""
    return {tuple(i if j == v else 0 for j in range(nvars)): c for i, c in enumerate(lst) if c}


def _fp_to_list(d: dict, v: int) -> list:
    out = [0] * (_fp_deg(d, v) + 1)
    for e, c in d.items():
        out[e[v]] = c
    return out


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
        return _from_list(_fp_univar_lists_gcd(_fp_to_list(f, v), _fp_to_list(g, v), p), v, nvars)
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
    pf = f if _is_constant(cont_f) else _divide_terms(f, cont_f, p)
    pg = g if _is_constant(cont_g) else _divide_terms(g, cont_g, p)
    prim = _fp_gcd_primitive(pf, pg, m, p, rng, profile or {})
    if _is_constant(prim):
        return cont
    if _is_constant(cont):
        return _fp_monic(prim, p)
    return _fp_monic(_mul_terms(cont, prim, p), p)


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
        return unit if len(lst) <= 1 else _from_list(lst, m, nvars)
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
            h = _divide_terms(h, hc, p)
        if _divide_terms(f, h, p) is not None and _divide_terms(g, h, p) is not None:
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
            return _from_list(grid[prefix], m, nvars)
        v = vs[0]
        if len(vs) == 1:
            ts = coords[v]
            columns = [list(grid[prefix + (t,)]) for t in ts]
            return rows_to_poly(scalar_newton(ts, columns), v)
        pts = [(t, rec(vs[1:], prefix + (t,))) for t in coords[v]]
        return _newton_interp(pts, v, nvars, p)

    return rec(eval_vars, ())


def _newton_interp(points, v, nvars, p):
    """Newton interpolation in variable v with dict-poly values."""
    n = len(points)
    ts = [t for t, _ in points]
    divided = [dict(val) for _, val in points]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            inv = pow((ts[i] - ts[i - level]) % p, -1, p)
            divided[i] = _fp_add(divided[i], divided[i - 1], p, -1, inv)
    acc = divided[n - 1]
    for i in range(n - 2, -1, -1):
        shift = _from_list([-ts[i] % p, 1], v, nvars)  # X_v - t_i
        acc = _fp_add(_mul_terms(acc, shift, p), divided[i], p)
    return acc


def _fp_add(a: dict, b: dict, p: int, k: int = 1, scale: int = 1) -> dict:
    """scale * (a + k * b) over F_p."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + k * c
    return {e: c * scale % p for e, c in out.items() if c * scale % p}
