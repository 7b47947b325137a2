"""Property tests for the term-dict kernels of `_modgcd`: products,
powers, p-th roots and exact division, against naive tuple-keyed
references written here (powers against repeated `_mul_terms`),
`int_gcd` against sympy's gcd (skipped without sympy), and
`_constant_coefficient` and `Poly.degrees` against plain loops over
every position of the keys.

Operands have 1, 2-3 or at least 4 terms in 0-6 variables; exponents are
scaled so that total degrees pass 255, 65,535, 2^32 and 2^64, which runs
every digit width of the packed keys that products and roots use inside.
Needs `hypothesis` (skipped without it).
"""
import math
import random
from operator import add

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfield._modgcd import (  # noqa: E402
    _constant_coefficient,
    _divide_terms,
    _mul_terms,
    _packing,
    _pow_terms,
    _root_terms,
    int_gcd,
)
from graphfield.coeffs import CoeffField  # noqa: E402
from graphfield.polynomials import Poly  # noqa: E402

SETTINGS = settings(max_examples=100, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
SCALES = (1, 100, 30_000, 2**33, 2**62)  # exponent scales: digit widths 1, 2, 4, 8 and more
SIZES = ((1, 1), (2, 3), (4, 7))  # term counts: one term, two or three, four and up
CHARS = (0, 2, 3)


def deglex(e):
    return (sum(e), e)


def reduce(d, r):
    return {e: c % r for e, c in d.items() if c % r} if r else {e: c for e, c in d.items() if c}


def naive_mul(a, b, r):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return reduce(out, r)


def naive_pow(h, p, n, r):
    out = {(0,) * n: 1}
    for _ in range(p):
        out = naive_mul(out, h, r)
    return out


def naive_sub(a, b, r):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return reduce(out, r)


def naive_divide(f, g, r):
    """Long division by the deg-lex leading term, the remainder recomputed
    in full each step: the quotient, or None when g does not divide f."""
    le = max(g, key=deglex)
    quo, rem = {}, reduce(f, r)
    while rem:
        e = max(rem, key=deglex)
        qe = tuple(x - y for x, y in zip(e, le))
        if any(x < 0 for x in qe):
            return None
        if r:
            qc = rem[e] * pow(g[le], -1, r) % r
        elif rem[e] % g[le]:
            return None
        else:
            qc = rem[e] // g[le]
        quo[qe] = qc
        rem = naive_sub(rem, naive_mul({qe: qc}, g, r), r)
    return quo


def naive_root(f, top, rc, p, r):
    """The p-th root with leading term rc·X^(top/p), peeled from the top
    with h^p recomputed in full each step, or None."""
    n = len(top)
    h0 = tuple(x // p for x in top)
    shift = tuple(x * (p - 1) for x in h0)
    lead = p * rc ** (p - 1)
    low = -(-min(map(sum, f)) // p)
    h = {h0: rc % r if r else rc}
    while True:
        rem = naive_sub(reduce(f, r), naive_pow(h, p, n, r), r)
        if not rem:
            return h
        te = tuple(x - y for x, y in zip(max(rem, key=deglex), shift))
        if any(x < 0 for x in te) or sum(te) < low:
            return None
        c = rem[max(rem, key=deglex)]
        if r:
            h[te] = c * pow(lead, -1, r) % r
        elif c % lead:
            return None
        else:
            h[te] = c // lead


@st.composite
def term_dicts(draw, n, r, sizes, scale, top=3):
    lo, hi = sizes
    exps = st.tuples(*[st.integers(0, top).map(lambda x: x * scale)] * n)
    coeff = st.integers(1, r - 1) if r else st.integers(-5, 5).filter(bool)
    out = draw(st.dictionaries(exps, coeff, min_size=lo, max_size=hi))
    assume(len(out) >= lo)
    return out


@st.composite
def kernel_args(draw):
    r = draw(st.sampled_from(CHARS))
    n = draw(st.integers(0, 6))
    scale = draw(st.sampled_from(SCALES))
    sizes = [draw(st.sampled_from(SIZES)) for _ in range(2)]
    if n == 0:  # only one monomial exists
        sizes = [(1, 1), (1, 1)]
    a = draw(term_dicts(n, r, sizes[0], scale))
    b = draw(term_dicts(n, r, sizes[1], scale))
    return r, n, scale, a, b


@SETTINGS
@given(st.integers(0, 6), st.sampled_from(SCALES), st.data())
def test_packed_keys_add_and_order_as_exponents(n, scale, data):
    exps = st.tuples(*[st.integers(0, 3).map(lambda x: x * scale)] * n)
    e1, e2 = data.draw(exps), data.draw(exps)
    pack, unpack = _packing(n, sum(e1) + sum(e2))
    k1, k2 = pack(e1), pack(e2)
    assert unpack(k1) == e1 and unpack(k2) == e2
    assert unpack(k1 + k2) == tuple(map(add, e1, e2))
    assert (k1 < k2) == (deglex(e1) < deglex(e2))


@SETTINGS
@given(kernel_args())
def test_mul_terms_matches_naive_product(args):
    r, n, scale, a, b = args
    assert _mul_terms(a, b, r) == naive_mul(a, b, r)


@SETTINGS
@given(kernel_args())
def test_divide_terms_on_exact_and_inexact_inputs(args):
    r, n, scale, q, g = args
    f = naive_mul(q, g, r)
    assume(f)
    assert _divide_terms(f, g, r) == reduce(q, r)
    # a quotient off by one term, or a remainder added: naive division decides
    extra = {tuple(x + scale for x in max(f, key=deglex)): 1}
    for inexact in (naive_sub(f, extra, r), naive_sub(f, {(0,) * n: 1}, r)):
        if inexact:
            assert _divide_terms(inexact, g, r) == naive_divide(inexact, g, r)


POW_CHARS = (0, 2, 3, 2147483647)


@SETTINGS
@given(st.sampled_from(POW_CHARS), st.integers(1, 5), st.sampled_from((1, 100)),
       st.integers(0, 7), st.data())
def test_pow_terms_matches_repeated_products(r, n, scale, k, data):
    """Scale 100 takes total degrees past 255, so the 2-byte key layout
    runs; 1-8 terms cover the one-term closed form and the packed loop."""
    a = data.draw(term_dicts(n, r, (1, 8), scale))
    want = {(0,) * n: 1}
    for _ in range(k):
        want = _mul_terms(want, a, r)
    assert _pow_terms(a, k, r) == want


def root_case(draw):
    r, n, scale, h, _ = draw(kernel_args())
    p = draw(st.sampled_from([p for p in (2, 3, 5) if p != r]))
    if p == 5:
        assume(len(h) <= 3)
    f = naive_pow(h, p, n, r)
    top = max(f, key=deglex)
    return r, n, scale, p, h, f, top, h[max(h, key=deglex)]


@SETTINGS
@given(st.data())
def test_root_terms_of_powers(data):
    r, n, scale, p, h, f, top, rc = root_case(data.draw)
    assert _root_terms(f, top, rc, p, r) == reduce(h, r)


@SETTINGS
@given(st.data())
def test_root_terms_of_non_powers(data):
    r, n, scale, p, h, f, top, rc = root_case(data.draw)
    e = data.draw(st.tuples(*[st.integers(0, 3 * p).map(lambda x: x * scale)] * n))
    assume(deglex(e) < deglex(top))
    g = naive_sub(f, {e: data.draw(st.integers(1, 4))}, r)
    want = naive_root(g, top, rc, p, r)
    assert _root_terms(g, top, rc, p, r) == want
    if want is not None:
        assert naive_pow(want, p, n, r) == g


def clearing_loop(d, common) -> bool:
    """`_constant_coefficient` by clearing the positions in `common` of
    every key: a class is the keys that agree elsewhere, and it is a
    constant coefficient when it holds one key and that key was free of
    `common`."""
    classes = {}
    for e in d:
        rest = e
        for j in common:
            if rest[j]:
                rest = rest[:j] + (0,) + rest[j + 1:]
        classes[rest] = None if rest in classes else rest is e
    return any(classes.values())


@SETTINGS
@given(st.integers(1, 24), st.sampled_from(SIZES), st.data())
def test_constant_coefficient_matches_the_clearing_loop(n, sizes, data):
    d = data.draw(term_dicts(n, 3, sizes, 1, top=2))
    common = data.draw(st.sets(st.integers(0, n - 1)))
    used = {j for e in d for j, x in enumerate(e) if x}
    more = used | data.draw(st.sets(st.integers(0, n - 1)))  # a superset will do
    assert _constant_coefficient(d, common, used) == _constant_coefficient(d, common, more) == clearing_loop(d, common)


@SETTINGS
@given(st.integers(0, 40), st.sampled_from(SIZES), st.data())
def test_degrees_over_few_and_many_variables(n, sizes, data):
    d = data.draw(term_dicts(n, 3, sizes, 1))
    want = {j: max(e[j] for e in d) for j in range(n) if any(e[j] for e in d)}
    assert Poly(CoeffField(3), n, d).degrees() == want


@pytest.mark.parametrize("degree", [2, 300])
def test_kernels_on_a_sparse_1439_variable_tower(degree):
    """Chain-tower width: 1,439 variables, a few nonzero per monomial."""
    n, rng = 1439, random.Random(degree)

    def sparse(terms):
        d = {}
        while len(d) < terms:
            e = [0] * n
            for _ in range(rng.randrange(1, 4)):
                e[rng.randrange(n)] += rng.randrange(1, degree + 1)
            d[tuple(e)] = rng.randrange(-9, 10) or 1
        return d

    a, b = sparse(6), sparse(5)
    assert _mul_terms(a, b, 0) == naive_mul(a, b, 0)
    assert _divide_terms(naive_mul(a, b, 0), b, 0) == a
    f = naive_pow(a, 2, n, 0)
    top, rc = max(f, key=deglex), a[max(a, key=deglex)]
    assert _root_terms(f, top, rc, 2, 0) == a
    g = naive_sub(f, {(0,) * n: 1}, 0)
    assert _root_terms(g, top, rc, 2, 0) == naive_root(g, top, rc, 2, 0)


# A_{b,c} = X_1^3 + X_2^3 + 1, the defining polynomial of a tower edge; a
# power of it is a content in X_0 of the gcds that tower products cancel
EDGE_POLY = {(0, 3, 0): 1, (0, 0, 3): 1, (0, 0, 0): 1}
GCD_CHARS = (0, 2, 3, 2147483647)


@st.composite
def planted_gcd_args(draw):
    """(r, f, g) with f = x^a·h·u·c_u and g = x^b·h·v·c_v over three
    variables, h = A_{b,c}^k·w, and c_u, c_v of two or three terms, each
    free of one variable.  When c_u and c_v leave out X_1 and X_2, every
    shared variable has a multi-term coefficient in f or in g, which
    makes the gcd take contents in X_0.  Over Z, f and g are primitive.
    w, u, v, c_u and c_v have degree at most 1 in each variable, which
    keeps sympy's gcd over F_r fast."""
    r = draw(st.sampled_from(GCD_CHARS))
    k = draw(st.integers(1, 2))
    w, u, v = (draw(term_dicts(3, r, (1, 3), 1, top=1)) for _ in range(3))
    cu, cv = ({e[:j] + (0,) + e[j:]: c for e, c in draw(term_dicts(2, r, (2, 3), 1, top=1)).items()}
              for j in draw(st.sampled_from([(1, 2), (2, 1), (0, 1), (1, 1), (0, 2)])))
    a, b = (draw(st.tuples(*[st.integers(0, 2)] * 3)) for _ in range(2))
    h = w
    for _ in range(k):
        h = naive_mul(h, EDGE_POLY, r)
    f = naive_mul(naive_mul(naive_mul({a: 1}, h, r), u, r), cu, r)
    g = naive_mul(naive_mul(naive_mul({b: 1}, h, r), v, r), cv, r)
    if not r:
        f, g = ({e: c // math.gcd(*d.values()) for e, c in d.items()} for d in (f, g))
    assume(f and g and not is_constant(f) and not is_constant(g))
    return r, f, g


def is_constant(d):
    return all(not any(e) for e in d)


def sympy_gcd(f, g, r):
    """The gcd by sympy, normalised as `int_gcd` normalises it: monic
    under deg-lex over F_r, primitive with a positive deg-lex leading
    coefficient over Z."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x0:3")

    def expr(d):
        return sum(c * sympy.prod(x**i for x, i in zip(xs, e)) for e, c in d.items())

    opts = {"modulus": r} if r else {}
    ref = sympy.Poly(sympy.gcd(expr(f), expr(g), *xs, **opts), *xs)
    out = {e: int(c) % r if r else int(c) for e, c in ref.terms()}
    lead = out[max(out, key=deglex)]
    if r:
        inv = pow(lead, -1, r)
        return {e: c * inv % r for e, c in out.items() if c % r}
    div = math.gcd(*out.values()) * (1 if lead > 0 else -1)
    return {e: c // div for e, c in out.items()}


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(planted_gcd_args())
def test_int_gcd_on_planted_contents_matches_sympy(args):
    r, f, g = args
    assert int_gcd(f, g, r) == sympy_gcd(f, g, r)
