"""The integer polynomial kernel and the one modular gcd.

Polynomials here are term dicts {exponent tuple: int}, over Z when the
modulus r is 0 and over F_r when r > 0 (reduced once per output term).
`polynomials.Poly` keeps its coefficients in such a dict next to a
rational content, so products, powers, exact division and p-th roots
in every characteristic run the loops below.

Products with at least 4 terms in each operand, powers of two or more
terms, exact division and p-th roots run their loops on packed deg-lex
int keys; `_packing` describes the layout.  The keys never leave one
call: the kernels take and return tuple-keyed dicts.

`int_gcd` serves both characteristics with one gcd over F_p (`_fp_gcd`):
Brown's evaluation and interpolation, with a probe that settles
coprimality first.  Its contents are kept cheap: the monomial contents
split off first (gcd(x^a·f, x^b·g) = x^min(a,b)·gcd(f, g)); the main
variable is one in which both inputs have a one-term coefficient when
there is one, which makes both contents in it 1; and a content of three
or more coefficients is one gcd of a coefficient with a combination of
the others, certified by exact division (`_fp_content_in`).  Its
univariate images are taken at points of an image field: F_p itself for
the word-size primes, GF(p^k) for a small characteristic p, with k
chosen from the degrees and raised when candidates keep failing.  A
candidate is accepted only when its coefficients lie in F_p and it
divides both inputs exactly over F_p.
Over Z the images for several primes are combined by CRT, the lift is
made primitive and verified by exact trial division over the integers;
a failed verification moves to the next prime.  When the deg-lex
leading coefficients of both inputs survive mod p, a constant modular
gcd proves actual coprimality, so the "coprime" answer is sound as well.

`groups` builds PSL, PGL and PGammaL(2, q) on the image fields, which
find their own moduli (`_power_tables`).  `roots.specialization_refute`
takes the generator of F_q^* and its exp/log tables from
`_power_tables(q, 1)`, so the package has one finite-field arithmetic.
"""
from __future__ import annotations

import functools
import heapq
import math
import random
import sys
from array import array
from collections import Counter
from operator import add, sub, xor

# the 16 largest primes below 2^31, descending
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249,
)


def _deglex(e: tuple) -> tuple:
    return (sum(e), e)


_PACK_MIN_TERMS = 4  # a product packs when its smaller operand has this many terms
_ARRAY_CODES = {array(c).itemsize: c for c in "HILQ"}
_SWAP = sys.byteorder == "little"


def _packing(n: int, bound: int):
    """(pack, unpack) between exponent tuples of length n and total
    degree at most `bound` and their deg-lex keys (Johnson, "Sparse
    polynomial arithmetic", SIGSAM Bull. 1974; Monagan & Pearce, CASC
    2007).

    A key holds sum(e) in its top digit, then e_0 ... e_(n-1), most
    significant first; every digit takes the fewest whole bytes (1, 2, 4
    or 8, more only past 2^64) that hold `bound`.  Within the bound no
    digit can carry, so the key of a product of monomials is the sum of
    their keys, and integer order is deg-lex order.  Both directions are
    linear in n: bytes for 1-byte digits, `array` for 2, 4 and 8.

    Four kernels pack, and each proves its bound from its inputs: a
    product (`_mul_terms`) the sum of the operands' maximal total
    degrees, a power a^n (`_pow_terms`) n·maxdeg(a), exact division
    (`_divide_terms`) maxdeg(f) and a p-th root (`_root_terms`) the
    total degree of f's leading term.
    """
    size = 1
    while bound >= 1 << (8 * size):
        size *= 2
    return _codec(n, size)


@functools.lru_cache(maxsize=64)
def _codec(n: int, size: int):
    shift = 8 * size * n
    mask = (1 << shift) - 1
    from_bytes = int.from_bytes
    if size == 1:
        def pack(e):
            return sum(e) << shift | from_bytes(bytes(e), "big")

        def unpack(k):
            return tuple((k & mask).to_bytes(n, "big"))
    elif size in _ARRAY_CODES:
        code = _ARRAY_CODES[size]

        def pack(e):
            a = array(code, e)
            if _SWAP:
                a.byteswap()
            return sum(e) << shift | from_bytes(a, "big")

        def unpack(k):
            a = array(code, (k & mask).to_bytes(size * n, "big"))
            if _SWAP:
                a.byteswap()
            return tuple(a)
    else:
        def pack(e):
            return sum(e) << shift | from_bytes(b"".join(x.to_bytes(size, "big") for x in e), "big")

        def unpack(k):
            b = (k & mask).to_bytes(size * n, "big")
            return tuple(from_bytes(b[i:i + size], "big") for i in range(0, size * n, size))
    return pack, unpack


def _mul_terms(a: dict, b: dict, r: int) -> dict:
    """Product of term dicts, reduced mod r when r > 0.

    When the smaller operand has at least `_PACK_MIN_TERMS` (4) terms,
    the pair loop adds packed keys (`_packing`, `_mul_packed`), whose
    bound is the sum of the operands' maximal total degrees.  Below
    that, packing and unpacking cost more than they save, so the loop
    adds tuples.  On the products of one recorded `tower-char0` run (3
    variables, Python 3.11), a 3-term smaller operand took 22 us with
    tuples and 24 us packed, and a 6-term one 81 us with tuples and 57
    us packed.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (e2, c2), = b.items()
        out = {tuple(map(add, e1, e2)): c1 * c2 for e1, c1 in a.items()}
    elif len(b) < _PACK_MIN_TERMS:
        out = {}
        get = out.get
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    else:
        pack, unpack = _packing(len(next(iter(a))), max(map(sum, a)) + max(map(sum, b)))
        out = _mul_packed([(pack(e), c) for e, c in a.items()], [(pack(e), c) for e, c in b.items()])
        if r:
            return {unpack(k): c % r for k, c in out.items() if c % r}
        return {unpack(k): c for k, c in out.items() if c}
    if r:
        return {e: c % r for e, c in out.items() if c % r}
    return {e: c for e, c in out.items() if c}


def _mul_packed(a: list, b: list) -> dict:
    """The packed product loop: {key: coefficient} of the product of two
    lists of (packed key, coefficient) pairs, neither reduced nor
    cleared of zeros.  The inner loop runs over a, so a should be the
    longer list."""
    out = {}
    get = out.get
    for k2, c2 in b:
        for k1, c1 in a:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _square_packed(a: list, r: int) -> list:
    """(key, coefficient) pairs of the square of a packed term list,
    reduced mod r when r > 0: each unordered pair of terms is visited
    once, with its cross term doubled (in characteristic 2 the cross
    terms vanish and the square is taken termwise)."""
    out = {}
    get = out.get
    for i, (k1, c1) in enumerate(a):
        k = k1 + k1
        out[k] = get(k, 0) + c1 * c1
        c2 = 2 * c1 % r if r else 2 * c1
        if c2:
            for k2, c in a[i + 1:]:
                k = k1 + k2
                out[k] = get(k, 0) + c2 * c
    return _nonzero(out, r)


def _nonzero(d: dict, r: int) -> list:
    if r:
        return [(k, c % r) for k, c in d.items() if c % r]
    return [(k, c) for k, c in d.items() if c]


def _pow_terms(a: dict, n: int, r: int) -> dict:
    """a^n for a nonzero term dict a and n >= 0, reduced mod r when r > 0.

    One term is raised in closed form.  Otherwise a is packed once
    (`_packing`) with the bound n·maxdeg(a), which bounds the total
    degree of every a^j with j <= n, and the bits of n are read from the
    top: each step squares (`_square_packed`) and, on a set bit,
    multiplies by a through `_mul_packed`, the product loop of
    `_mul_terms`.  The result is unpacked once.
    """
    if n == 0:
        return {(0,) * len(next(iter(a))): 1}
    if len(a) == 1:
        (e, c), = a.items()
        return {tuple(x * n for x in e): pow(c, n, r) if r else c**n}
    if n == 1:
        return dict(a)
    pack, unpack = _packing(len(next(iter(a))), n * max(map(sum, a)))
    base = [(pack(e), c) for e, c in a.items()]
    acc = base
    for bit in bin(n)[3:]:
        acc = _square_packed(acc, r)
        if bit == "1":
            acc = _nonzero(_mul_packed(acc, base), r)
    return {unpack(k): c for k, c in acc}


def _from_top(d: dict, heap: list):
    """Yield the packed keys of d from the largest down.  `heap` holds
    the negated keys of d; the caller may edit d at and below the key
    last yielded, and pushes -k for each key k it adds."""
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        if k in d:
            yield k


def _divide_terms(f: dict, g: dict, r: int) -> dict | None:
    """Exact quotient f / g of term dicts (g nonzero), or None.  Over Z
    (r = 0) a quotient that is not integral counts as none.

    The remainder runs on packed keys (`_packing`) with the bound
    maxdeg(f): each term added to it lies below the term it cancels in
    deg-lex order, so no term of the remainder or the quotient has a
    larger total degree.  A divisor whose leading term has a larger
    total degree than f returns None before anything is packed."""
    if not f:
        return {}
    le = max(g, key=_deglex)
    bound = max(map(sum, f))
    if sum(le) > bound:
        return None
    pack, unpack = _packing(len(le), bound)
    lk = pack(le)
    lc = g[le]
    lc_inv = pow(lc, -1, r) if r else None
    rest = [(pack(e), c) for e, c in g.items() if e != le]
    rem = {pack(e): c for e, c in f.items()}
    heap = [-k for k in rem]
    quo = {}
    for k in _from_top(rem, heap):
        qe = tuple(map(sub, unpack(k), le))
        if min(qe, default=0) < 0:
            return None
        qc, m = (rem.pop(k) * lc_inv % r, 0) if r else divmod(rem.pop(k), lc)
        if m:
            return None
        quo[qe] = qc
        qk = k - lk  # no digit borrows: qe >= 0
        for k2, c2 in rest:
            t = qk + k2
            s = rem.get(t, 0) - qc * c2
            if r:
                s %= r
            if not s:
                rem.pop(t, None)
                continue
            if t not in rem:
                heapq.heappush(heap, -t)
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

    The powers are keyed by packed keys (`_packing`) with the bound
    sum(top): every term of h lies at or below top/p in deg-lex order,
    so every h^j with j <= p, and h^p - f, has total degree at most
    sum(top).  The terms of h^p - f come from the top down (`_from_top`).
    """
    pack, unpack = _packing(len(top), sum(top))
    low = -(-min(map(sum, f)) // p)
    h0 = tuple(x // p for x in top)
    k0 = pack(h0)
    powers = [{k0 * j: rc**j % r if r else rc**j} for j in range(p)]
    powers.append({pack(e): (-c) % r if r else -c for e, c in f.items() if e != top})
    shift = tuple(x * (p - 1) for x in h0)
    lead = p * rc ** (p - 1)
    lead_inv = pow(lead, -1, r) if r else None
    h = {h0: rc}
    rem = powers[p]
    heap = [-k for k in rem]
    for e in _from_top(rem, heap):
        te = tuple(map(sub, unpack(e), shift))
        if min(te, default=0) < 0 or sum(te) < low:
            return None
        c = -rem[e]
        tc, m = (c * lead_inv % r, 0) if r else divmod(c, lead)
        if m:
            return None
        h[te] = tc
        kt = pack(te)
        tpow = [(kt * i, tc**i) for i in range(p + 1)]
        # h^j += sum_i C(j, i) h^(j-i) t^i; j descends, so h^(j-i) is still old
        for j in range(p, 0, -1):
            acc = powers[j]
            for i in range(1, j + 1):
                ti, k = tpow[i][0], math.comb(j, i) * tpow[i][1]
                for e2, c2 in powers[j - i].items():
                    t = e2 + ti
                    s = acc.get(t, 0) + k * c2
                    if r:
                        s %= r
                    if not s:
                        acc.pop(t, None)
                        continue
                    if j == p and t not in acc:
                        heapq.heappush(heap, -t)
                    acc[t] = s
    return h


def int_gcd(f: dict, g: dict, r: int = 0) -> dict:
    """gcd of nonconstant term dicts over Z (r = 0) or over F_r.

    Over F_r the inputs are residues and the gcd is monic (`_fp_gcd`).
    Over Z the inputs are primitive, and so is the gcd, with a positive
    leading coefficient: images over F_p for the word-size primes are
    combined by CRT until the symmetric lift divides both inputs; an
    unlucky prime (larger modular gcd) is discarded by comparing leading
    exponents.
    """
    if r:
        try:
            return _fp_gcd(f, g, r)
        except _Unlucky:
            raise ArithmeticError(f"modular gcd failed in every image field of F_{r}") from None
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


# -- image fields ----------------------------------------------------------------
#
# The gcd over F_p takes its univariate images at points of an image
# field: F_p itself when p is large next to the degrees (always so for
# the word-size primes above), else GF(p^k), whose p^k - 1 nonzero
# points make unlucky and degenerate points rare (Kaltofen & Monagan,
# "On the genericity of the modular polynomial GCD algorithm", ISSAC
# 1999).  Both kinds of field offer the same operations: scalars (`add`,
# `sub`, `mul`, `pow`, `inv`), coefficient lists (`scale`, `submul`,
# `diffscale` and the remainder `rem`) and substitution into a term dict
# (`eval_one`), so the gcd below is written once.

_MIN_Q = 256  # smallest image field of a multivariate gcd
_POINTS_PER_DEGREE = 32  # image field size per unit of the largest degree

MAX_FIELD_ORDER = 2**16  # of an image field, and of a `coeffs.CoeffField` prime
_FIELDS: dict = {}


class _PrimeField:
    """F_p as its own image field: elements are ints in [0, p)."""

    k = 1

    def __init__(self, p: int):
        self.p = self.q = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)

    def scale(self, xs: list, c: int) -> list:
        p = self.p
        return [x * c % p for x in xs]

    def submul(self, xs: list, c: int, ys: list) -> list:
        """[x - c·y] elementwise, for c nonzero."""
        p = self.p
        return [(x - c * y) % p for x, y in zip(xs, ys)]

    def diffscale(self, xs: list, ys: list, c: int) -> list:
        """[(x - y)·c] elementwise."""
        p = self.p
        return [(x - y) * c % p for x, y in zip(xs, ys)]

    def rem(self, a: list, b: list) -> list:
        """The remainder of a by b, coefficient lists (index = exponent)
        whose last entries are nonzero; a is reused."""
        p, nb = self.p, len(b) - 1
        inv, low = pow(b[-1], -1, p), b[:-1]
        while len(a) > nb:
            c = a.pop() * inv % p
            s = len(a) - nb
            a[s:] = [(x - c * y) % p for x, y in zip(a[s:], low)]
            while a and not a[-1]:
                a.pop()
        return a

    def eval_one(self, d: dict, v: int, t: int) -> dict:
        """d with X_v = t."""
        p = self.p
        pows = [1]
        for _ in range(max(e[v] for e in d)):
            pows.append(pows[-1] * t % p)
        out: dict = {}
        for e, c in d.items():
            k = e[v]
            if k:
                c = c * pows[k] % p
                e = e[:v] + (0,) + e[v + 1:]
            if e in out:
                c = (out[e] + c) % p
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return out


class _ExtField:
    """GF(p^k), k > 1, as F_p[x]/(x^k + m(x)) with m from `_power_tables`.

    An element is the int below p^k whose base-p digits are its
    coefficients in x, so F_p is 0..p-1.  The modulus is primitive: x
    generates the multiplicative group, exp[i] = x^i and log[x^i] = i.
    exp holds x^i for i < 2n (n = p^k - 1) and zeros from 2n to 4n, and
    log[0] = 2n, so exp[log[a] + log[b]] is a·b for all a and b.  A sum
    is an XOR for p = 2 and otherwise a + b = a·(1 + b/a), with the Zech
    table zech[i] = log(1 + x^i).
    """

    def __init__(self, p: int, k: int):
        self.p, self.k, self.q = p, k, p**k
        n = self.n = self.q - 1
        self.modulus, exp, log = _power_tables(p, k)
        self.exp, self.log = exp, log
        self.half = n // 2 if p > 2 else 0  # x^half = -1
        if p == 2:
            self.add = xor
            return
        zech = [log[a - a % p + (a + 1) % p] for a in exp[:n]]

        def add(a: int, b: int) -> int:
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp[la + zech[log[b] - la]]

        self.add = add

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.exp[self.log[b] + self.half])

    def mul(self, a: int, b: int) -> int:
        return self.exp[self.log[a] + self.log[b]]

    def pow(self, a: int, e: int) -> int:
        return self.exp[self.log[a] * e % self.n] if a else 0**e

    def inv(self, a: int) -> int:
        return self.exp[-self.log[a] % self.n]

    def scale(self, xs: list, c: int) -> list:
        exp, log = self.exp, self.log
        lc = log[c]
        return [exp[lc + log[x]] for x in xs]

    def submul(self, xs: list, c: int, ys: list) -> list:
        exp, log = self.exp, self.log
        lc = (log[c] + self.half) % self.n  # log(-c)
        if self.p == 2:
            return [x ^ exp[lc + log[y]] for x, y in zip(xs, ys)]
        add = self.add
        return [add(x, exp[lc + log[y]]) for x, y in zip(xs, ys)]

    def diffscale(self, xs: list, ys: list, c: int) -> list:
        exp, log = self.exp, self.log
        lc = log[c]
        if self.p == 2:
            return [exp[lc + log[x ^ y]] for x, y in zip(xs, ys)]
        add, half = self.add, self.half
        return [exp[lc + log[add(x, exp[log[y] + half])]] for x, y in zip(xs, ys)]

    def rem(self, a: list, b: list) -> list:
        exp, log, n = self.exp, self.log, self.n
        nb, low = len(b) - 1, [log[y] for y in b[:-1]]
        neg_inv = (self.half - log[b[-1]]) % n  # log(-1/b_top)
        add = self.add
        while len(a) > nb:
            lc = (log[a.pop()] + neg_inv) % n
            s = len(a) - nb
            if self.p == 2:
                a[s:] = [x ^ exp[lc + l] for x, l in zip(a[s:], low)]
            else:
                a[s:] = [add(x, exp[lc + l]) for x, l in zip(a[s:], low)]
            while a and not a[-1]:
                a.pop()
        return a

    def eval_one(self, d: dict, v: int, t: int) -> dict:
        exp, log, add, n = self.exp, self.log, self.add, self.n
        lt = log[t]
        out: dict = {}
        for e, c in d.items():
            k = e[v]
            if k:
                c = exp[log[c] + lt * k % n]
                e = e[:v] + (0,) + e[v + 1:]
            if e in out:
                c = add(out[e], c)
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return out


def _power_tables(p: int, k: int) -> tuple[int, list, list]:
    """(modulus, exp, log) for GF(p^k) = F_p[x]/(x^k + m(x)), m's
    coefficients the base-p digits of the least `modulus` for which x has
    order p^k - 1, so that x^k + m is primitive and hence irreducible
    (Lidl & Niederreiter, "Finite Fields", 1997, ch. 3).  exp[i] =
    exp[i + n] = x^i for i < n = p^k - 1, and 0 above; log[a] is the
    exponent of a, and 2n for 0.  Prime fields come from
    `_prime_tables`, cached up to order `MAX_FIELD_ORDER` only (a table
    near 10^6 holds 5·10^6 entries), other fields from `_digit_walk`."""
    walk = _prime_tables if p <= MAX_FIELD_ORDER else _prime_tables.__wrapped__
    return walk(p) if k == 1 else _digit_walk(p, k)


@functools.lru_cache(maxsize=4)
def _prime_tables(p: int) -> tuple[int, list, list]:
    """`_power_tables(p, 1)` by one multiplicative walk, the last four
    kept.  Over F_p[x]/(x + m), x = -m, so the least m of the digit walk
    is p - g for the largest primitive root g (m = 1, g = 1 for p = 2);
    g is the largest element with g^(n/l) != 1 for every prime l
    dividing n = p - 1, and its powers fill the tables."""
    n, primes, m, d = p - 1, [], p - 1, 2
    while d * d <= m:
        if m % d == 0:
            primes.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        primes.append(m)
    g = next(g for g in range(n, 0, -1) if all(pow(g, n // l, p) != 1 for l in primes))
    exp, log = [0] * (4 * n + 1), [2 * n] * p
    a = 1
    for i in range(n):
        exp[i] = a
        log[a] = i
        a = a * g % p
    exp[n:2 * n] = exp[:n]
    return -g % p, exp, log


def _digit_walk(p: int, k: int) -> tuple[int, list, list]:
    """`_power_tables` by trying each modulus in turn: the walk that
    fills the tables is the test.  It meets no power twice (a 0 repeats
    at once) and ends at 1."""
    q = p**k
    n = q - 1
    unseen = 2 * n
    for modulus in range(q):
        low = [-(modulus // p**i) % p for i in range(k)]  # x^k = -m(x)
        exp = [0] * (4 * n + 1)
        log = [unseen] * q
        a = 1
        for i in range(n):
            if log[a] != unseen:
                break
            exp[i] = exp[i + n] = a
            log[a] = i
            if p == 2:
                a <<= 1
                if a >= q:
                    a ^= q | modulus
                continue
            top, b = divmod(a * p, q)
            a = b
            if top:
                a, w = 0, 1
                for c in low:
                    b, d = divmod(b, p)
                    a += (d + top * c) % p * w
                    w *= p
        else:
            if a == 1:
                return modulus, exp, log


def _image_field(p: int, k: int):
    """GF(p^k), built at its first use."""
    F = _FIELDS.get((p, k))
    if F is None:
        F = _FIELDS[(p, k)] = _PrimeField(p) if k == 1 else _ExtField(p, k)
    return F


def _start_field(p: int, degree: int):
    """The smallest image field GF(p^k) with at least max(_MIN_Q,
    _POINTS_PER_DEGREE * (degree + 1)) elements, or the largest one."""
    want = max(_MIN_Q, _POINTS_PER_DEGREE * (degree + 1))
    k = 1
    while p**k < want and p ** (k + 1) <= MAX_FIELD_ORDER:
        k += 1
    return _image_field(p, k)


def _larger(F):
    """The next image field after F, or F when there is none."""
    return _image_field(F.p, F.k + 1) if F.q * F.p <= MAX_FIELD_ORDER else F


# -- gcd over F_p by evaluation and interpolation ----------------------------------
#
# Brown, "On Euclid's algorithm and the computation of polynomial
# greatest common divisors", J. ACM 1971.  All variables but a main
# variable m are evaluated, one at a time, at points of the image field;
# each univariate image gcd is scaled to gamma, the gcd of the leading
# coefficients in m, and Newton interpolation brings the variables back.
# A point where a leading coefficient vanishes is skipped, and so is one
# whose image has too large a degree.  A cheap probe decides coprimality
# first, which is the dominant case in rational-function normalization.
# Over GF(p^k) a candidate must have all its coefficients in F_p; every
# candidate must divide both inputs over F_p.


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
        out[e[v]][e[:v] + (0,) + e[v + 1:]] = c
    return out


def _univar_gcd(a: list, b: list, F) -> list:
    """Monic gcd over F of coefficient lists (index = exponent)."""
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, F.rem(a, b)
    return F.scale(a, F.inv(a[-1])) if a else []


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _from_list(lst: list, v: int, nvars: int) -> dict:
    """The univariate coefficient list lst (index = exponent) in X_v."""
    return {tuple(i if j == v else 0 for j in range(nvars)): c for i, c in enumerate(lst) if c}


def _fp_to_list(d: dict, v: int) -> list:
    out = [0] * (_fp_deg(d, v) + 1)
    for e, c in d.items():
        out[e[v]] = c
    return out


def _fp_content_in(d: dict, v: int, p: int) -> dict:
    """The monic content of d in X_v: the gcd of its coefficients in X_v.

    A one-term coefficient makes the content the monomial content of d
    with X_v left out.  Otherwise, with c_0 a coefficient of fewest terms
    and three or more coefficients in all, gcd(c_0, sum t_i·c_i) for
    seeded t_i in F_p^* is a multiple of the content; it is the content
    when it divides every c_i exactly (Geddes, Czapor & Labahn,
    *Algorithms for Computer Algebra*, 1992).  When it does not, the
    chain of pairwise gcds runs on from it, which gives the same gcd.
    """
    cs = sorted((c for c in _fp_coeffs_in(d, v) if c), key=len)
    if len(cs[0]) == 1:
        low = _low(d)
        return {low[:v] + (0,) + low[v + 1:]: 1}
    acc = _fp_monic(cs[0], p)
    if len(cs) > 2:
        rng = random.Random(0xC0 ^ p)
        mix: dict = {}
        for c in cs[1:]:
            t = rng.randrange(1, p)
            for e, x in c.items():
                mix[e] = (mix.get(e, 0) + t * x) % p
        acc = _fp_gcd(acc, {e: x for e, x in mix.items() if x}, p)
        if _is_constant(acc) or all(_divide_terms(c, acc, p) is not None for c in cs[1:]):
            return acc
    for c in cs[1:]:
        acc = _fp_gcd(acc, c, p)
        if _is_constant(acc):
            break
    return acc


def _probe_degrees(f: dict, g: dict, common: set, F, rng) -> dict | None:
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
            fv, gv = f, g
            for u in others:
                t = rng.randrange(1, F.q)
                fv, gv = F.eval_one(fv, u, t), F.eval_one(gv, u, t)
            if _fp_deg(fv, v) != _fp_deg(f, v) or _fp_deg(gv, v) != _fp_deg(g, v):
                continue  # leading coefficient vanished; try another point
            got = len(_univar_gcd(_fp_to_list(fv, v), _fp_to_list(gv, v), F)) - 1
            break
        if got is None:
            return None
        profile[v] = got
    return profile


def _fp_gcd(f: dict, g: dict, p: int) -> dict:
    """Monic gcd over F_p[X...].

    The monomial contents split off first: gcd(x^a·f', x^b·g') =
    x^min(a, b)·gcd(f', g').  A monomial factor keeps a polynomial monic,
    since deg-lex order is compatible with products."""
    if not f:
        return _fp_monic(g, p)
    if not g:
        return _fp_monic(f, p)
    low_f, low_g = _low(f), _low(g)
    low = tuple(map(min, low_f, low_g))
    h = _fp_gcd_free(_shift_down(f, low_f), _shift_down(g, low_g), p)
    return {tuple(map(add, e, low)): c for e, c in h.items()} if any(low) else h


def _low(d: dict) -> tuple:
    """The exponents of d's monomial content: the least of each variable."""
    return tuple(map(min, zip(*d)))


def _shift_down(d: dict, low: tuple) -> dict:
    """d over the monomial x^low, which divides it."""
    return {tuple(map(sub, e, low)): c for e, c in d.items()} if any(low) else d


def _fp_gcd_free(f: dict, g: dict, p: int) -> dict:
    """Monic gcd over F_p[X...] of nonzero f and g without monomial
    contents.

    The main variable m is the first shared variable in which both
    inputs have a one-term coefficient, since such a coefficient proves
    the content in m trivial, or else the first shared variable."""
    nvars = len(next(iter(f)))
    unit = {(0,) * nvars: 1}
    if _is_constant(f) or _is_constant(g):
        return unit
    used_f = _fp_vars(f)
    used_g = _fp_vars(g)
    used = used_f | used_g
    if len(used) == 1:
        v = next(iter(used))
        h = _univar_gcd(_fp_to_list(f, v), _fp_to_list(g, v), _image_field(p, 1))
        return _from_list(h, v, nvars)
    common = used_f & used_g
    if not common or _constant_coefficient(f, common, used_f) or _constant_coefficient(g, common, used_g):
        return unit
    F = _start_field(p, max(max(map(max, f)), max(map(max, g))))
    rng = random.Random(0x5EED ^ p)
    profile = _probe_degrees(f, g, common, F, rng)
    if profile is not None and all(d == 0 for d in profile.values()):
        return unit
    m = next((v for v in sorted(common) if _one_term_in(f, v) and _one_term_in(g, v)), None)
    if m is None:
        m = min(common)
        # split off contents with respect to the main variable
        cont_f = _fp_content_in(f, m, p)
        cont_g = _fp_content_in(g, m, p)
        cont = _fp_gcd(cont_f, cont_g, p)
        f = f if _is_constant(cont_f) else _divide_terms(f, cont_f, p)
        g = g if _is_constant(cont_g) else _divide_terms(g, cont_g, p)
    else:
        cont = unit
    prim = _fp_gcd_primitive(f, g, m, p, F, rng, profile or {})
    if _is_constant(prim):
        return cont
    if _is_constant(cont):
        return _fp_monic(prim, p)
    return _fp_monic(_mul_terms(cont, prim, p), p)


def _one_term_in(d: dict, v: int) -> bool:
    """Whether some coefficient of d in X_v has exactly one term."""
    return 1 in Counter(e[v] for e in d).values()


def _constant_coefficient(d: dict, common, used) -> bool:
    """Whether d, written over the ring of the variables in `common`,
    has a constant coefficient.  A common divisor of two polynomials
    involves only their shared variables, so it divides each such
    coefficient: with `common` the shared variables, True proves the
    gcd constant.  `used` holds the positions d uses (a superset will
    do); a term's class is keyed by its exponents at the used positions
    outside `common`, so a key is as wide as d's own variables, not the
    ring's."""
    rest = [j for j in used if j not in common]
    classes: dict = {}
    for e in d:
        key = tuple([e[j] for j in rest])
        classes[key] = None if key in classes else not any(e[j] for j in common)
    return any(classes.values())


def _fp_gcd_primitive(f: dict, g: dict, m: int, p: int, F, rng, deg_hints: dict) -> dict:
    """gcd of m-primitive polynomials over F_p from images over F.

    The number of points per variable starts from the probe-estimated
    gcd degrees (exact off a thin bad set) and escalates to the
    conservative bounds when a candidate is rejected; from the fourth
    attempt on, each attempt also moves to a larger image field.
    """
    nvars = len(next(iter(f)))
    unit = {(0,) * nvars: 1}
    used = (_fp_vars(f) | _fp_vars(g)) - {m}
    if not used:
        h = _univar_gcd(_fp_to_list(f, m), _fp_to_list(g, m), _image_field(p, 1))
        return unit if len(h) <= 1 else _from_list(h, m, nvars)
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
    # an upper bound on deg_m of the gcd, lowered by every smaller image
    degree = [deg_hints.get(m, min(_fp_deg(f, m), _fp_deg(g, m)))]
    for attempt in range(25):
        if degree[0] == 0:
            return unit  # the m-primitive parts are coprime
        if attempt >= 3:
            F = _larger(F)
        bounds = hinted if attempt < 2 else conservative
        try:
            h = _images(f, g, lc_f, lc_g, gamma, eval_vars, bounds, m, F, rng, degree)
        except _Unlucky:
            continue  # an image of smaller degree: the earlier ones were unlucky
        if h is None:
            continue
        h = {e: c for e, c in zip(h, F.scale(list(h.values()), F.inv(h[max(h, key=_deglex)])))}
        if any(c >= p for c in h.values()):
            continue  # not over F_p: too few points or an unlucky one
        hc = _fp_content_in(h, m, p)
        if not _is_constant(hc):
            h = _divide_terms(h, hc, p)
        if _divide_terms(f, h, p) is not None and _divide_terms(g, h, p) is not None:
            return _fp_monic(h, p)
    raise _Unlucky()


def _images(f, g, lc_f, lc_g, gamma, vs, bounds, m, F, rng, degree):
    """gamma·gcd(f, g) interpolated from univariate images in X_m over
    the variables vs, one variable at a time; None when too many points
    of the first variable are bad.  Raises _Unlucky on an image of
    smaller degree than degree[0], after lowering it."""
    if not vs:
        h = _univar_gcd(_fp_to_list(f, m), _fp_to_list(g, m), F)
        d = len(h) - 1
        if d > degree[0]:
            return None  # an unlucky point
        if d < degree[0]:
            degree[0] = d
            raise _Unlucky()
        return _from_list(F.scale(h, next(iter(gamma.values()))), m, len(next(iter(f))))
    v, rest = vs[0], vs[1:]
    need = bounds[v]
    ts, values = [], []
    for t in rng.sample(range(1, F.q), min(F.q - 1, 2 * need + 8)):
        lf, lg, gam = F.eval_one(lc_f, v, t), F.eval_one(lc_g, v, t), F.eval_one(gamma, v, t)
        if not (lf and lg and gam):
            continue  # a leading coefficient vanishes at t
        h = _images(F.eval_one(f, v, t), F.eval_one(g, v, t), lf, lg, gam, rest, bounds,
                    m, F, rng, degree)
        if h is not None:
            ts.append(t)
            values.append(h)
            if len(ts) == need:
                return _interpolate(ts, values, v, F)
    return None


def _interpolate(ts: list, values: list, v: int, F) -> dict:
    """The polynomial of degree below len(ts) in X_v with the given term
    dicts (free of X_v) at X_v = ts, by vector Newton interpolation over
    the union of their supports."""
    support = list(set().union(*values))
    div = [[val.get(e, 0) for e in support] for val in values]
    n = len(ts)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            div[i] = F.diffscale(div[i], div[i - 1], F.inv(F.sub(ts[i], ts[i - level])))
    rows = [div[-1]]  # rows[d] is the coefficient vector of X_v^d
    for i in range(n - 2, -1, -1):
        prev = [div[i]] + rows
        rows = [F.submul(prev[d], ts[i], rows[d]) for d in range(len(rows))] + [rows[-1]]
    out = {}
    for d, row in enumerate(rows):
        for e, c in zip(support, row):
            if c:
                out[e[:v] + (d,) + e[v + 1:]] = c
    return out
