"""Polynomial and rational-function layer: exact arithmetic, gcd, roots."""
import random
from fractions import Fraction

import pytest

from graphfield import _modgcd, polynomials
from graphfield._modgcd import _PRIMES, _divide_terms, _image_field, _strip
from graphfield.coeffs import CoeffField, _int_root, is_prime
from graphfield.errors import TooLarge
from graphfield.polynomials import Poly
from graphfield.ratfunc import RatFunc
from graphfield.roots import _value_at

Q = CoeffField(0)
F3 = CoeffField(3)


def P(nvars=2, field=Q):
    return {
        "zero": Poly.zero(field, nvars),
        "one": Poly.one(field, nvars),
        "x": Poly.var(field, nvars, 0),
        "y": Poly.var(field, nvars, 1) if nvars > 1 else None,
    }


def rand_poly(rng, field=Q, nvars=2, terms=3, deg=3):
    t = {}
    for _ in range(terms):
        e = tuple(rng.randint(0, deg) for _ in range(nvars))
        t[e] = field.of_int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(field, nvars, t)


def test_poly_ring_axioms_random():
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert (a - a).is_zero()


def test_poly_gcd_known_factors():
    rng = random.Random(1)
    for _ in range(25):
        g = rand_poly(rng, terms=2, deg=2)
        if g.is_zero():
            continue
        a = g * rand_poly(rng, terms=2, deg=2)
        b = g * rand_poly(rng, terms=2, deg=2)
        if a.is_zero() or b.is_zero():
            continue
        d = a.gcd(b)
        assert d.divexact(g.monic_deglex()) is not None  # g divides the gcd
        assert a.divexact(d) is not None and b.divexact(d) is not None


def test_poly_gcd_coprime():
    x = Poly.var(Q, 2, 0)
    y = Poly.var(Q, 2, 1)
    one = Poly.one(Q, 2)
    assert (x + one).gcd(y + one).is_one()
    assert x.gcd(y).is_one()


def test_poly_gcd_char3():
    x = Poly.var(F3, 2, 0)
    y = Poly.var(F3, 2, 1)
    one = Poly.one(F3, 2)
    g = x + y
    a = g * (x + one)
    b = g * (y + one)
    assert a.gcd(b) == g.monic_deglex()


def _assert_cofactors(a, b, g):
    """a.cofactors(b) is (g, a/g, b/g), with correctly cached leading terms."""
    h, qa, qb = a.cofactors(b)
    assert h == g and h.is_monic()
    assert h * qa == a and h * qb == b
    for p in (qa, qb):
        if not p.is_zero():
            assert p.leading() == Poly(p.field, p.nvars, p.terms()).leading()
    return qa, qb


@pytest.mark.parametrize("char", [0, 2, 5])
def test_poly_cofactors(char):
    F = CoeffField(char)
    x, y, one = Poly.var(F, 2, 0), Poly.var(F, 2, 1), Poly.one(F, 2)
    three = Poly.const(F, 2, F.of_int(3))
    # d divides f, in both argument orders: the trial division answers
    d = (x + y).scale(F.of_int(3))
    f = d * (x * x + three * y + one)
    qf, qd = _assert_cofactors(f, d, d.monic_deglex())
    assert qd == three and qf == f.divexact(d.monic_deglex())
    assert _assert_cofactors(d, f, d.monic_deglex()) == (qd, qf)
    # associates
    assert _assert_cofactors(f, f * three, f.monic_deglex())[1].is_constant()
    # d's highest and lowest monomials divide f's, but d does not divide f
    g = x + one
    d, f = g * (y + one), g * (x * y * y + three)
    assert len(d.ints) <= len(f.ints) and _divide_terms(f.ints, d.ints, char) is None
    assert _assert_cofactors(f, d, g) == (x * y * y + three, y + one)
    assert _assert_cofactors(d, f, g) == (y + one, x * y * y + three)
    # a zero input
    zero = Poly.zero(F, 2)
    assert _assert_cofactors(zero, d, d.monic_deglex()) == (zero, one)
    assert _assert_cofactors(d, zero, d.monic_deglex()) == (one, zero)
    assert d.gcd(zero) == d.monic_deglex()
    assert zero.cofactors(zero) == (zero, zero, zero)
    # a constant input
    assert _assert_cofactors(three, f, one) == (three, f)
    assert _assert_cofactors(f, three, one) == (f, three)


def test_cofactors_trial_division_runs_the_other_way(monkeypatch):
    # In char 2, A^2 has as many terms as A (squaring is the Frobenius map),
    # so the input with fewer terms may be A^2; the extreme-monomial test
    # then sends the one trial division the other way, and no gcd runs.
    F = CoeffField(2)
    x, y, one = Poly.var(F, 2, 0), Poly.var(F, 2, 1), Poly.one(F, 2)
    a = x**3 + y**3 + one
    calls = []
    real = polynomials.int_gcd
    monkeypatch.setattr(polynomials, "int_gcd", lambda *args: calls.append(args) or real(*args))
    assert len((a**2).ints) == len(a.ints)
    assert a.cofactors(a**2) == (a, one, a)
    assert (a**2).cofactors(a) == (a, a, one)
    assert not calls


# The moduli of GF(p^k), k > 1, that the image fields used when they were
# a table: the low k base-p digits m of the first primitive x^k + m(x) over
# F_p, candidates in increasing order.  The fields now derive them.
PINNED_MODULI = {
    (2, 2): 3, (2, 3): 3, (2, 4): 3, (2, 5): 5, (2, 6): 3, (2, 7): 3, (2, 8): 29,
    (2, 9): 17, (2, 10): 9, (2, 11): 5, (2, 12): 83, (2, 13): 27, (2, 14): 43,
    (2, 15): 3, (2, 16): 45,
    (3, 2): 5, (3, 3): 7, (3, 4): 5, (3, 5): 7, (3, 6): 5, (3, 7): 16, (3, 8): 29,
    (3, 9): 64, (3, 10): 32,
    (5, 2): 7, (5, 3): 17, (5, 4): 37, (5, 5): 22, (5, 6): 7,
    (7, 2): 10, (7, 3): 23, (7, 4): 75, (7, 5): 11,
}
BEYOND_THE_TABLE = [(11, 2), (13, 2), (101, 2), (251, 2)]


def test_derived_moduli_match_the_pinned_table():
    # a wrong modulus gives a map that is not a field: the maps built on it
    # (permutations of a projective line) need not be bijections
    derived = {pk: _image_field(*pk).modulus for pk in PINNED_MODULI}
    assert derived == PINNED_MODULI


@pytest.mark.parametrize("p, k", sorted(PINNED_MODULI) + BEYOND_THE_TABLE)
def test_derived_moduli_are_irreducible(p, k):
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    m = _image_field(p, k).modulus
    f = [1] + [m // p**i % p for i in reversed(range(k))]  # x^k + m(x), top first
    assert galoistools.gf_irreducible_p(f, p, ZZ)


@pytest.mark.parametrize("p, k", sorted(PINNED_MODULI) + BEYOND_THE_TABLE)
def test_image_field_arithmetic(p, k):
    F = _image_field(p, k)
    q = p**k
    assert (F.p, F.k, F.q) == (p, k, q)
    # x generates the multiplicative group, which has order p^k - 1: the
    # modulus is primitive, and so irreducible
    assert sorted(F.exp[:q - 1]) == list(range(1, q)) and F.exp[q - 1] == 1
    mul = F.mul
    rng = random.Random(100 * p + k)
    for _ in range(200):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert mul(a, F.add(b, c)) == F.add(mul(a, b), mul(a, c))
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.add(F.sub(a, b), b) == a
        assert F.pow(a, q) == a  # the Frobenius p^k-th power is the identity
        if a:
            assert mul(a, F.inv(a)) == 1
    c = c or 1
    assert F.submul([a, b], c, [b, a]) == [F.sub(a, mul(c, b)), F.sub(b, mul(c, a))]
    assert F.diffscale([a, b], [b, c], c) == [mul(F.sub(a, b), c), mul(F.sub(b, c), c)]
    # (x^2 + a x + b) mod (x + c) is the value at -c
    assert F.rem([b, a, 1], [c, 1]) == _strip([F.add(F.sub(b, mul(a, c)), mul(c, c))])
    # F_p is 0..p-1
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p and mul(a, b) == a * b % p


def test_char_p_gcd_escalates_from_a_tiny_image_field(monkeypatch):
    # Start every multivariate gcd over F_2 itself, whose one nonzero point
    # cannot give the two or more points per variable this gcd needs: the
    # gcd must retry and move on to larger fields GF(2^k).
    monkeypatch.setattr(_modgcd, "_MIN_Q", 1)
    monkeypatch.setattr(_modgcd, "_POINTS_PER_DEGREE", 0)
    visited = []
    real = _modgcd._larger
    monkeypatch.setattr(_modgcd, "_larger", lambda F: visited.append(F.q) or real(F))
    F = CoeffField(2)
    x, y, z = (Poly.var(F, 3, i) for i in range(3))
    one = Poly.one(F, 3)
    g = x * y + z**2 + one
    a, b = g * (x**2 + y * z + one), g * (y**2 + x * z + z)
    d, qa, qb = a.cofactors(b)
    assert d == g and d * qa == a and d * qb == b
    assert a.divexact(d) == qa and b.divexact(d) == qb
    assert qa.gcd(qb).is_one()
    assert visited and visited[0] == 2


def test_divexact_and_multiplicity():
    x = Poly.var(Q, 1, 0)
    one = Poly.one(Q, 1)
    f = (x + one) ** 3 * (x - one)
    assert f.multiplicity_of(x + one) == 3
    assert f.multiplicity_of(x - one) == 1
    assert f.multiplicity_of(x) == 0
    q = f.divexact((x + one) ** 2)
    assert q == (x + one) * (x - one)
    assert f.divexact(x + Poly.const(Q, 1, Fraction(5))) is None


def test_modgcd_divides_integral_quotients_only():
    # (x + 1)(2x - 3) / (x + 1) = 2x - 3
    assert _divide_terms({(2,): 2, (1,): -1, (0,): -3}, {(1,): 1, (0,): 1}, 0) == {(1,): 2, (0,): -3}
    assert _divide_terms({(1,): 1}, {(1,): 2}, 0) is None  # quotient 1/2
    assert _divide_terms({(2,): 1, (0,): 1}, {(1,): 1, (0,): 1}, 0) is None  # x + 1 does not divide x^2 + 1


def test_modgcd_primes_table():
    below = [n for n in range(2**31 - 1, 2**31 - 400, -1) if is_prime(n)]
    assert _PRIMES == tuple(below[:16])


def _umul(*fs: dict) -> dict:
    """Product of univariate {(exponent,): int} term dicts."""
    out = {(0,): 1}
    for f in fs:
        acc: dict = {}
        for (i,), a in out.items():
            for (j,), b in f.items():
                acc[(i + j,)] = acc.get((i + j,), 0) + a * b
        out = {e: c for e, c in acc.items() if c}
    return out


def _lin(c: int, a: int = 1) -> dict:
    """a*x + c as a term dict."""
    return {e: v for e, v in (((1,), a), ((0,), c)) if v}


# {path int_gcd takes past the first prime: (f, g, gcd)}; p0 = _PRIMES[0]
# and p1 = _PRIMES[1]
_MULTI_PRIME_GCDS = {
    "crt": (_umul(_lin(2**40), _lin(1)), _umul(_lin(2**40), _lin(2)), _lin(2**40)),
    "skip-lc": (_umul(_lin(1, _PRIMES[0]), _lin(3)), _umul(_lin(3), _lin(5)), _lin(3)),
    "unlucky": (_umul(_lin(2**40), _lin(_PRIMES[1] + 1)), _umul(_lin(2**40), _lin(1)), _lin(2**40)),
}


@pytest.mark.parametrize("name", sorted(_MULTI_PRIME_GCDS))
def test_int_gcd_multi_prime_paths(name, monkeypatch):
    f, g, want = _MULTI_PRIME_GCDS[name]
    images, crts = [], []
    fp_gcd, crt = _modgcd._fp_gcd, _modgcd._crt

    def recording_fp_gcd(a, b, p):
        images.append((p, fp_gcd(a, b, p)))
        return images[-1][1]

    monkeypatch.setattr(_modgcd, "_fp_gcd", recording_fp_gcd)
    monkeypatch.setattr(_modgcd, "_crt", lambda *args: crts.append(args[-1]) or crt(*args))
    assert _modgcd.int_gcd(f, g) == want
    primes = [p for p, _ in images]
    if name == "skip-lc":
        # p0 divides f's leading coefficient, so the first image is mod p1
        assert primes[0] == _PRIMES[1] and _PRIMES[0] not in primes
        return
    # one image mod p0 cannot lift the coefficient 2^40, so CRT must run
    assert crts
    if name == "unlucky":
        # mod p1 the cofactors x + p1 + 1 and x + 1 collide: a degree-2
        # image, discarded
        assert primes[:3] == list(_PRIMES[:3])
        assert max(images[1][1]) == (2,)
        assert crts == [_PRIMES[2]]


def test_fp_content_falls_back_to_the_chain(monkeypatch):
    """Over F_2 the combination of the coefficients c_1 + c_2 shares the
    factor X_1 + 1 with c_0, so gcd(c_0, c_1 + c_2) is too large; it fails
    the division check, and the chain still finds the content K."""
    def poly(*exps):  # a polynomial in X_1 over F_2, as a term dict in (X_0, X_1)
        return {(0, e): 1 for e in exps}

    K = poly(4, 1, 0)  # X_1^4 + X_1 + 1
    c = [poly(1, 0), poly(2, 1, 0), poly(3, 1, 0)]
    d = {}
    for i, ci in enumerate(c):
        d.update({(i, e[1]): x for e, x in _modgcd._mul_terms(K, ci, 2).items()})
    gcds, fp_gcd = [], _modgcd._fp_gcd
    monkeypatch.setattr(_modgcd, "_fp_gcd", lambda a, b, p: gcds.append(fp_gcd(a, b, p)) or gcds[-1])
    assert _modgcd._fp_content_in(d, 0, 2) == K
    assert gcds[0] == _modgcd._mul_terms(K, c[0], 2)  # the combination's gcd: K·(X_1 + 1)
    assert len(gcds) > 1  # the chain ran


@pytest.mark.parametrize("name", sorted(_MULTI_PRIME_GCDS))
def test_int_gcd_multi_prime_paths_match_sympy(name):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f, g, _ = _MULTI_PRIME_GCDS[name]

    def expr(d):
        return sum(c * x**e for (e,), c in d.items())

    ref = sympy.Poly(sympy.gcd(expr(f), expr(g)), x)
    ref = ref if ref.LC() > 0 else -ref
    assert _modgcd.int_gcd(f, g) == {(e,): int(c) for (e,), c in ref.terms()}


def test_poly_pth_root():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(10):
            h = rand_poly(rng, terms=2, deg=2)
            if h.is_zero():
                continue
            f = h**p
            r = f.pth_root(p)
            assert r is not None and r**p == f
    x = Poly.var(Q, 2, 0)
    assert (x + Poly.one(Q, 2)).pth_root(3) is None
    assert Poly.const(Q, 2, Fraction(8)).pth_root(3) == Poly.const(Q, 2, Fraction(2))


def test_poly_pth_root_many_terms():
    # roots of b^p for b with many terms come back as b up to a p-th root
    # of unity (only -1 besides 1 in Q, and only for even p)
    rng = random.Random(5)
    for field, p in ((Q, 3), (Q, 2), (F3, 2), (CoeffField(7), 3)):
        b = rand_poly(rng, field=field, nvars=3, terms=40, deg=4)
        r = (b**p).pth_root(p)
        if field.char:
            units = [u for u in range(1, field.char) if pow(u, p, field.char) == 1]
        else:
            units = [u for u in (1, -1) if u**p == 1]
        assert r is not None and any(r == b.scale(u) for u in units)


def test_poly_pth_root_refusals_and_contents():
    x = Poly.var(Q, 2, 0)
    y = Poly.var(Q, 2, 1)
    h = x * x + x * y + y + Poly.one(Q, 2)
    assert (h**3 + x).pth_root(3) is None
    # the second root term would be y, below the degree bound mindeg/2 = 3/2
    assert (x**4 + (x * x * y).scale(2)).pth_root(2) is None
    assert (h**3).scale(Fraction(8, 27)).pth_root(3) == h.scale(Fraction(2, 3))
    assert (h**3).scale(Fraction(-8, 27)).pth_root(3) == h.scale(Fraction(-2, 3))
    assert (h**2).scale(-1).pth_root(2) is None


def test_poly_pth_root_char_p():
    x = Poly.var(F3, 1, 0)
    one = Poly.one(F3, 1)
    f = (x + one) ** 3
    r = f.pth_root(3)
    assert r == x + one  # Frobenius


def test_stretch_and_permute():
    x = Poly.var(Q, 2, 0)
    y = Poly.var(Q, 2, 1)
    f = x * y + x
    assert f.stretch((3, 2)) == Poly.var(Q, 2, 0, 3) * Poly.var(Q, 2, 1, 2) + Poly.var(Q, 2, 0, 3)
    assert f.permute_vars([1, 0]) == y * x + y


def test_eval_mod():
    # the specialization stage evaluates at points of F_q^* held as logs
    x = Poly.var(Q, 2, 0)
    f = x * x + Poly.const(Q, 2, Fraction(1, 2))
    _, exp, log = _modgcd._power_tables(7, 1)
    assert _value_at(f, [log[3], log[5]], 7, exp) == (9 + pow(2, -1, 7)) % 7
    _, exp, log = _modgcd._power_tables(2, 1)
    assert _value_at(f, [log[1], log[1]], 2, exp) is None  # denominator 2 vanishes mod 2


def test_prime_field_tables_match_the_digit_walk():
    # one multiplicative walk from the largest primitive root gives the
    # digit walk's tables, so specialization certificates do not move
    for q in (2, 3, 5, 7, 11, 13, 101, 257, 7681, 65537):
        assert _modgcd._prime_tables.__wrapped__(q) == _modgcd._digit_walk(q, 1)
    modulus, exp, log = _modgcd._power_tables(65537, 1)
    assert (modulus, exp[1]) == (65537 - 65534, 65534)  # 65536 and 65535 are squares
    # the last four prime fields of order up to MAX_FIELD_ORDER = 2^16
    # are kept; a larger one is built for its caller and not kept
    assert _modgcd._power_tables(65537, 1)[1] is not exp
    exp = _modgcd._power_tables(65521, 1)[1]
    assert _modgcd._power_tables(65521, 1)[1] is exp


# -- rational functions ----------------------------------------------------------------


def rand_ratfunc(rng, nvars=2):
    num = rand_poly(rng, nvars=nvars, terms=2, deg=2)
    den = rand_poly(rng, nvars=nvars, terms=2, deg=2)
    while den.is_zero():
        den = rand_poly(rng, nvars=nvars, terms=2, deg=2)
    return RatFunc(num, den)


def test_ratfunc_field_axioms_random():
    rng = random.Random(3)
    for _ in range(30):
        a, b, c = (rand_ratfunc(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a - b) + b == a
        if not a.is_zero():
            assert (a * a.inv()).is_one()
            assert (b / a) * a == b


def test_ratfunc_examples():
    x = Poly.var(Q, 2, 0)
    one = Poly.one(Q, 2)
    f = RatFunc(x + one, x)
    g = RatFunc(x, x + one)
    assert (f * g).is_one()
    h1 = RatFunc(one, x - one)
    h2 = RatFunc(one, x + one)
    s = h1 + h2
    assert s == RatFunc(x.scale(Fraction(2)), x * x - one)


def test_ratfunc_canonical_form():
    x = Poly.var(Q, 1, 0)
    one = Poly.one(Q, 1)
    a = RatFunc((x + one) * (x - one), (x - one) * x)
    b = RatFunc(x + one, x)
    assert a == b  # reduced to the same canonical pair
    assert a.den.leading()[1] == Q.one  # monic denominator


def test_ratfunc_pth_root():
    rng = random.Random(4)
    for _ in range(10):
        a = rand_ratfunc(rng)
        if a.is_zero():
            continue
        cube = a * a * a
        r = cube.pth_root(3)
        assert r is not None and (r * r * r) == cube


def test_coeff_field_is_p_high():
    assert Q.is_p_high(Fraction(1), 3)
    assert Q.is_p_high(Fraction(-1), 5)
    assert not Q.is_p_high(Fraction(2), 3)
    F7 = CoeffField(7)
    # gcd(5, 6) = 1: fifth-power map is onto F_7
    assert all(F7.is_p_high(a, 5) for a in range(7))
    # 3 | 6: only the stable cubic-power subgroup qualifies
    high3 = [a for a in range(1, 7) if F7.is_p_high(a, 3)]
    assert sorted(high3) == [1, 6]


def test_int_root_beyond_float_range():
    assert _int_root(10**400, 3) is None
    assert _int_root(8 * 10**300, 3) == 2 * 10**100
    assert [n for n in range(200) if _int_root(n, 3) is not None] == [k**3 for k in range(6)]
    root = Fraction(10**133 + 7, 3)
    assert len(str((root**3).numerator)) == 400
    assert Q.pth_root(root**3, 3) == root
    assert Q.pth_root(-(root**3), 3) == -root
    assert Q.pth_root(root**3 + 1, 3) is None


def test_coeff_field_accepts_the_primes_up_to_the_field_bound():
    for r in (11, 101, 65521):
        assert CoeffField(r).char == r and CoeffField(r).inv(2) * 2 % r == 1
    for r in (1, 4, -3, 65537):
        with pytest.raises(ValueError):
            CoeffField(r)


def test_is_prime():
    trial = [n for n in range(3000) if n > 1 and all(n % d for d in range(2, n))]
    assert [n for n in range(3000) if is_prime(n)] == trial
    assert is_prime(2**61 - 1) and is_prime(2**64 - 59)
    # strong pseudoprimes to every prime base up to 31 and 37 respectively
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(TooLarge):
        is_prime(2**127 - 1)
