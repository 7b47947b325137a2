"""Property tests for the polynomial and rational-function layer, in
characteristics 0, 2 and 3: an independent check of the integer kernel
and of the modular gcd, whose images in characteristic 2 and 3 lie in
extension fields GF(p^k).

Needs `hypothesis` (skipped without it); gcds are also compared with
`sympy.gcd` when sympy imports.
"""
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphfield.coeffs import CoeffField  # noqa: E402
from graphfield.polynomials import Poly  # noqa: E402
from graphfield.ratfunc import RatFunc  # noqa: E402

try:
    import sympy
except ImportError:  # pragma: no cover
    sympy = None

NVARS = 2
FIELDS = {0: CoeffField(0), 2: CoeffField(2), 3: CoeffField(3)}
SETTINGS = settings(max_examples=40, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


def polys(char: int, max_terms: int = 4, max_deg: int = 3, nonzero: bool = False):
    F = FIELDS[char]
    coeff = (st.fractions(min_value=-4, max_value=4, max_denominator=3) if char == 0
             else st.integers(0, char - 1))
    exps = st.tuples(*[st.integers(0, max_deg)] * NVARS)
    out = st.dictionaries(exps, coeff, max_size=max_terms).map(lambda t: Poly(F, NVARS, t))
    return out.filter(lambda p: not p.is_zero()) if nonzero else out


def ratfuncs(char: int, nonzero: bool = False):
    return st.builds(RatFunc, polys(char, 3, 2, nonzero), polys(char, 3, 2, nonzero=True))


CHARS = pytest.mark.parametrize("char", sorted(FIELDS))


@CHARS
def test_poly_ring_axioms(char):
    @SETTINGS
    @given(polys(char), polys(char), polys(char))
    def check(a, b, c):
        F = FIELDS[char]
        one, zero = Poly.one(F, NVARS), Poly.zero(F, NVARS)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a
        assert (a - a).is_zero() and (a - b) + b == a
        assert Poly(F, NVARS, a.terms()) == a

    check()


@CHARS
def test_ratfunc_field_axioms(char):
    @SETTINGS
    @given(ratfuncs(char), ratfuncs(char), ratfuncs(char, nonzero=True))
    def check(a, b, c):
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert (c * c.inv()).is_one()
        assert (a / c) * c == a
        assert (a - b) + b == a

    check()


def _to_sympy(p: Poly, gens, char: int):
    domain = sympy.QQ if char == 0 else sympy.GF(char)
    return sympy.Poly.from_dict({e: sympy.Rational(c.numerator, c.denominator) if char == 0 else int(c)
                                 for e, c in p.terms().items()}, *gens, domain=domain)


def _from_sympy(s, char: int) -> Poly:
    F = FIELDS[char]
    if char == 0:
        return Poly(F, NVARS, {e: Fraction(int(c.numerator), int(c.denominator)) for e, c in s.terms()})
    return Poly(F, NVARS, {e: int(c) for e, c in s.terms()})


@CHARS
def test_gcd_divides_and_leaves_coprime_cofactors(char):
    @SETTINGS
    @given(polys(char, 3, 2, nonzero=True), polys(char, 3, 2, nonzero=True),
           polys(char, 3, 2, nonzero=True))
    def check(g, a, b):
        a, b = g * a, g * b
        d = a.gcd(b)
        assert d.leading()[1] == 1
        qa, qb = a.divexact(d), b.divexact(d)
        assert qa is not None and qb is not None
        assert qa.gcd(qb).is_one()
        assert d.divexact(g.monic_deglex()) is not None
        if sympy is not None:
            gens = sympy.symbols(f"x0:{NVARS}")
            ref = _from_sympy(sympy.gcd(_to_sympy(a, gens, char), _to_sympy(b, gens, char)), char)
            assert ref.monic_deglex() == d

    check()


@CHARS
def test_cofactors_multiply_back_and_are_coprime(char):
    @SETTINGS
    @given(polys(char, 3, 2, nonzero=True), polys(char, 3, 2, nonzero=True),
           polys(char, 3, 2))
    def check(f, h, k):
        g, a, b = (f * h).cofactors(f * k)
        assert g.leading()[1] == 1
        assert g * a == f * h and g * b == f * k
        assert a.cofactors(b)[0].is_one()

    check()


@CHARS
def test_ratfunc_canonical_form(char):
    @SETTINGS
    @given(polys(char, 3, 2), polys(char, 3, 2, nonzero=True), polys(char, 2, 2, nonzero=True))
    def check(n, d, c):
        x = RatFunc(n, d)
        y = RatFunc(n * c, d * c)
        assert x == y
        assert (x.num, x.den) == (y.num, y.den)
        assert x.den.leading()[1] == 1
        assert x.num.gcd(x.den).is_one()

    check()


@CHARS
@pytest.mark.parametrize("p", [2, 3, 5])
def test_pth_root_of_a_power_is_never_none(char, p):
    @SETTINGS
    @given(polys(char, 4, 3, nonzero=True))
    def check(b):
        a = b**p
        r = a.pth_root(p)
        assert r is not None and r**p == a

    check()
