"""Prime-field coefficients: Q (char 0) or F_r (char r).

Field elements are `Fraction`s in characteristic 0 and ints in [0, r) in
characteristic r.  Polynomials store their coefficients on an integer
kernel (see `polynomials`) and hand out field elements only at their
public face.  A `CoeffField` instance is attached to every polynomial
and never mixes characteristics.
"""
from __future__ import annotations

from fractions import Fraction

from ._modgcd import MAX_FIELD_ORDER
from .errors import TooLarge


class CoeffField:
    """The prime field of characteristic 0 or of a prime up to `MAX_FIELD_ORDER`."""

    def __init__(self, char: int):
        if char != 0 and not (char <= MAX_FIELD_ORDER and is_prime(char)):
            raise ValueError(f"characteristic {char} is not 0 or a prime up to {MAX_FIELD_ORDER}")
        self.char = char
        self.zero = self.of_int(0)
        self.one = self.of_int(1)

    def __eq__(self, other):
        return isinstance(other, CoeffField) and self.char == other.char

    def __hash__(self):
        return hash(("CoeffField", self.char))

    def __repr__(self):
        return f"CoeffField({self.char})"

    # -- elements --------------------------------------------------------

    def of_int(self, n: int):
        if self.char == 0:
            return Fraction(n)
        return n % self.char

    def of_fraction(self, q: Fraction):
        if self.char == 0:
            return Fraction(q)
        num = q.numerator % self.char
        den = q.denominator % self.char
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.char}")
        return num * pow(den, -1, self.char) % self.char

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.char == 0:
            return Fraction(1) / a
        return pow(a, -1, self.char)

    def div(self, a, b):
        q = a * self.inv(b)
        return q % self.char if self.char else q

    def mul(self, a, b):
        return a * b % self.char if self.char else a * b

    def pow(self, a, n: int):
        """a^n for any integer n (a nonzero when n < 0)."""
        return pow(a, n, self.char) if self.char else a**n

    def is_zero(self, a) -> bool:
        return a == 0

    # -- p-th roots ----------------------------------------------------

    def pth_root(self, a, p: int):
        """Exact p-th root in the prime field, or None.

        In Q this takes integer p-th roots of numerator and denominator
        (odd p handles negatives by sign).  In F_r the power map is
        inverted; when gcd(p, r-1) > 1 the fiber is searched directly,
        in O(r) steps, which `MAX_FIELD_ORDER` bounds.
        """
        if self.char == 0:
            q = Fraction(a)
            sign = 1
            if q < 0:
                if p % 2 == 0:
                    return None
                sign, q = -1, -q
            num = _int_root(q.numerator, p)
            den = _int_root(q.denominator, p)
            if num is None or den is None:
                return None
            return Fraction(sign * num, den)
        r = self.char
        a %= r
        if a == 0:
            return 0
        if (r - 1) % p != 0:  # x -> x^p is a bijection on F_r^*
            return pow(a, pow(p, -1, r - 1), r)
        return next((x for x in range(1, r) if pow(x, p, r) == a), None)

    def is_p_high(self, a, p: int) -> bool:
        """Whether `a` admits iterated p-th roots forever inside the prime field.

        In Q (p odd) that is exactly {0, 1, -1}.  In F_r^* the images of
        x -> x^(p^k) stabilize at the subgroup of index p^m where p^m is
        the p-part of r-1, and that subgroup is closed under taking p-th
        roots, so membership there decides the question.
        """
        if self.char == 0:
            return a in (Fraction(0), Fraction(1), Fraction(-1))
        r = self.char
        a %= r
        if a == 0 or (r - 1) % p != 0:
            return True  # 0^p = 0; or the power map is a bijection
        return pow(a, (r - 1) // p ** padic_val(r - 1, p), r) == 1


def padic_val(n: int, p: int) -> int:
    """The exponent of p in n (0 for n = 0)."""
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


def _int_root(n: int, p: int):
    """Exact integer p-th root of n >= 0, or None.

    Integer Newton iteration from 2^ceil(bits/p), which lies above the
    root; the iterates decrease to the floor of the root.
    """
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // p)
    while True:
        y = ((p - 1) * x + n // x ** (p - 1)) // p
        if y >= x:
            return x if x**p == n else None
        x = y


# Miller-Rabin with the primes up to 37 as bases is exact below
# 318665857834031151167461, and with 41 added below the bound here
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017); the bound itself passes all thirteen bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below 3.3e24;
    larger n raise TooLarge rather than get a guess."""
    if n >= _MR_BOUND:
        raise TooLarge(f"primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
