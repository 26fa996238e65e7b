"""Exact arithmetic over the rationals and cyclotomic fields Q(zeta_N).

A CycNum stores a value of some Q(zeta_N) as the triple (conductor, coeffs,
den): integer numerators over the power basis of zeta_N, reduced modulo the
N-th cyclotomic polynomial, as sorted (exponent, int) pairs, over one positive
denominator that shares no factor with all of them.  The conductor is the
*minimal* one containing the value (never N = 2 mod 4, where we rewrite into
the odd conductor); a rational is the case N = 1, and zero is (1, (), 1).
Two CycNums are equal as values iff their triples agree, so they hash and
sort canonically.

Canonicalization reduces modulo Phi_N through a cache of reduced monomials
and then descends, reading coordinates off a basis each time, so no
denominator enters.  First N and every exponent are divided by their gcd d:
zeta_N^e = zeta_(N/d)^(e/d), and the exponents stay reduced, as
phi(N) <= d phi(N/d).  This covers every prime p with p^2 | N, where the
power basis of zeta_N is a basis over Q(zeta_(N/p)), and N = p, where the
element is rational iff its support is {0}.  When p || N and m = N/p > 1,
Q(zeta_N) = Q(zeta_m)(zeta_p) and zeta_N^e = zeta_m^(ea) zeta_p^(eb) for
a = p^-1 mod m, b = m^-1 mod p: the element is split over 1, zeta_p, ...,
zeta_p^(p-2), and it descends iff every coordinate but the first is 0 mod
Phi_m.  Last, the gcd of the denominator and the numerators is divided out.

Canonicalization, sums, products, rational scaling and inverses run on
Python ints, and no floating point enters any computation.
fractions.Fraction is met only in parsing, as_fraction, and a Fraction
coefficient map given to the constructor.

Loops that stay in one field Q(zeta_N), the group closure and the Cherednik
rewriting kernel, work on flat int tuples instead.  `to_flat` and
`from_flat` convert between a CycNum and the dense tuple: phi(N) power-basis
numerators, then one denominator.  `FlatField` multiplies and sums flat
tuples; above phi(N) = 2 its tuples are sparse, the (exponent, numerator)
pairs of the nonzero numerators and then the denominator, so that their
width follows their nonzero terms and not phi(N).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
import re
import sys


class ExactDomainError(ArithmeticError):
    """Raised on invalid field operations (division by zero, bad parse)."""


class FieldCapError(ArithmeticError):
    """Raised by a bounded `FlatField` where it would first need Phi_n."""


# ---------------------------------------------------------------------------
# integer / polynomial helpers

@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def primes(count: int) -> list[int]:
    """First `count` primes (used by the deterministic witness scheme)."""
    out: list[int] = []
    cand = 2
    while len(out) < count:
        if all(cand % p for p in out):
            out.append(cand)
        cand += 1
    return out


def _poly_divmod_int(num: list[int], den: list[int]) -> list[int]:
    # exact quotient of integer polynomials, den monic; used for Phi_N only
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            q[i - dd] = c
            for j, dj in enumerate(den):
                num[i - dd + j] -= c * dj
    if any(num):
        raise ExactDomainError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divmod_int(num, list(cyclotomic_poly(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _phi_degree(n: int) -> int:
    for p in _prime_factors(n):
        n = n // p * (p - 1)
    return n


def _reduce_mod_phi(coeffs: dict[int, int], n: int, reduced=None) -> dict[int, int]:
    """Reduce an integer zeta_n-polynomial to the power basis 1..zeta^(phi(n)-1).

    Exponents below phi(n) are added in directly; every other one is
    expanded through `reduced`, by default the cached `_reduced_monomial`.
    """
    deg, reduced = _phi_degree(n), reduced or _reduced_monomial
    out: dict[int, int] = {}
    get = out.get
    for e, c in coeffs.items():
        if not c:
            continue
        e %= n
        if e < deg:
            out[e] = get(e, 0) + c
            continue
        for e2, f in reduced(n, e):
            out[e2] = get(e2, 0) + c * f
    return {e: c for e, c in out.items() if c}


@lru_cache(maxsize=None)
def _reduced_monomial(n: int, e: int) -> tuple[tuple[int, int], ...]:
    """zeta_n^e (0 <= e < n) over the power basis, as integer coefficients."""
    deg = _phi_degree(n)
    phi = cyclotomic_poly(n)
    work = {e: 1}
    while True:
        high = [k for k in work if k >= deg and work[k]]
        if not high:
            break
        k = max(high)
        c = work.pop(k)
        # zeta^k = -c * (lower terms of Phi) * zeta^(k-deg)
        for j in range(deg):
            if phi[j]:
                work[k - deg + j] = work.get(k - deg + j, 0) - c * phi[j]
    return tuple(sorted((k, c) for k, c in work.items() if c))


@lru_cache(maxsize=None)
def _descents(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(p, m, a, b) for each prime p || n with m = n / p > 1, where
    a = p^-1 mod m and b = m^-1 mod p, so zeta_n^e = zeta_m^(ea) zeta_p^(eb)."""
    return tuple((p, n // p, pow(p, -1, n // p), pow(n // p, -1, p))
                 for p in _prime_factors(n) if n // p % p and n > p)


def _over_subfield(coeffs: dict[int, int], p: int, m: int, a: int, b: int):
    """The coordinates over the power basis of zeta_m of a reduced element of
    Q(zeta_mp), p a prime not dividing m, or None if it is not in Q(zeta_m).

    Q(zeta_mp) = Q(zeta_m)(zeta_p) has the basis 1, zeta_p, ..., zeta_p^(p-2)
    over Q(zeta_m).  Split along zeta_mp^e = zeta_m^(ea) zeta_p^(eb) into
    sum y_j zeta_p^j (j < p) and rewrite zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)):
    the coordinate at zeta_p^j is y_j - y_(p-1), which must vanish for j > 0.
    For p = 2 the basis is {1} alone and zeta_2 = -1.
    """
    ys: list[dict[int, int]] = [{} for _ in range(p - 1)]
    for e, c in coeffs.items():
        j, k = e * b % p, e * a % m
        if j < p - 1:
            y = ys[j]
            y[k] = y.get(k, 0) + c
        else:
            for y in ys:
                y[k] = y.get(k, 0) - c
    if any(_reduce_mod_phi(y, m) for y in ys[1:]):
        return None
    return _reduce_mod_phi(ys[0], m)


def _canonicalize(n: int, coeffs: dict[int, int], den: int = 1):
    """Minimal-conductor canonical triple (n, coeffs, den) of coeffs / den.

    n is never left = 2 mod 4, except n = 1.  Descent is read off a basis,
    and no denominator enters.  With d = gcd(n, exponents), the element is
    {e // d: c} in Q(zeta_(n/d)), its exponents still below phi(n/d); this
    is the whole test for p^2 | n, where the power basis of zeta_n is the
    tower basis zeta_(n/p)^j zeta_n^r (r < p), and for n = p, where the
    element is rational iff its support is {0}.  For p || n and n/p > 1
    the coordinates over Q(zeta_(n/p)) come from `_over_subfield`, which for
    p = 2 always finds them, so n = 2 mod 4 always descends.
    """
    coeffs = _reduce_mod_phi(coeffs, n)
    if not coeffs:
        return 1, (), 1
    while n > 1:
        d = gcd(n, *coeffs)
        if d > 1:
            n, coeffs = n // d, {e // d: c for e, c in coeffs.items()}
            continue
        for p, m, a, b in _descents(n):
            y = _over_subfield(coeffs, p, m, a, b)
            if y is not None:
                n, coeffs = m, y
                break
        else:
            break
    g = gcd(den, *coeffs.values())
    if g > 1:
        return n, tuple(sorted((e, c // g) for e, c in coeffs.items())), den // g
    return n, tuple(sorted(coeffs.items())), den


# ---------------------------------------------------------------------------
# CycNum

class CycNum:
    """An element of Q(zeta_N), immutable and canonical."""

    __slots__ = ("conductor", "coeffs", "den", "_hash", "_key")

    def __init__(self, conductor: int = 1, coeffs: dict | None = None, den: int = 1):
        """The canonical form of sum(c * zeta_conductor^e) / den over coeffs.

        coeffs maps exponents to ints, or to Fractions, which are folded into den.
        """
        if conductor < 1:
            raise ExactDomainError("conductor must be positive")
        coeffs = coeffs or {}
        if any(type(c) is not int for c in coeffs.values()):
            coeffs = {e: Fraction(c) for e, c in coeffs.items()}
            fold = lcm(*(c.denominator for c in coeffs.values()))
            coeffs = {e: c.numerator * (fold // c.denominator) for e, c in coeffs.items()}
            den *= fold
        n, cf, d = _canonicalize(conductor, coeffs, den)
        _set_conductor(self, n)
        _set_coeffs(self, cf)
        _set_den(self, d)
        _set_hash(self, None)
        _set_key(self, None)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "CycNum":
        return _ZERO

    @staticmethod
    def one() -> "CycNum":
        return _ONE

    # -- basic queries -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return self.conductor == 1

    def as_fraction(self) -> Fraction:
        if self.conductor != 1:
            raise ExactDomainError("not a rational number")
        return Fraction(self.coeffs[0][1], self.den) if self.coeffs else Fraction(0)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "CycNum":
        if type(other) is not CycNum:
            other = as_cyc(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        n1, n2 = self.conductor, other.conductor
        d1, d2 = self.den, other.den
        g = gcd(d1, d2)
        if n1 == 1 and n2 == 1:
            # Fraction's sum: only gcd(t, g) can divide the numerator t
            s = d1 // g
            t = self.coeffs[0][1] * (d2 // g) + other.coeffs[0][1] * s
            if not t:
                return _ZERO
            g2 = gcd(t, g)
            return _raw(1, ((0, t // g2),), s * (d2 // g2))
        s1, s2 = d2 // g, d1 // g
        n = n1 * n2 // gcd(n1, n2)
        t1, t2 = n // n1, n // n2
        acc = {e * t1: c * s1 for e, c in self.coeffs}
        for e, c in other.coeffs:
            e *= t2
            acc[e] = acc.get(e, 0) + c * s2
        return CycNum(n, acc, s1 * d1)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "CycNum":
        return _raw(self.conductor, tuple((e, -c) for e, c in self.coeffs), self.den)

    def __sub__(self, other):
        return self.__add__(-as_cyc(other))

    def __rsub__(self, other):
        return as_cyc(other).__add__(-self)

    def __mul__(self, other) -> "CycNum":
        if type(other) is not CycNum:
            other = as_cyc(other)
        if not self.coeffs or not other.coeffs:
            return _ZERO
        n1, n2 = self.conductor, other.conductor
        if n1 == 1:
            p, q = self.coeffs[0][1], self.den
            if n2 == 1:
                # Fraction's product: cancel across before multiplying
                p2, q2 = other.coeffs[0][1], other.den
                g1, g2 = gcd(p, q2), gcd(p2, q)
                return _raw(1, ((0, (p // g1) * (p2 // g2)),), (q // g2) * (q2 // g1))
            return _scale(other, p, q)
        if n2 == 1:
            return _scale(self, other.coeffs[0][1], other.den)
        n = n1 * n2 // gcd(n1, n2)
        t1, t2 = n // n1, n // n2
        b = [(e * t2, c) for e, c in other.coeffs]
        acc: dict[int, int] = {}
        get = acc.get
        for e1, c1 in self.coeffs:
            e1 *= t1
            for e2, c2 in b:
                e = (e1 + e2) % n
                acc[e] = get(e, 0) + c1 * c2
        return CycNum(n, acc, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ExactDomainError("division by zero in Q(zeta)")
        if self.conductor == 1:
            p = self.coeffs[0][1]
            return _raw(1, ((0, self.den if p > 0 else -self.den),), abs(p))
        # extended Euclid against Phi_N on integer polynomials, low to high:
        # each row (r, t) keeps r = t * den * self mod Phi_N; a step cancels
        # r0's leading term by cross-multiplying and divides the row by its
        # content, so no fraction enters.  It ends at a constant r1 = c.
        n = self.conductor
        (r0, t0), (r1, t1) = (list(cyclotomic_poly(n)), [0]), (
            [dict(self.coeffs).get(e, 0) for e in range(self.coeffs[-1][0] + 1)], [1])
        while len(r1) > 1:
            shift, c0, c1 = len(r0) - len(r1), r0[-1], r1[-1]
            r0 = [c1 * x for x in r0]
            t0 = [c1 * x for x in t0] + [0] * (len(t1) + shift - len(t0))
            for p, q in ((r0, r1), (t0, t1)):
                for i, x in enumerate(q):
                    p[i + shift] -= c0 * x
                while p and not p[-1]:
                    p.pop()
            g = gcd(*r0, *t0)
            r0, t0 = [x // g for x in r0], [x // g for x in t0]
            if len(r0) < len(r1):
                (r0, t0), (r1, t1) = (r1, t1), (r0, t0)
        d = self.den if r1[0] > 0 else -self.den
        return CycNum(n, {e: x * d for e, x in enumerate(t1) if x}, abs(r1[0]))

    def __truediv__(self, other):
        return self.__mul__(as_cyc(other).inverse())

    def __rtruediv__(self, other):
        return as_cyc(other).__mul__(self.inverse())

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inverse() ** (-k)
        out, base = _ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing --------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, CycNum):
            try:
                other = as_cyc(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.conductor == other.conductor and self.coeffs == other.coeffs
                and self.den == other.den)

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash((self.conductor, self.coeffs, self.den)))
        return self._hash

    def sort_key(self) -> str:
        if self._key is None:
            _set_key(self, cyc_to_str(self))
        return self._key

    # -- output ---------------------------------------------------------------
    def __repr__(self):
        return f"CycNum({cyc_to_str(self)!r})"

    def __str__(self):
        return cyc_to_str(self)


# the slots' own setters: CycNum.__setattr__ refuses every assignment
_set_conductor, _set_coeffs, _set_den, _set_hash, _set_key = (
    CycNum.__dict__[name].__set__ for name in CycNum.__slots__)


def _raw(n: int, coeffs: tuple, den: int) -> CycNum:
    """A CycNum from a triple that is already canonical."""
    out = CycNum.__new__(CycNum)
    _set_conductor(out, n)
    _set_coeffs(out, coeffs)
    _set_den(out, den)
    _set_hash(out, None)
    _set_key(out, None)
    return out


def _scale(x: CycNum, p: int, q: int) -> CycNum:
    """x * p/q for a reduced nonzero rational p/q, q > 0.

    As in Fraction's product, gcd(p, x.den) and gcd(q, content of x) are
    divided out first, so the result needs no further reduction."""
    if p == q:
        return x
    den = x.den
    g = gcd(p, den)
    if g > 1:
        p, den = p // g, den // g
    g = gcd(q, *(c for _, c in x.coeffs))
    if g > 1:
        q = q // g
        return _raw(x.conductor, tuple((e, c // g * p) for e, c in x.coeffs), den * q)
    return _raw(x.conductor, tuple((e, c * p) for e, c in x.coeffs), den * q)


_ZERO = _raw(1, (), 1)
_ONE = _raw(1, ((0, 1),), 1)


def as_cyc(x) -> CycNum:
    """Coerce int / Fraction / CycNum into CycNum."""
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(1, ((0, x.numerator),), x.denominator) if x else _ZERO
    raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")


def root_of_unity(n: int, e: int = 1) -> CycNum:
    """zeta_n^e in canonical form."""
    if n < 1:
        raise ExactDomainError("order must be positive")
    e %= n
    g = gcd(e, n) if e else n
    return CycNum(n // g, {e // g: 1})


# ---------------------------------------------------------------------------
# one field context: Q(zeta_n) on flat int tuples

def _coords(x: CycNum, n: int, reduced=None):
    """The nonzero numerators of x over the power basis of zeta_n, as
    (exponent, numerator) pairs in increasing exponent.  x must lie in
    Q(zeta_n); its denominator is the same in every field.  `reduced` is
    passed to `_reduce_mod_phi`."""
    if n % x.conductor:
        raise ExactDomainError(f"{cyc_to_str(x)} is not in Q(z_{n})")
    step = n // x.conductor
    if step == 1:
        return x.coeffs
    return sorted(_reduce_mod_phi({e * step: c for e, c in x.coeffs}, n, reduced).items())


def to_flat(x: CycNum, n: int) -> tuple:
    """x as a flat tuple of Q(zeta_n): its phi(n) numerators over the power
    basis of zeta_n, then its denominator.  x must lie in Q(zeta_n).  No
    factor divides all of them: the content of x is the same in every field."""
    out = [0] * _phi_degree(n)
    for e, c in _coords(x, n):
        out[e] = c
    out.append(x.den)
    return tuple(out)


def from_flat(t: tuple, n: int) -> CycNum:
    """The canonical CycNum of a flat tuple of Q(zeta_n) (see `to_flat`)
    with a positive denominator, whatever factor its entries share."""
    if n == 1:
        p, q = t
        if not p:
            return _ZERO
        g = gcd(p, q)
        return _raw(1, ((0, p // g),), q // g)
    return CycNum(n, {e: c for e, c in enumerate(t[:-1]) if c}, t[-1])


class FlatField:
    """Arithmetic of Q(zeta_n) on flat int tuples.

    `flat(x)` and `cyc(t)` convert between CycNum and the field's tuples.
    `mul(a, b)` returns a * b, and `addmul(acc, key, a, b)` adds a * b into
    acc[key]; `normal` turns such a sum into a tuple with no common factor,
    once per sum, or None for zero.  `one` is one shared unit tuple, so
    callers can skip a product by it with an identity test.

    When phi(n) <= 2 a tuple is the dense one of `to_flat`: (numerator,
    denominator) when phi(n) = 1, and when phi(n) = 2 the one power
    zeta^2 = r0 + r1 zeta is written into the product.  Above, a tuple is
    sparse, so that its width follows its nonzero terms and not phi(n): the
    pairs exponent, numerator of its nonzero numerators, then its denominator
    (see `_sparse`).

    With a `cap`, a sparse field whose phi(n)^2 is above it runs only until
    a product or a converted scalar has an exponent from phi(n) up, the
    first point that needs Phi_n; there it raises FieldCapError."""

    def __init__(self, n: int, cap: int | None = None):
        self.n = n
        self.phi = phi = _phi_degree(n)
        if phi > 2:
            self.one = (0, 1, 1)
            self._reduced = _reduced_monomial if cap is None or phi * phi <= cap else _refuse
            self.mul, self.addmul, self.normal = _sparse(n, phi, self._reduced)
            return
        self.one = (1,) + (0,) * (phi - 1) + (1,)
        if phi == 1:
            self.mul, self.addmul = _mul1, _addmul1
        else:
            self.mul, self.addmul = _quadratic(dict(_reduced_monomial(n, 2)))

        def normal(t):
            if t.count(0) == phi:
                return None
            g = gcd(*t)
            return t if g == 1 else tuple(c // g for c in t)
        self.normal = normal

    def flat(self, x: CycNum) -> tuple:
        if self.phi > 2:
            return (*(v for pair in _coords(x, self.n, self._reduced) for v in pair), x.den)
        return to_flat(x, self.n)

    def cyc(self, t: tuple) -> CycNum:
        if self.phi > 2:
            return CycNum(self.n, dict(zip(t[:-1:2], t[1::2])), t[-1])
        return from_flat(t, self.n)


def _add(s: tuple, c: tuple) -> tuple:
    """The sum of two dense tuples over different denominators."""
    d1, d2 = s[-1], c[-1]
    g = gcd(d1, d2)
    f1, f2 = d2 // g, d1 // g
    out = [x * f1 + y * f2 for x, y in zip(s, c)]
    out[-1] = d1 * f1
    return tuple(out)


def _mul1(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0], a[1] * b[1]


def _addmul1(acc: dict, key, a: tuple, b: tuple) -> None:
    p, q = a[0] * b[0], a[1] * b[1]
    s = acc.get(key)
    if s is None:
        acc[key] = p, q
    elif s[1] == q:
        acc[key] = s[0] + p, q
    else:
        acc[key] = _add(s, (p, q))


def _quadratic(square: dict[int, int]):
    """mul and addmul when phi(n) = 2, with zeta^2 given by `square`."""
    r0, r1 = square.get(0, 0), square.get(1, 0)

    def mul(a, b):
        a0, a1, p = a
        b0, b1, q = b
        h = a1 * b1
        return a0 * b0 + r0 * h, a0 * b1 + a1 * b0 + r1 * h, p * q

    def addmul(acc, key, a, b):
        c = mul(a, b)
        s = acc.get(key)
        if s is None:
            acc[key] = c
        elif s[2] == c[2]:
            acc[key] = s[0] + c[0], s[1] + c[1], c[2]
        else:
            acc[key] = _add(s, c)
    return mul, addmul


def _refuse(n: int, e: int):
    raise FieldCapError(f"Q(z_{n}) needs Phi_{n}, and its degree squared is above the cap")


def _sparse(n: int, phi: int, reduced):
    """mul, addmul and normal when phi(n) > 2, on sparse tuples
    (e_1, c_1, ..., e_r, c_r, denominator) with the c_i nonzero.  A sum is
    kept as [denominator, {exponent: numerator}] until `normal` packs it in
    increasing exponent.  Exponents of a product from phi(n) up are reduced
    through `reduced`, the cached table `_reduced_monomial` or `_refuse`."""

    def into(m, f, a, b):
        """m += f times the numerators of a * b."""
        get, bs = m.get, tuple(zip(b[:-1:2], b[1::2]))
        for i, x in zip(a[:-1:2], a[1::2]):
            x *= f
            for j, y in bs:
                e = i + j
                if e < phi:
                    m[e] = get(e, 0) + x * y
                else:
                    v = x * y
                    for k, r in reduced(n, e % n):
                        m[k] = get(k, 0) + v * r

    def mul(a, b):
        m = {}
        into(m, 1, a, b)
        return (*(v for e, c in m.items() if c for v in (e, c)), a[-1] * b[-1])

    def addmul(acc, key, a, b):
        q, s = a[-1] * b[-1], acc.get(key)
        if s is None:
            s = acc[key] = [q, {}]
            f = 1
        elif s[0] == q:
            f = 1
        else:
            g = gcd(s[0], q)
            f, h = s[0] // g, q // g
            if h > 1:
                m = s[1]
                for e in m:
                    m[e] *= h
                s[0] *= h
        into(s[1], f, a, b)

    def normal(s):
        items = sorted((e, c) for e, c in s[1].items() if c)
        if not items:
            return None
        g = gcd(s[0], *(c for _, c in items))
        return (*(v for e, c in items for v in (e, c // g)), s[0] // g)
    return mul, addmul, normal


# ---------------------------------------------------------------------------
# text serialization:  "p/q" and "Q(z_N): c0 + c1*z^1 + ..."

_RATIO = r"(-?\d+)(?:/(\d+))?"
_RATIO_RE = re.compile(_RATIO)
_TERM_RE = re.compile(rf"{_RATIO}|(?:{_RATIO}\*)?z\^(\d+)")
_LITERAL_RE = re.compile(r"Q\(z_(\d+)\)\s*:\s*(.*)")
_FIELD_RE = re.compile(r"Q\(z_(\d+)\)")


def _ratio_str(c: int, den: int) -> str:
    g = gcd(c, den)
    try:
        return str(c // g) if g == den else f"{c // g}/{den // g}"
    except ValueError as exc:       # past the interpreter's digit limit
        raise ExactDomainError("number too long to write: past the interpreter's "
                               f"{sys.get_int_max_str_digits()}-digit limit") from exc


def cyc_to_str(x: CycNum) -> str:
    if x.is_zero():
        return "Q(z_1): 0"
    parts = (_ratio_str(c, x.den) + (f"*z^{e}" if e else "") for e, c in x.coeffs)
    return f"Q(z_{x.conductor}): " + " + ".join(parts)


def num_str(x: CycNum) -> str:
    """The report form of a scalar: p/q when rational, else cyc_to_str."""
    if x.conductor != 1:
        return cyc_to_str(x)
    return _ratio_str(x.coeffs[0][1], x.den) if x.coeffs else "0"


def _int(digits: str, where: str = "cyclotomic literal") -> int:
    """The one conversion of an integer read from text."""
    try:
        return int(digits)
    except ValueError as exc:       # past the interpreter's digit limit
        raise ExactDomainError(f"integer too long in {where}") from exc


def _fraction(p: str, q: str | None, where: str) -> Fraction:
    q = _int(q or "1", where)
    if not q:
        raise ExactDomainError(f"zero denominator in {where}")
    return Fraction(_int(p, where), q)


def literal_fields(text: str) -> list[int]:
    """The N of each Q(z_N) in text, read before the text is parsed."""
    return [_int(n) for n in _FIELD_RE.findall(text)]


def cyc_parse(s: str) -> CycNum:
    """The one reader of an exact scalar: a rational p/q, or a literal
    Q(z_N): c0 + c1*z^1 + ... whose coefficients are p/q, as `num_str` and
    `cyc_to_str` write them.  Any other text, a zero denominator or an
    integer past the digit limit raises ExactDomainError."""
    text = s.strip()
    if not text.startswith("Q("):
        m = _RATIO_RE.fullmatch(text)
        if m is None:
            raise ExactDomainError(f"bad scalar {text[:40]!r}")
        return as_cyc(_fraction(*m.groups(), "scalar"))
    m = _LITERAL_RE.fullmatch(text)
    if m is None:
        raise ExactDomainError(f"bad cyclotomic literal: {text[:40]!r}")
    coeffs: dict[int, Fraction] = {}
    for raw in m[2].split("+"):
        t = _TERM_RE.fullmatch(raw.strip())
        if t is None:
            raise ExactDomainError(f"bad cyclotomic term: {raw.strip()[:40]!r}")
        p, q, p_z, q_z, e = t.groups()
        e = _int(e or "0")
        coeffs[e] = coeffs.get(e, 0) + _fraction(p or p_z or "1", q or q_z, "cyclotomic literal")
    return CycNum(_int(m[1]), coeffs)
