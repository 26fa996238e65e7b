"""Exact arithmetic over the rationals and cyclotomic fields Q(zeta_N).

A CycNum stores a value of some Q(zeta_N) as a sparse polynomial in
zeta_N reduced modulo the N-th cyclotomic polynomial, at the *minimal*
conductor containing the value (never N = 2 mod 4, where we rewrite into
the odd conductor).  Two CycNums are equal as values iff their stored
(conductor, coefficient map) agree, so they hash and sort canonically.

Canonicalization reduces modulo Phi_N through a cache of reduced monomials
and then descends one prime p of N at a time.  When p^2 | N the power basis
of zeta_N is the tower basis over Q(zeta_(N/p)), so descent is read off the
exponents (all divisible by p); when N = p it is the test "support is {0}".
Only for p || N with N != p does descent run the Galois fixed-point test
and a linear solver.

Rationals are fractions.Fraction throughout; no floating point enters any
computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
import re


class ExactDomainError(ArithmeticError):
    """Raised on invalid field operations (division by zero, bad parse)."""


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
    return len(cyclotomic_poly(n)) - 1


def _reduce_mod_phi(coeffs: dict[int, Fraction], n: int) -> dict[int, Fraction]:
    """Reduce a zeta_n-polynomial to the power basis 1..zeta^(phi(n)-1).

    Exponents below phi(n) are added in directly; every other one is
    expanded through the cached reduced monomial.
    """
    deg = _phi_degree(n)
    out: dict[int, Fraction] = {}
    for e, c in coeffs.items():
        if not c:
            continue
        if isinstance(c, int):
            c = Fraction(c)
        e %= n
        if e < deg:
            prev = out.get(e)
            out[e] = c if prev is None else prev + c
            continue
        for e2, f in _reduced_monomial(n, e):
            prev = out.get(e2)
            out[e2] = c * f if prev is None else prev + c * f
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


def _apply_galois(coeffs: dict[int, Fraction], n: int, j: int) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for e, c in coeffs.items():
        for e2, f in _reduced_monomial(n, (j * e) % n):
            prev = out.get(e2)
            out[e2] = c * f if prev is None else prev + c * f
    return {e: c for e, c in out.items() if c}


def _galois_fixed(coeffs: dict[int, Fraction], n: int, m: int) -> bool:
    """True iff Gal(Q(zeta_n)/Q(zeta_m)), m | n, fixes the reduced element.

    That is, iff the element lies in Q(zeta_m).
    """
    return all(_apply_galois(coeffs, n, j) == coeffs
               for j in range(1 + m, n, m) if gcd(j, n) == 1)


@lru_cache(maxsize=None)
def _descent_solver(n: int, m: int):
    """Solver for rewriting an invariant element of Q(zeta_n) over Q(zeta_m).

    Returns (pivot_rows, inv) such that, for the column vector c of an
    element known to lie in Q(zeta_m), the coordinates over the power basis
    of zeta_m are inv @ c[pivot_rows].
    """
    dn, dm = _phi_degree(n), _phi_degree(m)
    step = n // m
    cols = []
    for f in range(dm):
        vec = [Fraction(0)] * dn
        for e, c in _reduced_monomial(n, (f * step) % n):
            vec[e] = c
        cols.append(vec)
    # Gaussian elimination to locate dm independent rows
    mat = [[cols[f][r] for f in range(dm)] for r in range(dn)]
    pivot_rows: list[int] = []
    used = [False] * dn
    reduced = [row[:] for row in mat]
    for col in range(dm):
        pr = next(r for r in range(dn) if not used[r] and reduced[r][col])
        used[pr] = True
        pivot_rows.append(pr)
        inv = Fraction(1) / reduced[pr][col]
        reduced[pr] = [v * inv for v in reduced[pr]]
        for r in range(dn):
            if r != pr and reduced[r][col]:
                f = reduced[r][col]
                reduced[r] = [a - f * b for a, b in zip(reduced[r], reduced[pr])]
    # invert the square submatrix on the pivot rows
    sub = [[mat[r][f] for f in range(dm)] for r in pivot_rows]
    aug = [row[:] + [Fraction(int(i == k)) for k in range(dm)] for i, row in enumerate(sub)]
    for col in range(dm):
        pr = next(r for r in range(col, dm) if aug[r][col])
        aug[col], aug[pr] = aug[pr], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(dm):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inv_rows = tuple(tuple(row[dm:]) for row in aug)
    return tuple(pivot_rows), inv_rows


def _descend(coeffs: dict[int, Fraction], n: int, m: int) -> dict[int, Fraction]:
    """Coordinates over the power basis of zeta_m of an element of Q(zeta_m)."""
    pivot_rows, inv = _descent_solver(n, m)
    cvec = [coeffs.get(r, Fraction(0)) for r in pivot_rows]
    new = {}
    for f, row in enumerate(inv):
        val = sum((a * b for a, b in zip(row, cvec)), Fraction(0))
        if val:
            new[f] = val
    return new


def _canonicalize(n: int, coeffs: dict[int, Fraction]) -> tuple[int, dict[int, Fraction]]:
    """Minimal-conductor canonical form (n never left = 2 mod 4, except n=1).

    Descent by a prime p of n is read off the power basis where it can be:
    if p^2 | n, then Phi_n(x) = Phi_(n/p)(x^p), so the basis zeta_n^e
    (e < phi(n)) is the tower basis zeta_(n/p)^j zeta_n^r (r < p) and the
    element lies in Q(zeta_(n/p)) iff every exponent is divisible by p, with
    coordinates {e // p: c}; if n = p, it is rational iff its support is {0}.
    Only for p || n with n != p does descent run the Galois fixed-point test
    and the linear solver.
    """
    coeffs = _reduce_mod_phi(coeffs, n)
    if not coeffs:
        return 1, coeffs
    while n > 1:
        if n % 4 == 2:
            # zeta_n = -zeta_m^((m+1)/2) for odd m = n/2
            m = n // 2
            half = (m + 1) // 2
            nxt: dict[int, Fraction] = {}
            for e, c in coeffs.items():
                if e % 2 == 1:
                    c = -c
                e2 = (e * half) % m
                prev = nxt.get(e2)
                nxt[e2] = c if prev is None else prev + c
            n, coeffs = m, _reduce_mod_phi(nxt, m)
            continue
        for p in _prime_factors(n):
            m = n // p
            if m % p == 0:
                if all(e % p == 0 for e in coeffs):
                    n, coeffs = m, {e // p: c for e, c in coeffs.items()}
                    break
            elif m == 1:
                if len(coeffs) == 1 and 0 in coeffs:
                    n = 1
                    break
            elif _galois_fixed(coeffs, n, m):
                n, coeffs = m, _descend(coeffs, n, m)
                break
        else:
            break
    return n, coeffs


def _poly_ext_inverse(coeffs: dict[int, Fraction], n: int) -> dict[int, Fraction]:
    # inverse modulo Phi_n via extended euclid over Q[x]
    deg = _phi_degree(n)
    a = [Fraction(c) for c in cyclotomic_poly(n)]
    b = [coeffs.get(e, Fraction(0)) for e in range(deg)]
    # invariants: s*phi + t*orig = r  (we only track t)
    t_prev: list[Fraction] = [Fraction(0)]
    t_cur: list[Fraction] = [Fraction(1)]
    r_prev, r_cur = a, b

    def strip(p):
        while p and not p[-1]:
            p.pop()
        return p

    def sub_scaled(p, q, c, shift):
        out = list(p) + [Fraction(0)] * max(0, len(q) + shift - len(p))
        for i, qc in enumerate(q):
            out[i + shift] -= c * qc
        return strip(out)

    r_prev, r_cur = strip(r_prev), strip(r_cur)
    while len(r_cur) > 1:
        q_shift = len(r_prev) - len(r_cur)
        if q_shift < 0:
            r_prev, r_cur = r_cur, r_prev
            t_prev, t_cur = t_cur, t_prev
            continue
        c = r_prev[-1] / r_cur[-1]
        r_prev = sub_scaled(r_prev, r_cur, c, q_shift)
        t_prev = sub_scaled(t_prev, t_cur, c, q_shift)
        if len(r_prev) < len(r_cur):
            r_prev, r_cur = r_cur, r_prev
            t_prev, t_cur = t_cur, t_prev
    if not r_cur:
        raise ExactDomainError("division by zero in Q(zeta)")
    scale = Fraction(1) / r_cur[0]
    return {e: c * scale for e, c in enumerate(t_cur) if c}


# ---------------------------------------------------------------------------
# CycNum

class CycNum:
    """An element of Q(zeta_N), immutable and canonical."""

    __slots__ = ("conductor", "coeffs", "_hash", "_key")

    def __init__(self, conductor: int = 1, coeffs: dict[int, Fraction] | None = None):
        if conductor < 1:
            raise ExactDomainError("conductor must be positive")
        n, cf = _canonicalize(conductor, dict(coeffs or {}))
        object.__setattr__(self, "conductor", n)
        object.__setattr__(self, "coeffs", tuple(sorted(cf.items())))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors -------------------------------------------------------
    @staticmethod
    def _make_rational(q: Fraction) -> "CycNum":
        out = CycNum.__new__(CycNum)
        object.__setattr__(out, "conductor", 1)
        object.__setattr__(out, "coeffs", ((0, q),) if q else ())
        object.__setattr__(out, "_hash", None)
        object.__setattr__(out, "_key", None)
        return out

    @staticmethod
    def from_rational(q) -> "CycNum":
        return CycNum._make_rational(Fraction(q))

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
        return self.coeffs[0][1] if self.coeffs else Fraction(0)

    # -- arithmetic ----------------------------------------------------------
    def _promoted(self, n: int) -> dict[int, Fraction]:
        step = n // self.conductor
        return {e * step: c for e, c in self.coeffs}

    def __add__(self, other) -> "CycNum":
        other = as_cyc(other)
        if self.conductor == 1 and other.conductor == 1:
            return CycNum._make_rational(self.as_fraction() + other.as_fraction())
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        a, b = self._promoted(n), other._promoted(n)
        for e, c in b.items():
            prev = a.get(e)
            a[e] = c if prev is None else prev + c
        return CycNum(n, a)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "CycNum":
        out = CycNum.__new__(CycNum)
        object.__setattr__(out, "conductor", self.conductor)
        object.__setattr__(out, "coeffs", tuple((e, -c) for e, c in self.coeffs))
        object.__setattr__(out, "_hash", None)
        object.__setattr__(out, "_key", None)
        return out

    def __sub__(self, other):
        return self.__add__(-as_cyc(other))

    def __rsub__(self, other):
        return as_cyc(other).__add__(-self)

    @staticmethod
    def _scale(x: "CycNum", q: Fraction) -> "CycNum":
        if not q:
            return _ZERO
        out = CycNum.__new__(CycNum)
        object.__setattr__(out, "conductor", x.conductor)
        object.__setattr__(out, "coeffs", tuple((e, c * q) for e, c in x.coeffs))
        object.__setattr__(out, "_hash", None)
        object.__setattr__(out, "_key", None)
        return out

    def __mul__(self, other) -> "CycNum":
        other = as_cyc(other)
        if self.conductor == 1 and other.conductor == 1:
            return CycNum._make_rational(self.as_fraction() * other.as_fraction())
        if self.conductor == 1:
            return CycNum._scale(other, self.as_fraction())
        if other.conductor == 1:
            return CycNum._scale(self, other.as_fraction())
        n = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        a, b = self._promoted(n), other._promoted(n)
        prod: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % n
                prev = prod.get(e)
                prod[e] = c1 * c2 if prev is None else prev + c1 * c2
        return CycNum(n, prod)

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ExactDomainError("division by zero in Q(zeta)")
        if self.conductor == 1:
            return CycNum._make_rational(1 / self.as_fraction())
        return CycNum(self.conductor, _poly_ext_inverse(dict(self.coeffs), self.conductor))

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
        return self.conductor == other.conductor and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.conductor, self.coeffs)))
        return self._hash

    def sort_key(self) -> str:
        if self._key is None:
            object.__setattr__(self, "_key", cyc_to_str(self))
        return self._key

    # -- output ---------------------------------------------------------------
    def __repr__(self):
        return f"CycNum({cyc_to_str(self)!r})"

    def __str__(self):
        return cyc_to_str(self)


_ZERO = CycNum(1, {})
_ONE = CycNum(1, {0: Fraction(1)})


def as_cyc(x) -> CycNum:
    """Coerce int / Fraction / CycNum into CycNum."""
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum.from_rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to CycNum")


def root_of_unity(n: int, e: int = 1) -> CycNum:
    """zeta_n^e in canonical form."""
    if n < 1:
        raise ExactDomainError("order must be positive")
    e %= n
    g = gcd(e, n) if e else n
    return CycNum(n // g, {e // g: Fraction(1)})


# ---------------------------------------------------------------------------
# text serialization:  "Q(z_N): c0 + c1*z^1 + ..."

_FRAC_RE = r"-?\d+(?:/\d+)?"
_TERM_RE = re.compile(rf"^({_FRAC_RE})(?:\*z\^(\d+))?$|^z\^(\d+)$")


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def cyc_to_str(x: CycNum) -> str:
    if x.is_zero():
        return "Q(z_1): 0"
    parts = []
    for e, c in x.coeffs:
        parts.append(_frac_str(c) if e == 0 else f"{_frac_str(c)}*z^{e}")
    return f"Q(z_{x.conductor}): " + " + ".join(parts)


def num_str(x: CycNum) -> str:
    """The report form of a scalar: p/q when rational, else cyc_to_str."""
    return _frac_str(x.as_fraction()) if x.is_rational() else cyc_to_str(x)


def cyc_parse(s: str) -> CycNum:
    m = re.match(r"^\s*Q\(z_(\d+)\)\s*:\s*(.*?)\s*$", s)
    if not m:
        raise ExactDomainError(f"bad cyclotomic literal: {s!r}")
    n = int(m.group(1))
    body = m.group(2)
    if body == "0":
        return _ZERO
    coeffs: dict[int, Fraction] = {}
    for raw in body.split("+"):
        raw = raw.strip()
        tm = _TERM_RE.match(raw)
        if not tm:
            raise ExactDomainError(f"bad cyclotomic term: {raw!r}")
        if tm.group(3) is not None:
            e, c = int(tm.group(3)), Fraction(1)
        else:
            c = Fraction(tm.group(1))
            e = int(tm.group(2)) if tm.group(2) else 0
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
    return CycNum(n, coeffs)
