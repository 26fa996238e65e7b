"""Symbolic rewriting engine for the deformed skew product of C[V x V*] with W.

Elements are finite sums of normal-ordered monomials x^a * w * y^b whose
coefficients are polynomials in the deformation letters t and h over Q(zeta),
each a plain map (t power, h power) -> nonzero CycNum.
The single rewriting rule moves a y-letter past an x-letter at the cost of
the commutator term attached to the hyperplane arrangement; everything else
is the semidirect-product action.  Three modes share the engine:

  "t"      commutator carries t <y,x> plus the arrangement sum
  "hbar2"  commutator carries h^2 times the arrangement sum (no t)
  "t0"     commutator carries the arrangement sum only

The normal form is reached by resolving the innermost leftmost inversion
first; the inversion count strictly drops, so rewriting terminates, and the
result is cached per exponent pair.

Outside the kernel, `_add_into` adds a scalar into a sparse map and drops
the key when the sum is zero, and an element drops a monomial whose map is
empty.  Elements share the coefficient maps they do not change, so no
operation mutates one: each builds the maps it changes.  The kernel packs
monomials into ints: a 16-bit field for each of t, h, x_1..x_n and
y_1..y_n, and the group element's id above them, so multiplying monomials
is adding ints.  Its scalars are not CycNums but flat int tuples of one
field context Q(zeta_N), an `exactnum.FlatField`: up to phi(N) = 2 the
phi(N) power-basis numerators, then one denominator, and above it the
(exponent, numerator) pairs of the nonzero numerators, then the
denominator.  N starts as the lcm of W's field and the conductors of k, and
`multiply` widens it when a factor's scalar lies outside, rebuilding the
caches; an algebra made with a `cap` passes it to each of its field
contexts, which then refuse Phi_N where they first need it (see
`exactnum.FlatField`).  `multiply` and `yx_product` each sum products of
these tuples into one flat map keyed by the packed int, with `addmul`, and
divide out each sum's common factor once, dropping zeros;
normal forms are cached as packed terms (x, w, y, ((t/h power, scalar),
...)), and the shared unit tuple is skipped by identity.  A product stays
in that form, with its field and a width bound, and `CherElement.terms`
(tuple monomials, CycNum coefficients) is built from it through its own
field on first read; a factor already in the current field is multiplied
as it is, and any other is packed from its terms once and keeps the packed
form.  Two products in one field compare their packed forms, whose flat
scalars are canonical.  No field of a product exceeds the factors' largest
degree plus t/h power, summed, which the product keeps as its bound, and
`multiply` refuses a pair whose exact sum passes 65535.  Moving a group
element past x^a or y^b expands through the rows or the columns of its
inverse matrix, cached per (element, exponents) in `_w_expansion`.
`check_rewrite_work` bounds the work of a bracket by a scalar-free dry run
of the same packed recursion, which flattens no scalar, so the packed
layout is known to this module only.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm

from . import linalg as la
from .exactnum import CycNum, FlatField, as_cyc, cyc_parse, literal_fields, num_str
from .refgroup import CapExceededError, GroupElement, ParameterK, ReflectionGroup

MODES = ("t", "hbar2", "t0")


class CherednikError(Exception):
    pass


class PoissonCompatibilityError(CherednikError):
    """Inputs not Poisson-compatible (not central at the undeformed point)."""


def _add_into(out: dict, key, val) -> None:
    """out[key] += val, dropping the key when the sum is zero."""
    s = out[key] + val if key in out else val
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


# a monomial is (x-exponents, group element id, y-exponents)
Monomial = tuple[tuple[int, ...], int, tuple[int, ...]]


class CherElement:
    __slots__ = ("algebra", "_terms", "_kernel")

    def __init__(self, algebra: "CherednikAlgebra", terms: dict[Monomial, dict] | None,
                 kernel: tuple | None = None):
        self.algebra, self._kernel = algebra, kernel
        self._terms = None if terms is None else {m: p for m, p in terms.items() if p}

    @property
    def terms(self) -> dict[Monomial, dict]:
        if self._terms is None:
            self._terms = self.algebra._unpacked(self._kernel)
        return self._terms

    def is_zero(self) -> bool:
        return not (self._kernel[1] if self._terms is None else self._terms)

    def __add__(self, other: "CherElement") -> "CherElement":
        self._check(other)
        out = dict(self.terms)
        for m, p in other.terms.items():
            q = out[m] = dict(out.get(m, ()))
            for th, c in p.items():
                _add_into(q, th, c)
        return CherElement(self.algebra, out)

    def __neg__(self) -> "CherElement":
        return CherElement(self.algebra, {m: {th: -c for th, c in p.items()}
                                          for m, p in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CherElement):
            self._check(other)
            return self.algebra.multiply(self, other)
        c = as_cyc(other)
        return CherElement(self.algebra, {} if c.is_zero() else
                           {m: {th: c * v for th, v in p.items()} for m, p in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, CherElement) or self.algebra is not other.algebra:
            return False
        k1, k2 = self._kernel, other._kernel
        if k1 and k2 and k1[0].n == k2[0].n:    # flat scalars are canonical
            return ({(x, w, y): dict(p) for x, w, y, p in k1[1]}
                    == {(x, w, y): dict(p) for x, w, y, p in k2[1]})
        return self.terms == other.terms

    def __repr__(self):
        return f"CherElement({format_element(self)})"

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise CherednikError("elements belong to different algebra contexts")


class CherednikAlgebra:
    def __init__(self, W: ReflectionGroup, k: ParameterK | None = None, mode: str = "t0",
                 cap: int | None = None):
        if mode not in MODES:
            raise CherednikError(f"unknown mode {mode!r}")
        self.W = W
        self.n = W.dim
        self.k = k if k is not None else ParameterK.zero(W)
        if self.k.W is not W:
            raise CherednikError("parameter belongs to a different group")
        self.mode, self._cap = mode, cap
        # packed monomials: fields t, h, x_1..x_n, y_1..y_n, then the group id
        self._gshift = 16 * (2 + 2 * self.n)
        self._xmask = (1 << 16 * (2 + self.n)) - (1 << 32)
        self._ymask = (1 << self._gshift) - (1 << 16 * (2 + self.n))
        self._monos: dict[int, Monomial] = {}     # packed monomial -> tuple form
        self._set_field(lcm(W.field, *(v.conductor for v in self.k.values.values())))

    def _set_field(self, n: int) -> None:
        """Run the kernel in Q(zeta_n) from now on.  Every cached scalar is a
        flat tuple of the field, so the caches start again."""
        self._field = F = FlatField(n, self._cap)
        self._one = F.one
        self._yx_cache: dict = {}
        self._w_cache: dict = {}
        self._flats: dict[CycNum, tuple] = {}     # factor scalar -> flat tuple
        self._cycs: dict[tuple, CycNum] = {}      # flat tuple -> scalar of a read product
        self._commutators = self._build_commutators()

    def _flat(self, c: CycNum) -> tuple:
        t = self._flats.get(c)
        if t is None:
            t = self._flats[c] = self._field.flat(c)
        return t

    # -- relation data -----------------------------------------------------------
    def _build_commutators(self):
        n = self.n
        comm = [[{} for _ in range(n)] for _ in range(n)]
        for H in self.W.hyperplanes:
            pair_norm = la.dot(H.alpha, H.alpha_vee).inverse()
            weights: dict[int, CycNum] = {}
            for u in H.pointwise:
                det_u = la.det(self.W.elements[u].mat)
                for l in range(H.e):
                    _add_into(weights, u,
                              (self.k.k_H(H, l) - self.k.k_H(H, l + 1)) * (det_u ** l))
            for i in range(n):
                ai = H.alpha[i]
                if ai.is_zero():
                    continue
                for j in range(n):
                    vj = H.alpha_vee[j]
                    if vj.is_zero():
                        continue
                    scalar = ai * vj * pair_norm
                    for u, wt in weights.items():
                        _add_into(comm[i][j], u, scalar * wt)
        # keyed by y_i x_j packed; each value is ((packed t/h power, scalar), ...)
        th = 2 << 16 if self.mode == "hbar2" else 0
        out = {}
        for i in range(n):
            for j in range(n):
                entry = {u: ((th, self._flat(c)),) for u, c in comm[i][j].items()}
                if self.mode == "t" and i == j:
                    entry[self.W.identity] = entry.get(self.W.identity, ()) + ((1, self._one),)
                out[1 << 16 * (2 + n + i) | 1 << 16 * (2 + j)] = entry
        return out

    # -- element builders ----------------------------------------------------------
    def zero(self) -> CherElement:
        return CherElement(self, {})

    def _term(self, a, g: int, b, coeff: dict | None = None) -> CherElement:
        """x^a * g * y^b for the element of id g, times coeff (default 1)."""
        return CherElement(self, {(tuple(a), g, tuple(b)):
                                  {(0, 0): CycNum.one()} if coeff is None else coeff})

    def x(self, i: int, power: int = 1) -> CherElement:
        a = tuple(power if m == i else 0 for m in range(self.n))
        return self._term(a, self.W.identity, (0,) * self.n)

    def y(self, i: int, power: int = 1) -> CherElement:
        b = tuple(power if m == i else 0 for m in range(self.n))
        return self._term((0,) * self.n, self.W.identity, b)

    def w(self, g) -> CherElement:
        """The group element g, given as a GroupElement or as its key."""
        z = (0,) * self.n
        return self.monomial(z, g, z)

    def monomial(self, a, g, b, coeff: dict | None = None) -> CherElement:
        """coeff * x^a * g * y^b, with g a GroupElement or its key and coeff a
        map (t power, h power) -> CycNum (default 1)."""
        i = self.W.by_key.get(g.key if isinstance(g, GroupElement) else g)
        if i is None:
            raise CherednikError("group element outside the group")
        return self._term(a, i, b, coeff)

    # -- packed monomials ----------------------------------------------------------
    def _pack(self, exps, first: int) -> int:
        """Exponents as one int: letter m in the 16-bit field first + m."""
        return sum(e << 16 * (first + m) for m, e in enumerate(exps))

    def _unpack(self, packed: int, first: int) -> tuple[int, ...]:
        return tuple(packed >> 16 * (first + m) & 0xFFFF for m in range(self.n))

    def _width(self, e: CherElement) -> int:
        """The largest degree plus t/h power of e's terms."""
        return max((sum(a) + sum(b) + max(max(th) for th in p)
                    for (a, _, b), p in e.terms.items()), default=0)

    def _refuse_overflow(self, A: CherElement, B: CherElement) -> None:
        width = self._width(A) + self._width(B)
        if width > 0xFFFF:
            raise CherednikError(f"product out of range: degrees plus t/h powers sum to "
                                 f"{width}, above 65535")

    def _packed(self, e: CherElement) -> tuple:
        """e's kernel form in the current field: (field, packed terms
        (x, w, y, ((t/h power, scalar), ...)), width bound), packed from its
        terms and kept on e unless it is in this field already."""
        k = e._kernel
        if k is None or k[0] is not self._field:
            flat_of, pack, n = self._flat, self._pack, self.n
            k = e._kernel = (self._field, [
                (pack(a, 2), w, pack(b, 2 + n), tuple((i | j << 16, flat_of(c))
                                                      for (i, j), c in p.items()))
                for (a, w, b), p in e.terms.items()], self._width(e))
        return k

    def _unpacked(self, kernel: tuple) -> dict[Monomial, dict]:
        """A kernel form's terms, read through its own field: ours may have widened."""
        F, packed, _ = kernel
        cycs = self._cycs if F is self._field else {}
        monos, gs, terms = self._monos, self._gshift, {}
        for x, w, y, p in packed:
            m = x | y | w << gs
            mono = monos.get(m) or monos.setdefault(
                m, (self._unpack(x, 2), w, self._unpack(y, 2 + self.n)))
            q = terms[mono] = {}
            for th, c in p:
                v = cycs.get(c)
                q[th & 0xFFFF, th >> 16] = cycs.setdefault(c, F.cyc(c)) if v is None else v
        return terms

    def _by_monomial(self, flat: dict[int, tuple]) -> tuple:
        """The nonzero sums of a flat map, normal, as packed terms."""
        normal, out = self._field.normal, {}    # monomial -> [(t/h power, scalar), ...]
        for key, c in flat.items():
            c = normal(c)
            if c is not None:
                th = key & 0xFFFFFFFF
                out.setdefault(key ^ th, []).append((th, c))
        xm, ym, gs = self._xmask, self._ymask, self._gshift
        return tuple((m & xm, m >> gs, m & ym, tuple(p)) for m, p in out.items())

    # -- action expansions ----------------------------------------------------------
    def _poly_pow_linear(self, forms, exps: int, first: int) -> dict[int, tuple]:
        """Expand prod_m (sum_i forms[m][i] letter_i)^e_m over commuting letters,
        e_m and the result packed from field `first`."""
        addmul, normal = self._field.addmul, self._field.normal
        acc: dict[int, tuple] = {0: self._one}
        for m, form in enumerate(forms):
            e = exps >> 16 * (first + m) & 0xFFFF
            if not e:
                continue
            form = [(1 << 16 * (first + i), self._flat(f))
                    for i, f in enumerate(form) if not f.is_zero()]
            for _ in range(e):
                nxt: dict[int, tuple] = {}
                for mono, c in acc.items():
                    for letter, f in form:
                        addmul(nxt, mono + letter, c, f)
                acc = {mono: c for mono, c in zip(nxt, map(normal, nxt.values()))
                       if c is not None}
        return acc

    def _w_expansion(self, w: int, exps: int, dual: bool) -> tuple:
        """For the element of id w: w x^exps = (expansion in x) w, or, with
        dual set, y^exps w = w (expansion in y), as ((exponents, scalar), ...)
        packed like exps.  The letters expand through the rows of w^-1, or
        through its columns when dual is set."""
        key = exps | w << self._gshift
        cached = self._w_cache.get(key)
        if cached is None:
            # a unit coefficient is the shared unit, which the kernel never multiplies by
            one = self._one
            if not exps or w == self.W.identity:
                cached = ((exps, one),)
            else:
                inv = self.W.elements[self.W.inv(w)].mat
                flat = self._poly_pow_linear(list(zip(*inv)) if dual else inv, exps,
                                             2 + self.n if dual else 2)
                cached = tuple((m, one if c == one else c) for m, c in flat.items())
            self._w_cache[key] = cached
        return cached

    # -- the rewriting kernel ----------------------------------------------------------
    def yx_product(self, b: int, a: int) -> tuple:
        """Normal form of y^b x^a, with b and a packed in the y and the x
        fields, as packed terms (x, w, y, ((t/h power, scalar), ...))."""
        cached = self._yx_cache.get(b | a)
        if cached is not None:
            return cached
        W, gs, one = self.W, self._gshift, self._one
        if not b or not a:
            return self._yx_cache.setdefault(b | a, ((a, W.identity, b, ((0, one),)),))
        mul, addmul = self._field.mul, self._field.addmul
        # the first letters y_i and x_j, from the lowest set bit's field
        ey = 1 << ((b & -b).bit_length() - 1 & -16)
        ex = 1 << ((a & -a).bit_length() - 1 & -16)
        b1, a1 = b - ey, a - ex
        flat: dict[int, tuple] = {}

        # term 1: x_j (y_i x^{a1}) with y^{b1} still on the left
        for gam, v, eps, c_in in self.yx_product(ey, a1):
            for mu, v2, nu, c_left in self.yx_product(b1, gam + ex):
                # (x^mu v2 y^nu) (v y^eps): move y^nu across v
                base = mu + eps + (W.mul(v2, v) << gs)
                for delta, f in self._w_expansion(v, nu, True):
                    for th1, c1 in c_in:
                        c1 = c1 if f is one else mul(c1, f)
                        for th2, c2 in c_left:
                            addmul(flat, base + delta + th1 + th2, c1, c2)

        # term 2: y^{b1} C_{ij} x^{a1}
        for u, comm in self._commutators[ey | ex].items():
            for delta, f in self._w_expansion(u, b1, True):
                for gam, v, eps, c_in in self.yx_product(delta, a1):
                    base = eps + (W.mul(u, v) << gs)
                    for gam2, d in self._w_expansion(u, gam, False):
                        fd = f if d is one else d if f is one else mul(f, d)
                        for th1, c1 in comm:
                            c1 = c1 if fd is one else mul(c1, fd)
                            for th2, c2 in c_in:
                                addmul(flat, base + gam2 + th1 + th2, c1, c2)

        self._yx_cache[b | a] = result = self._by_monomial(flat)
        return result

    def multiply(self, A: CherElement, B: CherElement) -> CherElement:
        """A B, in the kernel's packed form until its terms are read."""
        # the field widens before any scalar of a factor is flattened
        need = lcm(1, *(c.conductor for e in (A, B)
                        if e._kernel is None or e._kernel[0] is not self._field
                        for p in e.terms.values() for c in p.values()))
        if self._field.n % need:
            self._set_field(lcm(self._field.n, need))
        (_, pa, wa), (_, pb, wb) = self._packed(A), self._packed(B)
        if wa + wb > 0xFFFF:    # the stored widths are bounds: refuse on the exact ones
            self._refuse_overflow(A, B)
        mul, addmul, one = self._field.mul, self._field.addmul, self._one
        gmul, gs, yx = self.W.mul, self._gshift, self.yx_product
        # expansions are read from _w_expansion's cache inline: the loop below
        # reads two per term of every normal form it meets
        expand, moved = self._w_expansion, self._w_cache.get
        flat: dict[int, tuple] = {}
        groups: dict[tuple, dict] = {}    # (w1, w2) -> {u: w1 u w2, shifted into the group field}
        for a1, w1, b1, p1 in pa:
            g1 = w1 << gs
            for a2, w2, b2, p2 in pb:
                scale = [(s1 + s2, mul(c1, c2)) for s1, c1 in p1 for s2, c2 in p2]
                group, g2 = groups.get((w1, w2)) or groups.setdefault((w1, w2), {}), w2 << gs
                # x^a1 w1 (y^b1 x^a2) w2 y^b2: push w1 right past x, pull w2 left past y
                for alpha, u, beta, coeffs in yx(b1, a2):
                    g = group.get(u)
                    if g is None:
                        g = group[u] = gmul(gmul(w1, u), w2) << gs
                    base = a1 + b2 + g
                    pull = moved(beta | g2) or expand(w2, beta, True)
                    for gam, d in moved(alpha | g1) or expand(w1, alpha, False):
                        for delta, f in pull:
                            df = f if d is one else d if f is one else mul(d, f)
                            key = base + gam + delta
                            for th2, s in scale:
                                s, k2 = s if df is one else mul(s, df), key + th2
                                for th1, c in coeffs:
                                    addmul(flat, k2 + th1, c, s)
        return CherElement(self, None, (self._field, self._by_monomial(flat), wa + wb))

    def commutator(self, A: CherElement, B: CherElement) -> CherElement:
        return self.multiply(A, B) - self.multiply(B, A)

    def check_rewrite_work(self, z1: CherElement, z2: CherElement, cap: int) -> None:
        """Raise CapExceededError when rewriting the bracket [z1, z2] could
        pass the cap.

        A dry run of both products through the packed `yx_product` recursion
        with every scalar dropped: a normal form becomes the set of its packed
        keys (monomial and t/h power).  Nothing cancels there, so each set
        contains the true support, and the count of accumulations is an upper
        bound on the real products' count.  The run stops as soon as the
        count passes the cap."""
        W, gs, xm, ym, th = self.W, self._gshift, self._xmask, self._ymask, 0xFFFFFFFF
        ident, expand, supports = W.identity, self._w_expansion, {}
        moves: dict[tuple, dict] = {}    # (v, dual) -> {w y^nu or w x^gam: keys moved across v}
        shifted: dict[tuple, list] = {}  # (exponent pair, v) -> its support moved across v
        work, degrees = 0, None

        def check():
            if work > cap:
                raise CapExceededError(f"poisson rewriting of y-degree {degrees[0]} against "
                                       f"x-degree {degrees[1]} passes the cap")

        def move(memo, hi, v, dual):
            """The keys of w y^nu v, for hi = w y^nu, when dual; else of v x^gam w."""
            if dual:
                g, terms = W.mul(hi >> gs, v), expand(v, hi & ym, True)
            else:
                g, terms = W.mul(v, hi >> gs), expand(v, hi & xm, False)
            memo[hi] = out = [(g << gs) + e for e, _ in terms]
            return out

        def moved(keys, v, dual):
            memo, keep = moves.setdefault((v, dual), {}), (xm if dual else ym) | th
            get, drop = memo.get, ~keep
            return [(k & keep) + m for k in keys
                    for m in get(k & drop) or move(memo, k & drop, v, dual)]

        def support(b, a):
            """The packed keys of y^b x^a's normal form, cancellation ignored."""
            nonlocal work
            out = supports.get(b | a)
            if out is not None:
                return out
            out = {a | b | ident << gs}
            if b and a:
                out = set()
                ey = 1 << ((b & -b).bit_length() - 1 & -16)
                ex = 1 << ((a & -a).bit_length() - 1 & -16)
                # term 1: y^{b1} x^{gam + e_j} from each key x^gam v y^eps of y_i x^{a1}
                for k1 in support(ey, a - ex):
                    v, a2 = k1 >> gs, (k1 & xm) + ex
                    keys = support(b - ey, a2)
                    if v != ident:
                        keys = shifted.get((b - ey | a2, v)) or \
                            shifted.setdefault((b - ey | a2, v), moved(keys, v, True))
                    out.update(map(((k1 & ym) + (k1 & th)).__add__, keys))
                    work += len(keys)
                    check()
                # term 2: y^{b1} C_{ij} x^{a1}
                for u, comm in self._commutators[ey | ex].items():
                    for delta, _ in expand(u, b - ey, True):
                        keys = support(delta, a - ex)
                        if u != ident:
                            keys = moved(keys, u, False)
                        for t, _ in comm:
                            out.update(map(t.__add__, keys))
                        work += len(keys) * len(comm)
                        check()
            supports[b | a] = out
            return out

        # no scalar is flattened here: the literals' fields may lie outside this one
        self._refuse_overflow(z1, z2)
        for left, right in ((z1, z2), (z2, z1)):
            degrees = (max((sum(b) for _, _, b in left.terms), default=0),
                       max((sum(a) for a, _, _ in right.terms), default=0))
            for (_, w1, b1), p1 in left.terms.items():
                for (a2, w2, _), p2 in right.terms.items():
                    for k in support(self._pack(b1, 2 + self.n), self._pack(a2, 2)):
                        work += len(p1) * len(p2) * len(expand(w1, k & xm, False)) \
                            * len(expand(w2, k & ym, True))
                    check()

    def lift(self, e: CherElement, target: "CherednikAlgebra") -> CherElement:
        """Reinterpret the normal-ordered monomials in another context."""
        if target.W is not self.W:
            raise CherednikError("lift requires the same group")
        return CherElement(target, dict(e.terms))


# ---------------------------------------------------------------------------
# grading and filtration

def euler_degree(e: CherElement):
    """Common Z-degree (x count minus y count), or None if inhomogeneous."""
    degs = {sum(a) - sum(b) for (a, _w, b) in e.terms}
    if not degs:
        return 0
    if len(degs) > 1:
        return None
    return degs.pop()


def filtration_degree(e: CherElement):
    if e.is_zero():
        return None
    return max(sum(a) + sum(b) for (a, _w, b) in e.terms)


def associated_graded_leading(e: CherElement, commutative: CherednikAlgebra | None = None) -> CherElement:
    """Top filtration layer of e, with t killed, in the undeformed model."""
    if commutative is None:
        commutative = CherednikAlgebra(e.algebra.W, ParameterK.zero(e.algebra.W), "t0")
    if e.is_zero():
        return commutative.zero()
    top = filtration_degree(e)
    return CherElement(commutative, {(a, w, b): {th: c for th, c in p.items() if not th[0]}
                                     for (a, w, b), p in e.terms.items()
                                     if sum(a) + sum(b) == top})


# ---------------------------------------------------------------------------
# Poisson bracket via the deformation limit

def poisson_bracket(z1: CherElement, z2: CherElement,
                    t_algebra: CherednikAlgebra | None = None) -> CherElement:
    """lim of [z1, z2]/t: commute in the t-deformed context, divide, set t=0."""
    base = z1.algebra
    if z2.algebra is not base:
        raise CherednikError("elements belong to different algebra contexts")
    if base.mode != "t0":
        raise CherednikError("poisson bracket starts from the undeformed mode")
    if t_algebra is None:
        t_algebra = CherednikAlgebra(base.W, base.k, "t")
    lifted1 = base.lift(z1, t_algebra)
    lifted2 = base.lift(z2, t_algebra)
    comm = t_algebra.commutator(lifted1, lifted2)
    out = {}
    for mono, p in comm.terms.items():
        if any(not i for i, _ in p):
            raise PoissonCompatibilityError(
                "inputs not Poisson-compatible (not central at the undeformed point)")
        out[mono] = {(0, j): c for (i, j), c in p.items() if i == 1}
    return CherElement(base, out)


# ---------------------------------------------------------------------------
# centrality

def _probes(alg: CherednikAlgebra) -> list[CherElement]:
    """Generators of the algebra: the letters x_i and y_i and the group's generators."""
    z = (0,) * alg.n
    return [alg.x(i) for i in range(alg.n)] + [alg.y(i) for i in range(alg.n)] + \
        [alg._term(z, g, z) for g in alg.W.generators]


def is_central(e: CherElement) -> bool:
    alg = e.algebra
    if alg.mode != "t0":
        raise CherednikError("centrality is an undeformed-mode question")
    return all(alg.commutator(e, p).is_zero() for p in _probes(alg))


def _monomials(alg: CherednikAlgebra, z_degree: int, filt_bound: int):
    n = alg.n

    def comps(total, slots):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in comps(total - first, slots - 1):
                yield (first,) + rest

    out = []
    for da in range(filt_bound + 1):
        db = da - z_degree
        if db < 0 or da + db > filt_bound:
            continue
        for a in comps(da, n):
            for b in comps(db, n):
                for g in range(alg.W.order):
                    out.append((a, g, b))
    out.sort(key=lambda m: (-(sum(m[0]) + sum(m[2])), m[0], m[2], m[1]))
    return out


def central_elements_bounded(W: ReflectionGroup, k: ParameterK, z_degree: int,
                             filt_bound: int, monomial_cap: int = 4000):
    """Solve the commutant conditions on the monomial span of one Z-degree."""
    alg = CherednikAlgebra(W, k, "t0")
    monos = _monomials(alg, z_degree, filt_bound)
    if not monos:
        return alg, []
    if len(monos) > monomial_cap:
        raise CherednikError("bound too large (configurable cap)")
    probes = _probes(alg)
    col_elems = [alg._term(*mono) for mono in monos]
    rows: dict[tuple[int, Monomial], list[CycNum]] = {}
    for pi, probe in enumerate(probes):
        for ci, col in enumerate(col_elems):
            comm = alg.commutator(probe, col)
            for mono, p in comm.terms.items():
                if p.keys() != {(0, 0)}:
                    raise CherednikError("unexpected deformation letter in t0 mode")
                row = rows.setdefault((pi, mono), [CycNum.zero()] * len(monos))
                row[ci] = p[0, 0]
    kernel = la.nullspace(tuple(tuple(rows[key]) for key in sorted(rows)), len(monos))
    basis = []
    for vecrow in kernel:
        basis.append(CherElement(alg, {mono: {(0, 0): c} for c, mono in zip(vecrow, monos)
                                       if not c.is_zero()}))
    return alg, basis


def _fraction_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    from math import isqrt
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def rank1_center_relation(k: ParameterK):
    """The quadric relation for the order-2 cyclic group in rank one.

    Finds the degree-zero central element with unit leading xy-term, squares
    it against x^2 * y^2, and returns the scalar defect together with the
    empirically calibrated half-difference parameter."""
    W = k.W
    if W.dim != 1 or W.order != 2:
        raise CherednikError("rank-1 relation needs the order-2 cyclic group")
    alg, basis = central_elements_bounded(W, k, 0, 2)
    xy = ((1,), W.identity, (1,))
    zcands = [e for e in basis if xy in e.terms]
    if len(zcands) != 1:
        raise CherednikError("central degree-0 normalization failed")
    Z = zcands[0]
    lead = Z.terms[xy][0, 0]
    Z = Z * lead.inverse()
    X = alg.x(0, 2)
    Y = alg.y(0, 2)
    R = Z * Z - X * Y
    ident = ((0,), W.identity, (0,))
    if any(m != ident for m in R.terms):
        raise CherednikError("relation defect is not a scalar (engine bug)")
    gamma = R.terms.get(ident, {}).get((0, 0), CycNum.zero())
    c = k.k(0, 0) - k.k(0, 1)
    record = {"gamma": gamma, "difference": c, "b": None, "b_over_difference": None}
    if not c.is_zero() and c.is_rational():
        ratio_sq = (gamma / (as_cyc(4) * c * c))
        if ratio_sq.is_rational():
            root = _fraction_sqrt(ratio_sq.as_fraction())
            if root is not None:
                b = as_cyc(root) * c
                if as_cyc(4) * b * b == gamma:
                    record["b"] = b
                    record["b_over_difference"] = as_cyc(root)
    return record


# ---------------------------------------------------------------------------
# the h^2-interpolation and its specializations

def rees_specialize(e: CherElement, lam) -> CherElement:
    """Substitute h -> lam, landing in the undeformed mode at parameter
    lam^2 * k."""
    alg = e.algebra
    if alg.mode != "hbar2":
        raise CherednikError("specialization starts from the h^2 mode")
    lam = as_cyc(lam)
    target = CherednikAlgebra(alg.W, alg.k.scaled(lam * lam), "t0")
    terms = {}
    for mono, p in e.terms.items():
        q = terms[mono] = {}
        for (i, j), c in p.items():
            _add_into(q, (i, 0), c * (lam ** j))
    return CherElement(target, terms)


# ---------------------------------------------------------------------------
# literal syntax: "x1^2 * w(g0 g1) * y2 + (3/2) t * w(e)"

# a scalar factor, whole in parentheses or bare from a sign, a digit or
# "Q(z_", is group 1 or 2, and cyc_parse reads it
_TOKEN = re.compile(r"\((.+)\)|([-\d].*|Q\(z_.*)|([xy])(\d+)(?:\^(\d+))?"
                    r"|w\(([^)]*)\)|([th])(?:\^(\d+))?")


def _split_top(text: str, sep: str) -> list[str]:
    """text split at each sep at parenthesis depth 0."""
    depth, cuts = 0, [-1]
    for i, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if ch == sep and not depth:
            cuts.append(i)
    return [text[a + 1:b] for a, b in zip(cuts, cuts[1:] + [len(text)])]


def parse_element(alg: CherednikAlgebra, text: str) -> CherElement:
    """The element of a literal.  Each term is one scalar times powers of t
    and h; the scalars are multiplied and summed in one field context over
    the lcm of the literal's own Q(z_N) conductors, which takes the algebra's
    cap, so a sum is refused where it would first need Phi_N."""
    n = lcm(1, *literal_fields(text))
    F = FlatField(n or 1, alg._cap)     # cyc_parse refuses Q(z_0)
    flat: dict = {}     # (monomial, (t power, h power)) -> the field's sum of scalars
    for chunk in _split_top(text, "+"):
        chunk = chunk.strip()
        if not chunk:
            raise CherednikError("empty term in element literal")
        coeff, th = F.one, [0, 0]
        a = [0] * alg.n
        b = [0] * alg.n
        g = alg.W.identity
        for factor in _split_top(chunk, "*"):
            factor = factor.strip()
            if not factor:
                raise CherednikError("empty factor in element literal")
            m = _TOKEN.fullmatch(factor)
            if not m:
                raise CherednikError(f"bad factor {factor!r}")
            try:
                if m.group(3) is not None:
                    idx = int(m.group(4)) - 1
                    if not 0 <= idx < alg.n:
                        raise CherednikError(f"letter index out of range in {factor!r}")
                    power = int(m.group(5) or 1)
                    if m.group(3) == "x":
                        a[idx] += power
                    else:
                        b[idx] += power
                elif m.group(6) is not None:
                    body = m.group(6).strip()
                    if body not in ("", "e"):
                        for tok in body.split():
                            if not re.fullmatch(r"g\d+", tok):
                                raise CherednikError(f"bad generator token {tok!r}")
                            gi = int(tok[1:])
                            if gi >= len(alg.W.generators):
                                raise CherednikError(f"generator index {gi} out of range")
                            g = alg.W.mul(g, alg.W.generators[gi])
                elif m.group(7) is not None:
                    th[m.group(7) == "h"] += int(m.group(8) or 1)
                else:
                    coeff = F.mul(coeff, F.flat(cyc_parse(m.group(1) or m.group(2))))
            except ValueError as exc:
                raise CherednikError("bad number in element literal: too many digits "
                                     "or a zero denominator") from exc
        # the product of two terms recurses once per unit of their combined
        # degree, so each term may use a quarter of the interpreter's stack
        if sum(a) + sum(b) > sys.getrecursionlimit() // 4:
            raise CherednikError(f"term degree {sum(a) + sum(b)} exceeds "
                                 f"{sys.getrecursionlimit() // 4}")
        # letters were accumulated in commuting blocks, so the term is the
        # normal-ordered monomial x^a * g * y^b
        F.addmul(flat, ((tuple(a), g, tuple(b)), tuple(th)), coeff, F.one)
    terms: dict[Monomial, dict] = {}
    for (mono, th), c in flat.items():
        c = F.normal(c)
        if c is not None:
            terms.setdefault(mono, {})[th] = F.cyc(c)
    return CherElement(alg, terms)


def format_element(e: CherElement) -> str:
    """Canonical literal form; group elements print as their generator words."""
    if e.is_zero():
        return "(0)"
    W = e.algebra.W
    parts = []
    for mono in sorted(e.terms, key=lambda m: (-(sum(m[0]) + sum(m[2])), m[0], m[2], m[1])):
        a, w, b = mono
        for (it, ih), c in sorted(e.terms[mono].items()):
            factors = [f"({num_str(c)})"]
            if it:
                factors.append("t" if it == 1 else f"t^{it}")
            if ih:
                factors.append("h" if ih == 1 else f"h^{ih}")
            for i, p in enumerate(a):
                if p:
                    factors.append(f"x{i+1}" if p == 1 else f"x{i+1}^{p}")
            factors.append(f"w({' '.join(f'g{j}' for j in W.words[w]) or 'e'})")
            for i, p in enumerate(b):
                if p:
                    factors.append(f"y{i+1}" if p == 1 else f"y{i+1}^{p}")
            parts.append(" * ".join(factors))
    return " + ".join(parts)
