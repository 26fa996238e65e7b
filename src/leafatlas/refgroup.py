"""Finite complex reflection groups as explicit matrix groups over Q(zeta).

Groups are fully enumerated by a breadth-first closure with a configurable
order cap.  The closure runs on ints over one field Q(zeta_N), N the lcm of
the generators' conductors: a candidate g*s is a flat tuple of power-basis
coordinates, row by row, with one denominator, formed from a plan of s made
once.  A group keeps these tuples, sorted into id order, and decodes an
element on first read.

Every query below is exact: reflections and their hyperplanes, the
intersection lattice with its parabolic subgroups and their classes (one
orbit walk and one closure per class), witness points, normalizers with
their coset quotients, and a catalog of standard groups G(de,e,n), Coxeter
types B/D, dihedral groups and the rank-two group generated by order-3
reflections on 4 hyperplanes.
"""

from __future__ import annotations

import gc
import re
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from math import gcd, isqrt, lcm
from operator import index as _as_index, itemgetter

from .exactnum import (CycNum, _phi_degree, _reduce_mod_phi, as_cyc,
                       from_flat, root_of_unity, primes, to_flat)
from . import linalg as la
from .linalg import Matrix, Vector

DEFAULT_ORDER_CAP = 10 ** 6


class GroupError(Exception):
    """Bad group spec or an operation outside the enumerated group."""


class CapExceededError(GroupError):
    """Group too large or infinite for the configured order cap."""


class GroupElement:
    """A matrix with its canonical key string.  Groups hand out elements only
    for their geometry; group operations work on ids."""

    __slots__ = ("mat", "key")

    def __init__(self, mat: Matrix, key: str | None = None):
        self.mat = mat
        self.key = key or f"{len(mat)}|" + ";".join(x.sort_key() for row in mat for x in row)

    def __repr__(self):
        return f"GroupElement({self.key})"


class Hyperplane:
    __slots__ = ("alpha", "alpha_vee", "e", "orbit_id", "pointwise", "key")

    def __init__(self, alpha: Vector, alpha_vee: Vector):
        self.alpha = alpha
        self.alpha_vee = alpha_vee
        self.key = tuple(x.sort_key() for x in alpha)
        self.e = 0
        self.orbit_id = -1
        self.pointwise: tuple[int, ...] = ()     # ids, the identity included


class Parabolic:
    """A parabolic subgroup.  By Steinberg's theorem it is determined by
    `inc`, the indices of the hyperplanes containing its fixed space (which
    is derived from `inc` on first use); `ids`, the sorted ids of its
    elements, also orders parabolics."""

    def __init__(self, group, ids, inc):
        self.group = group
        self.ids = tuple(sorted(ids))
        self.inc = inc

    def cut(self, rows=()):
        """V^P cut further by rows: one null space of P's alphas and rows."""
        W = self.group
        return la.nullspace(tuple(W.hyperplanes[i].alpha for i in sorted(self.inc)) + tuple(rows),
                            W.dim)

    @cached_property
    def fixed_space(self):
        return self.cut()

    @property
    def order(self) -> int:
        return len(self.ids)


def _normalize_line(v: Vector) -> Vector:
    lead = next((x for x in v if not x.is_zero()), None)
    if lead is None:
        raise GroupError("zero vector cannot be normalized")
    inv = lead.inverse()
    return tuple(inv * x for x in v)


def _proportional(r: Vector, lead: Vector, c: int) -> bool:
    """True iff r is a multiple of lead, whose entry c is nonzero, by
    cross-multiplication (no field inverse)."""
    return all(x * lead[c] == r[c] * y for x, y in zip(r, lead))


def _rank_one_shift(m: Matrix) -> Vector | None:
    """The first nonzero row of m - 1 if every row of m - 1 is a multiple of
    it (rank one), else None.  The scan stops at the first row that is not."""
    one = CycNum.one()
    lead = None
    for i, row in enumerate(m):
        r = tuple(x - one if j == i else x for j, x in enumerate(row))
        if lead is None:
            c = next((j for j, x in enumerate(r) if not x.is_zero()), None)
            if c is not None:
                lead = r
            continue
        if not _proportional(r, lead, c):
            return None
    return lead


class _Elements:
    """`W.elements`: a read-only sequence of flat tuples, decoded on first read."""

    def __init__(self, flat: list[tuple], decode):
        self._flat, self._decode, self._read = flat, decode, [None] * len(flat)

    def __len__(self) -> int:
        return len(self._flat)

    def __getitem__(self, i: int) -> GroupElement:
        if (g := self._read[_as_index(i)]) is None:
            g = self._read[i] = self._decode(self._flat[i])
        return g


class _ByKey:
    """`W.by_key`: the id of a key string.  Ids are in key order, so a key is
    found by bisection, forming only the keys it compares; ids found are kept."""

    def __init__(self, flat: list[tuple], key):
        self._flat, self._key, self._found = flat, key, {}

    def get(self, k: str, default=None):
        if isinstance(k, str) and k not in self._found:
            i = bisect_left(self._flat, k, key=self._key)
            self._found[k] = i if i < len(self._flat) and self._key(self._flat[i]) == k else None
        return default if self._found.get(k) is None else self._found[k]

    def __contains__(self, k: str) -> bool:
        return self.get(k) is not None

    def __getitem__(self, k: str) -> int:
        if (i := self.get(k)) is None:
            raise KeyError(k)
        return i


class ReflectionGroup:
    """The group generated by finite-order matrices s_0..s_(n-1), enumerated
    by one breadth-first closure.  An element is its id: its index in
    `elements`, which are in key order and decoded on first read, so sorting
    ids sorts keys, and `by_key` maps a key to its id by bisection.
    Operations take and return ids.  The closure is a tree: `_right[g*n + j]`
    is the id of g*s_j, `_tree[k]` that of the k-th element met, and
    `_steps[k] = p*n + j` when met as p*s_j; `field` is the N of Q(zeta_N)."""

    def __init__(self, dim: int, generators, order_cap: int = DEFAULT_ORDER_CAP,
                 name: str = ""):
        self.dim = dim
        self.name = name
        n = len(generators)
        collecting = gc.isenabled()
        gc.disable()        # the closure's tuples all live on: no collector pass walks them
        try:
            self.field = field = _conductor(generators)
            phi = _phi_degree(field)
            plans = [_plan(s, field, phi) for s in generators]
            one = [0] * (dim * dim * phi) + [1]
            for i in range(dim):
                one[(i * dim + i) * phi] = 1
            found = [tuple(one)]
            index = {found[0]: 0}                   # discovery indices
            right, steps = array("l"), array("l", [-1])
            for p, cur in enumerate(found):
                for j, plan in enumerate(plans):
                    g = _times(cur, plan, dim * phi)
                    o = index.setdefault(g, len(found))
                    if o == len(found):
                        if o >= order_cap:
                            raise CapExceededError("group too large or infinite")
                        found.append(g)
                        steps.append(p * n + j)
                    right.append(o)
            del index
            passes = _trace_test(dim, field, phi)
            candidates = [o for o, t in enumerate(found) if passes(t)]
            key, decode = _decoder(dim, field, phi)
            # per id, when met; made before the keys (made after, they raised peak RSS)
            old = list(range(len(found)))
            old.sort(key=list(map(key, found)).__getitem__)
            self._flat = [found[o] for o in old]
            self.elements = _Elements(self._flat, decode)
            self.by_key = _ByKey(self._flat, key)
        finally:
            if collecting:
                gc.enable()
        self._tree = array("l", [0]) * len(old)
        for i, o in enumerate(old):
            self._tree[o] = i
        self._right = array("l", [self._tree[right[o * n + j]] for o in old for j in range(n)])
        self._steps = array("l", [-1] + [self._tree[s // n] * n + s % n for s in steps[1:]])
        self.identity = self._tree[0]
        self.generators = tuple(self._tree[o] for o in right[:n])
        # s_j^-1 is the one x with x s_j = 1
        self._generator_inverses = [self._right[j::n].index(self.identity) for j in range(n)]
        self._candidates = sorted(self._tree[o] for o in candidates)
        self._reflections = None
        self._hyperplanes = None
        self._classes = None
        self._normalizers: dict[frozenset[int], CosetQuotient] = {}

    @property
    def order(self) -> int:
        return len(self._flat)

    # -- the closure tree ---------------------------------------------------------
    def _along_tree(self, first, step) -> list:
        """Per id: `first` at the identity and step(value at p, j) at p*s_j."""
        n, out = len(self.generators), [first] * self.order
        for g, s in zip(self._tree[1:], self._steps[1:]):
            out[g] = step(out[s // n], s % n)
        return out

    @cached_property
    def words(self) -> list[tuple[int, ...]]:
        """Per id, the generator indices of the element's tree path, a shortest word."""
        return self._along_tree((), lambda w, j: w + (j,))

    @cached_property
    def _inverses(self) -> list[int]:
        # (p s_j)^-1 = s_j^-1 p^-1
        s_inv = self._generator_inverses
        return self._along_tree(self.identity, lambda x, j: self.mul(s_inv[j], x))

    def extend(self, images, target: "ReflectionGroup | None" = None) -> list[int]:
        """Per id, the id in target (W itself by default) of the product of
        images along the element's tree word, where images[j] stands for
        generator j.  For a homomorphism, such as conjugation by a normalizing
        matrix, this is the image of every element."""
        target = target or self
        return self._along_tree(target.identity, lambda x, j: target.mul(x, images[j]))

    # -- basic group operations ------------------------------------------------
    def mul(self, g: int, h: int) -> int:
        """g*h: g moved along h's word through the table of g*s_j."""
        right, n = self._right, len(self.generators)
        for j in self.words[h]:
            g = right[g * n + j]
        return g

    def inv(self, g: int) -> int:
        return self._inverses[g]

    def conj(self, g: int, by: int) -> int:
        return self.mul(self.mul(by, g), self.inv(by))

    # -- reflections and hyperplanes --------------------------------------------
    def _compute_reflections(self):
        """The reflections, in id order, and their hyperplanes.  Only the
        closure's `_candidates` (see `_trace_test`) are tested.  A
        reflection's first nonzero row of g - 1 is matched against the
        hyperplanes with its support; only a new hyperplane normalizes alpha
        and alpha_vee, the column of g - 1 at that row's first nonzero index.
        No null space is taken; `verify` keeps the whole-group scan as the oracle."""
        refl = []
        hyps: dict[tuple, list[Hyperplane]] = {}    # by the support of alpha
        one = CycNum.one()
        for g in self._candidates:
            m = self.elements[g].mat
            r = _rank_one_shift(m)
            if r is None:
                continue
            support = tuple(j for j, x in enumerate(r) if not x.is_zero())
            bucket = hyps.setdefault(support, [])
            c = support[0]
            H = next((H for H in bucket if _proportional(r, H.alpha, c)), None)
            if H is None:
                col = tuple(row[c] - one if i == c else row[c] for i, row in enumerate(m))
                H = Hyperplane(_normalize_line(r), _normalize_line(col))
                bucket.append(H)
            refl.append((g, H))
        ordered = tuple(sorted(chain.from_iterable(hyps.values()), key=lambda H: H.key))
        # g != 1 fixing H pointwise has rank(g - 1) = 1, so it is a reflection
        # bucketed under H: the pointwise stabilizer is read off the list
        for H in ordered:
            H.pointwise = tuple(sorted([self.identity] + [g for g, K in refl if K is H]))
            H.e = len(H.pointwise)
        self._hyperplanes = ordered
        self._reflections = tuple(refl)
        index = {H: i for i, H in enumerate(ordered)}
        self._hyperplane_of = {g: index[H] for g, H in refl}     # reflection id -> index
        inv = self._generator_inverses
        self._generator_perms = tuple(
            self.hyperplane_perm(lambda g: self.mul(self.mul(s, g), inv[j]))
            for j, s in enumerate(self.generators))
        # W-orbits of hyperplanes, numbered by their first hyperplane
        count = 0
        for i, H in enumerate(ordered):
            if H.orbit_id < 0:
                for (j,) in _orbit(frozenset((i,)), self._generator_perms):
                    ordered[j].orbit_id = count
                count += 1
        self._orbit_count = count

    @property
    def reflections(self):
        if self._reflections is None:
            self._compute_reflections()
        return self._reflections

    @property
    def hyperplanes(self):
        if self._hyperplanes is None:
            self._compute_reflections()
        return self._hyperplanes

    @property
    def hyperplane_orbit_count(self) -> int:
        self.hyperplanes
        return self._orbit_count

    def hyperplane_perm(self, conj) -> tuple[int, ...]:
        """The permutation of hyperplane indices induced by a matrix m that
        normalizes W, given as conj, the id map g -> m g m^-1: entry i is the
        index of m(H_i), the hyperplane of m s m^-1 for a reflection s on H_i."""
        return tuple(self._hyperplane_of[conj(next(s for s in H.pointwise if s != self.identity))]
                     for H in self.hyperplanes)

    def generated_by_reflections(self) -> bool:
        """True iff W is generated by its reflections.  When the generators
        W was closed from are all reflections this holds by construction and
        no closure runs; otherwise W is closed under all of its reflections.
        `verify` always closes them, breadth first, as the oracle."""
        refl = [s for s, _ in self.reflections]
        if self.generators and set(self.generators) <= set(refl):
            return True
        return len(_close(self, refl)[0]) == self.order

    # -- witness points ----------------------------------------------------------
    def witness_point(self, basis) -> Vector:
        """Deterministic generic point of span(basis), avoiding every
        reflecting hyperplane that does not contain the subspace."""
        inc = self.incidence(basis)
        return _prime_weight_point(self.dim, basis, [
            H.alpha for i, H in enumerate(self.hyperplanes) if i not in inc])

    # -- stabilizers ---------------------------------------------------------------
    def incidence(self, basis) -> frozenset[int]:
        """Indices into `hyperplanes` of the hyperplanes containing span(basis)."""
        return frozenset(i for i, H in enumerate(self.hyperplanes)
                         if all(la.dot(H.alpha, b).is_zero() for b in basis))

    def stabilizer_keys(self, v: Vector) -> frozenset[int]:
        """Whole-group scan for the ids of the stabilizer of v (the reference
        oracle)."""
        return frozenset(i for i, g in enumerate(self.elements) if la.mat_vec(g.mat, v) == v)

    def dual_stabilizer_keys(self, c: Vector) -> frozenset[int]:
        return frozenset(i for i, g in enumerate(self.elements) if la.covec_mat(c, g.mat) == c)

    def pointwise_stabilizer(self, basis) -> Parabolic:
        """The pointwise stabilizer of span(basis)."""
        return self._parabolic_of(self.incidence(basis))

    def _parabolic_of(self, inc: frozenset[int]) -> Parabolic:
        """The pointwise stabilizer of the flat cut out by the hyperplanes of
        `inc`, which must be all the hyperplanes containing that flat.  By
        Steinberg's theorem it is generated by their reflections; this needs
        W to be generated by its reflections, which close_group enforces."""
        return Parabolic(self, _close(self, [s for s, _ in self.reflections
                                             if self._hyperplane_of[s] in inc])[0], inc)

    def setwise_stabilizer_keys(self, basis) -> frozenset[int]:
        """Whole-group scan for the ids of the setwise stabilizer of
        span(basis) (the reference oracle)."""
        if not basis:
            return frozenset(range(self.order))
        return frozenset(i for i, g in enumerate(self.elements)
                         if la.span([la.mat_vec(g.mat, b) for b in basis]) == basis)

    # -- intersection lattice and parabolic subgroups --------------------------------
    def flats(self) -> tuple[frozenset[int], ...]:
        """The intersection lattice, each flat given by the indices of the
        hyperplanes containing it, as met by `parabolic_classes`."""
        self.parabolic_classes()
        return tuple(sorted(self._parabolic_by_inc, key=sorted))

    def parabolic_subgroups(self) -> tuple[Parabolic, ...]:
        """Every parabolic subgroup (one per flat), by (-fixed dim, ids)."""
        self.parabolic_classes()
        return self._parabolics

    def parabolic(self, inc: frozenset[int]) -> Parabolic:
        """The parabolic subgroup whose fixed space lies in exactly the
        hyperplanes of `inc`."""
        self.parabolic_classes()
        return self._parabolic_by_inc[inc]

    def parabolic_classes(self) -> tuple["ParabolicClass", ...]:
        """Conjugacy classes of parabolics, and the lattice, in one walk over
        the W-orbits of flats (incidence sets).  The flat cut out by an
        orbit's first flat R and a hyperplane outside it, if new, starts an
        orbit, walked once under the generators' hyperplane permutations with
        a conjugator x (a product of generators) per member taking R to it.
        Only R is closed from its reflections, and keeps the flat just solved
        as its fixed space; a member's ids are x R x^-1.  The representative
        P is the member with the least ids, each member Q carries an x with
        x P x^-1 = Q, and classes go by (-fixed dim, P.ids)."""
        if self._classes is None:
            roots = [H.alpha for H in self.hyperplanes]
            classes, starts = [], []
            self._class_by_inc, self._parabolic_by_inc = {}, {}

            def walk(start, flat):
                conj = self._carried_orbit(start)
                R = self._parabolic_of(start)
                R.fixed_space = flat                # so it is not solved again
                members = sorted([R] + [Parabolic(self, (self.conj(p, x) for p in R.ids), inc)
                                        for inc, x in conj.items() if inc != start],
                                 key=lambda Q: Q.ids)
                back = self.inv(conj[members[0].inc])
                c = ParabolicClass(members[0], tuple(members),
                                   {inc: self.mul(x, back) for inc, x in conj.items()},
                                   len(R.fixed_space))
                classes.append(c)
                starts.append(start)
                self._class_by_inc.update(dict.fromkeys(conj, c))
                self._parabolic_by_inc.update((Q.inc, Q) for Q in members)

            walk(frozenset(), la.identity(self.dim))
            for start in starts:
                covered = set(start)
                for j in range(len(roots)):
                    if j not in covered:
                        flat = la.nullspace([roots[i] for i in sorted(start | {j})], self.dim)
                        inc = self.incidence(flat)
                        covered |= inc
                        if inc not in self._class_by_inc:
                            walk(inc, flat)
            classes.sort(key=lambda c: (-c.fixed_dim, c.representative.ids))
            for i, c in enumerate(classes):
                c.class_id = i
            self._classes = tuple(classes)
            self._parabolics = tuple(sorted(self._parabolic_by_inc.values(), key=lambda Q: (
                -self._class_by_inc[Q.inc].fixed_dim, Q.ids)))
        return self._classes

    def class_of(self, P: Parabolic) -> "ParabolicClass":
        self.parabolic_classes()
        if P.group is not self:
            raise GroupError("subgroup is not a parabolic of this group")
        return self._class_by_inc[P.inc]

    def _carried_orbit(self, start: frozenset[int]) -> dict[frozenset[int], int]:
        """start's orbit under the generators' hyperplane permutations, breadth
        first, as {m: x_m}, x_m a product of generators taking start to m."""
        carry = {}
        for inc, step in _orbit(start, self._generator_perms).items():
            carry[inc] = self.identity if step is None else \
                self.mul(self.generators[step[1]], carry[step[0]])
        return carry

    # -- normalizers -------------------------------------------------------------
    def normalizer(self, P: Parabolic) -> "CosetQuotient":
        """N_W(P), the g with g V^P = V^P: by Steinberg's theorem the stabilizer
        of P.inc, closed once per incidence set from Schreier's generators
        x_(s m)^-1 s x_m, m in P.inc's orbit and s a generator."""
        inc = P.inc
        if inc not in self._normalizers:
            x = self._carried_orbit(inc)
            schreier = [self.mul(self.inv(x[frozenset(q[i] for i in m)]), self.mul(s, x[m]))
                        for m in x for s, q in zip(self.generators, self._generator_perms)]
            self._normalizers[inc] = CosetQuotient(self, _close(self, schreier)[0], P)
        return self._normalizers[inc]


class ParabolicClass:
    def __init__(self, representative: Parabolic, members, conjugators, fixed_dim: int):
        self.representative = representative
        self.members = members
        self.conjugators: dict[frozenset[int], int] = conjugators
        self.fixed_dim = fixed_dim
        self.class_id = -1


class CosetQuotient:
    """N_W(P)/P as explicit cosets of element ids, numbered by their least
    id, which is also the coset's representative."""

    def __init__(self, group: ReflectionGroup, subgroup, P: Parabolic):
        self.group = group
        self.subgroup = tuple(sorted(subgroup))
        self._coset: dict[int, int] = {}
        cosets = []
        for i in self.subgroup:
            if i in self._coset:
                continue
            ids = frozenset(group.mul(i, p) for p in P.ids)
            self._coset.update(dict.fromkeys(ids, len(cosets)))
            cosets.append((min(ids), ids))
        self.cosets = tuple(cosets)

    @property
    def order(self) -> int:
        return len(self.cosets)

    def rep(self, idx: int) -> int:
        return self.cosets[idx][0]

    def coset_of(self, g: int) -> int:
        return self._coset[g]


# ---------------------------------------------------------------------------
# closure

def _conductor(mats) -> int:
    """The lcm N of the entries' conductors: every entry lies in Q(zeta_N)."""
    return lcm(1, *(x.conductor for m in mats for row in m for x in row))


def _multiplier(x: CycNum, field: int, phi: int, den: int) -> tuple:
    """Multiplication by den * x on Q(zeta_field) over the power basis, as the
    nonzero (a, b, c) of its phi x phi integer matrix: c is coordinate a of
    den * x * zeta^b.  den must be a multiple of x.den."""
    t = to_flat(x, field)
    scale = den // t[-1]
    out = []
    for b in range(phi):
        image = _reduce_mod_phi({e + b: c * scale for e, c in enumerate(t[:-1]) if c}, field)
        out += [(a, b, c) for a, c in sorted(image.items())]
    return tuple(out)


def _plan(s: Matrix, field: int, phi: int) -> tuple:
    """How the closure forms g*s on flat coordinates (see `_times`), as
    (D, take, negs, terms) with D the common denominator of s.

    Entry (i, j) of g*s sums g[i][l] s[l][j] over the nonzero s[l][j], so row
    i of g*s is formed from row i of g alone; terms holds the nonzero (o, k,
    c) of these products over the power basis: c times coordinate k of a row
    of g adds to coordinate o of that row of g*s (see `_multiplier`).  When D = 1
    and this moves every coordinate of g to one place, up to sign (s is
    monomial and each multiplier a signed permutation of the power basis),
    take picks the coordinates of g*s and its denominator in one call and
    negs lists the places to negate; otherwise take is None."""
    dim, m = len(s), len(s) * phi
    D = lcm(*(x.den for row in s for x in row))
    columns = [[(l * phi, _multiplier(s[l][j], field, phi, D))
                for l in range(dim) if not s[l][j].is_zero()] for j in range(dim)]
    terms = tuple((j * phi + a, start + b, c) for j, col in enumerate(columns)
                  for start, block in col for a, b, c in block)
    if D == 1 and dim and all(len(col) == 1 and len(col[0][1]) == phi and
                              all(c * c == 1 for _, _, c in col[0][1]) for col in columns):
        # each block has phi entries +-1 and is invertible: a signed
        # permutation, so each place o of a row has one term
        rows = range(0, dim * m, m)
        src = [r + k for r in rows for _, k, _ in sorted(terms)]
        negs = tuple(r + o for r in rows for o, _, c in terms if c < 0)
        return D, itemgetter(*src, dim * m), negs, terms
    return D, None, (), terms


def _times(t: tuple, plan, m: int) -> tuple:
    """g*s from g's flat coordinates t for s's `_plan`.  Coordinates are
    row-major, phi ints per entry over the power basis (m = dim * phi per
    row), with the denominator last; no factor divides all of them."""
    D, take, negs, terms = plan
    if take is not None:
        if not negs:
            return take(t)
        out = list(take(t))
        for k in negs:
            out[k] = -out[k]
        return tuple(out)
    out = []
    for r in range(0, len(t) - 1, m):
        acc = [0] * m
        for o, k, c in terms:
            acc[o] += c * t[r + k]
        out += acc
    d = t[-1] * D
    out.append(d)
    if d > 1:
        g = gcd(*out)
        if g > 1:
            return tuple(c // g for c in out)
    return tuple(out)


def _trace_test(dim: int, field: int, phi: int):
    """passes(t): whether the element of flat coordinates t (see `_times`)
    has trace dim - 1 + zeta, zeta a root of unity other than 1, that is one
    of the +-zeta_field^k.  Every reflection passes (its eigenvalues are 1,
    ..., 1, zeta); some other elements do too.  The verdict is kept per
    diagonal, its coordinates with the denominator (D5 has 147 for 1920
    elements)."""
    roots = {tuple(c.get(a, 0) for a in range(phi))
             for c in (_reduce_mod_phi({k: s}, field) for k in range(field) for s in (1, -1))}
    roots.discard((1,) + (0,) * (phi - 1))
    step, shift, verdicts = (dim + 1) * phi, dim - 1, {}
    diagonal = itemgetter(*[i * step + a for i in range(dim) for a in range(phi)], -1)

    def passes(t):
        k = diagonal(t)
        v = verdicts.get(k)
        if v is None:
            d = t[-1]
            tr = [sum(t[a:-1:step]) for a in range(phi)]     # the diagonal's coordinates
            tr[0] -= shift * d
            v = verdicts[k] = not any(c % d for c in tr) and tuple(c // d for c in tr) in roots
        return v
    return passes


def _decoder(dim: int, field: int, phi: int):
    """key(t) and decode(t): the key string and the GroupElement of flat
    coordinates t (see `_times`).  A row of t, with the denominator, is
    converted once into its CycNums and its part of the key string, and so
    is an entry; entries equal as values share one CycNum, whose key string
    is formatted once."""
    m = dim * phi
    starts, prefix = range(0, m * dim, m or 1), f"{dim}|"
    rows, entries, values = {}, {}, {}

    def row(seg, den):
        xs = []
        for i in range(0, m, phi):
            key = (seg[i:i + phi], den)
            x = entries.get(key)
            if x is None:
                x = from_flat(key[0] + (den,), field)
                x = entries[key] = values.setdefault(x, x)
            xs.append(x)
        out = rows[seg, den] = (tuple(xs), ";".join([x.sort_key() for x in xs]))
        return out

    def split(t):
        den = t[-1]
        return [rows.get((t[k:k + m], den)) or row(t[k:k + m], den) for k in starts]

    def key(t):
        return prefix + ";".join([s for _, s in split(t)])
    return key, lambda t: GroupElement(tuple([xs for xs, _ in split(t)]), key(t))


def _close(group: ReflectionGroup, gens) -> tuple[frozenset[int], list[int]]:
    """Dimino's algorithm: the ids of the subgroup generated by gens, and the
    kept generators, those not reached by the ones before them.  A kept s
    adjoins right cosets of the subgroup H closed so far: walking the cosets
    from H itself, H*x*t is a new one whenever t is kept and x*t is not yet
    reached."""
    mul, elements, kept = group.mul, [group.identity], []
    reached = set(elements)
    for s in gens:
        if s in reached:
            continue
        kept.append(s)
        H, pos = elements[:], 0
        while pos < len(elements):          # the coset at pos starts with its x
            x = elements[pos]
            for t in kept:
                y = mul(x, t)
                if y not in reached:
                    coset = [mul(h, y) for h in H]
                    elements += coset
                    reached.update(coset)
            pos += len(H)
    return frozenset(reached), kept


def _orbit(start: frozenset[int], perms) -> dict:
    """The orbit of a set of hyperplane indices under index permutations, as
    {member: (parent, j)} in breadth-first order, where member is the image of
    parent under perms[j]; the start maps to None."""
    tree = {start: None}
    queue = [start]
    for cur in queue:
        for j, p in enumerate(perms):
            moved = frozenset(p[i] for i in cur)
            if moved not in tree:
                tree[moved] = (cur, j)
                queue.append(moved)
    return tree


def _prime_weight_point(dim: int, basis, avoid) -> Vector:
    """The first combination of basis, with consecutive primes as weights,
    on which no vector of avoid vanishes (deterministic generic point)."""
    if not basis:
        return la.zero_vector(dim)
    for attempt in range(64):
        ws = primes(len(basis) + attempt)[attempt:]
        v = la.zero_vector(dim)
        for w, b in zip(ws, basis):
            v = la.add_vec(v, la.scale_vec(as_cyc(w), b))
        if all(not la.dot(a, v).is_zero() for a in avoid):
            return v
    raise GroupError("witness search exhausted its schedule")


def _matrix_order(m: Matrix, bound: int) -> int | None:
    """The order of m, or None when its powers pass bound without reaching 1."""
    ident = la.identity(len(m))
    acc, k = m, 1
    while acc != ident:
        if k >= bound:
            return None
        acc = la.mat_mul(acc, m)
        k += 1
    return k


def _finite_order_bound(dim: int, mats) -> int:
    """L = lcm{d : phi(d) <= dim * phi(N)}, N the lcm of the entries'
    conductors.  An eigenvalue of a finite-order element of GL_dim(Q(zeta_N))
    is a d-th root of unity of degree at most dim over Q(zeta_N), so
    phi(d) <= dim * phi(N), and the element's order divides L.  Since
    phi(p^a) divides phi(d) when p^a divides d, L is the product over primes
    p of the largest p^a with phi(p^a) <= dim * phi(N)."""
    budget = dim * _phi_degree(_conductor(mats))
    out = 1
    for p in range(2, budget + 2):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        pk = p
        while pk * (p - 1) <= budget:
            pk *= p
        out *= pk
    return out


def close_group(generators: list[Matrix], order_cap: int = DEFAULT_ORDER_CAP,
                name: str = "") -> ReflectionGroup:
    """Enumerate the group generated by invertible finite-order matrices."""
    if not generators:
        raise GroupError("need at least one generator")
    dim = len(generators[0])
    if dim < 1:
        raise GroupError("generator 0 is an empty matrix")
    for i, m in enumerate(generators):
        if len(m) != dim or any(len(row) != dim for row in m):
            raise GroupError(f"generator {i} is not a {dim}x{dim} matrix")
    gens = [la.mat(m) for m in generators]
    _check_field(_conductor(gens), order_cap)
    for i, m in enumerate(gens):
        if la.det(m).is_zero():
            raise GroupError(f"generator {i} is singular")
    bound = _finite_order_bound(dim, gens)
    for i, g in enumerate(gens):
        if _matrix_order(g, min(bound, order_cap)) is None:
            if bound <= order_cap:
                raise GroupError(f"generator {i} has infinite order")
            raise CapExceededError("group too large or infinite")
    W = ReflectionGroup(dim, gens, order_cap, name=name)
    if not W.generated_by_reflections():
        raise GroupError("group is not generated by its reflections")
    return W


# ---------------------------------------------------------------------------
# parameters

class ParameterK:
    """Reflection parameters: one exact value per (hyperplane orbit, residue)."""

    def __init__(self, W: ReflectionGroup, values: dict[tuple[int, int], CycNum] | None = None):
        self.W = W
        self.orbit_e: dict[int, int] = {}
        for H in W.hyperplanes:
            self.orbit_e.setdefault(H.orbit_id, H.e)
        self.values: dict[tuple[int, int], CycNum] = {}
        for oid, e in self.orbit_e.items():
            for j in range(e):
                self.values[(oid, j)] = CycNum.zero()
        if values:
            for (oid, j), v in values.items():
                if oid not in self.orbit_e:
                    raise GroupError(f"unknown hyperplane orbit {oid}")
                self.values[(oid, j % self.orbit_e[oid])] = as_cyc(v)

    @staticmethod
    def zero(W: ReflectionGroup) -> "ParameterK":
        return ParameterK(W)

    @staticmethod
    def from_lists(W: ReflectionGroup, per_orbit: list[list]) -> "ParameterK":
        """One list per hyperplane orbit, in orbit order, of at most e values
        (e the orbit's order); a short list is padded with zeros."""
        vals = {}
        orbit_e = {H.orbit_id: H.e for H in W.hyperplanes}
        if len(per_orbit) != len(orbit_e):
            raise GroupError(f"expected {len(orbit_e)} orbit value lists")
        for oid, lst in zip(sorted(orbit_e), per_orbit):
            if len(lst) > orbit_e[oid]:
                raise GroupError(f"orbit {oid} takes at most {orbit_e[oid]} values, "
                                 f"got {len(lst)}")
            for j, v in enumerate(lst):
                vals[(oid, j)] = as_cyc(v)
        return ParameterK(W, vals)

    def k(self, orbit_id: int, j: int) -> CycNum:
        return self.values[(orbit_id, j % self.orbit_e[orbit_id])]

    def k_H(self, H: Hyperplane, j: int) -> CycNum:
        return self.k(H.orbit_id, j)

    def shifted(self, per_orbit_shift: dict[int, CycNum]) -> "ParameterK":
        vals = {}
        for (oid, j), v in self.values.items():
            vals[(oid, j)] = v + per_orbit_shift.get(oid, CycNum.zero())
        return ParameterK(self.W, vals)

    def scaled(self, factor) -> "ParameterK":
        f = as_cyc(factor)
        return ParameterK(self.W, {kk: f * v for kk, v in self.values.items()})


# ---------------------------------------------------------------------------
# catalog

def _perm_matrix(n: int, i: int, j: int) -> Matrix:
    rows = [[CycNum.one() if (r == c and r not in (i, j)) or (r, c) in ((i, j), (j, i))
             else CycNum.zero() for c in range(n)] for r in range(n)]
    return la.mat(rows)


def _diag(entries) -> Matrix:
    n = len(entries)
    return la.mat([[entries[r] if r == c else 0 for c in range(n)] for r in range(n)])


def _check_order(factors, divisor: int, order_cap: int) -> None:
    """Raise CapExceededError when the product of factors (all >= 1), divided
    by divisor, is above the cap; the product stops as soon as it is."""
    order = 1
    for f in factors:
        order *= f
        if order > order_cap * divisor:
            raise CapExceededError("group too large or infinite")


def _check_field(n: int, cap: int) -> None:
    """Refuse Q(zeta_n) when phi(n)^2 is above the cap: an element has phi(n)
    coefficients and a product costs about phi(n)^2 operations.  Since
    phi(n)^2 >= n/2, an n above 2*cap is refused before it is factored."""
    phi = _phi_degree(n) if n <= 2 * cap else n
    if phi * phi > cap:
        raise CapExceededError("cyclotomic field degree squared is above the cap")


def _gdeen_generators(de: int, e: int, n: int, order_cap: int) -> list[Matrix]:
    """Generators of G(de,e,n), after checking its order (de)^n n!/e and its
    field Q(zeta_de) against the cap."""
    if min(de, e, n) < 1:
        raise GroupError("G(de,e,n) needs de, e, n >= 1")
    if de % e:
        raise GroupError("e must divide de in G(de,e,n)")
    if e > 1 and n < 2:
        raise GroupError("G(de,e,1) needs e = 1 form; use cyclic(d)")
    _check_order(chain(repeat(de, n), range(2, n + 1)), e, order_cap)
    _check_field(de, order_cap)
    d = de // e
    gens: list[Matrix] = []
    for j in range(n - 1):
        gens.append(_perm_matrix(n, j, j + 1))
    if d > 1:
        gens.append(_diag([root_of_unity(d)] + [1] * (n - 1)))
    if e > 1:
        z = root_of_unity(de)
        twisted = [[CycNum.zero() for _ in range(n)] for _ in range(n)]
        twisted[0][1] = z.inverse()
        twisted[1][0] = z
        for r in range(2, n):
            twisted[r][r] = CycNum.one()
        gens.append(la.mat(twisted))
    if not gens:
        gens.append(_diag([1] * n))
    return gens


def _dihedral_generators(d: int) -> list[Matrix]:
    xi = root_of_unity(2 * d)
    def s(j):
        return la.mat([[0, xi ** j], [xi ** (-j), 0]])
    return [s(0), s(2)]


def dihedral_tau(d: int) -> Matrix:
    """The reflection swapping the two dihedral generators (not in W)."""
    xi = root_of_unity(2 * d)
    return la.mat([[0, xi], [xi ** (-1), 0]])


def _g4_generators() -> list[Matrix]:
    # rank-two group of order 24 with 8 order-3 reflections, realized from
    # the quaternion double cover twisted by an order-3 character
    i = root_of_unity(4)
    z = root_of_unity(3)
    half = Fraction(1, 2)
    def psi(a, b, c, d):
        return la.mat([[as_cyc(a) + as_cyc(b) * i, as_cyc(c) + as_cyc(d) * i],
                       [as_cyc(-c) + as_cyc(d) * i, as_cyc(a) - as_cyc(b) * i]])
    s = tuple(tuple(z * x for x in row) for row in psi(-half, half, half, half))
    t = tuple(tuple((z * z) * x for x in row) for row in psi(-half, half, half, -half))
    return [s, t]


def _catalog_match(pattern: str, s: str, flags=0) -> tuple[int, ...] | None:
    """The integers of a catalog name matching pattern, or None."""
    m = re.fullmatch(pattern, s, flags)
    if m is None:
        return None
    try:
        return tuple(map(int, m.groups()))
    except ValueError as exc:       # past the interpreter's digit limit
        raise GroupError("integer too long in group name") from exc


def catalog(name: str, order_cap: int = DEFAULT_ORDER_CAP) -> ReflectionGroup:
    """Build a named group: B(n), D(n), G4, dihedral(d), cyclic(e), G(de,e,n).
    Each order and each field's conductor has a closed form, checked against
    the cap before any closure."""
    s = name.strip().replace(" ", "")
    m = _catalog_match(r"[Bb]\(?(\d+)\)?", s)
    if m:
        n, = m
        if n < 1:
            raise GroupError("B(n) needs n >= 1")
        return close_group(_gdeen_generators(2, 1, n, order_cap), order_cap, name=f"B{n}")
    m = _catalog_match(r"[Dd]\(?(\d+)\)?", s)
    if m:
        n, = m
        if n < 2:
            raise GroupError("D(n) needs n >= 2")
        return close_group(_gdeen_generators(2, 2, n, order_cap), order_cap, name=f"D{n}")
    m = _catalog_match(r"(?:dihedral|dih)\(?(\d+)\)?", s, re.IGNORECASE)
    if m:
        d, = m
        if d < 2:
            raise GroupError("dihedral(d) needs d >= 2")
        _check_order([2 * d], 1, order_cap)
        _check_field(2 * d, order_cap)
        return close_group(_dihedral_generators(d), order_cap, name=f"dihedral{d}")
    m = _catalog_match(r"(?:cyclic|mu)\(?(\d+)\)?", s, re.IGNORECASE)
    if m:
        e, = m
        _check_order([e], 1, order_cap)
        _check_field(e, order_cap)
        return close_group([_diag([root_of_unity(e)])], order_cap, name=f"cyclic{e}")
    if s.upper() == "G4":
        _check_order([24], 1, order_cap)
        _check_field(12, order_cap)
        return close_group(_g4_generators(), order_cap, name="G4")
    m = _catalog_match(r"[Gg]\((\d+),(\d+),(\d+)\)", s)
    if m:
        de, e, n = m
        return close_group(_gdeen_generators(de, e, n, order_cap), order_cap,
                           name=f"G({de},{e},{n})")
    raise GroupError(f"unknown group name: {name!r}")
