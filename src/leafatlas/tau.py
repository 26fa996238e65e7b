"""Finite-order twists of a reflection group.

Given tau normalizing W, this module computes the fixed space V^tau, the
fullness defect, the induced reflection group on V^tau (setwise modulo
pointwise stabilizer, restricted by coordinates read off V^tau's RREF basis)
with a deterministic section back into W, the split parabolics with their
bijective restriction P -> P_tau (walked as W_tau-orbits, one null space of
P's alphas and V^tau's cut rows, V^P cap V^tau, each), normalizer
identifications, and the twist-coset classes that index the components of
the fixed-point strata.  The one place that matches W_tau-orbits of split
parabolics to twist classes (the Harish-Chandra dictionary) is
`TauContext.split_class_dictionary`, which refuses any match that is not a
bijection.  An inner twist (tau in W) has full twist 1, and
for tau = 1 W_tau is W itself and each parabolic has one twist class.
"""

from __future__ import annotations

from functools import cached_property, partial

from . import linalg as la
from .exactnum import CycNum, as_cyc
from .linalg import Matrix
from .refgroup import (
    GroupElement, Parabolic, ReflectionGroup, _close, _finite_order_bound, _matrix_order,
    _normalize_line, _orbit,
)


class TauError(Exception):
    """Invalid twist: not normalizing, infinite order, or fullness required."""


def tau_from_word(W: ReflectionGroup, word: list[int], zeta: CycNum | None = None) -> Matrix:
    """Expand a (word in generators, root of unity) twist spec to a matrix."""
    g = W.identity
    for idx in word:
        if not 0 <= idx < len(W.generators):
            raise TauError(f"generator index {idx} out of range")
        g = W.mul(g, W.generators[idx])
    mat = W.elements[g].mat
    if zeta is not None and not (zeta == as_cyc(1)):
        return tuple(tuple(zeta * x for x in row) for row in mat)
    return mat


class SplitParabolic:
    """A tau-split parabolic P together with its image P_tau in W_tau."""

    def __init__(self, parabolic: Parabolic, p_tau: Parabolic, tau_cut):
        self.parabolic, self.p_tau, self._tau_cut = parabolic, p_tau, tau_cut

    @cached_property
    def tau_fixed(self):
        """(V^P)^tau as an ambient subspace, cut out by V^tau's rows on first read."""
        return self.parabolic.cut(self._tau_cut)

    @property
    def tau_rank(self) -> int:
        return self.p_tau.group.class_of(self.p_tau).fixed_dim


class TwistClass:
    """One orbit of twist cosets acting with fixed points on a stratum; `rep`
    is the least element id in its cosets."""

    __slots__ = ("coset_indices", "rep")

    def __init__(self, coset_indices, rep: int):
        self.coset_indices = tuple(sorted(coset_indices))
        self.rep = rep


class TauContext:
    def __init__(self, W: ReflectionGroup, tau: Matrix):
        self.W = W
        self.tau = tau = la.mat(tau)
        try:
            tau_inv = la.mat_inverse(tau)
        except ZeroDivisionError as exc:
            raise TauError("twist matrix is singular") from exc
        images = [W.by_key.get(GroupElement(la.mat_mul(la.mat_mul(tau, W.elements[g].mat),
                                                       tau_inv)).key)
                  for g in W.generators]
        if None in images:
            raise TauError("twist does not normalize the group")
        self._tau_images = W.extend(images)     # per id, the id of tau g tau^-1
        self.order = _matrix_order(tau, _finite_order_bound(W.dim, [tau]))
        if self.order is None:
            raise TauError("twist has infinite order")
        self.tau_perm = W.hyperplane_perm(self.tau_conj)
        self._tau_cut = la.rref(la.fixed_rows(tau))     # reduced once, stacked on every cut
        self.v_tau = la.nullspace(self._tau_cut, W.dim)
        self.full_tau, self.delta = self._full_twist()
        self.is_full = self.delta == len(self.v_tau)
        self._split_orbits = None
        self._twists: dict = {}

    def _twisted_orbits(self, reps, rep_of):
        """(least, orbit) for each orbit of a.u = a u tau(a)^-1, a in reps, on
        the indices rep_of(u), u in reps, by increasing least index: on W's ids,
        or on a normalizer quotient's cosets by their representatives."""
        W = self.W
        action = [(a, W.inv(self.tau_conj(a))) for a in reps]
        seen: set[int] = set()
        for u in reps:
            least = rep_of(u)
            if least not in seen:
                orbit = {rep_of(W.mul(W.mul(a, u), b)) for a, b in action}
                seen |= orbit
                yield least, orbit

    def _full_twist(self) -> tuple[Matrix, int]:
        """(w*tau, delta): delta is the largest dim V^(w tau), w the least id
        reaching it.  For tau in W only w = tau^-1 reaches dim V, so this is
        1.  Otherwise, as (a w tau(a)^-1) tau = a (w tau) a^-1, the dimension
        is constant on twisted classes: one rank of w tau - 1 per class, at
        its least id."""
        if GroupElement(self.tau).key in self.W.by_key:
            return la.identity(self.W.dim), self.W.dim
        best, best_dim = None, -1
        for g, _ in self._twisted_orbits(range(self.W.order), lambda g: g):
            cand = la.mat_mul(self.W.elements[g].mat, self.tau)
            dim = la.fixed_dim(cand)
            if dim > best_dim:
                best, best_dim = cand, dim
        return best, best_dim

    # -- the reflection group on V^tau ---------------------------------------
    _QUOTIENT = frozenset({"setwise", "w_tau", "section", "restriction"})

    def __getattr__(self, name):
        # the setwise stabilizer of V^tau and the induced group are built on
        # first use, so a context read only for `is_full` never builds them
        if name not in TauContext._QUOTIENT:
            raise AttributeError(name)
        self._build_quotient()
        return getattr(self, name)

    def _build_quotient(self):
        W = self.W
        if len(self.v_tau) == W.dim:
            # tau = 1: every g stabilizes V^tau = V, Z = 1 and W_tau = W
            self.setwise, self.w_tau = frozenset(range(W.order)), W
            self.section = tuple(range(W.order))
            self.restriction = dict(enumerate(self.section))
            return
        # g V^tau = V^tau iff g tau(g)^-1 = g tau g^-1 tau^-1 fixes V^tau
        # pointwise (then g^-1 V^tau lies in V^tau), i.e. lies in Z = W_(V^tau)
        pointwise = W.pointwise_stabilizer(self.v_tau)
        Z = frozenset(pointwise.ids)
        self.setwise = frozenset(g for g in range(W.order)
                                 if W.mul(g, W.inv(self.tau_conj(g))) in Z)
        # generators of N = setwise modulo Z: the ids Dimino's closure keeps
        # on top of Z's reflections, each the least id not yet reached
        z_gens = [s for i in pointwise.inc for s in W.hyperplanes[i].pointwise
                  if s != W.identity]
        gens = [g for g in _close(W, z_gens + sorted(self.setwise))[1] if g not in Z]
        d = len(self.v_tau)
        mats = []                                   # the generators restricted to V^tau
        for g in gens:
            cols = []
            for b in self.v_tau:
                x = la.coordinates(self.v_tau, la.mat_vec(W.elements[g].mat, b))
                if x is None:
                    raise TauError("setwise stabilizer left the fixed space")
                cols.append(x)
            mats.append(la.transpose(cols))
        self.w_tau = ReflectionGroup(d, mats, len(self.setwise), name=f"{W.name or 'W'}_tau")
        # the lift of a W_tau id restricts to it, so its fibre in N is lift*Z
        fibres = [[W.mul(lift, z) for z in Z] for lift in self.w_tau.extend(gens, W)]
        self.section = tuple(map(min, fibres))     # per W_tau id, the least W id
        self.restriction = {i: r for r, ids in enumerate(fibres) for i in ids}

    def tau_conj(self, g: int) -> int:
        return self._tau_images[g]

    # -- split parabolic subgroups ----------------------------------------------
    def split_orbits(self) -> tuple[tuple[SplitParabolic, ...], ...]:
        """W_tau-orbits of tau-split parabolic subgroups, each by ids and all
        by their first member's ids, from one walk over W's parabolics as
        orbits of incidence sets under the section generators' hyperplane
        permutations.  As n in N maps V^P cap V^tau onto V^(nPn^-1) cap
        V^tau, splitting is tested once per orbit, at its first parabolic,
        and a member's P_tau is read off the W_tau generators' hyperplane
        permutations; each member's restriction P -> P_tau is checked."""
        if not self.is_full:
            raise TauError("twist must be full for split-parabolic theory")
        if self._split_orbits is None:
            W, wt = self.W, self.w_tau
            perms = [W.hyperplane_perm(partial(W.conj, by=self.section[g])) for g in wt.generators]
            tau_perms = [wt.hyperplane_perm(partial(wt.conj, by=g)) for g in wt.generators]
            splits = self._split_by_inc = {}
            seen, orbits = set(), []
            for P in W.parabolic_subgroups():
                if P.inc in seen:
                    continue
                tree = _orbit(P.inc, perms)
                seen.update(tree)
                s = P.cut(self._tau_cut)
                if W.incidence(s) != P.inc:
                    continue
                # P_tau fixes the coordinates of s in V^tau pointwise
                tau_inc = {P.inc: wt.incidence([la.coordinates(self.v_tau, v) for v in s])}
                for inc, step in tree.items():
                    if step is not None:
                        tau_inc[inc] = frozenset(tau_perms[step[1]][i] for i in tau_inc[step[0]])
                    Q, q_tau = W.parabolic(inc), wt.parabolic(tau_inc[inc])
                    # P_tau must be the restriction of the part of P stabilizing V^tau
                    if {self.restriction[i] for i in self.setwise.intersection(Q.ids)} \
                            != set(q_tau.ids):
                        raise TauError("restriction of a split parabolic is not parabolic")
                    splits[inc] = SplitParabolic(Q, q_tau, self._tau_cut)
                splits[P.inc].tau_fixed = s          # so it is not cut again
                orbits.append(tuple(sorted((splits[inc] for inc in tree),
                                           key=lambda sp: sp.parabolic.ids)))
            self._split_orbits = tuple(sorted(orbits, key=lambda o: o[0].parabolic.ids))
        return self._split_orbits

    def split_by_inc(self) -> dict[frozenset[int], SplitParabolic]:
        """The split parabolics by incidence set."""
        self.split_orbits()
        return self._split_by_inc

    def split_parabolics(self) -> tuple[SplitParabolic, ...]:
        """The split parabolics, in `parabolic_subgroups` order."""
        splits = self.split_by_inc()
        return tuple(splits[P.inc] for P in self.W.parabolic_subgroups() if P.inc in splits)

    def normalizes(self, P: Parabolic) -> bool:
        """True iff tau P tau^-1 = P, that is, tau permutes P's hyperplanes."""
        return frozenset(self.tau_perm[i] for i in P.inc) == P.inc

    def meets_stratum(self, P: Parabolic, u: int) -> bool:
        """True iff the fixed points of u*tau meet the open stratum of P: the
        part of V^P fixed by u*tau lies in no hyperplane beyond those
        containing V^P, so its pointwise stabilizer is exactly P."""
        s = P.cut(la.fixed_rows(la.mat_mul(self.W.elements[u].mat, self.tau)))
        return self.W.incidence(s) == P.inc

    # -- twist classes ------------------------------------------------------------
    def twist_classes(self, P: Parabolic):
        """Orbits, under the normalizer quotient, of cosets w with
        fixed points of w*tau meeting the open stratum of P, sorted by rep.
        Meeting it is constant on an orbit ((a.u) tau = a (u tau) a^-1), so
        each orbit is tested once, at its least coset; `verify` checks all.
        For tau = 1 the one class is P's own coset."""
        if not self.is_full:
            raise TauError("twist must be full")
        cached = self._twists.get(P.inc)
        if cached is not None:
            return cached
        N = self.W.normalizer(P)
        if len(self.v_tau) == self.W.dim:
            # a point with stabilizer exactly P that is fixed by u forces u in P
            idx = N.coset_of(self.W.identity)
            result = (N, (TwistClass((idx,), N.rep(idx)),))
        elif not self.normalizes(P):
            # a coset w with fixed points on the open stratum would force
            # tau itself to normalize P
            result = (N, ())
        else:
            # N/P acts on the cosets by a.u = a u tau(a)^-1; cosets are numbered
            # by their least id, so an orbit's least coset holds its least id
            reps = [N.rep(idx) for idx in range(N.order)]
            result = (N, tuple(TwistClass(orbit, reps[least])
                               for least, orbit in self._twisted_orbits(reps, N.coset_of)
                               if self.meets_stratum(P, reps[least])))
        self._twists[P.inc] = result
        return result

    def split_class_dictionary(self, P: Parabolic):
        """The bijection from W_tau-orbits of split members of the class of P
        to twist classes over P, as an index map; TauError unless it is one.
        P must be split.  Any x with x P x^-1 = Q serves: changing x by n in
        N_W(P) twists x^-1 tau(x) by n, which leaves its twist class unchanged."""
        if P.inc not in self.split_by_inc():
            raise TauError("dictionary base point must be a split parabolic")
        N, classes = self.twist_classes(P)
        class_of = {idx: ci for ci, c in enumerate(classes) for idx in c.coset_indices}
        conjugators = self.W.class_of(P).conjugators
        from_p = self.W.inv(conjugators[P.inc])
        mapping: dict[int, int | None] = {}
        for oi, orbit in enumerate(self.split_orbits()):
            Q = orbit[0].parabolic
            if Q.inc in conjugators:
                x = self.W.mul(conjugators[Q.inc], from_p)
                w = self.W.mul(self.W.inv(x), self.tau_conj(x))
                mapping[oi] = class_of.get(N.coset_of(w))
        if len(mapping) != len(classes) or set(mapping.values()) != set(range(len(classes))):
            raise TauError(f"{len(mapping)} split orbits are not in bijection with "
                           f"{len(classes)} twist classes")
        return N, classes, mapping

    def class_components(self, cls):
        """(P, twist classes, dictionary) for one conjugacy class of
        parabolics, with P its least split member as the base point; (None,
        (), {}) when no member is split."""
        splits = self.split_by_inc()
        P = next((m for m in cls.members if m.inc in splits), None)
        if P is None:
            return None, (), {}
        _, classes, mapping = self.split_class_dictionary(P)
        return P, classes, mapping


# ---------------------------------------------------------------------------
# module-level operations

def build_tau(W: ReflectionGroup, tau: Matrix) -> TauContext:
    return TauContext(W, tau)


def make_full(W: ReflectionGroup, tau: Matrix) -> Matrix:
    """w*tau for the first w (in id order) with dim V^(w tau) maximal: the
    context's `full_tau`, found with one rank per twisted class.  tau
    must be a valid twist (invertible, of finite order, normalizing W)."""
    return TauContext(W, tau).full_tau


def is_regular(ctx: TauContext) -> bool:
    """True iff the fixed space meets the hyperplane complement."""
    return not ctx.W.incidence(ctx.v_tau)


def hyperplane_restriction_matches(ctx: TauContext) -> bool:
    """Hyperplanes of the induced group == restrictions of ambient ones."""
    restricted = (tuple(la.dot(H.alpha, b) for b in ctx.v_tau) for H in ctx.W.hyperplanes)
    expected = {_normalize_line(c) for c in restricted if any(not x.is_zero() for x in c)}
    return expected == {H.alpha for H in ctx.w_tau.hyperplanes}
