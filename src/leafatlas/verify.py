"""Invariant suite: every structural identity the modules promise, runnable
against a concrete (group, twist, parameter) job with machine-readable
pass/fail results.  The oracles the checks compare with, such as the
breadth-first closure and the doubled-stratum test, live here and not in the
modules they check.

Checks are gated by group order so that the suite stays at desk scale, and
`deep` lifts the gates; every check is deterministic (fixed seeds, sorted
iteration).
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import leaves as leaves_mod
from . import linalg as la
from .cherednik import (
    CherednikAlgebra, euler_degree, filtration_degree, poisson_bracket,
)
from .exactnum import CycNum, as_cyc
from .refgroup import (
    Parabolic, ParameterK, ReflectionGroup, _prime_weight_point, _rank_one_shift,
)
from .tau import SplitParabolic, TauContext, hyperplane_restriction_matches


class Check:
    def __init__(self, check_id: str, fn):
        self.check_id = check_id
        self.fn = fn

    def run(self):
        try:
            detail = self.fn()
            return {"id": self.check_id, "status": "pass",
                    "detail": detail if isinstance(detail, str) else ""}
        except AssertionError as exc:
            return {"id": self.check_id, "status": "fail", "detail": str(exc)}
        except Exception as exc:
            # any other error fails this check instead of aborting the suite
            return {"id": self.check_id, "status": "fail",
                    "detail": f"{type(exc).__name__}: {exc}"}


def _field_axiom_sample():
    rng = random.Random(20240)
    for n in (1, 4, 9, 12, 40, 42, 60):
        for _ in range(6):
            vals = []
            for _ in range(3):
                coeffs = {rng.randrange(n): Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                          for _ in range(2)}
                vals.append(CycNum(n, coeffs))
            a, b, c = vals
            assert (a + b) * c == a * c + b * c, "distributivity"
            assert (a * b) * c == a * (b * c), "associativity"
            if not a.is_zero():
                assert a * a.inverse() == as_cyc(1), "inverse"
    return "field axioms on seeded samples"


# -- oracles: whole-group scans and breadth-first closures, which no other
# module calls

def bfs_close(W: ReflectionGroup, gens) -> frozenset[int]:
    """The ids of the subgroup generated by gens, by breadth-first search:
    the oracle for Dimino's closure in `refgroup`."""
    found = {W.identity}
    queue = [W.identity]
    for g in queue:
        for h in gens:
            prod = W.mul(g, h)
            if prod not in found:
                found.add(prod)
                queue.append(prod)
    return frozenset(found)


def _reflection_closure_order(W: ReflectionGroup) -> int:
    """Order of the closure of all of W's reflections (the oracle that
    `generated_by_reflections` may skip when W's generators are reflections)."""
    return len(bfs_close(W, [s for s, _ in W.reflections]))


def witness_covector(W: ReflectionGroup, basis) -> la.Vector:
    """Generic covector of a subspace of V*, avoiding the dual arrangement."""
    return _prime_weight_point(W.dim, basis, [
        H.alpha_vee for H in W.hyperplanes
        if not all(la.dot(c, H.alpha_vee).is_zero() for c in basis)])


def orbit_coincidence_holds(ctx: TauContext) -> bool:
    """Points of V^tau in the same W-orbit already lie in the same orbit of
    the setwise stabilizer; checked exhaustively over split witnesses."""
    tau = ctx.tau
    for sp in ctx.split_parabolics():
        v = ctx.W.witness_point(sp.tau_fixed)
        if la.mat_vec(tau, v) != v:
            return False
        images = [la.mat_vec(g.mat, v) for g in ctx.W.elements]
        setwise_orbit = {images[i] for i in ctx.setwise}
        if any(la.mat_vec(tau, u) == u for u in set(images) - setwise_orbit):
            return False
    return True


def normalizer_tau(ctx: TauContext, sp: SplitParabolic) -> tuple[set[int], set[int]]:
    """The image of the normalizer quotient of P_tau in W_tau in the ambient
    one, N_W(P)/P, and the tau-fixed part of N_W(P)/P, both as coset
    indices: the two must agree."""
    Nt = ctx.w_tau.normalizer(sp.p_tau)
    N = ctx.W.normalizer(sp.parabolic)
    image = {N.coset_of(ctx.section[Nt.rep(i)]) for i in range(Nt.order)}
    fixed = {i for i in range(N.order) if N.coset_of(ctx.tau_conj(N.rep(i))) == i}
    return image, fixed


def tau_acts_trivially_on_quotient(ctx: TauContext) -> bool:
    return all(ctx.restriction[ctx.tau_conj(i)] == ctx.restriction[i] for i in ctx.setwise)


def intersection_of_splits_is_split(ctx: TauContext) -> bool:
    """Pointwise stabilizer of a union of split fixed spaces is split again."""
    splits = ctx.split_by_inc()
    return all(ctx.W.incidence(la.span(list(a.tau_fixed) + list(b.tau_fixed))) in splits
               for a in splits.values() for b in splits.values())


def double_twist_nonempty(ctx: TauContext, P: Parabolic, coset_rep: int) -> bool:
    """Emptiness test for the doubled stratum: a twisted-fixed generic pair
    (point, covector) whose stabilizers intersect exactly in P.  The
    covector's stabilizer is read only on the point's: one scan of W."""
    W = ctx.W
    wtau = la.mat_mul(W.elements[coset_rep].mat, ctx.tau)
    s_v = P.cut(la.fixed_rows(wtau))
    # covectors fixed by P, those vanishing on the coroots of its reflections,
    # with c @ wtau = c: cut out by the alpha_vee and the rows of wtau^T - 1
    s_x = la.nullspace(tuple(W.hyperplanes[i].alpha_vee for i in sorted(P.inc))
                       + la.fixed_rows(la.transpose(wtau)), W.dim)
    v = W.witness_point(s_v)
    x = witness_covector(W, s_x)
    return {i for i in W.stabilizer_keys(v)
            if la.covec_mat(x, W.elements[i].mat) == x} == set(P.ids)


def double_membership_agrees(ctx: TauContext, P: Parabolic) -> bool:
    """Single and doubled emptiness tests agree on every normalizer coset."""
    if not ctx.normalizes(P):
        return True
    N = ctx.W.normalizer(P)
    for idx in range(N.order):
        u = N.rep(idx)
        if ctx.meets_stratum(P, u) != double_twist_nonempty(ctx, P, u):
            return False
    return True


def _group_checks(W: ReflectionGroup) -> list[Check]:
    def reflection_generated():
        assert _reflection_closure_order(W) == W.order, "group not generated by reflections"
        return f"order {W.order}"

    return [
        Check("group.reflection-generated", reflection_generated),
        Check("group.hyperplane-orders", lambda: _hyperplane_orders(W)),
        Check("group.parabolic-witnesses", lambda: _witness_check(W)),
        Check("group.class-conjugators", lambda: _class_conjugators(W)),
    ]


def _hyperplane_orders(W):
    assert [g for g, _ in W.reflections] == \
        [g for g, e in enumerate(W.elements) if _rank_one_shift(e.mat)], "reflection scan"
    for H in W.hyperplanes:
        basis = la.nullspace((H.alpha,), W.dim)
        fixing = {i for i, g in enumerate(W.elements)
                  if all(la.mat_vec(g.mat, b) == b for b in basis)}
        assert set(H.pointwise) == fixing, "pointwise stabilizer"
        orders = [len(bfs_close(W, [g])) for g in H.pointwise]
        assert max(orders, default=1) == H.e, "cyclic stabilizer"
    return f"{len(W.hyperplanes)} hyperplanes"


def _witness_check(W):
    for P in W.parabolic_subgroups():
        assert W.stabilizer_keys(W.witness_point(P.fixed_space)) == set(P.ids), \
            "witness stabilizer"
    return f"{len(W.parabolic_subgroups())} parabolic subgroups"


def _class_conjugators(W):
    """Each member is its class representative conjugated by the member's
    recorded conjugator, and the closure of its hyperplanes' reflections."""
    for c in W.parabolic_classes():
        for Q in c.members:
            x = c.conjugators[Q.inc]
            moved = {W.conj(p, x) for p in c.representative.ids}
            assert moved == set(Q.ids), f"class {c.class_id} conjugator"
            assert bfs_close(W, [g for i in Q.inc for g in W.hyperplanes[i].pointwise]) == \
                set(Q.ids), f"class {c.class_id} member is not its reflection closure"
    return f"{sum(len(c.members) for c in W.parabolic_classes())} conjugators"


def _tau_checks(ctx: TauContext, deep: bool) -> list[Check]:
    W = ctx.W

    def simple(check_id, predicate, msg):
        def body():
            assert predicate(), msg
            return ""
        return Check(check_id, body)

    checks = [
        simple("tau.full", lambda: ctx.is_full, "twist not full"),
        simple("tau.lsp-reflection-generated",
               lambda: _reflection_closure_order(ctx.w_tau) == ctx.w_tau.order,
               "induced group not generated by reflections"),
        simple("tau.lsp-hyperplanes", lambda: hyperplane_restriction_matches(ctx),
               "induced hyperplanes differ from restrictions"),
        simple("tau.orbit-coincidence", lambda: orbit_coincidence_holds(ctx),
               "orbit coincidence fails on a witness"),
        Check("tau.split-bijection", lambda: _split_bijection(ctx)),
        Check("tau.fixed-space-match", lambda: _fixed_space_match(ctx)),
        simple("tau.trivial-on-quotient", lambda: tau_acts_trivially_on_quotient(ctx),
               "twist moves an element of the induced group"),
        Check("tau.normalizer-fixed-points", lambda: _normalizer_fixed(ctx)),
        Check("leaves.count-identity", lambda: _leaf_count(ctx)),
        Check("leaves.partition", lambda: _leaf_partition(ctx)),
    ]
    if W.order <= 60 or deep:
        checks.append(simple("tau.intersection-split",
                             lambda: intersection_of_splits_is_split(ctx),
                             "splits are not closed under intersection"))
        checks.append(Check("leaves.double-membership", lambda: _double_membership(ctx)))
    if _is_identity(ctx):
        checks.append(Check("leaves.identity-degeneration", lambda: _identity_degeneration(ctx)))
    return checks


def _is_identity(ctx) -> bool:
    return ctx.tau == la.identity(ctx.W.dim)


def _split_bijection(ctx):
    splits = ctx.split_parabolics()
    subs = ctx.w_tau.parabolic_subgroups()
    assert len(splits) == len(subs), f"{len(splits)} splits vs {len(subs)} parabolics"
    images = {sp.p_tau.ids for sp in splits}
    assert len(images) == len(splits), "restriction not injective"
    return f"{len(splits)} split parabolics"


def _fixed_space_match(ctx):
    # V^(P_tau) in V^tau's coordinates, lifted to V
    for sp in ctx.split_parabolics():
        lifted = la.span([la.covec_mat(r, ctx.v_tau) for r in sp.p_tau.fixed_space])
        assert lifted == sp.tau_fixed, "restricted fixed space mismatch"
    return ""


def _normalizer_fixed(ctx):
    for sp in ctx.split_parabolics():
        image, fixed = normalizer_tau(ctx, sp)
        assert image == fixed, "normalizer image is not the fixed part"
    return ""


def _leaf_count(ctx):
    L = leaves_mod.leaves_zero_tau(ctx)
    classes = ctx.w_tau.parabolic_classes()
    assert len(L) == len(classes), f"{len(L)} leaves vs {len(classes)} classes"
    return f"{len(L)} leaves"


def _leaf_partition(ctx):
    total = 0
    for cls in ctx.W.parabolic_classes():
        P, classes, mapping = ctx.class_components(cls)     # TauError unless a bijection
        total += len(mapping)
        if P is not None:   # twist classes must cover exactly the cosets meeting P's stratum
            N, _ = ctx.twist_classes(P)
            assert {i for c in classes for i in c.coset_indices} == \
                {i for i in range(N.order) if ctx.meets_stratum(P, N.rep(i))}, \
                f"twist classes of class {cls.class_id} miss or add a coset"
    expected = len(ctx.w_tau.parabolic_classes())
    assert total == expected, f"{total} components vs {expected} classes"
    return f"{total} components"


def _double_membership(ctx):
    for cls in ctx.W.parabolic_classes():
        assert double_membership_agrees(ctx, cls.representative), \
            "single and doubled membership disagree"
    return ""


def _identity_degeneration(ctx):
    L = leaves_mod.leaves_zero_tau(ctx)
    D = leaves_mod.strata_double(ctx.W)
    assert sorted(l.dimension for l in L) == sorted(s.dimension for s in D), \
        "identity twist does not reduce to the double stratification"
    assert sorted(l.p_class for l in L) == sorted(s.parabolic_class for s in D), \
        "class labels disagree"
    return ""


def _cherednik_checks(W: ReflectionGroup, k: ParameterK) -> list[Check]:
    return [
        Check("cherednik.pbw-associativity", lambda: _assoc_check(W, k)),
        Check("cherednik.grading", lambda: _grading_check(W, k)),
        Check("cherednik.parameter-shift", lambda: _shift_check(W, k)),
    ] + ([Check("cherednik.poisson-laws", lambda: _poisson_check(W, k))]
         if W.dim == 1 else [])


def _random_elem(alg, rng, dmax=2):
    out = alg.zero()
    for _ in range(rng.randrange(1, 3)):
        a = tuple(rng.randrange(dmax + 1) for _ in range(alg.n))
        b = tuple(rng.randrange(dmax + 1) for _ in range(alg.n))
        g = rng.choice(alg.W.elements)
        c = Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 3))
        out = out + alg.monomial(a, g, b) * as_cyc(c)
    return out


def _assoc_check(W, k, trials: int = 24):
    alg = CherednikAlgebra(W, k, "t")
    rng = random.Random(97)
    for _ in range(trials):
        A, B, C = (_random_elem(alg, rng) for _ in range(3))
        assert alg.multiply(alg.multiply(A, B), C) == alg.multiply(A, alg.multiply(B, C)), \
            "associativity failure"
    return f"{trials} random triples"


def _grading_check(W, k, trials: int = 16):
    alg = CherednikAlgebra(W, k, "t")
    rng = random.Random(53)
    for _ in range(trials):
        a = tuple(rng.randrange(3) for _ in range(alg.n))
        b = tuple(rng.randrange(3) for _ in range(alg.n))
        g = rng.choice(W.elements)
        A = alg.monomial(a, g, b)
        B = alg.monomial(b, g, a)
        prod = alg.multiply(A, B)
        if not prod.is_zero():
            assert euler_degree(prod) == euler_degree(A) + euler_degree(B), "grading"
        fa, fb = filtration_degree(A), filtration_degree(B)
        if not prod.is_zero():
            assert filtration_degree(prod) <= fa + fb, "filtration"
    return f"{trials} products"


def _shift_check(W, k):
    shift = {oid: as_cyc(Fraction(5, 7)) for oid in k.orbit_e}
    k2 = k.shifted(shift)
    alg1 = CherednikAlgebra(W, k, "t")
    alg2 = CherednikAlgebra(W, k2, "t")
    rng = random.Random(11)
    for _ in range(6):
        A = _random_elem(alg1, rng)
        B = _random_elem(alg1, rng)
        lhs = alg1.multiply(A, B)
        rhs = alg2.multiply(alg1.lift(A, alg2), alg1.lift(B, alg2))
        assert lhs.terms == rhs.terms, "orbitwise parameter shift changed products"
    return ""


def _poisson_check(W, k):
    alg = CherednikAlgebra(W, k, "t0")
    e = W.hyperplanes[0].e
    X = alg.x(0, e)
    Y = alg.y(0, e)
    t_alg = CherednikAlgebra(W, k, "t")
    b = poisson_bracket(X, Y, t_alg)
    assert (b + poisson_bracket(Y, X, t_alg)).is_zero(), "antisymmetry"
    prod = alg.multiply(X, Y)
    lhs = poisson_bracket(X, prod, t_alg)
    rhs = alg.multiply(poisson_bracket(X, X, t_alg), Y) + \
        alg.multiply(X, poisson_bracket(X, Y, t_alg))
    assert lhs == rhs, "Leibniz"
    jac = poisson_bracket(X, poisson_bracket(Y, prod, t_alg), t_alg) + \
        poisson_bracket(Y, poisson_bracket(prod, X, t_alg), t_alg) + \
        poisson_bracket(prod, poisson_bracket(X, Y, t_alg), t_alg)
    assert jac.is_zero(), "Jacobi"
    if not b.is_zero():
        assert euler_degree(b) == 0, "bracket degree"
        assert filtration_degree(b) <= 2 * e - 2, "bracket filtration drop"
    return ""


def run_suite(W: ReflectionGroup, ctx: TauContext | None = None,
              k: ParameterK | None = None, deep: bool = False) -> list[dict]:
    checks: list[Check] = [Check("exactnum.field-axioms", _field_axiom_sample)]
    checks += _group_checks(W)
    if ctx is not None:
        checks += _tau_checks(ctx, deep)
    # the rewriting checks take seconds at order 8 and do not finish in
    # minutes at order 12 (cyclic12) or 24 (G4)
    if k is not None and (deep or (W.order <= 8 and W.dim <= 2)):
        checks += _cherednik_checks(W, k)
    return [c.run() for c in checks]
