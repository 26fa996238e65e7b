"""Twist contexts: fullness, the induced group, split parabolics, twist classes."""

import pytest

from leafatlas import linalg as la
from leafatlas import verify
from leafatlas.exactnum import root_of_unity
from leafatlas.refgroup import GroupElement, ReflectionGroup, catalog, dihedral_tau
from leafatlas.tau import (
    TauContext, TauError, build_tau, hyperplane_restriction_matches, is_regular, make_full,
    tau_from_word,
)
from leafatlas.refgroup import ParameterK
from leafatlas.verify import (
    _fixed_space_match, bfs_close, double_twist_nonempty, intersection_of_splits_is_split,
    normalizer_tau, orbit_coincidence_holds, tau_acts_trivially_on_quotient,
)
from helpers import fixed_space


def _diag_flip(n):
    return la.mat([[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)]
                   for i in range(n)])


def test_identity_twist():
    W = catalog("B2")
    ctx = build_tau(W, la.identity(2))
    assert ctx.is_full
    assert len(ctx.v_tau) == 2
    assert ctx.w_tau.order == W.order
    assert is_regular(ctx)
    assert len(ctx.split_parabolics()) == len(W.parabolic_subgroups())


def test_dihedral_swap_twist():
    W = catalog("dihedral4")
    ctx = build_tau(W, dihedral_tau(4))
    assert ctx.is_full
    assert len(ctx.v_tau) == 1
    assert is_regular(ctx)
    L = ctx.w_tau
    assert L.order == 2     # the centralizer acts as +-1 on the fixed line
    assert L.generated_by_reflections() and hyperplane_restriction_matches(ctx)


def test_d3_diag_flip_gives_hyperoctahedral():
    W = catalog("D3")
    ctx = build_tau(W, _diag_flip(3))
    assert ctx.is_full
    L = ctx.w_tau
    assert L.order == 8     # rank-2 hyperoctahedral group
    assert L.generated_by_reflections() and hyperplane_restriction_matches(ctx)
    assert len(ctx.split_parabolics()) == len(L.parabolic_subgroups())


def test_non_normalizing_twist_rejected():
    W = catalog("B2")
    z6 = root_of_unity(6)
    tau = la.mat([[0, z6], [z6.inverse(), 0]])
    with pytest.raises(TauError):
        build_tau(W, tau)


def test_make_full_identity_fixed_point():
    W = catalog("B2")
    assert make_full(W, la.identity(2)) == la.identity(2)


def test_make_full_absorbs_group_element():
    W = catalog("cyclic2")
    tau = la.mat([[-1]])
    assert make_full(W, tau) == la.identity(1)


def test_make_full_dihedral_rotation():
    W = catalog("dihedral4")
    rot = la.mat_mul(W.elements[W.generators[0]].mat, dihedral_tau(4))
    full = make_full(W, rot)
    assert len(fixed_space(full)) == 1


@pytest.mark.parametrize("group,twist", [
    ("B3", "neg"), ("dihedral4", "rotation"), ("D4", "neg"), ("G4", "zeta4"),
])
def test_make_full_is_first_maximal_in_one_scan(group, twist, monkeypatch):
    W = catalog(group)
    if twist == "neg":
        tau = la.mat([[-1 if i == j else 0 for j in range(W.dim)] for i in range(W.dim)])
    elif twist == "rotation":
        tau = la.mat_mul(W.elements[W.generators[0]].mat, dihedral_tau(4))
    else:
        z4 = root_of_unity(4)
        tau = tuple(tuple(z4 * x for x in row) for row in W.elements[1].mat)
    # oracle: the maximal fixed dimension over the coset, then its first element
    dims = [len(fixed_space(la.mat_mul(g.mat, tau))) for g in W.elements]
    expect = la.mat_mul(W.elements[dims.index(max(dims))].mat, tau)
    calls = []
    fixed_dim = la.fixed_dim
    monkeypatch.setattr(la, "fixed_dim", lambda m: calls.append(m) or fixed_dim(m))
    assert make_full(W, tau) == expect
    if GroupElement(tau).key in W.by_key:
        assert not calls        # an inner twist takes the shortcut
        return
    # one rank per twisted class of W: a class of the coset W tau under conjugation
    classes = {frozenset(GroupElement(la.mat_mul(la.mat_mul(a.mat, la.mat_mul(g.mat, tau)),
                                                 W.elements[W.inv(i)].mat)).key
                         for i, a in enumerate(W.elements))
               for g in W.elements}
    assert 0 < len(calls) <= len(classes)


@pytest.mark.parametrize("group,word", [
    ("B3", None), ("D4", None), ("B4", None), ("G(4,4,3)", [0, 1, 2]), ("B2", [0]),
])
def test_make_full_of_an_inner_twist_is_the_identity(group, word):
    # tau in W (-1 when word is None; -1 is not in G(4,4,3)): the shortcut
    # against a brute scan of all of W for the least id w maximizing dim V^(w tau)
    W = catalog(group)
    tau = _scalar_twist(W, -1) if word is None else tau_from_word(W, word)
    assert GroupElement(tau).key in W.by_key
    dims = [len(fixed_space(la.mat_mul(g.mat, tau))) for g in W.elements]
    expect = la.mat_mul(W.elements[dims.index(max(dims))].mat, tau)
    assert make_full(W, tau) == expect == la.identity(W.dim)


@pytest.mark.parametrize("group", ["B3", "D4", "G(4,2,3)", "G4"])
def test_identity_twist_classes_are_the_cosets_meeting_the_stratum(group):
    W = catalog(group)
    ctx = build_tau(W, la.identity(W.dim))
    for P in W.parabolic_subgroups():
        assert ctx.normalizes(P)
        N, classes = ctx.twist_classes(P)
        assert {i for c in classes for i in c.coset_indices} == \
            {i for i in range(N.order) if ctx.meets_stratum(P, N.rep(i))}, P.ids


@pytest.mark.parametrize("group,twist", [("D4", "diag-flip"), ("B4", "identity")])
def test_context_takes_one_fixed_space_per_twisted_class(group, twist, monkeypatch):
    W = catalog(group)
    tau = _diag_flip(W.dim) if twist == "diag-flip" else la.identity(W.dim)
    # la.fixed_dim is what gives a twisted class its fixed dimension
    calls = []
    fixed_dim = la.fixed_dim
    monkeypatch.setattr(la, "fixed_dim", lambda m: calls.append(m) or fixed_dim(m))
    ctx = build_tau(W, tau)
    monkeypatch.undo()
    assert ctx.is_full
    # brute force: the class of g is its image under a.g = a g tau(a)^-1 for
    # every a in W
    classes = {frozenset(W.mul(W.mul(a, g), W.inv(ctx.tau_conj(a))) for a in range(W.order))
               for g in range(W.order)}
    if twist == "identity":
        assert not calls        # tau in W: the inner-twist shortcut computes none
    else:
        assert 0 < len(calls) <= len(classes)


def test_regularity_cases():
    W = catalog("B2")
    assert is_regular(build_tau(W, la.identity(2)))
    W2 = catalog("cyclic2")
    ctx = build_tau(W2, la.mat([[root_of_unity(4)]]))
    assert ctx.is_full and not is_regular(ctx)
    for d in (3, 4):
        Wd = catalog(f"dihedral{d}")
        assert is_regular(build_tau(Wd, dihedral_tau(d)))


def test_twisted_stabilizer_filter_matches_setwise_scan(pair_contexts):
    for name, ctx in pair_contexts.items():
        assert ctx.setwise == ctx.W.setwise_stabilizer_keys(ctx.v_tau), name
    # the battery exercises the pointwise factor Z = W_(V^tau)
    B3 = pair_contexts["B3:zeta4-w0"]
    assert B3.W.pointwise_stabilizer(B3.v_tau).order == 2
    assert len(B3.setwise) == 8


def test_twisted_stabilizer_needs_the_pointwise_factor():
    # V^tau = 0, so all 24 elements stabilize it, but only 4 commute with tau:
    # a filter that dropped Z would keep only those
    W = catalog("G4")
    z12 = root_of_unity(12)
    ctx = build_tau(W, make_full(W, tuple(tuple(z12 * x for x in row)
                                          for row in W.elements[1].mat)))
    assert ctx.v_tau == ()
    assert ctx.setwise == W.setwise_stabilizer_keys(ctx.v_tau)
    assert len(ctx.setwise) == 24
    assert sum(ctx.tau_conj(g) == g for g in range(W.order)) == 4


def _solve(a, b):
    """The solution of a @ x = b for a of full column rank, read off the RREF
    of (a | b) by elimination; None if inconsistent."""
    ncols = len(a[0]) if a else 0
    x = [None] * ncols
    for row in la.rref([tuple(r) + (y,) for r, y in zip(a, b)]):
        pc = next(c for c, y in enumerate(row) if not y.is_zero())
        if pc == ncols:
            return None
        x[pc] = row[ncols]
    return tuple(x)


def _restricted_fibres(ctx):
    """The oracle for W_tau: every element of the setwise stabilizer
    restricted to V^tau by elimination, its ids grouped by the restriction's
    key."""
    W, d = ctx.W, len(ctx.v_tau)
    basis_matrix = la.transpose(ctx.v_tau)
    fibres: dict[str, list[int]] = {}
    for i in sorted(ctx.setwise):
        cols = [_solve(basis_matrix, la.mat_vec(W.elements[i].mat, b)) for b in ctx.v_tau]
        key = GroupElement(tuple(tuple(cols[j][r] for j in range(d)) for r in range(d))).key
        fibres.setdefault(key, []).append(i)
    return fibres


def _scalar_twist(W, zeta):
    return la.mat([[zeta if i == j else 0 for j in range(W.dim)] for i in range(W.dim)])


@pytest.fixture(scope="module")
def w_tau_contexts(pair_contexts):
    W = catalog("G(4,2,3)")
    zeta4 = build_tau(W, make_full(W, _scalar_twist(W, root_of_unity(4))))
    assert W.pointwise_stabilizer(zeta4.v_tau).order == 2
    return {**pair_contexts, "G(4,2,3):identity": build_tau(W, la.identity(W.dim)),
            "G(4,2,3):zeta4": zeta4}


def test_w_tau_matches_restriction_of_every_element(w_tau_contexts):
    for name, ctx in w_tau_contexts.items():
        fibres = _restricted_fibres(ctx)
        keys = [g.key for g in ctx.w_tau.elements]
        assert keys == sorted(fibres), name
        assert ctx.section == tuple(fibres[k][0] for k in keys), name
        assert ctx.restriction == {i: t for t, k in enumerate(keys) for i in fibres[k]}, name


def test_w_tau_solves_only_for_generators(monkeypatch):
    # zeta_4 lies outside G(4,2,3), so its full twist builds W_tau in general
    W = catalog("G(4,2,3)")
    ctx = build_tau(W, make_full(W, _scalar_twist(W, root_of_unity(4))))
    calls = []
    coordinates = la.coordinates
    monkeypatch.setattr(la, "coordinates", lambda a, b: calls.append(b) or coordinates(a, b))
    gens = ctx.w_tau.generators
    assert 0 < len(calls) <= len(ctx.v_tau) * len(gens)
    # each generator at least doubles the group, so there are at most log2 |N/Z|
    quotient = len(ctx.setwise) // W.pointwise_stabilizer(ctx.v_tau).order
    assert 2 ** len(gens) <= quotient == ctx.w_tau.order == 32


def test_w_tau_generators_are_the_least_id_picks(pair_contexts):
    # the greedy picks over Z's reflections, by the breadth-first closure: the
    # least id of setwise not yet reached, until all of it is; each pick is
    # the least id of its coset of Z, so the section returns it
    for name, ctx in pair_contexts.items():
        W = ctx.W
        if ctx.w_tau is W:
            continue
        Z = W.pointwise_stabilizer(ctx.v_tau)
        picks = [s for i in Z.inc for s in W.hyperplanes[i].pointwise if s != W.identity]
        start, reached = len(picks), bfs_close(W, picks)
        for g in sorted(ctx.setwise):
            if g not in reached:
                picks.append(g)
                reached = bfs_close(W, picks)
        assert reached == ctx.setwise, name
        assert [ctx.section[g] for g in ctx.w_tau.generators] == picks[start:], name


def test_tau_conj_matches_matrices(pair_contexts):
    for name, ctx in pair_contexts.items():
        tau_inv = la.mat_inverse(ctx.tau)
        mats = [g.mat for g in ctx.W.elements]
        for g, m in enumerate(mats):
            assert mats[ctx.tau_conj(g)] == la.mat_mul(la.mat_mul(ctx.tau, m), tau_inv), name


def test_split_parabolics_bijective(pair_contexts):
    for name, ctx in pair_contexts.items():
        splits = ctx.split_parabolics()
        subs = ctx.w_tau.parabolic_subgroups()
        assert len(splits) == len(subs), name
        images = {sp.p_tau.ids for sp in splits}
        assert len(images) == len(splits), name


def test_fixed_space_equality(pair_contexts):
    # the restriction of the fixed space of P equals the fixed space of P_tau
    for name, ctx in pair_contexts.items():
        _fixed_space_match(ctx)


def test_top_split_is_pointwise_stabilizer():
    W = catalog("dihedral4")
    ctx = build_tau(W, dihedral_tau(4))
    splits = {sp.parabolic.ids for sp in ctx.split_parabolics()}
    assert W.pointwise_stabilizer(ctx.v_tau).ids in splits


def test_incidence_agrees_with_whole_group_scans(pair_contexts):
    # the incidence answers of the production path against the scans of W
    # they replaced, which stay as the reference
    for name, ctx in pair_contexts.items():
        W = ctx.W

        def scan(basis):
            return frozenset(i for i, g in enumerate(W.elements)
                             if all(la.mat_vec(g.mat, b) == b for b in basis))

        bases = [la.nullspace((H.alpha,), W.dim) for H in W.hyperplanes]
        for X in [P.fixed_space for P in W.parabolic_subgroups()] + [ctx.v_tau]:
            assert W.incidence(X) == {i for i, basis in enumerate(bases)
                                      if la.subspace_leq(X, basis)}, name
            assert set(W.pointwise_stabilizer(X).ids) == scan(X), name
        for H, basis in zip(W.hyperplanes, bases):
            assert list(H.pointwise) == sorted(scan(basis)), name
        splits = ctx.split_by_inc()
        for P in W.parabolic_subgroups():
            s = la.intersect(P.fixed_space, ctx.v_tau, W.dim)
            assert (P.inc in splits) == (scan(s) == set(P.ids)), name
        for cls in W.parabolic_classes():
            P = cls.representative
            N = W.normalizer(P)
            for idx in range(N.order):
                u = N.rep(idx)
                s = la.intersect(P.fixed_space,
                                 fixed_space(la.mat_mul(W.elements[u].mat, ctx.tau)), W.dim)
                expected = W.stabilizer_keys(W.witness_point(s)) == set(P.ids)
                assert ctx.meets_stratum(P, u) == expected, name


def _bases_passed(monkeypatch, targets, call):
    """The bases, each the last argument, handed to the (owner, name)
    functions of targets while call() runs, with the whole-group stabilizer
    scans stubbed out."""
    seen = []
    with monkeypatch.context() as m:
        for owner, attr in targets:
            m.setattr(owner, attr, lambda *args, f=getattr(owner, attr):
                      seen.append(args[-1]) or f(*args))
        for attr in ("stabilizer_keys", "dual_stabilizer_keys"):
            m.setattr(ReflectionGroup, attr, lambda self, v: frozenset())
        call()
    return seen


def test_row_cuts_match_intersections(pair_contexts, monkeypatch):
    # each subspace the fast paths take as one null space of stacked cut rows
    # against la.intersect of the two subspaces, the reference
    for name, ctx in pair_contexts.items():
        W, n = ctx.W, ctx.W.dim
        assert ctx.v_tau == fixed_space(ctx.tau), name
        splits = ctx.split_by_inc()
        for P in W.parabolic_subgroups():
            s = la.intersect(P.fixed_space, ctx.v_tau, n)
            assert P.cut(ctx._tau_cut) == s, name          # the split test's subspace
            if P.inc in splits:
                assert splits[P.inc].tau_fixed == s, name
        for cls in W.parabolic_classes():
            P = cls.representative
            N = W.normalizer(P)
            dual_fixed = la.nullspace(tuple(W.hyperplanes[i].alpha_vee for i in sorted(P.inc)), n)
            for idx in range(N.order):
                u = N.rep(idx)
                wtau = la.mat_mul(W.elements[u].mat, ctx.tau)
                s_v = la.intersect(P.fixed_space, fixed_space(wtau), n)
                s_x = la.intersect(dual_fixed, fixed_space(la.transpose(wtau)), n)
                assert _bases_passed(monkeypatch, [(ReflectionGroup, "incidence")],
                                     lambda: ctx.meets_stratum(P, u)) == [s_v], name
                assert _bases_passed(monkeypatch, [(ReflectionGroup, "witness_point"),
                                                   (verify, "witness_covector")],
                                     lambda: double_twist_nonempty(ctx, P, u)) == [s_v, s_x], name


def test_point_and_covector_witnesses_have_one_stabilizer(pair_contexts, monkeypatch):
    # <W, tau> is finite, so it keeps a positive definite Hermitian form H, and
    # v -> v*H maps the points fixed by any g onto the covectors fixed by g.
    # So the generic point of s_v and the generic covector of s_x, the
    # subspaces double_twist_nonempty builds, have one stabilizer in W
    for name, ctx in pair_contexts.items():
        W = ctx.W
        if W.order > 60:
            continue
        for P in (cls.representative for cls in W.parabolic_classes()):
            for u in range(W.order):
                s_v, s_x = _bases_passed(monkeypatch, [(ReflectionGroup, "witness_point"),
                                                       (verify, "witness_covector")],
                                         lambda: double_twist_nonempty(ctx, P, u))
                assert W.stabilizer_keys(W.witness_point(s_v)) == \
                    W.dual_stabilizer_keys(verify.witness_covector(W, s_x)), name


def _hyperplane_orbits_under_all_elements(W):
    def image(H, g):
        moved = la.covec_mat(H.alpha, W.elements[W.inv(g)].mat)
        lead = next(x for x in moved if not x.is_zero()).inverse()
        return tuple((lead * x).sort_key() for x in moved)
    return {frozenset(image(H, g) for g in range(W.order)) for H in W.hyperplanes}


def _assert_orbit_ids_match_all_elements(W, name):
    orbits = _hyperplane_orbits_under_all_elements(W)
    assert W.hyperplane_orbit_count == len(orbits), name
    by_id = {}
    for H in W.hyperplanes:
        by_id.setdefault(H.orbit_id, set()).add(H.key)
    assert {frozenset(o) for o in by_id.values()} == orbits, name


def test_induced_hyperplane_orbits_match_all_elements(pair_contexts):
    for name, ctx in pair_contexts.items():
        _assert_orbit_ids_match_all_elements(ctx.w_tau, name)


@pytest.mark.parametrize("group,tau,orbits", [
    ("B3", "identity", 2), ("G(4,2,3)", "identity", 2), ("D4", "diag-flip", 2),
])
def test_induced_hyperplane_orbits_examples(group, tau, orbits):
    W = catalog(group)
    ctx = build_tau(W, la.identity(W.dim) if tau == "identity" else _diag_flip(W.dim))
    assert ctx.is_full
    _assert_orbit_ids_match_all_elements(ctx.w_tau, group)
    assert ctx.w_tau.hyperplane_orbit_count == orbits
    assert len(ParameterK.zero(ctx.w_tau).orbit_e) == orbits


def test_split_data_matches_elementwise_conjugation(pair_contexts):
    # split orbits, the twist dictionary and the tau-stability test against
    # element-wise conjugation and a scan of W for conjugators
    for name, ctx in pair_contexts.items():
        W = ctx.W

        def conjugate(ids, x):
            return frozenset(W.conj(i, x) for i in ids)

        gens = [ctx.section[g] for g in ctx.w_tau.generators]
        expected = set()
        for sp in ctx.split_parabolics():
            orbit = {frozenset(sp.parabolic.ids)}
            queue = [sp.parabolic.ids]
            while queue:
                cur = queue.pop()
                for g in gens:
                    moved = conjugate(cur, g)
                    if moved not in orbit:
                        orbit.add(moved)
                        queue.append(moved)
            expected.add(frozenset(orbit))
        orbits = ctx.split_orbits()
        assert {frozenset(frozenset(sp.parabolic.ids) for sp in o) for o in orbits} == expected, name
        for P in W.parabolic_subgroups():
            stable = {ctx.tau_conj(g) for g in P.ids} == set(P.ids)
            assert ctx.normalizes(P) == stable, name
        for cls in W.parabolic_classes():
            P, classes, mapping = ctx.class_components(cls)
            if P is None:
                continue
            N, _ = ctx.twist_classes(P)
            member_ids = {m.ids for m in cls.members}
            assert set(mapping) == {oi for oi, o in enumerate(orbits)
                                    if o[0].parabolic.ids in member_ids}, name
            for oi, ci in mapping.items():
                Q = orbits[oi][0].parabolic
                x = next(g for g in range(W.order) if conjugate(P.ids, g) == set(Q.ids))
                w = W.mul(W.inv(x), ctx.tau_conj(x))
                assert N.coset_of(w) in classes[ci].coset_indices, name


def test_twist_classes_match_queue_orbits(pair_contexts, monkeypatch):
    # the one-pass orbits against orbits of all cosets closed by a queue that
    # applies every coset representative to every coset found; twist_classes
    # may test the stratum only once per orbit
    calls = []
    meets_stratum = TauContext.meets_stratum
    monkeypatch.setattr(TauContext, "meets_stratum",
                        lambda self, P, u: calls.append(u) or meets_stratum(self, P, u))
    for name, ctx in pair_contexts.items():
        W = ctx.W
        for P in W.parabolic_subgroups():
            ctx._twists.pop(P.inc, None)        # recompute, and count the tests
            calls.clear()
            N, classes = ctx.twist_classes(P)
            made = len(calls)
            if not ctx.normalizes(P):
                assert classes == () and made == 0, name
                continue
            orbits = set()
            while set(range(N.order)) - set().union(*orbits):
                start = min(set(range(N.order)) - set().union(*orbits))
                orbit, queue = {start}, [start]
                while queue:
                    u = N.rep(queue.pop())
                    for j in range(N.order):
                        a = N.rep(j)
                        moved = N.coset_of(W.mul(W.mul(a, u), W.inv(ctx.tau_conj(a))))
                        if moved not in orbit:
                            orbit.add(moved)
                            queue.append(moved)
                orbits.add(frozenset(orbit))
            assert made <= len(orbits), name
            members = {idx for idx in range(N.order) if ctx.meets_stratum(P, N.rep(idx))}
            expected = {orbit for orbit in orbits if orbit & members}
            assert all(orbit <= members for orbit in expected), name
            assert {frozenset(c.coset_indices) for c in classes} == expected, name
            assert [c.rep for c in classes] == sorted(
                min(N.rep(i) for i in orbit) for orbit in expected), name


def test_normalizer_identification():
    W = catalog("D3")
    ctx = build_tau(W, _diag_flip(3))
    for sp in ctx.split_parabolics():
        image, fixed = normalizer_tau(ctx, sp)
        assert image == fixed
    # identity twist: the image is the whole quotient
    W2 = catalog("B2")
    ctx2 = build_tau(W2, la.identity(2))
    for sp in ctx2.split_parabolics():
        image, _ = normalizer_tau(ctx2, sp)
        assert image == set(range(W2.normalizer(sp.parabolic).order))


def test_twist_classes_identity():
    W = catalog("dihedral4")
    ctx = build_tau(W, la.identity(2))
    P1 = next(P for P in W.parabolic_subgroups() if P.order == 1)
    N, classes = ctx.twist_classes(P1)
    assert len(classes) == 1
    # only the identity fixes a regular point
    assert classes[0].rep == W.identity
    assert classes[0].coset_indices == (N.coset_of(W.identity),)


def test_twist_classes_empty_when_fixed_space_vanishes():
    W = catalog("cyclic2")
    ctx = build_tau(W, la.mat([[root_of_unity(4)]]))
    P1 = next(P for P in W.parabolic_subgroups() if P.order == 1)
    _N, classes = ctx.twist_classes(P1)
    assert classes == ()


def test_twist_class_dictionary_is_bijective(pair_contexts):
    for name, ctx in pair_contexts.items():
        for cls in ctx.W.parabolic_classes():
            P, classes, mapping = ctx.class_components(cls)
            assert sorted(mapping.values()) == list(range(len(classes))), name


def test_tau_trivial_on_quotient(pair_contexts):
    for name, ctx in pair_contexts.items():
        assert tau_acts_trivially_on_quotient(ctx), name


def test_intersection_of_splits():
    for gname, tname in [("dihedral3", "swap"), ("dihedral4", "swap")]:
        W = catalog(gname)
        d = int(gname.replace("dihedral", ""))
        ctx = build_tau(W, dihedral_tau(d))
        assert intersection_of_splits_is_split(ctx)
    W = catalog("B2")
    assert intersection_of_splits_is_split(build_tau(W, la.identity(2)))


def test_orbit_coincidence(pair_contexts):
    for name, ctx in pair_contexts.items():
        if ctx.W.order <= 100:
            assert orbit_coincidence_holds(ctx), name


@pytest.mark.parametrize("name", ["B3:neg", "D4:t"])
def test_orbit_coincidence_fails_on_a_shrunken_setwise_stabilizer(pair_contexts, name,
                                                                   monkeypatch):
    ctx = pair_contexts[name]
    ctx.split_parabolics()                  # built with the true stabilizer
    monkeypatch.setattr(ctx, "setwise", frozenset({ctx.W.identity}))
    assert not orbit_coincidence_holds(ctx)


def test_lehrer_springer_requires_full():
    # the split-parabolic theory on V^tau needs a full twist
    W = catalog("dihedral4")
    rot = la.mat_mul(W.elements[W.generators[0]].mat, dihedral_tau(4))  # odd rotation
    ctx = build_tau(W, rot)
    assert not ctx.is_full
    with pytest.raises(TauError, match="full"):
        ctx.split_orbits()
