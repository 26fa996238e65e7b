"""Reflection-group machinery: closure, reflections, parabolics, normalizers."""

import gc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from leafatlas import linalg as la
from leafatlas.cherednik import CherednikAlgebra, CherednikError
from leafatlas import exactnum, refgroup
from leafatlas.exactnum import CycNum, as_cyc, root_of_unity
from leafatlas.refgroup import (
    DEFAULT_ORDER_CAP, CapExceededError, GroupElement, GroupError, ParameterK,
    ReflectionGroup, _gdeen_generators, _rank_one_shift, catalog, close_group,
)
from leafatlas.verify import _reflection_closure_order, bfs_close, run_suite
from helpers import vec

ORACLE_BATTERY = ("cyclic3", "dihedral5", "B3", "D4", "G4", "G(4,2,3)")


def _closes_under_reflections(W):
    return _reflection_closure_order(W) == W.order


def test_close_group_negation_dim1():
    W = close_group([la.mat([[-1]])])
    assert W.order == 2


def test_close_group_dihedral4_order8():
    W = catalog("dihedral(4)")
    assert W.order == 8


def test_close_group_g212_order8():
    # |G(de,e,n)| = de^n n!/e cross-check by enumeration
    W = catalog("G(2,1,2)")
    assert W.order == 2 ** 2 * 2


@pytest.mark.parametrize("name", ORACLE_BATTERY)
def test_rank_one_shift_matches_rank(name):
    W = catalog(name)
    ident = la.identity(W.dim)
    for g in W.elements:
        assert (_rank_one_shift(g.mat) is not None) == \
            (len(la.rref(la.mat_sub(g.mat, ident))) == 1)


@pytest.mark.parametrize("name", ORACLE_BATTERY)
def test_generated_by_reflections_matches_closure(name):
    W = catalog(name)
    assert W.generated_by_reflections() == _closes_under_reflections(W)


def _induced_groups(pair_contexts):
    """(name, W_tau) for each pair context whose W_tau is not W itself: an
    inner twist has W_tau = W, whose scans the battery already runs."""
    return [(name, ctx.w_tau) for name, ctx in pair_contexts.items() if ctx.w_tau is not ctx.W]


def test_generated_by_reflections_matches_closure_on_twists(pair_contexts):
    for name, W in _induced_groups(pair_contexts):
        assert W.generated_by_reflections() == _closes_under_reflections(W), name


def test_close_group_non_reflection_generator_falls_back_to_closure():
    rotation = la.mat([[0, -1], [1, 0]])
    W = close_group([rotation, la.mat([[1, 0], [0, -1]])])
    assert W.order == 8
    assert not _rank_one_shift(rotation)
    assert W.generated_by_reflections() and _closes_under_reflections(W)


@pytest.mark.parametrize("gen", [[[0, -1], [1, 0]], [[-1, 0], [0, -1]]])
def test_close_group_rejects_non_reflection_groups(gen):
    with pytest.raises(GroupError):
        close_group([la.mat(gen)])


def test_verify_reflection_generation_runs_the_closure():
    W = catalog("B2")
    assert W.hyperplane_orbit_count == 2
    W._reflections = tuple((s, H) for s, H in W.reflections if H.orbit_id != 0)
    W.generated_by_reflections = lambda: True  # verify must not ask the group
    status = {r["id"]: r["status"] for r in run_suite(W)}
    assert status["group.reflection-generated"] == "fail"


def test_verify_hyperplane_check_scans_the_group():
    # same size and cyclic order, wrong elements: only the scan notices
    W = catalog("G4")
    H, K = W.hyperplanes[:2]
    stray = next(g for g in K.pointwise if g != W.identity)
    H.pointwise = H.pointwise[:-1] + (stray,)
    status = {r["id"]: r["status"] for r in run_suite(W)}
    assert status["group.hyperplane-orders"] == "fail"


def test_verify_hyperplane_check_matches_the_whole_group_scan():
    # a reflection missing from the list, with every pointwise stabilizer
    # intact: only the whole-group rank scan notices
    W = catalog("B2")
    W._reflections = W.reflections[:-1]
    result = {r["id"]: r for r in run_suite(W)}["group.hyperplane-orders"]
    assert result["status"] == "fail" and result["detail"] == "reflection scan"


def _conjugate(W, P, x):
    return frozenset(W.conj(p, x) for p in P.ids)


def _assert_classes_match_conjugation(W, name):
    # the oracle: orbits of element-id sets under element-wise conjugation
    # by the generators, the algorithm the incidence-set orbits replaced
    by_ids = {frozenset(P.ids): P for P in W.parabolic_subgroups()}
    expected = set()
    for P in W.parabolic_subgroups():
        orbit = {frozenset(P.ids)}
        queue = [P]
        while queue:
            cur = queue.pop()
            for g in W.generators:
                moved = _conjugate(W, cur, g)
                if moved not in orbit:
                    orbit.add(moved)
                    queue.append(by_ids[moved])
        expected.add(frozenset(orbit))
    classes = W.parabolic_classes()
    assert {frozenset(frozenset(Q.ids) for Q in c.members) for c in classes} == expected, name
    order = [(-c.fixed_dim, c.representative.ids) for c in classes]
    assert order == sorted(order), name
    for c in classes:
        assert c.representative.ids == min(Q.ids for Q in c.members), name
        assert set(c.conjugators) == {Q.inc for Q in c.members}, name
        for Q in c.members:
            assert W.class_of(Q) is c, name
            assert _conjugate(W, c.representative, c.conjugators[Q.inc]) == set(Q.ids), name


@pytest.mark.parametrize("name", ORACLE_BATTERY)
def test_classes_match_elementwise_conjugation(name):
    _assert_classes_match_conjugation(catalog(name), name)


def test_classes_match_elementwise_conjugation_on_twists(pair_contexts):
    for name, W in _induced_groups(pair_contexts):
        _assert_classes_match_conjugation(W, name)


def test_verify_class_conjugator_check_conjugates_elementwise():
    W = catalog("B2")
    status = {r["id"]: r["status"] for r in run_suite(W)}
    assert status["group.class-conjugators"] == "pass"
    c = next(c for c in W.parabolic_classes() if len(c.members) > 1)
    c.conjugators[c.members[-1].inc] = W.identity
    status = {r["id"]: r["status"] for r in run_suite(W)}
    assert status["group.class-conjugators"] == "fail"


def test_verify_class_conjugator_check_closes_each_member():
    # swapping two members' ids together with their conjugators keeps every
    # conjugation consistent; only the reflection closure of each member's
    # hyperplanes notices
    W = catalog("B3")
    c = next(c for c in W.parabolic_classes() if len(c.members) > 2)
    Q1, Q2 = c.members[-2:]
    Q1.ids, Q2.ids = Q2.ids, Q1.ids
    c.conjugators[Q1.inc], c.conjugators[Q2.inc] = c.conjugators[Q2.inc], c.conjugators[Q1.inc]
    status = {r["id"]: r["status"] for r in run_suite(W)}
    assert status["group.class-conjugators"] == "fail"


def _lattice_calls(W):
    """How often the lattice, built on W, closes a parabolic, takes a witness
    point and walks an orbit."""
    calls = {"closures": 0, "witnesses": 0, "orbits": 0}

    def counted(key, fn):
        def run(*args):
            calls[key] += 1
            return fn(*args)
        return run
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReflectionGroup, "_parabolic_of",
                   counted("closures", ReflectionGroup._parabolic_of))
        mp.setattr(ReflectionGroup, "witness_point",
                   counted("witnesses", ReflectionGroup.witness_point))
        mp.setattr(refgroup, "_orbit", counted("orbits", refgroup._orbit))
        classes = W.parabolic_classes()
    return classes, calls


@pytest.mark.parametrize("name,class_count,flat_count", [("B3", 7, 24), ("B4", 12, 116)])
def test_lattice_walks_and_closes_once_per_class(name, class_count, flat_count):
    # closing every flat would take 24 closures on B3 and 116 on B4
    classes, calls = _lattice_calls(catalog(name))
    assert len(classes) == class_count
    assert sum(len(c.members) for c in classes) == flat_count
    assert calls == {"closures": class_count, "witnesses": 0, "orbits": class_count}


def _assert_parabolics_are_reflection_closures(W, name):
    for P in W.parabolic_subgroups():
        refl = [s for s, H in W.reflections if W.hyperplanes.index(H) in P.inc]
        assert set(P.ids) == bfs_close(W, refl), name


@pytest.mark.parametrize("name", ORACLE_BATTERY)
def test_parabolics_are_reflection_closures(name):
    _assert_parabolics_are_reflection_closures(catalog(name), name)


def test_parabolics_are_reflection_closures_on_twists(pair_contexts):
    for name, W in _induced_groups(pair_contexts):
        _assert_parabolics_are_reflection_closures(W, name)


@pytest.mark.parametrize("name", ORACLE_BATTERY + ("B4",))
def test_dimino_closure_matches_breadth_first_closure(name, monkeypatch):
    # every subgroup the lattice closes, each class start from its reflections
    W = catalog(name)
    closed, close = [], refgroup._close
    monkeypatch.setattr(refgroup, "_close", lambda group, gens: closed.append(
        (list(gens), close(group, gens))) or closed[-1][1])
    assert len(W.parabolic_classes()) == len(closed), name
    for gens, (ids, kept) in closed:
        assert ids == bfs_close(W, gens), name
        expected = []               # each generator the ones kept before do not reach
        for s in gens:
            if s not in bfs_close(W, expected):
                expected.append(s)
        assert kept == expected, name


@pytest.mark.parametrize("name,degrees", [
    ("B3", (2, 4, 6)), ("D4", (2, 4, 4, 6)), ("B4", (2, 4, 6, 8)), ("G4", (4, 6)),
    ("G(4,2,3)", (4, 6, 8)), ("dihedral5", (2, 5)),
])
def test_fixed_space_dimensions_give_the_degrees(name, degrees):
    # Shephard-Todd: the sum over w in W of t^(dim V^w) is the product of
    # t + d - 1 over the degrees d, read off the elements' matrices alone
    W = catalog(name)
    assert _fixed_dim_counts(W, la.identity(W.dim)) == \
        _generalized_degree_product([(d, 1) for d in degrees], W.dim), name


def _fixed_dim_counts(W, tau):
    """Coefficients of t^0, ..., t^dim in the sum over w in W of t^(dim V^(w tau))."""
    counts = [0] * (W.dim + 1)
    for g in W.elements:
        counts[la.fixed_dim(la.mat_mul(g.mat, tau))] += 1
    return counts


def _generalized_degree_product(generalized, dim):
    """Coefficients of t^0, ..., t^dim in the product of t + d - 1 over the
    (d, eps) with eps = 1 and of d over the others."""
    out = [1] + [0] * dim
    for d, eps in generalized:
        if eps == 1:
            out = [a * (d - 1) + b for a, b in zip(out, [0] + out)]
        else:
            out = [a * d for a in out]
    return out


@pytest.mark.parametrize("name,tau,generalized", [
    # (d_j, eps_j): tau acts on the j-th basic invariant, of degree d_j, by
    # eps_j.  Flipping one sign fixes the power sums and negates x_1...x_n
    # of D_n; -1 and zeta_4 multiply an invariant of degree d by (-1)^d and i^d
    ("D4", "diag-flip", ((2, 1), (4, 1), (6, 1), (4, -1))),
    ("D5", "diag-flip", ((2, 1), (4, 1), (6, 1), (8, 1), (5, -1))),
    ("D5", "neg", ((2, 1), (4, 1), (6, 1), (8, 1), (5, -1))),
    ("B3", "neg", ((2, 1), (4, 1), (6, 1))),
    ("G4", "zeta4", ((4, 1), (6, -1))),
    ("G(4,2,3)", "zeta4", ((4, 1), (8, 1), (6, -1))),
])
def test_fixed_space_dimensions_on_a_coset_give_the_generalized_degrees(name, tau, generalized):
    # Lehrer-Springer: the sum over w in W of t^(dim V^(w tau)) is the
    # product of t + d_j - 1 over eps_j = 1 times the product of the other
    # d_j, read off the elements' matrices alone
    W = catalog(name)
    first, rest = {"diag-flip": (-1, 1), "neg": (-1, -1), "zeta4": (root_of_unity(4),) * 2}[tau]
    twist = la.mat([[(first if i == 0 else rest) if i == j else 0 for j in range(W.dim)]
                    for i in range(W.dim)])
    # the sum of d_j - 1 is the number of reflections
    assert sum(d - 1 for d, _ in generalized) == len(W.reflections), name
    assert _fixed_dim_counts(W, twist) == _generalized_degree_product(generalized, W.dim), name


def _partitions(n, part=1):
    """The number of partitions of n into parts that are multiples of part."""
    ways = [1] + [0] * n
    for k in range(part, n + 1, part):
        for total in range(k, n + 1):
            ways[total] += ways[total - k]
    return ways[n]


@pytest.mark.parametrize("name", ("B2", "B3", "B4", "B5", "D4", "D5"))
def test_parabolic_class_counts_match_the_closed_forms(name):
    # a parabolic of B_n is, up to conjugacy, a B_r factor and a partition of
    # n - r into the blocks of a Young subgroup; for D_n the D_r factor has
    # r != 1, and at r = 0 a partition into even parts names two classes
    n = int(name[1:])
    if name[0] == "B":
        count = sum(_partitions(k) for k in range(n + 1))
    else:
        count = _partitions(n, 2) + sum(_partitions(n - r) for r in range(n + 1) if r != 1)
    assert len(catalog(name).parabolic_classes()) == count, name


def test_order_cap_error():
    with pytest.raises(GroupError):
        close_group([la.mat([[-1, 0], [0, 1]]), la.mat([[0, 1], [1, 0]])], order_cap=3)


def test_infinite_order_generator_rejected():
    with pytest.raises(GroupError):
        close_group([la.mat([[2]])], order_cap=50)


@pytest.mark.parametrize("name,order,nrefl", [
    ("dihedral3", 6, 3),
    ("dihedral4", 8, 4),
    ("B2", 8, 4),
    ("B3", 48, 9),
    ("G4", 24, 8),
    ("cyclic2", 2, 1),
])
def test_catalog_orders_and_reflections(name, order, nrefl):
    W = catalog(name)
    assert W.order == order
    assert len(W.reflections) == nrefl
    assert W.generated_by_reflections()


def test_reflections_trivial_group():
    W = catalog("cyclic(1)")
    assert W.reflections == ()


def test_dihedral8_hyperplane_orbits():
    W = catalog("dihedral4")
    assert len(W.hyperplanes) == 4
    assert all(H.e == 2 for H in W.hyperplanes)
    assert W.hyperplane_orbit_count == 2


def test_g4_hyperplanes():
    W = catalog("G4")
    assert len(W.hyperplanes) == 4
    assert all(H.e == 3 for H in W.hyperplanes)
    assert W.hyperplane_orbit_count == 1


def test_hyperplane_pointwise_cyclic():
    for name in ("B2", "G4", "dihedral3"):
        W = catalog(name)
        for H in W.hyperplanes:
            assert len(H.pointwise) == H.e
            orders = sorted(len(bfs_close(W, [g])) for g in H.pointwise)
            assert max(orders) == H.e  # cyclic of order e_H has a generator


def _intersection_walk(W):
    """The intersection lattice by intersecting every flat with every
    hyperplane, keyed by RREF basis (the oracle for `flats`)."""
    def subspace_key(basis):
        return tuple(tuple(x.sort_key() for x in row) for row in basis)
    full = la.identity(W.dim)
    found = {subspace_key(full): full}
    queue = [full]
    bases = [la.nullspace((H.alpha,), W.dim) for H in W.hyperplanes]
    while queue:
        f = queue.pop()
        for basis in bases:
            inter = la.intersect(f, basis, W.dim)
            k = subspace_key(inter)
            if k not in found:
                found[k] = inter
                queue.append(inter)
    return tuple(sorted(found.values(), key=subspace_key))


def _assert_flats_match_walk(W):
    flats = W.flats()
    assert len(set(flats)) == len(flats)
    assert set(flats) == {W.incidence(f) for f in _intersection_walk(W)}
    assert {P.inc for P in W.parabolic_subgroups()} == set(flats)


@pytest.mark.parametrize("name", ORACLE_BATTERY + ("B4",))
def test_flats_match_intersection_walk(name):
    _assert_flats_match_walk(catalog(name))


def test_flats_match_intersection_walk_on_twists(pair_contexts):
    for _, W in _induced_groups(pair_contexts):
        _assert_flats_match_walk(W)


def test_stabilizer_examples():
    W = catalog("G(2,1,2)")
    generic = vec([2, 3])
    assert W.pointwise_stabilizer((generic,)).order == 1
    assert W.pointwise_stabilizer((vec([0, 0]),)).order == W.order
    P = W.pointwise_stabilizer((vec([0, 1]),))
    assert P.order == 2
    t = next(g for g in P.ids if g != W.identity)
    assert W.elements[t].mat == la.mat([[-1, 0], [0, 1]])


def test_pointwise_stabilizer_examples():
    W = catalog("B2")
    full = la.rref([vec([1, 0]), vec([0, 1])])
    assert W.pointwise_stabilizer(full).order == 1
    assert W.pointwise_stabilizer(()).order == W.order
    H = W.hyperplanes[0]
    assert W.pointwise_stabilizer(la.nullspace((H.alpha,), W.dim)).order == H.e


def test_parabolic_classes_counts():
    assert len(catalog("cyclic2").parabolic_classes()) == 2
    cl = catalog("G(2,1,2)").parabolic_classes()
    assert len(cl) == 4
    assert sorted(c.representative.order for c in cl) == [1, 2, 2, 8]
    clg4 = catalog("G4").parabolic_classes()
    assert len(clg4) == 3
    assert sorted(c.representative.order for c in clg4) == [1, 3, 24]


def test_parabolic_classes_generator_order_independent():
    W1 = catalog("B2")
    gens = [W1.elements[g].mat for g in W1.generators][::-1]
    W2 = close_group(gens)
    k1 = [[W1.elements[i].key for i in c.representative.ids] for c in W1.parabolic_classes()]
    k2 = [[W2.elements[i].key for i in c.representative.ids] for c in W2.parabolic_classes()]
    assert k1 == k2


def test_witness_has_exact_stabilizer():
    for name in ("B2", "B3", "G4", "dihedral4"):
        W = catalog(name)
        for P in W.parabolic_subgroups():
            assert W.stabilizer_keys(W.witness_point(P.fixed_space)) == set(P.ids)


@given(st.sampled_from(["B2", "dihedral3", "G4"]),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2))
@settings(max_examples=25, deadline=None)
def test_stabilizer_equals_pointwise_on_span(name, coords):
    W = catalog(name)
    v = vec(coords)
    basis = la.span([v])
    assert W.stabilizer_keys(v) == set(W.pointwise_stabilizer(basis).ids)


def test_steinberg_consistency():
    # the stabilizer of a generic point of an intersection of fixed spaces
    # contains both parabolics
    W = catalog("B3")
    paras = W.parabolic_subgroups()
    P, Q = paras[1], paras[2]
    inter = la.intersect(P.fixed_space, Q.fixed_space, W.dim)
    v = W.witness_point(inter)
    stab = W.stabilizer_keys(v)
    assert set(P.ids) <= stab and set(Q.ids) <= stab


def test_normalizer_examples():
    W = catalog("B2")
    top = next(c.representative for c in W.parabolic_classes() if c.representative.order == W.order)
    assert W.normalizer(top).order == 1
    bottom = next(c.representative for c in W.parabolic_classes() if c.representative.order == 1)
    assert W.normalizer(bottom).order == W.order


def test_normalizer_b4_type_b1_is_b3():
    W = catalog("B4")
    basis = la.rref([vec([0, 1, 0, 0]), vec([0, 0, 1, 0]), vec([0, 0, 0, 1])])
    P = W.pointwise_stabilizer(basis)
    assert P.order == 2
    N = W.normalizer(P)
    assert len(N.subgroup) // P.order == 48
    assert N.order == 48


def _assert_normalizers_match_setwise_scan(W, name):
    for P in W.parabolic_subgroups():
        N = W.normalizer(P)
        assert frozenset(N.subgroup) == W.setwise_stabilizer_keys(P.fixed_space), name


@pytest.mark.parametrize("name", ORACLE_BATTERY + ("B4",))
def test_normalizer_filter_matches_setwise_scan(name):
    _assert_normalizers_match_setwise_scan(catalog(name), name)


def test_normalizer_filter_matches_setwise_scan_on_twists(pair_contexts):
    for name, W in _induced_groups(pair_contexts):
        _assert_normalizers_match_setwise_scan(W, name)


def _assert_normalizers_of_class_members_are_conjugate(W, name):
    # orbit-stabilizer: N_W(P) is P's stabilizer under conjugation, and the
    # class is its orbit; a member Q = x P x^-1 has N_W(Q) = x N_W(P) x^-1
    for c in W.parabolic_classes():
        N = frozenset(W.normalizer(c.representative).subgroup)
        assert len(N) * len(c.members) == W.order, name
        for Q in c.members:
            x = c.conjugators[Q.inc]
            assert frozenset(W.normalizer(Q).subgroup) == {W.conj(g, x) for g in N}, name


@pytest.mark.parametrize("name", ORACLE_BATTERY + ("B4",))
def test_normalizers_of_class_members_are_conjugate(name):
    _assert_normalizers_of_class_members_are_conjugate(catalog(name), name)


def test_normalizers_of_class_members_are_conjugate_on_twists(pair_contexts):
    for name, ctx in pair_contexts.items():
        _assert_normalizers_of_class_members_are_conjugate(ctx.w_tau, name)


def _dense_mat_mul(a, b):
    """The triple-loop product that the column plan replaced: the oracle."""
    zero = as_cyc(0)
    out = []
    for ai in a:
        row = []
        for j in range(len(b[0]) if b else 0):
            s = zero
            for l, x in enumerate(ai):
                if not x.is_zero():
                    y = b[l][j]
                    if not y.is_zero():
                        s = s + x * y
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _word_table(W):
    """Generator words by a breadth-first search over matrix products (the
    table that the closure's tree paths replaced)."""
    one = W.elements[W.identity]
    table = {one.key: ""}
    frontier = [(one.mat, "")]
    while frontier:
        nxt = []
        for m, word in frontier:
            for i, h in enumerate(W.generators):
                prod = la.mat_mul(m, W.elements[h].mat)
                key = GroupElement(prod).key
                if key not in table:
                    w2 = (word + f" g{i}").strip()
                    table[key] = w2
                    nxt.append((prod, w2))
        frontier = nxt
    return table


def _assert_tables_match_matrices(W, name):
    # ids follow key order, so sorted ids and sorted keys agree
    mats = [g.mat for g in W.elements]
    assert [W.by_key[g.key] for g in W.elements] == list(range(W.order)), name
    assert [g.key for g in W.elements] == sorted(g.key for g in W.elements), name
    assert mats[W.identity] == la.identity(W.dim), name
    gens = [mats[s] for s in W.generators]
    for s in gens:
        for t in gens:
            assert la.mat_mul(s, t) == _dense_mat_mul(s, t), name
    for g in range(W.order):
        for s, m in zip(W.generators, gens):
            assert mats[W.mul(g, s)] == _dense_mat_mul(mats[g], m), name
    inverses = [la.mat_inverse(m) for m in mats]
    step = max(1, W.order // 16)
    for g in range(W.order):
        assert mats[W.inv(g)] == inverses[g], name
        for h in range(0, W.order, step):
            assert mats[W.mul(g, h)] == la.mat_mul(mats[g], mats[h]), name
            assert mats[W.conj(g, h)] == la.mat_mul(la.mat_mul(mats[h], mats[g]), inverses[h]), name
    # extend: the endomorphism sending s_j to x s_j x^-1 is conjugation by x
    x = W.order - 1
    images = W.extend([W.conj(s, x) for s in W.generators])
    assert [mats[i] for i in images] == \
        [la.mat_mul(la.mat_mul(mats[x], m), inverses[x]) for m in mats], name
    words = {g.key: " ".join(f"g{j}" for j in W.words[i]) for i, g in enumerate(W.elements)}
    assert words == _word_table(W), name


@pytest.mark.parametrize("name", ORACLE_BATTERY + ("B4",))
def test_closure_tables_match_matrices(name):
    _assert_tables_match_matrices(catalog(name), name)


def test_closure_tables_match_matrices_on_twists(pair_contexts):
    for name, W in _induced_groups(pair_contexts):
        _assert_tables_match_matrices(W, name)


def _random_entry(rng, conductor):
    kind = rng.randrange(5)
    if kind < 3:
        return as_cyc((0, 1, -1)[kind])
    if kind == 3 or conductor == 1:
        return as_cyc(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return sum((as_cyc(Fraction(rng.randint(-5, 5), rng.randint(1, 4))) * root_of_unity(conductor, e)
                for e in range(conductor)), as_cyc(0))


@pytest.mark.parametrize("conductor", (1, 3, 4, 5, 8, 12))
def test_planned_mat_mul_matches_dense_oracle(conductor):
    rng = Random(1100 + conductor)
    for trial in range(12):
        n = trial % 5
        a, b = ([[_random_entry(rng, conductor) for _ in range(n)] for _ in range(n)]
                for _ in range(2))
        if n and trial % 3 == 0:
            for row in b:
                row[0] = as_cyc(0)              # an all-zero column
        a, b = la.mat(a), la.mat(b)
        assert la.mat_mul(a, b) == _dense_mat_mul(a, b), (conductor, trial)
    assert la.mat_mul((), ()) == () == _dense_mat_mul((), ())


def _count_calls(owner, attr, run):
    """run()'s value and how many times it called owner.attr."""
    calls = [0]
    orig = getattr(owner, attr)

    def counted(*args):
        calls[0] += 1
        return orig(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(owner, attr, counted)
        out = run()
    return out, calls[0]


def test_closure_formats_each_value_once_and_multiplies_only_in_its_plans():
    # candidates are int tuples: a key string is made only for an accepted
    # element, from one CycNum per distinct value, and no CycNum product is
    # formed per element (the per-entry closure built a 16-entry key for each
    # of B4's 1536 candidates and made one product per element)
    G4 = catalog("G4")
    for dim, gens, order in ((4, _gdeen_generators(2, 1, 4, 10 ** 6), 384),
                             (2, [G4.elements[s].mat for s in G4.generators], 24),
                             # one entry value under several matrix denominators
                             (*_conjugated("B3", _UNIPOTENT), 48)):
        W, formatted = _count_calls(exactnum, "cyc_to_str", lambda: ReflectionGroup(dim, gens))
        values = {x for g in W.elements for row in g.mat for x in row}
        assert W.order == order and 0 < formatted <= len(values)
        W, products = _count_calls(CycNum, "__mul__", lambda: ReflectionGroup(dim, gens))
        planned = sum(not x.is_zero() for s in gens for row in s for x in row)
        assert W.order == order and products <= planned


def _entrywise_closure(dim, generators, order_cap=DEFAULT_ORDER_CAP):
    """The closure that `ReflectionGroup` ran before it moved to integer
    coordinates, kept as the oracle: every candidate g*s_j is a CycNum matrix
    with its key string, formed before it is known to be new.  Returns the
    keys and matrices in id order, `_right`, `_steps`, the generators' ids
    and the identity's id."""
    n = len(generators)
    found = [GroupElement(la.identity(dim))]
    by_key = {found[0].key: 0}
    right, steps = [], [-1]
    for p, cur in enumerate(found):
        for j, s in enumerate(generators):
            g = GroupElement(la.mat_mul(cur.mat, s))
            o = by_key.setdefault(g.key, len(found))
            if o == len(found):
                if o >= order_cap:
                    raise CapExceededError("group too large or infinite")
                found.append(g)
                steps.append(p * n + j)
            right.append(o)
    old = sorted(range(len(found)), key=lambda o: found[o].key)
    tree = [0] * len(old)
    for i, o in enumerate(old):
        tree[o] = i
    return ([found[o].key for o in old], [found[o].mat for o in old],
            [tree[right[o * n + j]] for o in old for j in range(n)],
            [-1] + [tree[s // n] * n + s % n for s in steps[1:]],
            tuple(tree[o] for o in right[:n]), tree[0])


_UNIPOTENT = la.mat([[1, Fraction(1, 2), 0], [0, 1, Fraction(-2, 3)], [0, 0, 1]])


def _conjugated(name, x):
    """The generators of a catalog group conjugated by the matrix x."""
    W = catalog(name)
    x_inv = la.mat_inverse(x)
    return W.dim, [la.mat_mul(la.mat_mul(x, W.elements[s].mat), x_inv) for s in W.generators]


def test_mat_inverse_refuses_a_singular_matrix():
    # rank 2: the last pivot of (a | 1) lands in the right half
    with pytest.raises(ZeroDivisionError):
        la.mat_inverse(la.mat([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))
    with pytest.raises(ZeroDivisionError):
        la.mat_inverse(la.mat([[root_of_unity(3), 1], [root_of_unity(3) ** 2, root_of_unity(3)]]))
    assert la.mat_mul(_UNIPOTENT, la.mat_inverse(_UNIPOTENT)) == la.identity(3)


# the closure battery, with the field Q(zeta_N) each closure runs over
CLOSURE_CASES = (("B3", 1), ("D4", 1), ("G(4,2,3)", 4), ("G(6,2,3)", 3), ("G4", 12),
                 ("dihedral5", 5), ("dihedral8", 8), ("B3-unipotent", 1),
                 ("dihedral5-zeta3", 15))


def _closure_case(name):
    if name == "B3-unipotent":
        # entries, and so coordinates, with denominators
        return _conjugated("B3", _UNIPOTENT)
    if name == "dihedral5-zeta3":
        # Q(zeta_5) and Q(zeta_3) together
        return _conjugated("dihedral5", la.mat([[1, 0], [0, root_of_unity(3)]]))
    W = catalog(name)
    return W.dim, [W.elements[s].mat for s in W.generators]


@pytest.mark.parametrize("name,field", CLOSURE_CASES)
def test_integer_closure_matches_entrywise_oracle(name, field):
    dim, gens = _closure_case(name)
    keys, mats, right, steps, generators, identity = _entrywise_closure(dim, gens)
    W = ReflectionGroup(dim, gens)
    assert [g.key for g in W.elements] == keys, name
    assert [g.mat for g in W.elements] == mats, name
    assert list(W._right) == right and list(W._steps) == steps, name
    assert W.generators == generators and W.identity == identity, name
    assert refgroup._conductor(gens) == field, name
    if name == "B3-unipotent":
        assert any(x.den > 1 for m in mats for row in m for x in row)
    # the cap stops both closures at the same order
    for cap in (1, 2, W.order - 1, W.order):
        stopped = []
        for close in (_entrywise_closure, ReflectionGroup):
            try:
                close(dim, gens, cap)
                stopped.append(False)
            except CapExceededError:
                stopped.append(True)
        assert stopped == [cap < W.order] * 2, (name, cap)


def _whole_group_scan(W):
    """The reflection scan that `_compute_reflections` ran before the trace
    filter, kept as the oracle: every element is tested, and every reflection
    normalizes its own alpha and alpha_vee.  Returns the (id, alpha) pairs in
    id order and, per hyperplane in key order, (alpha, alpha_vee, pointwise
    ids)."""
    ident = la.identity(W.dim)
    refl, hyps = [], {}
    for g, elt in enumerate(W.elements):
        if not _rank_one_shift(elt.mat):
            continue
        diff = la.mat_sub(elt.mat, ident)
        alpha, avee = (refgroup._normalize_line(next(v for v in rows if
                                                     any(not x.is_zero() for x in v)))
                       for rows in (diff, la.transpose(diff)))
        refl.append((g, alpha))
        hyps.setdefault(alpha, (avee, [W.identity]))[1].append(g)
    return refl, [(a, avee, tuple(sorted(ids))) for a, (avee, ids) in
                  sorted(hyps.items(), key=lambda kv: [x.sort_key() for x in kv[0]])]


def _assert_reflections_match_scan(W, name):
    refl, hyps = _whole_group_scan(W)
    assert [(g, H.alpha) for g, H in W.reflections] == refl, name
    assert [(H.alpha, H.alpha_vee, H.pointwise) for H in W.hyperplanes] == hyps, name
    for H in W.hyperplanes:
        assert H.e == len(H.pointwise), name
    assert W._candidates == sorted(set(W._candidates)), name
    assert {g for g, _ in refl} <= set(W._candidates), name


@pytest.mark.parametrize("name,field", CLOSURE_CASES)
def test_reflections_match_whole_group_scan(name, field):
    _assert_reflections_match_scan(ReflectionGroup(*_closure_case(name)), name)


def test_reflections_match_whole_group_scan_on_twists(pair_contexts):
    for name, W in _induced_groups(pair_contexts):
        _assert_reflections_match_scan(W, name)


def test_reflection_scan_tests_only_trace_candidates():
    # B5: 45 elements of trace dim - 1 + zeta for 25 reflections, where the
    # whole-group scan tested all 3840
    W, scanned = _count_calls(refgroup, "_rank_one_shift", lambda: catalog("B5"))
    assert len(W.reflections) == 25 and scanned <= 45
    # <zeta_11>, <zeta_13> in dimension 1: 142 reflections on one hyperplane,
    # where every reflection normalized its own alpha and alpha_vee through
    # a Fraction inverse in Q(zeta_143); now a hyperplane takes those two and
    # its null space's pivot, and the generators' hyperplane permutations,
    # found by conjugating reflections, take none
    W = ReflectionGroup(1, [la.mat([[root_of_unity(11)]]), la.mat([[root_of_unity(13)]])])
    _, inverses = _count_calls(CycNum, "inverse", lambda: W.reflections)
    assert W.order == 143 and len(W.reflections) == 142
    assert inverses <= 3 * len(W.hyperplanes)
    # the trace test reduces each of the 286 roots +-zeta_143^k once
    _, reductions = _count_calls(refgroup, "_reduce_mod_phi",
                                 lambda: refgroup._trace_test(1, 143, 120))
    assert reductions == 2 * 143


@pytest.mark.parametrize("name,candidates", (("D5", 20), ("B5", 45), ("D4", 12), ("G4", 14),
                                             ("dihedral5", 5)))
def test_reflections_decode_only_the_trace_candidates(name, candidates):
    # a group keeps flat tuples: the reflection scan decodes the matrices of
    # the trace test's candidates and no other element (the eager decode
    # built all 3840 of B5)
    groups = []

    def hyperplanes():
        groups.append(catalog(name))
        return groups[0].hyperplanes
    hyps, decoded = _count_calls(GroupElement, "__init__", hyperplanes)
    W = groups[0]
    assert hyps and decoded == len(W._candidates) == candidates, name
    assert sum(g is not None for g in W.elements._read) == candidates, name
    # by_key bisects the ids: it decodes nothing and forms about log2 |W|
    # keys for a lookup, and none for a key it has found before
    one = GroupElement(la.identity(W.dim)).key
    formed, key = [], W.by_key._key
    W.by_key._key = lambda t: formed.append(t) or key(t)
    found, decoded = _count_calls(GroupElement, "__init__", lambda: W.by_key[one])
    assert found == W.by_key[one] == W.identity and decoded == 0, name
    assert 0 < len(formed) <= W.order.bit_length() + 1, name


def _trace_candidates(W):
    """The trace test that the closure ran element by element before it kept
    one verdict per diagonal, kept as the oracle: the ids whose trace,
    read off the flat coordinates, is dim - 1 + zeta with zeta one of the
    +-zeta_N^k other than 1."""
    n, phi = W.field, exactnum._phi_degree(W.field)
    roots = {exactnum.to_flat(s * root_of_unity(n, k), n)[:-1]
             for k in range(n) for s in (1, -1)} - {exactnum.to_flat(as_cyc(1), n)[:-1]}
    step, out = (W.dim + 1) * phi, []
    for g, t in enumerate(W._flat):
        d = t[-1]
        tr = [sum(t[a:-1:step]) for a in range(phi)]
        tr[0] -= (W.dim - 1) * d
        if not any(c % d for c in tr) and tuple(c // d for c in tr) in roots:
            out.append(g)
    return out


@pytest.mark.parametrize("name", dict.fromkeys(ORACLE_BATTERY + tuple(n for n, _ in CLOSURE_CASES)))
def test_trace_verdicts_per_diagonal_match_a_per_element_test(name):
    W = ReflectionGroup(*_closure_case(name))
    assert W._candidates == _trace_candidates(W), name


@pytest.mark.parametrize("name", ORACLE_BATTERY)
def test_elements_decode_on_first_read_as_an_eager_decode(name):
    W = catalog(name)
    _, decode = refgroup._decoder(W.dim, W.field, exactnum._phi_degree(W.field))
    eager = [decode(t) for t in W._flat]
    for i in reversed(range(W.order)):
        g = W.elements[i]
        assert (g.mat, g.key) == (eager[i].mat, eager[i].key), (name, i)
        assert W.by_key[g.key] == i and W.elements[i] is g, (name, i)
        # a string that sorts between keys is no key
        assert W.by_key.get(g.key + " ") is None and g.key + " " not in W.by_key, (name, i)
    assert len(W.elements) == W.order == len(eager), name
    assert [g.key for g in W.elements] == [g.key for g in eager], name
    assert W.elements[-1] is W.elements[W.order - 1], name
    assert W.elements[-W.order] is W.elements[0], name
    assert Random(name).choice(W.elements).key in W.by_key, name
    for absent in ("", "~", 1):
        assert W.by_key.get(absent, -1) == -1 and absent not in W.by_key, name
        with pytest.raises(KeyError):
            W.by_key[absent]
    for bad in (W.order, -W.order - 1):
        with pytest.raises(IndexError):
            W.elements[bad]
    with pytest.raises(TypeError):
        W.elements[1:3]


def test_builds_pause_the_collector_and_restore_the_callers_setting(monkeypatch):
    dim, gens = _closure_case("B3")
    seen = []
    times = refgroup._times

    def watched(*args):
        seen.append(gc.isenabled())
        return times(*args)
    monkeypatch.setattr(refgroup, "_times", watched)
    caller = gc.isenabled()
    try:
        for setting in (True, False):
            (gc.enable if setting else gc.disable)()
            assert ReflectionGroup(dim, gens).order == 48
            assert gc.isenabled() is setting
            with pytest.raises(CapExceededError):
                ReflectionGroup(dim, gens, order_cap=20)
            assert gc.isenabled() is setting
    finally:
        (gc.enable if caller else gc.disable)()
    assert seen and not any(seen)


def test_subspaces_are_solved_once_where_read():
    # a hyperplane takes no null space; the lattice walk solves each cut once
    # and keeps it as a new class's fixed space (one more per class before)
    _, solves = _count_calls(la, "nullspace", lambda: catalog("B5").hyperplanes)
    assert solves == 0
    for name, cut in (("B3", 20), ("B4", 54)):
        W = catalog(name)
        _, solves = _count_calls(la, "nullspace", W.parabolic_classes)
        assert solves == cut, name
        # a kept flat is the fixed space the incidence set would solve for
        assert all(P.fixed_space == la.nullspace(
            [W.hyperplanes[i].alpha for i in sorted(P.inc)], W.dim)
            for P in W.parabolic_subgroups()), name


def test_foreign_elements_raise():
    # group operations take ids; the edges that accept an element or its key
    # reject one outside the group, and they take no id
    W = catalog("B2")
    alg = CherednikAlgebra(W)
    foreign = catalog("B3").elements[-1]
    assert alg.w(GroupElement(W.elements[1].mat)) == alg.w(W.elements[1].key)
    for bad in (foreign, foreign.key, GroupElement(la.mat([[2, 0], [0, 1]])), 1):
        with pytest.raises(CherednikError):
            alg.w(bad)
        with pytest.raises(CherednikError):
            alg.monomial((1, 0), bad, (0, 1))


def test_parameter_k_residues():
    W = catalog("G4")
    k = ParameterK.from_lists(W, [[0, 1, 2]])
    H = W.hyperplanes[0]
    assert k.k_H(H, 3) == k.k_H(H, 0)
    assert k.k_H(H, 4) == as_cyc(1)
    shifted = k.shifted({H.orbit_id: as_cyc(5)})
    assert shifted.k_H(H, 1) == as_cyc(6)


def test_catalog_rejects_unknown():
    with pytest.raises(GroupError):
        catalog("E8ish")


def test_group_order_formula_gdeen():
    import math
    for de, e, n in [(2, 1, 2), (2, 2, 2), (3, 1, 2), (4, 2, 2), (3, 3, 3)]:
        W = catalog(f"G({de},{e},{n})")
        assert W.order == de ** n * math.factorial(n) // e
