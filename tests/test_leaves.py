"""Strata and the twisted leaf atlas at the undeformed point."""

from pathlib import Path

import pytest

from leafatlas import linalg as la
from leafatlas.cli import run
from leafatlas.exactnum import root_of_unity
from leafatlas.leaves import leaf_report, leaves_zero_tau, strata_double, strata_single
from leafatlas.refgroup import catalog, dihedral_tau
from leafatlas.tau import SplitParabolic, TauContext, TauError, TwistClass, build_tau
from leafatlas.verify import (
    _tau_checks, double_membership_agrees, double_twist_nonempty, run_suite, witness_covector,
)
from helpers import fixed_space, vec
from test_refgroup import ORACLE_BATTERY


def _diag_flip(n):
    return la.mat([[(-1 if i == 0 else 1) if i == j else 0 for j in range(n)]
                   for i in range(n)])


def test_strata_single_examples():
    assert sorted(s.dimension for s in strata_single(catalog("cyclic2"))) == [0, 1]
    assert sorted(s.dimension for s in strata_single(catalog("B2"))) == [0, 1, 1, 2]
    assert sorted(s.dimension for s in strata_single(catalog("G4"))) == [0, 1, 2]


def test_strata_double_examples():
    assert sorted(s.dimension for s in strata_double(catalog("cyclic2"))) == [0, 2]
    assert sorted(s.dimension for s in strata_double(catalog("B2"))) == [0, 2, 2, 4]
    trivial = catalog("cyclic1")
    assert [s.dimension for s in strata_double(trivial)] == [2 * trivial.dim]


def test_double_stratum_dimension_is_twice_fixed_dim():
    for name in ("B2", "G4", "dihedral3"):
        W = catalog(name)
        singles = {s.parabolic_class: s for s in strata_single(W)}
        for s in strata_double(W):
            assert s.dimension == 2 * singles[s.parabolic_class].dimension


def test_leaves_identity_b2():
    ctx = build_tau(catalog("B2"), la.identity(2))
    L = leaves_zero_tau(ctx)
    assert sorted(l.dimension for l in L) == [0, 2, 2, 4]
    D = strata_double(ctx.W)
    assert sorted(l.p_class for l in L) == sorted(s.parabolic_class for s in D)


def test_leaves_scalar_twist_rank1():
    W = catalog("cyclic2")
    ctx = build_tau(W, la.mat([[root_of_unity(4)]]))
    L = leaves_zero_tau(ctx)
    assert len(L) == 1
    assert L[0].dimension == 0
    assert L[0].cuspidal_point == "origin"
    assert L[0].model_space_dim == 0


def test_leaf_count_matches_induced_classes(pair_contexts):
    for name, ctx in pair_contexts.items():
        L = leaves_zero_tau(ctx)
        assert len(L) == len(ctx.w_tau.parabolic_classes()), name
        for l in L:
            assert l.dimension % 2 == 0
            assert l.dimension <= 2 * ctx.W.dim
            assert l.model_parameter == "0"


def test_dimension_pairing_two_ways(pair_contexts):
    for name, ctx in pair_contexts.items():
        for sp in ctx.split_parabolics():
            assert 2 * sp.tau_rank == 2 * len(sp.p_tau.fixed_space), name


def test_partition_of_components(pair_contexts):
    for name, ctx in pair_contexts.items():
        total = sum(len(ctx.class_components(cls)[2]) for cls in ctx.W.parabolic_classes())
        assert total == len(ctx.w_tau.parabolic_classes()), name


def test_component_empty_iff_no_split_member():
    W = catalog("dihedral4")
    ctx = build_tau(W, dihedral_tau(4))
    splits = {sp.parabolic.ids for sp in ctx.split_parabolics()}
    for cls in W.parabolic_classes():
        comps = ctx.class_components(cls)[2]
        has_split = any(m.ids in splits for m in cls.members)
        assert bool(comps) == has_split


def test_double_membership_agreement(pair_contexts):
    for name, ctx in pair_contexts.items():
        if ctx.W.order > 60:
            continue
        for cls in ctx.W.parabolic_classes():
            assert double_membership_agrees(ctx, cls.representative), name


def test_double_twist_matches_the_two_scan_intersection(pair_contexts):
    # the point's stabilizer filtered by the covector against the reference:
    # the intersection of the two whole-group scans, on subspaces built by
    # la.intersect, for every coset of every class representative tau normalizes
    seen = set()
    for name, ctx in pair_contexts.items():
        W, n = ctx.W, ctx.W.dim
        for P in (cls.representative for cls in W.parabolic_classes()):
            if not ctx.normalizes(P):
                continue
            N = W.normalizer(P)
            dual_fixed = la.nullspace(tuple(W.hyperplanes[i].alpha_vee for i in sorted(P.inc)), n)
            for idx in range(N.order):
                u = N.rep(idx)
                wtau = la.mat_mul(W.elements[u].mat, ctx.tau)
                v = W.witness_point(la.intersect(P.fixed_space, fixed_space(wtau), n))
                x = witness_covector(
                    W, la.intersect(dual_fixed, fixed_space(la.transpose(wtau)), n))
                expected = (W.stabilizer_keys(v) & W.dual_stabilizer_keys(x)) == set(P.ids)
                assert double_twist_nonempty(ctx, P, u) == expected, name
                seen.add(expected)
    assert seen == {True, False}


def test_b4_type_b1_fixed_dim_three():
    # the coordinate reflection subgroup of rank one in the rank-4 group has
    # a three-dimensional fixed space
    W = catalog("B4")
    basis = la.rref([vec([0, 1, 0, 0]), vec([0, 0, 1, 0]), vec([0, 0, 0, 1])])
    P = W.pointwise_stabilizer(basis)
    assert P.order == 2
    assert len(P.fixed_space) == 3


def test_readme_library_example(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(snippet, {})
    printed = capsys.readouterr().out.splitlines()
    ctx = build_tau(catalog("dihedral4"), dihedral_tau(4))
    assert printed == [f"{l.dimension} {l.model_normalizer_order}"
                       for l in leaves_zero_tau(ctx)]


def test_leaf_report_schema():
    W = catalog("dihedral3")
    ctx = build_tau(W, dihedral_tau(3))
    rep = leaf_report(ctx, "dihedral3", "swap")
    assert rep["schema"] == 1
    assert rep["normalization_nontrivial"] == "unknown"
    assert rep["leaf_count"] == len(rep["leaves"])
    for leaf in rep["leaves"]:
        assert set(leaf) == {"p_class", "p_tau_class", "twist_class", "dim",
                             "cuspidal_point", "conjB_model"}
        assert leaf["conjB_model"]["parameter"] == "0"


@pytest.mark.parametrize("name", ORACLE_BATTERY)
def test_parabolic_subspaces_from_coroots_match_elements(name):
    # the oracle: V_P spanned by the columns of g - 1 over every g in P, and
    # the covectors fixed by P as the nullspace of those columns
    W = catalog(name)
    ident = la.identity(W.dim)
    for P in W.parabolic_subgroups():
        cols = tuple(c for g in P.ids
                     for c in la.transpose(la.mat_sub(W.elements[g].mat, ident)))
        coroots = tuple(W.hyperplanes[i].alpha_vee for i in sorted(P.inc))
        assert la.span(coroots) == la.span(cols)
        assert la.nullspace(coroots, W.dim) == la.nullspace(cols, W.dim)


def test_partition_check_catches_a_dropped_twist_coset():
    W = catalog("dihedral4")
    ctx = build_tau(W, dihedral_tau(4))
    P = next(P for P in W.parabolic_subgroups() if P.order == 1)
    N, (cls,) = ctx.twist_classes(P)
    assert cls.coset_indices == (0, 5, 6, 7)
    status = {r["id"]: r for r in run_suite(W, ctx)}
    assert status["leaves.partition"]["status"] == "pass"
    ctx._twists[P.inc] = (N, (TwistClass(cls.coset_indices[:-1], cls.rep),))
    status = {r["id"]: r for r in run_suite(W, ctx)}
    assert status["leaves.partition"]["status"] == "fail"
    assert "miss or add a coset" in status["leaves.partition"]["detail"]


def _split_twist_classes(monkeypatch):
    """Make twist_classes cut every class of more than one coset in two:
    the cosets after its least one, then the least one alone."""
    twist_classes = TauContext.twist_classes

    def split(self, P):
        N, classes = twist_classes(self, P)
        out = []
        for c in classes:
            rest = c.coset_indices[1:]
            if rest:
                out.append(TwistClass(rest, min(N.rep(i) for i in rest)))
            out.append(TwistClass(c.coset_indices[:1], N.rep(c.coset_indices[0])))
        return N, tuple(out)
    monkeypatch.setattr(TauContext, "twist_classes", split)


def test_leaves_zero_refuses_a_dictionary_that_is_not_a_bijection(monkeypatch, capsys):
    # the class of the trivial parabolic of dihedral4 under swap has one split
    # orbit and one twist class of four cosets; cut in two, no bijection is left
    _split_twist_classes(monkeypatch)
    code = run(["leaves-zero", "--group", "dihedral4", "--tau", "swap"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: ") and "bijection" in err[0]


def test_partition_check_names_a_broken_bijection(monkeypatch):
    W = catalog("dihedral4")
    ctx = build_tau(W, dihedral_tau(4))
    _split_twist_classes(monkeypatch)
    status = {r["id"]: r for r in run_suite(W, ctx)}
    assert status["leaves.partition"]["status"] == "fail"
    assert "bijection" in status["leaves.partition"]["detail"]


def test_leaves_do_not_lift_fixed_spaces(monkeypatch):
    # the rank check reads lattice data; lifting V^(P_tau) from V^tau's
    # coordinates to V, row by row, is verify's oracle
    ctx = build_tau(catalog("D4"), _diag_flip(4))
    calls = []
    lift = la.covec_mat
    monkeypatch.setattr(la, "covec_mat", lambda c, a: calls.append(c) or lift(c, a))
    assert ctx.is_full and leaves_zero_tau(ctx) and calls == []
    check = next(c for c in _tau_checks(ctx, False) if c.check_id == "tau.fixed-space-match")
    assert check.run()["status"] == "pass" and calls


@pytest.mark.parametrize("name", ["B3:neg", "D4:t"])
def test_rank_check_and_fixed_space_oracle_catch_a_wrong_subspace(pair_contexts, name,
                                                                 monkeypatch):
    ctx = pair_contexts[name]
    rank = SplitParabolic.tau_rank.fget
    with monkeypatch.context() as mp:
        mp.setattr(SplitParabolic, "tau_rank", property(lambda sp: rank(sp) + 1))
        with pytest.raises(TauError, match="restricted fixed spaces disagree"):
            leaves_zero_tau(ctx)
    check = next(c for c in _tau_checks(ctx, False) if c.check_id == "tau.fixed-space-match")
    assert check.run()["status"] == "pass"
    sp = next(sp for sp in ctx.split_parabolics() if sp.tau_fixed)
    monkeypatch.setattr(sp, "tau_fixed", sp.tau_fixed[1:])      # a proper subspace
    assert check.run()["status"] == "fail"
