"""Closed-form leaf tables for types B and D and their cross-checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leafatlas import linalg as la
from leafatlas.catalog import (
    CatalogError, _b_order, dihedral_equal_parameter_record, leaves_B, leaves_D,
    leaves_D_tau_t, smooth_B,
)
from leafatlas.exactnum import root_of_unity
from leafatlas.refgroup import catalog as group_catalog
from helpers import vec


# Oracles: the closed-form normalizer orders against enumeration, for small ranks.

def cross_check_normalizers_B(n: int, m: int, order_cap: int = 10 ** 6) -> dict:
    """Compare the claimed normalizer orders against enumeration (small n)."""
    if n > 5:
        raise CatalogError("cross-checks are desk-scale: rank <= 5")
    W = group_catalog(f"B{n}", order_cap)
    rows = []
    ok = True
    for rec in leaves_B(n, m):
        s = rec.support_rank
        basis = la.rref([vec([1 if c == i else 0 for c in range(n)])
                         for i in range(s, n)]) if s < n else ()
        P = W.pointwise_stabilizer(basis)
        if P.order != _b_order(s):
            raise CatalogError("coordinate parabolic has unexpected order")
        N = W.normalizer(P)
        match = N.order == rec.normalizer_order
        ok = ok and match
        rows.append({"r": rec.r, "support_rank": s,
                     "claimed_order": rec.normalizer_order,
                     "computed_order": N.order, "match": match})
    return {"schema": 1, "rule": "type-B-normalizer-crosscheck",
            "group": f"B{n}", "m": m, "rows": rows, "all_match": ok}


def cross_check_normalizer_D_tau(n: int, r: int, order_cap: int = 10 ** 6) -> dict:
    """The twisted normalizer claim: inside the rank n-1 hyperoctahedral
    group, the coordinate parabolic of rank r^2-1 has normalizer quotient of
    hyperoctahedral type on the corank."""
    if n > 5:
        raise CatalogError("cross-checks are desk-scale: rank <= 5")
    if r < 1 or r * r > n:
        raise CatalogError("inadmissible twist row")
    W = group_catalog(f"B{n - 1}", order_cap)
    s = r * r - 1
    dim = n - 1
    basis = la.rref([vec([1 if c == i else 0 for c in range(dim)])
                     for i in range(s, dim)]) if s < dim else ()
    P = W.pointwise_stabilizer(basis)
    N = W.normalizer(P)
    claimed = _b_order(n - r * r)
    return {"schema": 1, "rule": "type-D-twist-normalizer-crosscheck",
            "group": f"B{n-1}", "support_rank": s,
            "claimed_order": claimed, "computed_order": N.order,
            "match": N.order == claimed}


@pytest.mark.parametrize("n,ratio,expect", [
    (3, 1, False),
    (3, Fraction(1, 2), True),
    (2, 5, True),
    (4, -3, False),
    (4, 4, True),
])
def test_smooth_window(n, ratio, expect):
    assert smooth_B(n, ratio) is expect


def test_smooth_window_irrational_ratio():
    assert smooth_B(3, root_of_unity(3)) is True


@pytest.mark.parametrize("n,m,dims", [
    (4, 0, [8, 6, 0]),
    (2, 1, [4, 0]),
    (3, 3, [6]),
])
def test_leaves_b_dimensions(n, m, dims):
    assert [r.dimension for r in leaves_B(n, m)] == dims


def test_leaves_b_structure():
    rows = leaves_B(4, 1)
    assert [(r.r, r.support_rank) for r in rows] == [(0, 0), (1, 2)]
    assert rows[0].normalizer_order == 2 ** 4 * 24
    assert rows[1].normalizer_order == 2 ** 2 * 2
    assert rows[1].model_label == "Z(a,3a)(2)"
    assert not any(r.cuspidal for r in rows)
    assert leaves_B(4, 0)[-1].cuspidal            # rank 4 = 2*(2+0)


@pytest.mark.parametrize("n,dims", [
    (4, [8, 0]),
    (5, [10, 2]),
    (8, [16, 8]),
    (9, [18, 10, 0]),
])
def test_leaves_d_dimensions(n, dims):
    assert [r.dimension for r in leaves_D(n)] == dims


def test_leaves_d_rejects_small_rank():
    with pytest.raises(CatalogError):
        leaves_D(3)


def test_d_twist_report():
    rep = leaves_D_tau_t(4)
    assert rep["quotient"]["is"] == "Z(a,0a)(4)"
    assert [l["dim"] for l in rep["tau_leaves"]] == [6, 0]
    match = {m["d_leaf"]: m for m in rep["leaf_matching"]}
    assert match["S'_0"]["b_leaves"] == ["S_0", "S_1"]
    assert match["S'_2"]["t_action"] == "trivial"
    rep9 = leaves_D_tau_t(9)
    assert [l["dim"] for l in rep9["tau_leaves"]] == [16, 10, 0]


def test_d_twist_dims_match_quotient_labels():
    # dims through the rank n-1 hyperoctahedral labels: 2((n-1) - s)
    for n in (4, 5, 8, 9):
        rep = leaves_D_tau_t(n)
        for leaf in rep["tau_leaves"]:
            s = leaf["support_rank_in_quotient"]
            assert leaf["dim"] == 2 * ((n - 1) - s)


def test_cross_check_normalizers_b4():
    rep = cross_check_normalizers_B(4, 0)
    assert rep["all_match"]
    by_rank = {row["support_rank"]: row["computed_order"] for row in rep["rows"]}
    assert by_rank[1] == 48            # corank-3 hyperoctahedral group
    assert by_rank[0] == 384


def test_cross_check_normalizers_b2():
    rep = cross_check_normalizers_B(2, 0)
    assert rep["all_match"]
    assert rep["rows"][0]["computed_order"] == 8


def test_cross_check_d_twist_normalizer():
    rep = cross_check_normalizer_D_tau(4, 2)
    assert rep["match"] and rep["computed_order"] == 1
    rep2 = cross_check_normalizer_D_tau(4, 1)
    assert rep2["match"] and rep2["computed_order"] == 48
    rep3 = cross_check_normalizer_D_tau(5, 1)
    assert rep3["match"] and rep3["computed_order"] == 384
    rep4 = cross_check_normalizer_D_tau(5, 2)
    assert rep4["match"] and rep4["computed_order"] == 2


def test_cross_check_normalizers_b5():
    rep = cross_check_normalizers_B(5, 0)
    assert rep["all_match"]
    by_rank = {row["support_rank"]: row["computed_order"] for row in rep["rows"]}
    assert by_rank == {0: 3840, 1: 384, 4: 2}


def test_cross_check_rank_gate():
    with pytest.raises(CatalogError):
        cross_check_normalizers_B(6, 0)
    with pytest.raises(CatalogError):
        cross_check_normalizer_D_tau(6, 1)


def test_dihedral_record():
    rec = dihedral_equal_parameter_record(4)
    assert rec["group"] == "dihedral4"
    with pytest.raises(CatalogError):
        dihedral_equal_parameter_record(1)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_b_dimension_parity_and_bounds(n, m):
    rows = leaves_B(n, m)
    assert rows, "the r = 0 row always exists"
    for r in rows:
        assert r.dimension % 2 == 0
        assert 0 <= r.dimension <= 2 * n
        assert r.cuspidal == (r.dimension == 0)
    assert len({r.dimension for r in rows}) == len(rows)


@given(st.integers(min_value=4, max_value=40))
@settings(max_examples=40, deadline=None)
def test_d_dimension_parity_and_bounds(n):
    for r in leaves_D(n):
        assert r.dimension % 2 == 0
        assert 0 <= r.dimension <= 2 * n


def test_leaf_count_coarsens_stratification():
    # the general-parameter tables never have more leaves than the
    # undeformed stratification has strata
    for n in (2, 3):
        W = group_catalog(f"B{n}")
        class_count = len(W.parabolic_classes())
        for m in range(4):
            assert len(leaves_B(n, m)) <= class_count
